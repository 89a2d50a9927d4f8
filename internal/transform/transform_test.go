package transform

import (
	"strings"
	"testing"

	"repro/internal/ctoken"
)

func lexed(t *testing.T, src string) *ctoken.File {
	t.Helper()
	f, err := ctoken.Lex("t.c", src, ctoken.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNoEditsIsIdentity(t *testing.T) {
	src := "int main(void) {\n  return 0; /* c */\n}\n"
	e := NewEditSet(lexed(t, src))
	if got := e.Apply(); got != src {
		t.Errorf("identity failed:\n%q\n%q", src, got)
	}
	if !e.Empty() {
		t.Error("Empty() should be true")
	}
}

func findTok(f *ctoken.File, text string) int {
	for i := range f.Tokens {
		if f.Text(i) == text {
			return i
		}
	}
	return -1
}

func TestDeleteWholeLine(t *testing.T) {
	src := "a();\nb();\nc();\n"
	f := lexed(t, src)
	e := NewEditSet(f)
	// delete "b" "(" ")" ";"
	i := findTok(f, "b")
	e.DeleteRange(i, i+3)
	got := e.Apply()
	if got != "a();\nc();\n" {
		t.Errorf("got %q", got)
	}
}

func TestDeleteInline(t *testing.T) {
	src := "for (i = 0; i+k-1 < n; i+=k) ;\n"
	f := lexed(t, src)
	e := NewEditSet(f)
	// delete "+k-1": tokens +,k,-,1 after the second i
	idx := -1
	for i := range f.Tokens {
		if f.Text(i) == "+" && f.Text(i+1) == "k" {
			idx = i
			break
		}
	}
	e.DeleteRange(idx, idx+3)
	got := e.Apply()
	if !strings.Contains(got, "i < n") {
		t.Errorf("got %q", got)
	}
	if strings.Contains(got, "k-1") {
		t.Errorf("deletion incomplete: %q", got)
	}
}

func TestInlineReplacement(t *testing.T) {
	src := "for (;; i+=k) ;\n"
	f := lexed(t, src)
	e := NewEditSet(f)
	i := findTok(f, "i")
	e.DeleteRange(i, i+2) // i += k
	e.Insert(i, Inline, "++i")
	got := e.Apply()
	if !strings.Contains(got, "for (;; ++i) ;") {
		t.Errorf("got %q", got)
	}
}

func TestInsertAfterOwnLine(t *testing.T) {
	src := "  {\n  work();\n  }\n"
	f := lexed(t, src)
	e := NewEditSet(f)
	e.Insert(findTok(f, "{"), AfterOwnLine, "START(__func__);")
	got := e.Apply()
	want := "  {\n  START(__func__);\n  work();\n  }\n"
	if got != want {
		t.Errorf("got:\n%q\nwant:\n%q", got, want)
	}
}

func TestInsertBeforeOwnLine(t *testing.T) {
	src := "int f(void) { return 1; }\n"
	f := lexed(t, src)
	e := NewEditSet(f)
	e.Insert(findTok(f, "int"), BeforeOwnLine, "#pragma GCC push_options")
	got := e.Apply()
	want := "#pragma GCC push_options\nint f(void) { return 1; }\n"
	if got != want {
		t.Errorf("got:\n%q\nwant:\n%q", got, want)
	}
}

func TestInsertBeforeKeepsIndent(t *testing.T) {
	src := "void g(void) {\n    call(1);\n}\n"
	f := lexed(t, src)
	e := NewEditSet(f)
	e.Insert(findTok(f, "call"), BeforeOwnLine, "prep();")
	got := e.Apply()
	want := "void g(void) {\n    prep();\n    call(1);\n}\n"
	if got != want {
		t.Errorf("got:\n%q\nwant:\n%q", got, want)
	}
}

func TestMultiLineInsertion(t *testing.T) {
	src := "int base(int x) { return x; }\n"
	f := lexed(t, src)
	e := NewEditSet(f)
	e.Insert(0, BeforeOwnLine, "int clone_a(int x) { return x; }\nint clone_b(int x) { return x; }")
	got := e.Apply()
	if !strings.HasPrefix(got, "int clone_a(int x) { return x; }\nint clone_b(int x) { return x; }\nint base") {
		t.Errorf("got:\n%q", got)
	}
}

func TestInlineAfter(t *testing.T) {
	src := "f(a);\n"
	f := lexed(t, src)
	e := NewEditSet(f)
	e.Insert(findTok(f, "a"), InlineAfter, ", b")
	got := e.Apply()
	if got != "f(a, b);\n" {
		t.Errorf("got %q", got)
	}
}

func TestMultipleInsertionsSameAnchorKeepOrder(t *testing.T) {
	src := "x;\n"
	f := lexed(t, src)
	e := NewEditSet(f)
	e.Insert(0, BeforeOwnLine, "first;")
	e.Insert(0, BeforeOwnLine, "second;")
	got := e.Apply()
	if !strings.HasPrefix(got, "first;\nsecond;\nx;") {
		t.Errorf("got %q", got)
	}
}

func TestOverlaps(t *testing.T) {
	f := lexed(t, "a b c d e")
	e := NewEditSet(f)
	e.DeleteRange(1, 2)
	if !e.Overlaps(2, 3) {
		t.Error("overlap not detected")
	}
	if e.Overlaps(3, 4) {
		t.Error("false overlap")
	}
}

func TestDeleteFunctionSpanningLines(t *testing.T) {
	src := "void keep(void) {}\nvoid drop(void)\n{\n  x = 1;\n}\nint tail;\n"
	f := lexed(t, src)
	e := NewEditSet(f)
	first := -1
	last := -1
	for i := range f.Tokens {
		if f.Text(i) == "drop" {
			first = i - 1 // the 'void' before drop
		}
		if first >= 0 && f.Text(i) == "}" && i > first+3 {
			last = i
			break
		}
	}
	e.DeleteRange(first, last)
	got := e.Apply()
	want := "void keep(void) {}\nint tail;\n"
	if got != want {
		t.Errorf("got:\n%q\nwant:\n%q", got, want)
	}
}
