package ctoken

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/codegen"
)

func lexOK(t *testing.T, src string, opts Options) *File {
	t.Helper()
	f, err := Lex("test.c", src, opts)
	if err != nil {
		t.Fatalf("Lex(%q): %v", src, err)
	}
	return f
}

func kinds(f *File) []Kind {
	var ks []Kind
	for _, t := range f.Tokens {
		ks = append(ks, t.Kind)
	}
	return ks
}

func texts(f *File) []string {
	var ts []string
	for i, t := range f.Tokens {
		if t.Kind != EOF {
			ts = append(ts, f.Text(i))
		}
	}
	return ts
}

func TestLexBasics(t *testing.T) {
	f := lexOK(t, "int main(void) { return 0; }", Options{})
	want := []string{"int", "main", "(", "void", ")", "{", "return", "0", ";", "}"}
	got := texts(f)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestLexRenderRoundtrip(t *testing.T) {
	srcs := []string{
		"int main(void) { return 0; }",
		"/* header */\nint  x = 042;   // trailing\n\nfloat y = 1.5e-3f;\n",
		"#include <omp.h>\n#pragma omp parallel for\nfor(int i=0;i<n;++i) a[i]=b[i];\n",
		"char *s = \"hi\\\"there\";\nchar c = '\\n';\n",
		"#define M(a,b) \\\n  ((a)+(b))\nint z = M(1,2);\n",
		"x <<= 2; y >>= 3; p->q.r++; a ? b : c;\n",
		"double d = 0x1.8p3;\n",
	}
	for _, src := range srcs {
		f := lexOK(t, src, Options{})
		if got := f.Render(); got != src {
			t.Errorf("roundtrip failed:\n in: %q\nout: %q", src, got)
		}
	}
}

func TestLexCUDAChevrons(t *testing.T) {
	f := lexOK(t, "k<<<b,t>>>(x);", Options{CUDAChevrons: true})
	got := texts(f)
	want := []string{"k", "<<<", "b", ",", "t", ">>>", "(", "x", ")", ";"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v want %v", got, want)
	}
	// Without chevrons the same text lexes as shifts.
	f = lexOK(t, "a<<<b", Options{})
	got = texts(f)
	want = []string{"a", "<<", "<", "b"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestLexPPDirectives(t *testing.T) {
	src := "#include <stdio.h>\nint x;\n#pragma omp parallel \\\n  for\ny();\n"
	f := lexOK(t, src, Options{})
	var pps []string
	for i, tok := range f.Tokens {
		if tok.Kind == PP {
			pps = append(pps, f.Text(i))
		}
	}
	if len(pps) != 2 {
		t.Fatalf("want 2 PP tokens, got %d: %v", len(pps), pps)
	}
	if pps[0] != "#include <stdio.h>" {
		t.Errorf("include text = %q", pps[0])
	}
	if !strings.Contains(pps[1], "for") || !strings.HasPrefix(pps[1], "#pragma omp") {
		t.Errorf("pragma continuation not merged: %q", pps[1])
	}
	if f.Render() != src {
		t.Errorf("roundtrip failed")
	}
}

func TestLexHashNotAtLineStart(t *testing.T) {
	// '#' mid-line is an error in C, but in SmPL mode ## is concatenation.
	f := lexOK(t, `fresh identifier g = "p_" ## f;`, Options{SmPL: true})
	found := false
	for i := range f.Tokens {
		if f.Is(i, "##") {
			found = true
		}
	}
	if !found {
		t.Errorf("## not lexed in SmPL mode: %v", texts(f))
	}
}

func TestLexSmPLTokens(t *testing.T) {
	f := lexOK(t, `\( A \& i+0 \) \| B @p`, Options{SmPL: true})
	got := texts(f)
	want := []string{`\(`, "A", `\&`, "i", "+", "0", `\)`, `\|`, "B", "@", "p"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
	}{
		{"42", IntLit}, {"0x1f", IntLit}, {"042", IntLit}, {"42u", IntLit},
		{"42ULL", IntLit}, {"1.5", FloatLit}, {"1.5f", FloatLit},
		{"1e10", FloatLit}, {"1.5e-3", FloatLit}, {".5", FloatLit},
		{"0x1.8p3", FloatLit},
	}
	for _, c := range cases {
		f := lexOK(t, c.src, Options{})
		if f.Tokens[0].Kind != c.kind || f.Text(0) != c.src {
			t.Errorf("%q: got kind=%v text=%q, want kind=%v", c.src, f.Tokens[0].Kind, f.Text(0), c.kind)
		}
	}
}

func TestLexStrings(t *testing.T) {
	cases := []string{`"abc"`, `"a\"b"`, `'x'`, `'\0'`, `L"wide"`, `u8"utf"`, `R"(raw " string)"`}
	for _, c := range cases {
		f := lexOK(t, c, Options{})
		if f.Text(0) != c {
			t.Errorf("%q lexed as %q", c, f.Text(0))
		}
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{`"unterminated`, `'u`, "/* open", "`"}
	for _, c := range cases {
		if _, err := Lex("t.c", c, Options{}); err == nil {
			t.Errorf("Lex(%q): expected error", c)
		}
	}
}

func TestLexPositions(t *testing.T) {
	f := lexOK(t, "int x;\n  y = 2;", Options{})
	// token "y" should be at line 2, col 3
	for i, tok := range f.Tokens {
		if f.IsIdent(i, "y") {
			if tok.Pos.Line != 2 || tok.Pos.Col != 3 {
				t.Errorf("y at %v, want 2:3", tok.Pos)
			}
			return
		}
	}
	t.Fatal("y not found")
}

func TestSlice(t *testing.T) {
	f := lexOK(t, "a + b * c", Options{})
	if got := f.Slice(0, 4); got != "a + b * c" {
		t.Errorf("Slice = %q", got)
	}
	if got := f.Slice(2, 4); got != "b * c" {
		t.Errorf("Slice = %q", got)
	}
	if got := f.Slice(3, 2); got != "" {
		t.Errorf("inverted Slice = %q, want empty", got)
	}
}

// Property: rendering the token stream of any lexable identifier/whitespace
// soup reproduces the input.
func TestQuickRoundtrip(t *testing.T) {
	alphabet := []string{"x", "foo", "42", "1.5", "+", "-", "*", "(", ")", "{", "}",
		";", ",", " ", "\n", "\t", "==", "<=", "->", `"s"`, "'c'", "/*c*/ ", "// l\n"}
	gen := func(pick []int) string {
		var sb strings.Builder
		for _, p := range pick {
			if p < 0 {
				p = -p
			}
			sb.WriteString(alphabet[p%len(alphabet)])
			sb.WriteString(" ")
		}
		return sb.String()
	}
	prop := func(pick []int) bool {
		src := gen(pick)
		f, err := Lex("q.c", src, Options{})
		if err != nil {
			return false
		}
		return f.Render() == src
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: lexing is insensitive to trailing whitespace in token count.
func TestQuickTrailingWS(t *testing.T) {
	prop := func(n uint8) bool {
		src := "int x = 1;" + strings.Repeat(" ", int(n%40))
		f, err := Lex("q.c", src, Options{})
		if err != nil {
			return false
		}
		return len(f.Tokens) == 6 && f.Render() == src
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// A CRLF file's directive lines keep their carriage returns: the directive
// text stops before the '\r', which leads the next token's whitespace.
func TestLexCRLFDirectivesRoundtrip(t *testing.T) {
	src := "#include <a.h>\r\n#define N 4\r\n#pragma omp parallel \\\r\n  for\r\nint f(void)\r\n{\r\n\treturn foo(N);\r\n}\r\n"
	f := lexOK(t, src, Options{})
	if got := f.Render(); got != src {
		t.Errorf("CRLF roundtrip failed:\n in: %q\nout: %q", src, got)
	}
	if f.Text(0) != "#include <a.h>" {
		t.Errorf("directive text = %q, want no carriage return", f.Text(0))
	}
	if ws := f.WS(1); ws != "\r\n" {
		t.Errorf("whitespace after the directive = %q, want %q", ws, "\r\n")
	}
}

// Tokens lie in the source in order without overlapping, Text(i) is the
// source at a token's offset, and WS(i) is the source between consecutive
// tokens.
func TestWSDerivedFromOffsets(t *testing.T) {
	src := "/* c */ int  x = 1; // tail\n#define A \\\n 2\n\ty++;  \n"
	f := lexOK(t, src, Options{})
	end := 0
	for i, tok := range f.Tokens {
		off := int(tok.Pos.Offset)
		if off < end || tok.End() > len(src) || tok.Len < 0 {
			t.Fatalf("token %d spans [%d, %d), after the previous end %d or past the source", i, off, tok.End(), end)
		}
		if got := f.Text(i); got != src[off:tok.End()] {
			t.Errorf("Text(%d) = %q, want %q", i, got, src[off:tok.End()])
		}
		if got := f.WS(i); got != src[end:off] {
			t.Errorf("WS(%d) = %q, want %q", i, got, src[end:off])
		}
		end = tok.End()
	}
	if last := f.Tokens[len(f.Tokens)-1]; last.Kind != EOF || int(last.Pos.Offset) != len(src) {
		t.Errorf("stream ends with %v at %d, want EOF at %d", last.Kind, last.Pos.Offset, len(src))
	}
}

func TestTokenSize(t *testing.T) {
	if got := unsafe.Sizeof(Token{}); got != 20 {
		t.Errorf("unsafe.Sizeof(Token{}) = %d, want 20", got)
	}
}

// A token slice must hold no pointers, so the garbage collector never scans
// it and building it needs no write barriers. The text is read through the
// File instead.
func TestTokenHasNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Pointer, reflect.UnsafePointer, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Token", reflect.TypeOf(Token{}))
}

// Is and IsIdent compare the kind and the source text of a token.
func TestFileIsAndIsIdent(t *testing.T) {
	f := lexOK(t, "x <<= xy;", Options{})
	checks := []struct {
		i     int
		punct string
		ident string
		want  bool
	}{
		{0, "", "x", true}, {0, "", "xy", false}, {0, "x", "", false},
		{1, "<<=", "", true}, {1, "<<", "", false}, {1, "", "<<=", false},
		{2, "", "xy", true}, {2, "", "x", false}, {3, ";", "", true},
	}
	for _, c := range checks {
		var got bool
		if c.punct != "" {
			got = f.Is(c.i, c.punct)
		} else {
			got = f.IsIdent(c.i, c.ident)
		}
		if got != c.want {
			t.Errorf("token %d (%q) Is(%q)/IsIdent(%q) = %v, want %v", c.i, f.Text(c.i), c.punct, c.ident, got, c.want)
		}
	}
}

// Offsets are int32, so Lex refuses a source too long for them instead of
// letting them wrap. The limit is lowered here; the real one is 2 GiB.
func TestLexRejectsOversizedSource(t *testing.T) {
	defer func(n int) { maxSrcLen = n }(maxSrcLen)
	maxSrcLen = 16
	if _, err := Lex("ok.c", strings.Repeat("x", 16), Options{}); err != nil {
		t.Fatalf("source at the limit: %v", err)
	}
	_, err := Lex("big.c", strings.Repeat("x", 17), Options{})
	var le *LexError
	if !errors.As(err, &le) || le.File != "big.c" {
		t.Fatalf("source over the limit: err = %v, want a *LexError for big.c", err)
	}
}

// Lex sizes its token slice once for the densest generated C, so it
// allocates only the File and the slice, and round-trips every shape.
func TestLexAllocsGeneratedShapes(t *testing.T) {
	for _, shape := range []string{"openmp", "cuda", "aos", "mixed"} {
		src := codegen.Shapes[shape](codegen.Config{Funcs: 64, StmtsPerFunc: 4, Seed: 4})
		opts := Options{CUDAChevrons: true}
		f := lexOK(t, src, opts)
		if f.Render() != src {
			t.Errorf("%s: roundtrip failed", shape)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Lex("p.c", src, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("%s (%.2f bytes/token): Lex made %v allocations, want 2",
				shape, float64(len(src))/float64(len(f.Tokens)), allocs)
		}
	}
}

// The punctuation matcher compares at most three bytes of a candidate.
func TestPunctuatorsAtMostThreeBytes(t *testing.T) {
	for _, p := range puncts {
		if len(p) == 0 || len(p) > 3 {
			t.Errorf("punctuator %q is %d bytes; the lexer matches 1 to 3", p, len(p))
		}
	}
}
