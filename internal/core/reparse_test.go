package core

import (
	"strings"
	"testing"

	"repro/internal/cparse"
)

// runParsedCounting runs a patch over one pre-parsed file and returns the
// output and the number of whole-file parses the run itself made.
func runParsedCounting(t *testing.T, patchText, src string) (*Result, int64) {
	t.Helper()
	cf, err := cparse.Parse("t.c", src, cparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(mustPatch(t, patchText), Options{})
	before := cparse.Parses()
	res, err := eng.RunParsed([]ParsedFile{{Name: "t.c", Src: src, File: cf}})
	if err != nil {
		t.Fatalf("RunParsed: %v", err)
	}
	return res, cparse.Parses() - before
}

// TestReparseOnlyForGatedInRules pins when the engine re-parses a file an
// earlier rule edited: just before a later rule that passes the required-
// atom gate, and never for rules the gate stops.
func TestReparseOnlyForGatedInRules(t *testing.T) {
	src := "void f(void){ foo(); }\n"
	t.Run("later rules gated out", func(t *testing.T) {
		res, parses := runParsedCounting(t, `@r1@
@@
- foo();
+ bar();

@r2@
@@
- qux();

@r3@
@@
- quux();
`, src)
		if parses != 0 {
			t.Errorf("RunParsed parsed %d times, want 0: no rule after r1 can match", parses)
		}
		if got := res.Outputs["t.c"]; got != "void f(void){ bar(); }\n" {
			t.Errorf("output = %q", got)
		}
	})
	t.Run("atom inserted by an earlier rule", func(t *testing.T) {
		res, parses := runParsedCounting(t, `@r1@
@@
- foo();
+ bar();

@r2@
@@
- bar();
+ baz();
`, src)
		if parses != 1 {
			t.Errorf("RunParsed parsed %d times, want 1 (before r2)", parses)
		}
		if res.MatchCount["r2"] != 1 {
			t.Errorf("r2 matched %d times, want 1", res.MatchCount["r2"])
		}
		if got := res.Outputs["t.c"]; got != "void f(void){ baz(); }\n" {
			t.Errorf("output = %q", got)
		}
	})
}

// TestUnparseableOutputReparsedOnlyWhenMatched pins the one behaviour the
// deferred reparse changes: a rule may emit text outside the grammar (a
// final rule always could). The run fails only if a later rule passes the
// gate and so needs that text's tree.
func TestUnparseableOutputReparsedOnlyWhenMatched(t *testing.T) {
	src := "void f(void)\n{\n\tfoo();\n}\n"
	emit := "@r1@\n@@\n- foo();\n+ foo(;\n\n"
	t.Run("later rule gated out", func(t *testing.T) {
		_, out := run(t, emit+"@r2@\n@@\n- absent_call();\n", src, Options{})
		if want := "void f(void)\n{\n\tfoo(;\n}\n"; out != want {
			t.Errorf("output = %q, want %q", out, want)
		}
	})
	t.Run("later rule passes the gate", func(t *testing.T) {
		p := mustPatch(t, emit+"@r2@\n@@\n- foo(1);\n")
		_, err := New(p, Options{}).Run([]SourceFile{{Name: "t.c", Src: src}})
		if err == nil || !strings.Contains(err.Error(), "reparsing t.c after transformation") {
			t.Errorf("err = %v, want a reparse failure", err)
		}
	})
}

// TestDisjunctionReplacement is a golden test for a plus line under a
// minus disjunction: whichever branch matched, its code is replaced by the
// plus line, not merely deleted.
func TestDisjunctionReplacement(t *testing.T) {
	patch := `@r@
expression E;
@@
- \( first_variant(E) \| second_variant(E) \)
+ unified(E)
`
	cases := []struct{ src, want string }{
		{
			src:  "void f(void)\n{\n\tfirst_variant(1);\n}\n",
			want: "void f(void)\n{\n\tunified(1);\n}\n",
		},
		{
			src:  "void f(void)\n{\n\tsecond_variant(2);\n}\n",
			want: "void f(void)\n{\n\tunified(2);\n}\n",
		},
		{
			src:  "void f(void)\n{\n\tfirst_variant(1);\n\tx = second_variant(a + b);\n}\n",
			want: "void f(void)\n{\n\tunified(1);\n\tx = unified(a + b);\n}\n",
		},
	}
	for _, tc := range cases {
		if _, out := run(t, patch, tc.src, Options{}); out != tc.want {
			t.Errorf("input:\n%s\ngot:\n%s\nwant:\n%s", tc.src, out, tc.want)
		}
	}
}
