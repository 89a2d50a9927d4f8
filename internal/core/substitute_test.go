package core

import (
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/match"
)

func TestSubstituteSinglePass(t *testing.T) {
	// el's value contains "x" and "y", which are themselves metavariables;
	// a naive sequential substitution would rewrite them again.
	env := match.Env{
		"el": match.NewValueBinding(cast.MetaExprListKind, "n, a, x, y"),
		"x":  match.NewValueBinding(cast.MetaExprKind, "0"),
		"y":  match.NewValueBinding(cast.MetaExprKind, "stream"),
		"k":  match.NewValueBinding(cast.MetaIdentKind, "saxpy"),
	}
	got := substitute("hipLaunchKernelGGL(k,x,y,el)", env)
	want := "hipLaunchKernelGGL(saxpy,0,stream,n, a, x, y)"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestSubstituteWordBoundaries(t *testing.T) {
	env := match.Env{
		"f": match.NewValueBinding(cast.MetaIdentKind, "kernel"),
	}
	// f inside identifiers (v512_f, f_prime, leaf) must not be replaced
	got := substitute("f(v512_f, f_prime, leaf, f)", env)
	want := "kernel(v512_f, f_prime, leaf, kernel)"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestSubstituteLongestFirst(t *testing.T) {
	env := match.Env{
		"f":    match.NewValueBinding(cast.MetaIdentKind, "short"),
		"f512": match.NewValueBinding(cast.MetaFreshIdentKind, "long_one"),
	}
	got := substitute("f512 f", env)
	if got != "long_one short" {
		t.Errorf("got %q", got)
	}
}

func TestSubstituteQualifiedNamesExcluded(t *testing.T) {
	env := match.Env{
		"r.x": match.NewValueBinding(cast.MetaExprKind, "QUAL"),
		"x":   match.NewValueBinding(cast.MetaExprKind, "LOCAL"),
	}
	got := substitute("x", env)
	if got != "LOCAL" {
		t.Errorf("got %q", got)
	}
}

func TestSubstituteEmptyEnv(t *testing.T) {
	if got := substitute("unchanged text", match.Env{}); got != "unchanged text" {
		t.Errorf("got %q", got)
	}
}

func TestSubstituteMultilineValue(t *testing.T) {
	env := match.Env{
		"SL": match.NewValueBinding(cast.MetaStmtListKind, "a();\n\tb();"),
	}
	got := substitute("T f (PL) { SL }", env)
	if !strings.Contains(got, "a();\n\tb();") {
		t.Errorf("got %q", got)
	}
}

// The "replayable refactorings" workflow from the paper's Discussion: the
// patch is the version-controlled artifact, re-applied as the base code
// evolves. Simulate evolution and replay.
func TestReplayableRefactoring(t *testing.T) {
	patch := `@mark@
@@
#pragma omp ...
{
+ PROFILE_SCOPE(__func__);
...
}
`
	v1 := "void f(int n){\n#pragma omp parallel\n{\nwork(n);\n}\n}\n"
	// evolution: a new function and a renamed call
	v2 := "void f(int n){\n#pragma omp parallel\n{\nwork_v2(n);\n}\n}\nvoid g(void){\n#pragma omp parallel\n{\nmore();\n}\n}\n"

	p := mustPatch(t, patch)
	r1, err := New(p, Options{}).Run([]SourceFile{{Name: "a.c", Src: v1}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(r1.Outputs["a.c"], "PROFILE_SCOPE") != 1 {
		t.Fatalf("v1:\n%s", r1.Outputs["a.c"])
	}
	r2, err := New(p, Options{}).Run([]SourceFile{{Name: "a.c", Src: v2}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(r2.Outputs["a.c"], "PROFILE_SCOPE") != 2 {
		t.Fatalf("replay on evolved code:\n%s", r2.Outputs["a.c"])
	}
}

// Text that names no bound metavariable comes back as is: substitute runs
// once per plus line per match, so the common case must not allocate.
func TestSubstituteNoReferenceAllocatesNothing(t *testing.T) {
	env := match.Env{
		"E":   match.NewValueBinding(cast.MetaExprKind, "x"),
		"r.E": match.NewValueBinding(cast.MetaExprKind, "y"),
	}
	text := "prepare_v2(E_old, r.x, 42);"
	if got := substitute(text, env); got != text {
		t.Fatalf("got %q want the text unchanged", got)
	}
	if n := testing.AllocsPerRun(100, func() { substitute(text, env) }); n != 0 {
		t.Errorf("substitute allocates %.0f times on text with no reference; want 0", n)
	}
}

// An empty expression list drops one adjacent comma, before or after it.
func TestSubstituteEmptyListTakesComma(t *testing.T) {
	env := match.Env{
		"el": match.NewValueBinding(cast.MetaExprListKind, ""),
		"k":  match.NewValueBinding(cast.MetaIdentKind, "saxpy"),
	}
	for text, want := range map[string]string{
		"hipLaunchKernelGGL(k, b, t, 0, 0, el)": "hipLaunchKernelGGL(saxpy, b, t, 0, 0)",
		"f(el, k)":                              "f(saxpy)",
		"f(el)":                                 "f()",
	} {
		if got := substitute(text, env); got != want {
			t.Errorf("substitute(%q) = %q, want %q", text, got, want)
		}
	}
}
