package infer

import (
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/smpl"
)

func mustInfer(t *testing.T, pairs []Pair) *Result {
	t.Helper()
	res, err := Infer(pairs, Options{})
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	return res
}

// apply runs the inferred patch over one source through the same campaign
// API the oracle uses.
func apply(t *testing.T, res *Result, src string) string {
	t.Helper()
	var out string
	camp := batch.NewCampaign([]*smpl.Patch{res.Patch}, batch.Options{})
	camp.Run([]core.SourceFile{{Name: "x.c", Src: src}}, func(fr batch.CampaignFileResult) bool {
		if fr.Err != nil {
			t.Fatalf("apply: %v", fr.Err)
		}
		out = fr.Output
		return true
	})
	return out
}

func TestInferSimpleCallRewrite(t *testing.T) {
	before := `int f(int n) {
    int r = old_api(n);
    return r;
}
`
	after := `int f(int n) {
    int r = new_api(n, 0);
    return r;
}
`
	res := mustInfer(t, []Pair{{Name: "p1", Before: before, After: after}})
	t.Logf("inferred (%s):\n%s", res.Variant, res.Cocci)
	if res.Variant != "abstracted" {
		t.Errorf("expected the most abstract variant to survive, got %s", res.Variant)
	}
	if len(res.Metas) == 0 {
		t.Error("expected at least one metavariable in the abstracted patch")
	}
	// The abstracted patch generalizes: a different function with different
	// names gets the same rewrite.
	other := `static long g(long count) {
    long v = old_api(count);
    return v;
}
`
	got := apply(t, res, other)
	want := `static long g(long count) {
    long v = new_api(count, 0);
    return v;
}
`
	if got != want {
		t.Errorf("inferred patch does not generalize:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestInferStatementInsertionAndDeletion(t *testing.T) {
	before := `void h(char *p) {
    setup(p);
    stage_one(p);
    stage_two(p);
    old_log(p);
    teardown(p);
}
`
	after := `void h(char *p) {
    setup(p);
    check(p);
    stage_one(p);
    stage_two(p);
    teardown(p);
}
`
	res := mustInfer(t, []Pair{{Name: "p1", Before: before, After: after}})
	t.Logf("inferred (%s):\n%s", res.Variant, res.Cocci)
	if !strings.Contains(res.Cocci, "+") || !strings.Contains(res.Cocci, "-") {
		t.Fatalf("expected both an insertion and a deletion:\n%s", res.Cocci)
	}
}

func TestInferDotsCollapse(t *testing.T) {
	// Edits at both ends, so the unchanged interior run is genuinely
	// interior and must collapse to `...`.
	before := `void f(int *a) {
    old_open(a);
    s1(a);
    s2(a);
    s3(a);
    s4(a);
    s5(a);
    old_close(a);
}
`
	after := `void f(int *a) {
    new_open(a);
    s1(a);
    s2(a);
    s3(a);
    s4(a);
    s5(a);
    new_close(a);
}
`
	res := mustInfer(t, []Pair{{Name: "p1", Before: before, After: after}})
	t.Logf("inferred (%s):\n%s", res.Variant, res.Cocci)
	if res.Variant == "abstracted" && !strings.Contains(res.Cocci, "...") {
		t.Errorf("expected the unchanged interior to collapse to dots:\n%s", res.Cocci)
	}
}

func TestInferMultiPairPromotesConstant(t *testing.T) {
	mk := func(fn, arg string) (string, string) {
		before := "int " + fn + "(int x) {\n    return old_call(x, " + arg + ");\n}\n"
		after := "int " + fn + "(int x) {\n    return new_call(x);\n}\n"
		return before, after
	}
	b1, a1 := mk("f", "4")
	b2, a2 := mk("g", "8")
	res := mustInfer(t, []Pair{
		{Name: "p1", Before: b1, After: a1},
		{Name: "p2", Before: b2, After: a2},
	})
	t.Logf("inferred (%s):\n%s", res.Variant, res.Cocci)
	// The differing constants 4 and 8 must have been promoted to a shared
	// metavariable; neither literal may survive in the patch body.
	if strings.Contains(res.Cocci, "4") || strings.Contains(res.Cocci, "8") {
		t.Errorf("constants should have been promoted to a metavariable:\n%s", res.Cocci)
	}
	foundConst := false
	for _, kind := range res.Metas {
		if kind == "constant" {
			foundConst = true
		}
	}
	if !foundConst {
		t.Errorf("expected a constant metavariable, got %v", res.Metas)
	}
}

func TestInferRenamedCopyCoverage(t *testing.T) {
	body := `{
    int v = compute(n);
    old_use(v);
    return v;
}`
	before1 := "int f(int n) " + body + "\n"
	after1 := strings.Replace(before1, "old_use", "new_use", 1)
	before2 := "int g_renamed(int n) " + body + "\n"
	after2 := strings.Replace(before2, "old_use", "new_use", 1)
	res := mustInfer(t, []Pair{
		{Name: "p1", Before: before1, After: after1},
		{Name: "p2", Before: before2, After: after2},
	})
	if len(res.Examples) != 2 {
		t.Errorf("expected two examples, got %v", res.Examples)
	}
}

func TestInferIrreconcilablePair(t *testing.T) {
	// The two examples insert *different* code — no single patch can
	// reproduce both, and the diagnostic must name the offending pair.
	b1 := "void f(int x) {\n    old(x);\n}\n"
	a1 := "void f(int x) {\n    alpha(x);\n    beta(x);\n}\n"
	b2 := "void g(int y) {\n    old(y);\n}\n"
	a2 := "void g(int y) {\n    gamma_only(y);\n}\n"
	_, err := Infer([]Pair{
		{Name: "pairA", Before: b1, After: a1},
		{Name: "pairB", Before: b2, After: a2},
	}, Options{})
	if err == nil {
		t.Fatal("expected an inference failure for irreconcilable pairs")
	}
	perr, ok := err.(*PairError)
	if !ok {
		t.Fatalf("error is %T, want *PairError: %v", err, err)
	}
	if !strings.Contains(perr.Pair+perr.Other, "pairA") || !strings.Contains(perr.Pair+perr.Other, "pairB") {
		t.Errorf("diagnostic does not name both pairs: %+v", perr)
	}
	t.Logf("structured diagnostic: %v", perr)
}

func TestInferMultiFunctionPair(t *testing.T) {
	before := `static void first(int a) {
    old_api(a);
}

static void second(int b) {
    old_api(b);
}
`
	after := strings.ReplaceAll(before, "old_api", "new_api")
	res := mustInfer(t, []Pair{{Name: "p1", Before: before, After: after}})
	if len(res.Examples) != 2 {
		t.Errorf("expected one example per changed function, got %v", res.Examples)
	}
}

func TestInferNoChanges(t *testing.T) {
	src := "int f(void) {\n    return 1;\n}\n"
	_, err := Infer([]Pair{{Name: "p1", Before: src, After: src}}, Options{})
	perr, ok := err.(*PairError)
	if !ok || perr.Stage != "align" {
		t.Fatalf("expected an align-stage PairError, got %v", err)
	}
}

func TestInferParseFailure(t *testing.T) {
	_, err := Infer([]Pair{{Name: "bad", Before: "int f( {", After: "int f() {}"}}, Options{})
	perr, ok := err.(*PairError)
	if !ok || perr.Stage != "parse" || perr.Pair != "bad" {
		t.Fatalf("expected a parse-stage PairError naming the pair, got %v", err)
	}
}

func TestPairErrorMessage(t *testing.T) {
	e := &PairError{Pair: "a.c", Other: "b.c", Stage: "generalize",
		Subtree: "x +  1", Detail: "kinds differ"}
	msg := e.Error()
	for _, want := range []string{"a.c", "b.c", "generalize", "x + 1", "kinds differ"} {
		if !strings.Contains(msg, want) {
			t.Errorf("PairError message %q missing %q", msg, want)
		}
	}
}
