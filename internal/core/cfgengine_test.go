package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/smpl"
)

// Acceptance: a pattern whose anchors sit on two different if/else arms —
// unreachable for the sequence matcher — matches and transforms correctly
// through the CFG dots engine.
func TestCFGEngineCrossBranchTransform(t *testing.T) {
	patch := `@r@
expression E;
@@
- prepare(E);
+ prepare_v2(E);
... when != giveup()
- commit(E);
+ commit_v2(E);
`
	src := `void f(int x, int v){
	if (x) {
		prepare(v);
		stage(v);
	} else {
		fallback(v);
	}
	commit(v);
}
`
	res, _ := runSeq(t, patch, src)
	if res.Matched["r"] {
		t.Fatal("sequence matcher must not reach across branch arms")
	}
	res, out := run(t, patch, src, Options{})
	if !res.Matched["r"] || res.MatchCount["r"] != 1 {
		t.Fatalf("CFG engine: matched=%v count=%d want 1 match", res.Matched["r"], res.MatchCount["r"])
	}
	for _, want := range []string{"prepare_v2(v);", "commit_v2(v);", "stage(v);", "fallback(v);"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"prepare(v);", "commit(v);"} {
		if strings.Contains(out, gone) {
			t.Errorf("output still contains %q:\n%s", gone, out)
		}
	}
	// The constraint still guards the traversed path.
	poisoned := strings.Replace(src, "stage(v);", "giveup();", 1)
	res, _ = run(t, patch, poisoned, Options{})
	if res.Matched["r"] {
		t.Error("giveup() on the traversed path must veto the match")
	}
}

// Path sensitivity: a forbidden call inside only one arm of an if still
// leaves a clean path. The CFG engine matches and transforms along the
// touch()-free else arm; the sequence matcher rejects, because the skipped
// if-statement's subtree contains the forbidden call.
func TestCFGEngineMatchesAlongCleanArm(t *testing.T) {
	patch := `@r@
@@
- lock();
... when != touch()
- unlock();
+ scoped_guard();
`
	src := `void f(int x){
	lock();
	if (x) { touch(); }
	unlock();
}
`
	res, out := run(t, patch, src, Options{})
	if !res.Matched["r"] {
		t.Error("CFG dots engine should match along the touch()-free else path")
	}
	if !strings.Contains(out, "scoped_guard();") || strings.Contains(out, "unlock();") {
		t.Errorf("transform not applied along the clean path:\n%s", out)
	}
	res, _ = runSeq(t, patch, src)
	if res.Matched["r"] {
		t.Error("sequence matcher should reject: skipped if-statement contains touch()")
	}
}

// runSeq is run with every pattern forced onto the sequence matcher, the
// reference the CFG engine is compared against.
func runSeq(t *testing.T, patchText, src string) (*Result, string) {
	t.Helper()
	eng := New(mustPatch(t, patchText), Options{})
	eng.seqOnly = true
	res, err := eng.Run([]SourceFile{{Name: "t.c", Src: src}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, res.Outputs["t.c"]
}

// straightCorpus generates flat function bodies (no branches, no loops):
// the domain where the two dots engines must agree byte for byte.
func straightCorpus(seed int64, funcs int) string {
	r := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for f := 0; f < funcs; f++ {
		fmt.Fprintf(&sb, "void sl_%d(int n, double *a) {\n", f)
		for s, stmts := 0, r.Intn(7)+3; s < stmts; s++ {
			switch r.Intn(4) {
			case 0:
				fmt.Fprintf(&sb, "\tlock(a[%d]);\n", r.Intn(3))
			case 1:
				fmt.Fprintf(&sb, "\twork(n, %d);\n", r.Intn(9))
			case 2:
				fmt.Fprintf(&sb, "\ttouch();\n")
			case 3:
				fmt.Fprintf(&sb, "\tunlock(a[%d]);\n", r.Intn(3))
			}
		}
		sb.WriteString("}\n\n")
	}
	return sb.String()
}

// Parity: on straight-line code the CFG engine's transformed output is
// byte-identical to the sequence matcher's, for matching and transforming
// patterns alike.
func TestSeqCFGEngineOutputParity(t *testing.T) {
	patches := []string{
		"@r@\nexpression E;\n@@\n- lock(E);\n+ lock_v2(E);\n... when != touch()\n- unlock(E);\n+ unlock_v2(E);\n",
		"@r@\nexpression E;\n@@\nlock(E);\n...\nunlock(E);\n+ audit(E);\n",
		"@r@\nexpression E;\nexpression F;\n@@\n... when != work(E, 3)\n- unlock(F);\n+ release(F);\n",
	}
	for pi, patchText := range patches {
		for seed := int64(0); seed < 12; seed++ {
			src := straightCorpus(seed*31+int64(pi), 3)
			_, cfgOut := run(t, patchText, src, Options{})
			_, seqOut := runSeq(t, patchText, src)
			if cfgOut != seqOut {
				t.Fatalf("patch %d seed %d: outputs differ\n--- cfg ---\n%s\n--- seq ---\n%s\n--- src ---\n%s",
					pi, seed, cfgOut, seqOut, src)
			}
		}
	}
}

// The full `when` family flows end to end: quantifiers parse in a patch
// and gate the engine's matches.
func TestEngineWhenQuantifiers(t *testing.T) {
	src := `void f(int x){
	begin();
	if (x) { poison(); }
	end();
}
`
	cases := []struct {
		when string
		want bool
	}{
		{"... when != poison()", true}, // exists: else path is clean
		{"... when exists when != poison()", true},
		{"... when strict when != poison()", false}, // some path is dirty
		{"... when forall when != poison()", false},
		{"... when any", true},
	}
	for _, tc := range cases {
		patch := "@r@\n@@\nbegin();\n" + tc.when + "\nend();\n"
		res, _ := run(t, patch, src, Options{})
		if res.Matched["r"] != tc.want {
			t.Errorf("%q: matched=%v want %v", tc.when, res.Matched["r"], tc.want)
		}
	}
}

// `when strict`/`when forall` must never silently degrade to existential
// matching: patterns the CFG engine cannot take (statement-list
// metavariables, multi-statement disjunction branches) and nested
// quantified dots are run-time errors, not weaker matches.
func TestWhenQuantifierNeverSilentlyDegrades(t *testing.T) {
	runErr := func(t *testing.T, patch string) error {
		t.Helper()
		eng := New(mustPatch(t, patch), Options{})
		_, err := eng.Run([]SourceFile{{Name: "q.c", Src: "void f(int x){ lock(); if (x) return; work(); unlock(); }"}})
		return err
	}
	strictPatch := "@r@\n@@\nlock();\n... when strict\nunlock();\n"
	if err := runErr(t, strictPatch); err != nil {
		t.Errorf("top-level strict under the CFG engine must run: %v", err)
	}
	for name, patch := range map[string]string{
		"stmt-list-fallback": "@r@\nstatement list S;\n@@\nlock();\n... when strict\nS\nunlock();\n",
		"disj-fallback":      "@r@\n@@\nlock();\n... when strict\n(\nwork();\nunlock();\n|\nunlock();\n)\n",
		"nested":             "@r@\nexpression C;\n@@\nif (C) { ... when forall\nunlock(); }\n",
	} {
		err := runErr(t, patch)
		if err == nil || !strings.Contains(err.Error(), "requires the CFG dots engine") {
			t.Errorf("%s: want quantifier error, got %v", name, err)
		}
	}
}

// Adjacent `...` statements have no defined constraint semantics and are
// rejected when the pattern compiles.
func TestAdjacentDotsRejected(t *testing.T) {
	bad := []string{
		"@r@\n@@\na();\n... when exists\n... when forall\nb();\n",
		"@r@\nexpression C;\n@@\nif (C) { ...\n...\nb(); }\n",
	}
	for _, text := range bad {
		if _, err := smpl.ParsePatch("adj.cocci", text); err == nil ||
			!strings.Contains(err.Error(), "adjacent `...`") {
			t.Errorf("%q: want adjacent-dots error, got %v", text, err)
		}
	}
}

// TestCFGCacheOneBuildPerFunction pins the per-parse graph cache: two dots
// rules that match but do not edit each ask for the one function's graph,
// which is built once per function per parse rather than once per request.
func TestCFGCacheOneBuildPerFunction(t *testing.T) {
	const matches = 60
	var sb strings.Builder
	sb.WriteString("void dense(int x) {\n")
	for i := 0; i < matches; i++ {
		fmt.Fprintf(&sb, "\tlock();\n\twork(%d);\n\tunlock();\n", i)
	}
	sb.WriteString("}\n")
	tr := obs.New()
	eng := New(mustPatch(t, "@r@\n@@\nlock();\n... when != forbidden()\nunlock();\n\n"+
		"@s@\nexpression E;\n@@\nwork(E);\n...\nunlock();\n"), Options{})
	eng.SetTrace(tr.Track("engine"))
	res, err := eng.Run([]SourceFile{{Name: "d.c", Src: sb.String()}})
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []string{"r", "s"} {
		if got := res.MatchCount[rule]; got != matches {
			t.Fatalf("rule %s: matches=%d want %d", rule, got, matches)
		}
	}
	builds := 0
	for _, st := range tr.Profile().Stages {
		if st.Stage == obs.StageCFG {
			builds = st.Count
		}
	}
	if builds != 1 {
		t.Errorf("cfg spans=%d want 1 (one graph per function per parse)", builds)
	}
}
