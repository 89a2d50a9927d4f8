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
	res, out := run(t, patch, src, Options{SeqDots: true})
	if res.Matched["r"] {
		t.Fatal("sequence matcher must not reach across branch arms")
	}
	res, out = run(t, patch, src, Options{})
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
			_, seqOut := run(t, patchText, src, Options{SeqDots: true})
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
// metavariables, --seq-dots) and nested quantified dots are run-time
// errors, not weaker matches.
func TestWhenQuantifierNeverSilentlyDegrades(t *testing.T) {
	parse := func(t *testing.T, text string) *smpl.Patch {
		t.Helper()
		p, err := smpl.ParsePatch("q.cocci", text)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	runErr := func(t *testing.T, patch string, opts Options) error {
		t.Helper()
		eng := New(parse(t, patch), opts)
		_, err := eng.Run([]SourceFile{{Name: "q.c", Src: "void f(int x){ lock(); if (x) return; work(); unlock(); }"}})
		return err
	}
	strictPatch := "@r@\n@@\nlock();\n... when strict\nunlock();\n"
	fallbackPatch := "@r@\nstatement list S;\n@@\nlock();\n... when strict\nS\nunlock();\n"
	nestedPatch := "@r@\nexpression C;\n@@\nif (C) { ... when forall\nunlock(); }\n"
	if err := runErr(t, strictPatch, Options{}); err != nil {
		t.Errorf("top-level strict under the CFG engine must run: %v", err)
	}
	for name, tc := range map[string]struct {
		patch string
		opts  Options
	}{
		"seq-dots":           {strictPatch, Options{SeqDots: true}},
		"stmt-list-fallback": {fallbackPatch, Options{}},
		"nested":             {nestedPatch, Options{}},
	} {
		err := runErr(t, tc.patch, tc.opts)
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

// TestCFGCacheOneBuildPerFunction pins the per-parse graph cache: on one
// match-dense function, the sequence matcher plus CTL verification
// (--seq-dots --use-ctl) verifies every match against a single graph,
// built once per function per parse rather than once per match.
func TestCFGCacheOneBuildPerFunction(t *testing.T) {
	const matches = 60
	var sb strings.Builder
	sb.WriteString("void dense(int x) {\n")
	for i := 0; i < matches; i++ {
		fmt.Fprintf(&sb, "\tlock();\n\twork(%d);\n\tunlock();\n", i)
	}
	sb.WriteString("}\n")
	tr := obs.New()
	eng := New(mustPatch(t, "@r@\n@@\nlock();\n... when != forbidden()\nunlock();\n"), Options{SeqDots: true, UseCTL: true})
	eng.SetTrace(tr.Track("engine"))
	res, err := eng.Run([]SourceFile{{Name: "d.c", Src: sb.String()}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MatchCount["r"]; got != matches {
		t.Fatalf("matches=%d want %d", got, matches)
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
