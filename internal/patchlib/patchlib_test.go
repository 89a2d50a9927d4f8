package patchlib

import (
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/diff"
	"repro/internal/smpl"
)

// TestAllExperiments runs every paper use case end to end and applies its
// shape check. This is the core fidelity suite of the reproduction.
func TestAllExperiments(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, out, err := e.Run()
			if err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Title, err)
			}
			if len(res.Matched) == 0 {
				t.Fatalf("%s: no rule matched\noutput:\n%s", e.ID, out)
			}
		})
	}
}

// The experiments' patches must parse as standalone .cocci files through
// the public entry point (no hidden coupling to engine setup).
func TestAllPatchesParseStandalone(t *testing.T) {
	for _, e := range Experiments() {
		if _, err := smpl.ParsePatch(e.ID+".cocci", e.Patch); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("L7")
	if !ok || e.ID != "L7" {
		t.Fatalf("ByID(L7) = %+v, %v", e, ok)
	}
	if _, ok := ByID("L99"); ok {
		t.Error("ByID(L99) should fail")
	}
}

func TestExperimentsCoverPaperSections(t *testing.T) {
	// Every Section-3 use case of the paper has an experiment, in order.
	wantIDs := []string{"L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "L11", "L12", "L13", "L14", "S6"}
	got := Experiments()
	if len(got) != len(wantIDs) {
		t.Fatalf("experiments=%d want %d", len(got), len(wantIDs))
	}
	for i, e := range got {
		if e.ID != wantIDs[i] {
			t.Errorf("experiment %d: id=%s want %s", i, e.ID, wantIDs[i])
		}
		if e.Title == "" || e.Patch == "" || e.Input == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestExperimentsAreIdempotentOnUnmatchedInput(t *testing.T) {
	// Applying a patch to code that contains none of its shapes must not
	// change anything.
	neutral := "int plain_add(int a, int b) { return a + b; }\n"
	for _, e := range Experiments() {
		if e.ID == "L8" {
			// cfe matches any call; plain_add has none, still fine
			continue
		}
		res, out, err := e.RunOn(neutral)
		if err != nil {
			t.Errorf("%s on neutral input: %v", e.ID, err)
			continue
		}
		if out != neutral {
			t.Errorf("%s changed neutral input:\n%s\ndiff:\n%s", e.ID, out, res.Diffs[e.InputNameOr()])
		}
	}
}

// InputNameOr is a test helper mirroring the engine's default naming.
func (e Experiment) InputNameOr() string {
	if e.InputName != "" {
		return e.InputName
	}
	return e.ID + ".c"
}

func TestL6SaferThanL5(t *testing.T) {
	// The paper's point: p0 can mis-fire on four statements that merely
	// index i+0..i+3 without being identical modulo the index; p1+r1 will
	// not collapse them. Verify the differing-statement case survives L6.
	src := `void f(int n, double *s, double *q) {
	for (int v=0; v+4-1 < n; v+=4)
	{
		s[v+0] = q[v+0];
		s[v+1] = q[v+1] * 2;
		s[v+2] = q[v+2];
		s[v+3] = q[v+3];
	}
}
`
	l6, _ := ByID("L6")
	res, out, err := l6.RunOn(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched["r1"] {
		t.Errorf("r1 must not match non-uniform unrolled body:\n%s", out)
	}
	// p1 normalised the indices but r1 refused; the paper notes the code is
	// then incorrect and a third undo rule would be needed — we just verify
	// the collapse did not happen.
	if strings.Count(out, "s[v+0]") == 1 && !strings.Contains(out, "* 2") {
		t.Errorf("loop was collapsed despite non-uniform body:\n%s", out)
	}
}

func TestL14RegexSelectivity(t *testing.T) {
	l14, _ := ByID("L14")
	src := `int rsb__BCSR_spmv_sasa_double_complex_H__tC_r1_c1_uu_sS_dE_uG(const void *a) { return 0; }
int rsb__BCSR_spmv_sasa_single_real_C__tN_r1_c1_uu_sH_dE_uG(const void *a) { return 0; }
`
	_, out, err := l14.RunOn(src)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "push_options") != 1 {
		t.Errorf("regex must select only the double-complex kernel:\n%s", out)
	}
}

func TestL11WarnsSurviveUnknownClauses(t *testing.T) {
	l11, _ := ByID("L11")
	src := "void f(int n, double *a){\n#pragma acc parallel loop copy(a[0:n])\nfor (int i=0;i<n;++i) a[i]=0;\n}\n"
	_, out, err := l11.RunOn(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#pragma omp parallel for\n") {
		t.Errorf("clause translation wrong:\n%s", out)
	}
}

func TestDiffsProduced(t *testing.T) {
	l7, _ := ByID("L7")
	res, _, err := l7.Run()
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diffs["L7.c"]
	if !strings.Contains(d, "-") || !strings.Contains(d, "+") {
		t.Errorf("unified diff missing markers:\n%s", d)
	}
	if !strings.Contains(d, "@@") {
		t.Errorf("no hunk headers:\n%s", d)
	}
}

// L1 instruments every kernel of a generated OpenMP file, and the diff
// against the input adds one start and one stop marker per kernel.
func TestL1OnGeneratedOpenMP(t *testing.T) {
	l1, _ := ByID("L1")
	src := codegen.OpenMP(codegen.Config{Funcs: 32, StmtsPerFunc: 2, Seed: 5})
	_, out, err := l1.RunOn(src)
	if err != nil {
		t.Fatal(err)
	}
	d := diff.Unified("a", "b", src, out)
	for _, marker := range []string{"\n+LIKWID_MARKER_START(", "\n+\tLIKWID_MARKER_STOP("} {
		if n := strings.Count(d, marker); n != 32 {
			t.Errorf("%d added %q lines, want one per kernel (32):\n%s", n, marker[2:], d)
		}
	}
}
