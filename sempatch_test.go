package sempatch

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/instrument"
	"repro/internal/patchlib"
)

const renamePatch = `@r@
expression list el;
@@
- foo(el)
+ bar(el)
`

func TestApplyOneShot(t *testing.T) {
	res, err := Apply("r.cocci", renamePatch, Options{},
		File{Name: "a.c", Src: "void f(void){ foo(1, 2); }\n"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Outputs["a.c"], "bar(1, 2);") {
		t.Errorf("output: %s", res.Outputs["a.c"])
	}
	if len(res.Changed()) != 1 || res.Changed()[0] != "a.c" {
		t.Errorf("changed: %v", res.Changed())
	}
}

func TestApplierMultipleFiles(t *testing.T) {
	p, err := ParsePatch("r.cocci", renamePatch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewApplier(p, Options{}).Apply(
		File{Name: "a.c", Src: "void f(void){ foo(1); }\n"},
		File{Name: "b.c", Src: "void g(void){ nothing(); }\n"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed()) != 1 {
		t.Errorf("changed=%v", res.Changed())
	}
	if res.Outputs["b.c"] != "void g(void){ nothing(); }\n" {
		t.Errorf("untouched file modified: %q", res.Outputs["b.c"])
	}
}

// TestResultChangedSorted pins Result.Changed to sorted file-name order on
// every call, whatever order the Diffs map iterates in.
func TestResultChangedSorted(t *testing.T) {
	names := []string{"e.c", "b.c", "d.c", "a.c", "c.c", "g.c"}
	var files []File
	for _, n := range names {
		files = append(files, File{Name: n, Src: "void f(void){ foo(1); }\n"})
	}
	files = append(files, File{Name: "f.c", Src: "void g(void){ nothing(); }\n"})
	res, err := Apply("r.cocci", renamePatch, Options{}, files...)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Sorted(slices.Values(names))
	for i := 0; i < 20; i++ {
		if got := res.Changed(); !slices.Equal(got, want) {
			t.Fatalf("call %d: Changed() = %v, want %v", i, got, want)
		}
	}
}

func TestPatchRules(t *testing.T) {
	p, err := ParsePatch("two.cocci", "@one@\n@@\n- a();\n\n@two depends on one@\n@@\n- b();\n")
	if err != nil {
		t.Fatal(err)
	}
	rules := p.Rules()
	if len(rules) != 2 || rules[0] != "one" || rules[1] != "two" {
		t.Errorf("rules=%v", rules)
	}
}

func TestRegisterScript(t *testing.T) {
	patch := `@find@
identifier fn;
expression list el;
@@
fn(el)

@script:go xf@
fn << find.fn;
nf;
@@
(go)

@apply@
identifier find.fn;
identifier xf.nf;
@@
- fn
+ nf
(...)
`
	p, err := ParsePatch("s.cocci", patch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewApplier(p, Options{}).
		RegisterScript("xf", func(in map[string]string) (map[string]string, error) {
			return map[string]string{"nf": "v2_" + in["fn"]}, nil
		}).
		Apply(File{Name: "a.c", Src: "void f(void){ compute(9); }\n"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Outputs["a.c"], "v2_compute(9);") {
		t.Errorf("output: %s", res.Outputs["a.c"])
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParsePatch("bad.cocci", "not a patch"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := ParsePatchFile("/nonexistent/x.cocci"); err == nil {
		t.Error("expected file error")
	}
}

func TestDefinesPropagate(t *testing.T) {
	patch := "virtual enable;\n\n@r depends on enable@\n@@\n- drop_me();\n"
	src := "void f(void){ drop_me(); }\n"
	res, err := Apply("v.cocci", patch, Options{}, File{Name: "a.c", Src: src})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed()) != 0 {
		t.Error("rule ran without its virtual define")
	}
	res, err = Apply("v.cocci", patch, Options{Defines: []string{"enable"}}, File{Name: "a.c", Src: src})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed()) != 1 {
		t.Error("define did not enable the rule")
	}
}

func TestOptionsPropagate(t *testing.T) {
	// C++23 multi-index requires the right dialect flags end to end.
	patch := "@m@\nsymbol a;\nexpression x,y,z;\n@@\n- a[x][y][z]\n+ a[x, y, z]\n"
	res, err := Apply("m.cocci", patch, Options{CPlusPlus: true, Std: 23},
		File{Name: "a.cc", Src: "void f(double ***a){ a[1][2][3] = 0; }\n"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Outputs["a.cc"], "a[1, 2, 3] = 0;") {
		t.Errorf("output: %s", res.Outputs["a.cc"])
	}
}

// A file whose parse fails counts as parsed — in its CampaignFileResult and
// in CampaignStats — as a single-patch run; the prefilter-skipped file does
// not.
func TestBatchParseFailureCountsParsed(t *testing.T) {
	p, err := ParsePatch("r.cocci", renamePatch)
	if err != nil {
		t.Fatal(err)
	}
	files := []File{
		{Name: "ok.c", Src: "void f(void){ foo(1); }\n"},
		{Name: "broken.c", Src: "void g( {{ foo(2"},
		{Name: "other.c", Src: "void h(void){ baz(); }\n"},
	}
	var parsed []bool
	st, err := NewCampaign([]*Patch{p}, Options{Workers: 2}).ApplyAllFunc(files, func(fr CampaignFileResult) error {
		parsed = append(parsed, fr.Parsed)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true, false}; !slices.Equal(parsed, want) {
		t.Errorf("CampaignFileResult.Parsed = %v, want %v", parsed, want)
	}
	if st.Files != 3 || st.Errors != 1 || st.Parsed != 2 || st.PerPatch[0].Skipped != 1 || st.Changed != 1 {
		t.Errorf("stats = %+v, want 3 files, 1 error, 2 parsed, 1 skipped, 1 changed", st)
	}
}

// The whole-codebase scenario at every pool size: the L1 instrumentation
// patch changes every file of an OpenMP corpus, with no errors and the same
// outputs whether one worker, four, or one per CPU runs it.
func TestBatchWorkerCounts(t *testing.T) {
	e, ok := patchlib.ByID("L1")
	if !ok {
		t.Fatal("experiment L1 missing")
	}
	p, err := ParsePatch("batch.cocci", e.Patch)
	if err != nil {
		t.Fatal(err)
	}
	const nfiles = 16
	files := make([]File, nfiles)
	for i := range files {
		src := codegen.OpenMP(codegen.Config{Funcs: 8 + i%5, StmtsPerFunc: 3, Seed: int64(i + 1)})
		files[i] = File{Name: fmt.Sprintf("src%02d.c", i), Src: src}
	}
	var want []string
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		var outs []string
		st, err := NewCampaign([]*Patch{p}, Options{Workers: w}).ApplyAllFunc(files, func(fr CampaignFileResult) error {
			outs = append(outs, fr.Output)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Changed != nfiles || st.Errors != 0 {
			t.Errorf("workers=%d: stats = %+v, want %d files changed and no errors", w, st, nfiles)
		}
		if want == nil {
			want = outs
		} else if !slices.Equal(outs, want) {
			t.Errorf("workers=%d: outputs differ from the one-worker run", w)
		}
	}
}

// The paper's transitory-instrumentation workflow through the public
// applier: inserting each marker API's calls and then removing them gives
// the input back byte for byte.
func TestInstrumentInsertRemoveRoundtrip(t *testing.T) {
	src := codegen.OpenMP(codegen.Config{Funcs: 8, StmtsPerFunc: 2, Seed: 12})
	for _, name := range []string{"likwid", "scorep", "caliper"} {
		api := instrument.APIs[name]
		ins, err := instrument.InsertPatch(api, instrument.Selector{})
		if err != nil {
			t.Fatal(err)
		}
		rem, err := instrument.RemovePatch(api, instrument.Selector{})
		if err != nil {
			t.Fatal(err)
		}
		pi, err := ParsePatch("i.cocci", ins)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := ParsePatch("r.cocci", rem)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := NewApplier(pi, Options{}).Apply(File{Name: "a.c", Src: src})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Outputs["a.c"] == src {
			t.Fatalf("%s: inserting markers changed nothing", name)
		}
		r2, err := NewApplier(pr, Options{}).Apply(File{Name: "a.c", Src: r1.Outputs["a.c"]})
		if err != nil {
			t.Fatal(err)
		}
		if r2.Outputs["a.c"] != src {
			t.Errorf("%s: insert then remove did not give the input back:\n%s", name, Diff("a.c", src, r2.Outputs["a.c"]))
		}
	}
}
