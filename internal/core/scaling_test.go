package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/patchlib"
	"repro/internal/smpl"
)

// TestScalingFileSizeIncremental runs the paper's L1 listing over OpenMP
// files of growing size. Its include rule edits only the gap before the
// first function, so the re-parse the marker rule needs must reuse every
// function, build the tree a full parse builds, and give the output a run
// with full re-parses gives.
func TestScalingFileSizeIncremental(t *testing.T) {
	e, _ := patchlib.ByID("L1")
	p, err := smpl.ParsePatch("L1.cocci", e.Patch)
	if err != nil {
		t.Fatal(err)
	}
	for _, funcs := range []int{4, 16, 64, 256} {
		t.Run(fmt.Sprintf("funcs=%d", funcs), func(t *testing.T) {
			src := codegen.OpenMP(codegen.Config{Funcs: funcs, StmtsPerFunc: 2, Seed: 1})
			files := []core.SourceFile{{Name: "f.c", Src: src}}
			o := &oracle{t: t, label: "L1 on f.c"}
			inc := core.New(p, core.Options{})
			o.install(inc)
			got, err := inc.Run(files)
			if err != nil {
				t.Fatal(err)
			}
			full := core.New(p, core.Options{})
			full.ReparseFully()
			want, err := full.Run(files)
			if err != nil {
				t.Fatal(err)
			}
			if o.reparses != 1 || o.incremental != 1 || o.decl < funcs {
				t.Errorf("%d re-parses, %d incremental, %d declarations reused; want 1, 1, at least %d",
					o.reparses, o.incremental, o.decl, funcs)
			}
			if got.Outputs["f.c"] != want.Outputs["f.c"] || got.Diffs["f.c"] != want.Diffs["f.c"] {
				t.Errorf("incremental run output differs from a full-reparse run")
			}
			if n := strings.Count(got.Outputs["f.c"], "LIKWID_MARKER_START"); n != funcs {
				t.Errorf("%d instrumented regions, want %d", n, funcs)
			}
		})
	}
}

// TestScalingRulesNoMatch runs a 64-rule patch none of whose rules match:
// the file stays unchanged and is parsed once, however many rules there
// are.
func TestScalingRulesNoMatch(t *testing.T) {
	src := codegen.Mixed(codegen.Config{Funcs: 8, StmtsPerFunc: 3, Seed: 2})
	var sb strings.Builder
	for r := 0; r < 64; r++ {
		fmt.Fprintf(&sb, "@r%d@\nexpression list el;\n@@\n- missing_api_%d(el)\n+ replaced_%d(el)\n\n", r, r, r)
	}
	p, err := smpl.ParsePatch("scale.cocci", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	before := cparse.Parses()
	res, err := core.New(p, core.Options{}).Run([]core.SourceFile{{Name: "m.c", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	if n := cparse.Parses() - before; n != 1 {
		t.Errorf("parsed %d times, want 1", n)
	}
	if res.Outputs["m.c"] != src || res.Diffs["m.c"] != "" {
		t.Error("a patch that never matches changed the file")
	}
	if len(res.Matched) != 0 {
		t.Errorf("rules matched: %v", res.Matched)
	}
}
