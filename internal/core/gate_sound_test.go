package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/hpc"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/patchlib"
	"repro/internal/smpl"
)

// TestRuleGateSound checks the engine's per-rule required-atom gate against
// the matcher it skips: for every match rule of every shipped patch and
// every C/CUDA input the repository holds, a "no" from the gate implies an
// ungated FindAll on that parse finds nothing — with the CFG dots engine
// and with the sequence matcher, and with inherited metavariables left free
// (a superset of what any inherited environment admits).
func TestRuleGateSound(t *testing.T) {
	type input struct {
		name, src string
		file      *cast.File
		cfgs      func(*cast.FuncDef) *cfg.Graph
	}
	var inputs []input
	tryAdd := func(name, src string, opts cparse.Options) error {
		f, err := cparse.Parse(name, src, opts)
		if err != nil {
			return err
		}
		graphs := map[*cast.FuncDef]*cfg.Graph{}
		cfgs := func(fd *cast.FuncDef) *cfg.Graph {
			if graphs[fd] == nil {
				graphs[fd] = cfg.Build(fd)
			}
			return graphs[fd]
		}
		inputs = append(inputs, input{name, src, f, cfgs})
		return nil
	}
	add := func(name, src string, opts cparse.Options) {
		if err := tryAdd(name, src, opts); err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
	}

	// Patches: the registry campaigns, the paper's listings, testdata.
	var patches []*smpl.Patch
	addPatch := func(name, text string) {
		p, err := smpl.ParsePatch(name, text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		patches = append(patches, p)
	}
	dialect := map[string]cparse.Options{}
	for _, c := range hpc.Campaigns() {
		dialect[c.Name] = cparse.Options{CPlusPlus: c.CPlusPlus, Std: c.Std, CUDA: c.CUDA}
		for _, name := range c.PatchNames() {
			addPatch(c.Name+"/"+name, c.PatchText(name))
		}
	}
	for _, e := range patchlib.Experiments() {
		addPatch(e.ID+".cocci", e.Patch)
		name := e.InputName
		if name == "" {
			name = e.ID + ".c"
		}
		opts := cparse.Options{CPlusPlus: e.Opts.CPlusPlus, Std: e.Opts.Std, CUDA: e.Opts.CUDA}
		add(name, e.Input(), opts)
		// The listing's output stands in for the text a later rule sees
		// after earlier rules' edits; outputs beyond the parser's subset
		// could never reach a matcher, so they are left out.
		if _, out, err := e.Run(); err == nil {
			_ = tryAdd("out-"+name, out, opts)
		}
	}
	cocci, _ := filepath.Glob("../../testdata/*.cocci")
	for _, path := range cocci {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		addPatch(filepath.Base(path), string(b))
	}

	// Inputs: testdata sources and the parity suites' generated corpora.
	csrc, _ := filepath.Glob("../../testdata/*.c")
	for _, path := range csrc {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		add(filepath.Base(path), string(b), cparse.Options{})
	}
	for _, gc := range []codegen.Config{
		{Funcs: 2, StmtsPerFunc: 1, Seed: 1},
		{Funcs: 3, StmtsPerFunc: 2, Seed: 20250326},
		{Funcs: 5, StmtsPerFunc: 3, Seed: 7},
	} {
		add("cuda.cu", codegen.CUDA(gc), dialect["hipify"])
	}
	for _, gc := range []codegen.Config{
		{Funcs: 2, StmtsPerFunc: 2, Seed: 1},
		{Funcs: 4, StmtsPerFunc: 1, Seed: 42},
	} {
		add("curand.cu", codegen.Curand(gc), dialect["hipify"])
	}
	for _, gc := range []codegen.Config{
		{Funcs: 2, StmtsPerFunc: 1, Seed: 1},
		{Funcs: 3, StmtsPerFunc: 1, Seed: 20250326},
		{Funcs: 6, StmtsPerFunc: 2, Seed: 99},
	} {
		add("acc.c", codegen.OpenACC(gc), dialect["acc2omp"])
	}

	rejected, admitted := 0, 0
	for _, p := range patches {
		c := core.Compile(p)
		for i, r := range p.Rules {
			if r.Kind != smpl.MatchRule || r.Pattern == nil {
				continue
			}
			metas := smpl.NewMetaTable(r.Metas)
			for _, in := range inputs {
				if c.Prefilter.RuleMayMatch(i, func(w string) bool { return index.ContainsWord(in.src, w) }) {
					admitted++
					continue
				}
				rejected++
				for _, engine := range []func(*cast.FuncDef) *cfg.Graph{in.cfgs, nil} {
					m := &match.Matcher{Pat: r.Pattern, Metas: metas, Code: in.file, CFGs: engine}
					if got := m.FindAll(); len(got) > 0 {
						t.Errorf("%s rule %s on %s: gate says no, but the matcher finds %d match(es) (cfg=%v)",
							p.Name, r.Name, in.name, len(got), engine != nil)
					}
				}
			}
		}
	}
	// The sweep must exercise both answers, or it proves nothing.
	if rejected == 0 || admitted == 0 {
		t.Fatalf("gate rejected %d and admitted %d rule×input pairs; want both > 0", rejected, admitted)
	}
	t.Logf("%d patches × %d inputs: gate rejected %d rule×input pairs, admitted %d", len(patches), len(inputs), rejected, admitted)
}
