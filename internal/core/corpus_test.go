package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cast"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/hpc"
	"repro/internal/patchlib"
	"repro/internal/smpl"
)

// corpusInput is one C/CUDA input the repository holds, parsed in its
// dialect.
type corpusInput struct {
	name, src string
	opts      cparse.Options
	file      *cast.File
}

// engineOptions is the engine dialect matching the input's.
func (in corpusInput) engineOptions() core.Options {
	return core.Options{CPlusPlus: in.opts.CPlusPlus, Std: in.opts.Std, CUDA: in.opts.CUDA}
}

// shippedCorpus gathers every shipped patch (the registry campaigns' members,
// the paper's listings, testdata) and every C/CUDA input the repository
// holds (the listings' inputs and the outputs they parse, testdata sources,
// the parity suites' generated corpora), in a fixed order. Whole-repository
// sweeps run over this matrix: the gate's soundness, the re-parse oracle
// and the output digest.
func shippedCorpus(t *testing.T) ([]*smpl.Patch, []corpusInput) {
	t.Helper()
	var inputs []corpusInput
	tryAdd := func(name, src string, opts cparse.Options) error {
		f, err := cparse.Parse(name, src, opts)
		if err != nil {
			return err
		}
		inputs = append(inputs, corpusInput{name, src, opts, f})
		return nil
	}
	add := func(name, src string, opts cparse.Options) {
		if err := tryAdd(name, src, opts); err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
	}

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
	return patches, inputs
}
