package codegen

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cparse"
)

// Every generated shape must parse with our front end — that is the whole
// point of the generator — small and at the size the benchmark's parse
// layer times, and its token stream must render the source back.
func TestAllShapesParse(t *testing.T) {
	for _, cfg := range []Config{{Funcs: 3, StmtsPerFunc: 3, Seed: 42}, {Funcs: 64, StmtsPerFunc: 4, Seed: 4}} {
		for name, gen := range Shapes {
			src := gen(cfg)
			opts := cparse.Options{CPlusPlus: true, CUDA: true, Std: 17}
			f, err := cparse.Parse(name+".c", src, opts)
			if err != nil {
				t.Errorf("shape %s (%d funcs) does not parse: %v\n%s", name, cfg.Funcs, err, src)
				continue
			}
			if f.Toks.Render() != src {
				t.Errorf("shape %s (%d funcs): token stream does not render the source", name, cfg.Funcs)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	for name, gen := range Shapes {
		a := gen(Config{Funcs: 2, StmtsPerFunc: 2, Seed: 7})
		b := gen(Config{Funcs: 2, StmtsPerFunc: 2, Seed: 7})
		if a != b {
			t.Errorf("shape %s not deterministic", name)
		}
		c := gen(Config{Funcs: 2, StmtsPerFunc: 2, Seed: 8})
		if name != "kernels" && name != "librsb" && name != "curand" && a == c {
			// shapes without randomness are allowed to coincide
			continue
		}
		_ = c
	}
}

func TestSizeScales(t *testing.T) {
	small := OpenMP(Config{Funcs: 2, StmtsPerFunc: 2, Seed: 1})
	large := OpenMP(Config{Funcs: 20, StmtsPerFunc: 2, Seed: 1})
	if len(large) < 5*len(small) {
		t.Errorf("large=%d small=%d: scaling broken", len(large), len(small))
	}
}

func TestShapeContents(t *testing.T) {
	cases := []struct {
		shape string
		want  []string
	}{
		{"openmp", []string{"#pragma omp parallel for", "#include <omp.h>"}},
		{"unrolled", []string{"+4-1 < n", "v0+=4", "s[v0+3]"}},
		{"cuda", []string{"cudaMalloc", "<<<", "cudaMemcpyHostToDevice"}},
		{"curand", []string{"curand_uniform_double", "__half h;"}},
		{"openacc", []string{"#pragma acc"}},
		{"search", []string{"bool found = false;", "for ( float &e : vals )", "break;"}},
		{"multiversion", []string{`target("avx512")`, `target("avx2")`, `target("default")`}},
		{"librsb", []string{"rsb__BCSR_spmv_sasa_double_complex"}},
		{"aos", []string{"struct particle", "P[i].px"}},
		{"kernels", []string{"kernel_fma_0", "helper_0"}},
		{"nested", []string{"a[i][j][k]"}},
	}
	for _, c := range cases {
		src := Shapes[c.shape](Config{Funcs: 2, StmtsPerFunc: 2, Seed: 3})
		for _, w := range c.want {
			if !strings.Contains(src, w) {
				t.Errorf("shape %s missing %q:\n%s", c.shape, w, src)
			}
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	src := OpenMP(Config{})
	if !strings.Contains(src, "kernel_3") {
		t.Errorf("default Funcs=4 not applied")
	}
}

// Property: every shape parses for arbitrary small configurations.
func TestQuickShapesParse(t *testing.T) {
	names := make([]string, 0, len(Shapes))
	for n := range Shapes {
		names = append(names, n)
	}
	prop := func(pick uint8, funcs, stmts uint8, seed int64) bool {
		name := names[int(pick)%len(names)]
		cfg := Config{Funcs: int(funcs%6) + 1, StmtsPerFunc: int(stmts%6) + 1, Seed: seed}
		src := Shapes[name](cfg)
		_, err := cparse.Parse("q.c", src, cparse.Options{CPlusPlus: true, CUDA: true})
		return err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
