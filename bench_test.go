package sempatch

// The benchmark harness regenerates every experiment of the paper's Section
// 3 (L1..L14, one benchmark each) plus cross-cutting studies (S6: AoS to SoA).
// The scaling studies S1 (file size) and S2 (rule count) are tests now:
// TestScalingFileSizeIncremental and TestScalingRulesNoMatch in
// internal/core. Run with:
//
//	go test -bench=. -benchmem
//
// The paper reports no absolute numbers (it is a use-case paper); the
// reproduction's claims are about which transformations are expressible and
// how the engine scales, which these benchmarks quantify.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/codegen"
	"repro/internal/patchlib"
	"repro/internal/smpl"
)

// benchExperiment runs one patchlib experiment repeatedly.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := patchlib.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	src := e.Input()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.RunOn(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkL1Likwid(b *testing.B)         { benchExperiment(b, "L1") }
func BenchmarkL2DeclareVariant(b *testing.B) { benchExperiment(b, "L2") }
func BenchmarkL3TargetAttr(b *testing.B)     { benchExperiment(b, "L3") }
func BenchmarkL4BloatRemoval(b *testing.B)   { benchExperiment(b, "L4") }
func BenchmarkL5UnrollP0(b *testing.B)       { benchExperiment(b, "L5") }
func BenchmarkL6UnrollP1R1(b *testing.B)     { benchExperiment(b, "L6") }
func BenchmarkL7MultiIndex(b *testing.B)     { benchExperiment(b, "L7") }
func BenchmarkL8HipFuncs(b *testing.B)       { benchExperiment(b, "L8") }
func BenchmarkL9HipTypes(b *testing.B)       { benchExperiment(b, "L9") }
func BenchmarkL10KernelLaunch(b *testing.B)  { benchExperiment(b, "L10") }
func BenchmarkL11Acc2Omp(b *testing.B)       { benchExperiment(b, "L11") }
func BenchmarkL12StlFind(b *testing.B)       { benchExperiment(b, "L12") }
func BenchmarkL13Kokkos(b *testing.B)        { benchExperiment(b, "L13") }
func BenchmarkL14PragmaInject(b *testing.B)  { benchExperiment(b, "L14") }
func BenchmarkAoSSoA(b *testing.B)           { benchExperiment(b, "S6") }

// Patch-parsing cost: every experiment's .cocci text.
func BenchmarkPatchParse(b *testing.B) {
	exps := patchlib.Experiments()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := exps[i%len(exps)]
		if _, err := smpl.ParsePatch(e.ID, e.Patch); err != nil {
			b.Fatal(err)
		}
	}
}

// Batch application: one patch across a many-file corpus, the paper's
// whole-codebase scenario (e.g. acc2omp over a full OpenACC application).
// workers=1 is the sequential baseline the parallel speedup is measured
// against; the corpus is large enough that the pool's compile-once +
// per-worker-engine costs amortise.
func BenchmarkBatchApply(b *testing.B) {
	e, ok := patchlib.ByID("L1")
	if !ok {
		b.Fatal("experiment L1 missing")
	}
	p, err := ParsePatch("batch.cocci", e.Patch)
	if err != nil {
		b.Fatal(err)
	}
	const nfiles = 48
	files := make([]File, nfiles)
	var total int64
	for i := range files {
		src := codegen.OpenMP(codegen.Config{Funcs: 8 + i%5, StmtsPerFunc: 3, Seed: int64(i + 1)})
		files[i] = File{Name: fmt.Sprintf("src%02d.c", i), Src: src}
		total += int64(len(src))
	}
	counts := []int{1, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, w := range counts {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			ba := NewBatchApplier(p, Options{Workers: w})
			b.SetBytes(total)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := ba.ApplyAllFunc(files, nil)
				if err != nil {
					b.Fatal(err)
				}
				if st.Changed != nfiles || st.Errors != 0 {
					b.Fatalf("stats = %+v, want %d files changed", st, nfiles)
				}
			}
		})
	}
}

// Warm-cache effect: the same batch over an unchanged 90%-non-matching
// corpus with the persistent corpus index cold (first-ever run: scan,
// parse, match, and populate the cache) versus warm (every result replays
// from the cache by content hash — no scanning, parsing, or matching).
// Warm runs should beat cold by well over the acceptance floor of 5x; the
// parity of outputs across cold/warm/disabled is pinned by TestCacheParity.
func BenchmarkWarmCache(b *testing.B) {
	patch := `@r@
expression list el;
@@
- legacy_halo_exchange(el)
+ halo_exchange_v2(el)
`
	p, err := ParsePatch("cache.cocci", patch)
	if err != nil {
		b.Fatal(err)
	}
	const nfiles = 100
	files := make([]File, nfiles)
	var total int64
	for i := range files {
		src := codegen.Mixed(codegen.Config{Funcs: 6 + i%4, StmtsPerFunc: 3, Seed: int64(i + 1)})
		if i%10 == 0 { // ~10% of the corpus actually calls the legacy API
			src += "\nvoid migrate_me(int n)\n{\n\tlegacy_halo_exchange(n, 0);\n}\n"
		}
		files[i] = File{Name: fmt.Sprintf("src%03d.c", i), Src: src}
		total += int64(len(src))
	}

	b.Run("cold", func(b *testing.B) {
		// Every iteration starts from an empty cache: the measured cost is
		// scan + parse + match + cache population.
		dirs := make([]string, b.N)
		for i := range dirs {
			dirs[i] = filepath.Join(b.TempDir(), fmt.Sprintf("c%d", i))
		}
		b.SetBytes(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := NewBatchApplier(p, Options{Workers: 1, CacheDir: dirs[i]}).ApplyAllFunc(files, nil)
			if err != nil {
				b.Fatal(err)
			}
			if st.Cached != 0 {
				b.Fatalf("cold run cached %d", st.Cached)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := filepath.Join(b.TempDir(), "cache")
		if _, err := NewBatchApplier(p, Options{Workers: 1, CacheDir: dir}).ApplyAllFunc(files, nil); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := NewBatchApplier(p, Options{Workers: 1, CacheDir: dir}).ApplyAllFunc(files, nil)
			if err != nil {
				b.Fatal(err)
			}
			if st.Cached != nfiles {
				b.Fatalf("warm run cached %d of %d", st.Cached, nfiles)
			}
		}
	})
}

// Campaign effect: N patches over one corpus, applied as N separate batch
// runs (each parses every candidate file) versus one campaign sweep (each
// file parsed at most once, the tree shared by all patches). The probes are
// context-only so every file is a candidate for every patch — the
// parse-dominated worst case the campaign exists for.
func BenchmarkCampaign(b *testing.B) {
	const npatches = 4
	patches := make([]*Patch, npatches)
	for i := range patches {
		text := fmt.Sprintf("@probe%d@\ntype T;\nidentifier f;\nparameter list PL;\nstatement list SL;\n@@\nT f (PL) { SL }\n", i)
		p, err := ParsePatch(fmt.Sprintf("p%d.cocci", i), text)
		if err != nil {
			b.Fatal(err)
		}
		patches[i] = p
	}
	const nfiles = 32
	files := make([]File, nfiles)
	var total int64
	for i := range files {
		src := codegen.Mixed(codegen.Config{Funcs: 8, StmtsPerFunc: 3, Seed: int64(i + 1)})
		files[i] = File{Name: fmt.Sprintf("src%02d.c", i), Src: src}
		total += int64(len(src))
	}

	b.Run("sequential-runs", func(b *testing.B) {
		b.SetBytes(total * npatches)
		for i := 0; i < b.N; i++ {
			for _, p := range patches {
				if _, err := NewBatchApplier(p, Options{Workers: 1}).ApplyAllFunc(files, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("campaign", func(b *testing.B) {
		b.SetBytes(total * npatches)
		for i := 0; i < b.N; i++ {
			ca := NewCampaign(patches, Options{Workers: 1})
			if _, err := ca.ApplyAllFunc(files, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Match-only cost (no transformation): a pure-context rule.
func BenchmarkMatchOnly(b *testing.B) {
	patch := "@probe@\ntype T;\nidentifier f;\nparameter list PL;\nstatement list SL;\n@@\nT f (PL) { SL }\n"
	src := codegen.Mixed(codegen.Config{Funcs: 32, StmtsPerFunc: 4, Seed: 6})
	p, err := ParsePatch("probe.cocci", patch)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewApplier(p, Options{}).Apply(File{Name: "m.c", Src: src}); err != nil {
			b.Fatal(err)
		}
	}
}
