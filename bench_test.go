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
