// Benchmarks for function-granular incrementality. These run against an
// in-memory store — the configuration a resident session (internal/serve)
// actually uses for warm applies — so they measure matching, not disk
// round-trips.

package batch

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/smpl"
)

// benchDotsPatch anchors two statements across dots — matched per function
// by the CFG path engine, the paper's expensive-match shape.
const benchDotsPatch = `@r@
expression E;
@@
- prepare(E);
+ prepare_v2(E);
... when != giveup(E)
    when != reset(E)
    when != retry(E)
    when != checkpoint(E)
    when != abort_run()
- commit(E);
+ commit_v2(E);
`

// benchKernel renders a kernel file of nFns functions; edit selects the
// per-run constant of one function so consecutive runs differ in exactly
// one function's content.
func benchKernel(nFns, stmts, edit int) string {
	var sb strings.Builder
	sb.WriteString("#include <hpc.h>\n\n")
	for f := 0; f < nFns; f++ {
		c := f
		if f == nFns/2 {
			c = 1000 + edit
		}
		fmt.Fprintf(&sb, "void stage_%d(int x)\n{\n\tprepare(x);\n", f)
		for s := 0; s < stmts; s++ {
			// Branchy bodies: the dots constraint is verified across every
			// prepare-to-commit path, so match cost grows with the CFG, the
			// shape the per-function cache pays off on.
			fmt.Fprintf(&sb, "\tif (x > %d) { work_%d(x, %d); } else { idle_%d(x); }\n", s, s, c*10+s, s)
		}
		sb.WriteString("\tcommit(x);\n}\n\n")
	}
	return sb.String()
}

// BenchmarkWarmOneFunctionEdit measures a warm apply after editing one of
// ten functions: the file-granular baseline misses the file-level result
// cache (the content changed) and re-matches all ten functions; the
// function-granular path replays nine segments and re-matches exactly one.
// The ratio is the per-edit win a resident session sees.
func BenchmarkWarmOneFunctionEdit(b *testing.B) {
	patch := parseBenchPatch(b, benchDotsPatch)
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"function-granular", Options{Workers: 1}},
		{"file-granular", Options{Workers: 1, NoFuncCache: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			// Bounded LRU: every iteration writes records for fresh content,
			// so an unbounded store would grow the GC scan set and skew
			// later iterations.
			opts := mode.opts
			opts.Store = cache.NewMemory(nil, 512)
			r := single(patch, opts)
			prime := []core.SourceFile{{Name: "k.c", Src: benchKernel(10, 16, -1)}}
			runBench(b, r, prime, -1, -1)
			b.SetBytes(int64(len(prime[0].Src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				files := []core.SourceFile{{Name: "k.c", Src: benchKernel(10, 16, i)}}
				if mode.opts.NoFuncCache {
					runBench(b, r, files, 0, 0)
				} else {
					runBench(b, r, files, 1, 9)
				}
			}
		})
	}
}

// BenchmarkParallelFunctionMatch measures intra-file parallel matching: one
// many-function file, no cache, the function path fanning segments out to
// GOMAXPROCS goroutines against the sequential file-level matcher.
func BenchmarkParallelFunctionMatch(b *testing.B) {
	patch := parseBenchPatch(b, benchDotsPatch)
	files := []core.SourceFile{{Name: "p.c", Src: benchKernel(64, 8, -1)}}
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"parallel-functions", Options{Workers: 1}},
		{"sequential-file", Options{Workers: 1, NoFuncCache: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			r := single(patch, mode.opts)
			b.SetBytes(int64(len(files[0].Src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runBench(b, r, files, -1, -1)
			}
		})
	}
}

func parseBenchPatch(b *testing.B, text string) *smpl.Patch {
	b.Helper()
	p, err := smpl.ParsePatch("bench.cocci", text)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// runBench runs one sweep and asserts it did real work (never a file-level
// cache replay) and, when wantMatched >= 0, that the function counters are
// exactly the incremental contract.
func runBench(b *testing.B, r *Campaign, files []core.SourceFile, wantMatched, wantCached int) {
	b.Helper()
	r.Run(files, func(fr CampaignFileResult) bool {
		if fr.Err != nil {
			b.Fatal(fr.Err)
		}
		o := only(fr)
		if o.Cached || !fr.Changed() {
			b.Fatalf("benchmark iteration replayed at file level: %+v", fr)
		}
		if wantMatched >= 0 && (o.FuncsMatched != wantMatched || o.FuncsCached != wantCached) {
			b.Fatalf("matched=%d cached=%d, want %d/%d", o.FuncsMatched, o.FuncsCached, wantMatched, wantCached)
		}
		return true
	})
}
