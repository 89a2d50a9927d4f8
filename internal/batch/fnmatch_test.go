// The function-granular pipeline's differential test suite. Every test here
// compares the incremental path (segmentation, windowed matching, per-segment
// caching, splicing) against the file-level path byte for byte: the pipeline
// is pinned to be a pure optimization, never a semantic change.

package batch

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/smpl"
)

// fnDotsPatch anchors two statements across dots inside one function — the
// CFG dots engine's home turf, still function-local.
const fnDotsPatch = `@r@
expression E;
@@
- prepare(E);
+ prepare_v2(E);
...
- commit(E);
+ commit_v2(E);
`

// fnDisjDotsPatch follows the dots with a two-statement disjunction branch,
// a shape the CFG engine does not take: matching falls back to the
// sequence matcher, still function-local.
const fnDisjDotsPatch = `@r@
expression E;
@@
- prepare(E);
+ prepare_v2(E);
...
(
- stage(E);
- commit(E);
+ commit_v2(E);
|
- commit(E);
+ commit_v2(E);
)
`

// fnBuildFile fabricates one file with a header gap, the given function
// bodies, and a trailing comment gap.
func fnBuildFile(name string, bodies []string) core.SourceFile {
	var sb strings.Builder
	sb.WriteString("#include <hpc.h>\n\nstatic int budget = 4;\n\n")
	for i, b := range bodies {
		fmt.Fprintf(&sb, "int step_%d(int x)\n{\n%s\treturn x + %d;\n}\n\n", i, b, i)
	}
	sb.WriteString("/* end of translation unit */\n")
	return core.SourceFile{Name: name, Src: sb.String()}
}

// runAll collects every file result of one run.
func runAll(t *testing.T, r *Campaign, files []core.SourceFile) []CampaignFileResult {
	t.Helper()
	var out []CampaignFileResult
	r.Run(files, func(fr CampaignFileResult) bool { out = append(out, fr); return true })
	if len(out) != len(files) {
		t.Fatalf("got %d results for %d files", len(out), len(files))
	}
	return out
}

// compareResults asserts two runs are observably identical per file.
func compareResults(t *testing.T, label string, got, want []CampaignFileResult) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name {
			t.Fatalf("%s: result %d is %s, want %s", label, i, g.Name, w.Name)
		}
		if (g.Err == nil) != (w.Err == nil) {
			t.Errorf("%s: %s: error presence differs: got %v want %v", label, g.Name, g.Err, w.Err)
			continue
		}
		if g.Output != w.Output {
			t.Errorf("%s: %s: output differs\ngot:\n%s\nwant:\n%s", label, g.Name, g.Output, w.Output)
		}
		if g.Diff != w.Diff {
			t.Errorf("%s: %s: diff differs", label, g.Name)
		}
		if only(g).Matches() != only(w).Matches() {
			t.Errorf("%s: %s: matches = %d, want %d", label, g.Name, only(g).Matches(), only(w).Matches())
		}
	}
}

// TestFunctionCacheParity is the pipeline's headline guarantee: with the
// function cache cold, warm, or disabled — and under either dots engine, the
// CFG engine or the sequence fallback a pattern's shape selects, and for a
// type pattern — outputs, diffs, and match counts are byte-identical. The
// corpus mixes multi-function files (matching and not), files without
// functions, an empty file, and a misaligned file the pipeline must refuse.
func TestFunctionCacheParity(t *testing.T) {
	cases := []struct {
		name  string
		patch string
		eopts core.Options
		match string // body line(s) the patch fires on, with one %d constant
		miss  string // body line(s) it cannot fire on
	}{
		{"rename", renamePatch, core.Options{},
			"\told_api(x, %d);\n", "\tother_api(x, %d);\n"},
		{"dots-cfg", fnDotsPatch, core.Options{},
			"\tprepare(x);\n\twork(x, %d);\n\tcommit(x);\n",
			"\twork(x, %d);\n\tcommit(x);\n"},
		{"dots-seq", fnDisjDotsPatch, core.Options{},
			"\tprepare(x);\n\twork(x, %d);\n\tstage(x);\n\tcommit(x);\n",
			"\twork(x, %d);\n\tcommit(x);\n"},
		// Segments share the file's lazily enumerated type candidates.
		{"typedef", "@r@\ntypedef old_t;\n@@\n- old_t\n+ new_t\n", core.Options{},
			"\told_t *v = lookup(x, %d);\n", "\tint v = lookup(x, %d);\n"},
	}
	if match.CFGEligible(parsePatch(t, fnDisjDotsPatch).Rules[0].Pattern, nil) {
		t.Fatal("dots-seq must exercise the sequence-matcher fallback")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(editedConst int) []core.SourceFile {
				var files []core.SourceFile
				for j := 0; j < 4; j++ {
					bodies := make([]string, 5)
					for i := range bodies {
						c := 10*j + i
						if j == 0 && i == 0 {
							c = editedConst
						}
						line := tc.miss
						if (i+j)%2 == 0 {
							line = tc.match
						}
						bodies[i] = fmt.Sprintf(line, c)
					}
					files = append(files, fnBuildFile(fmt.Sprintf("f%d.c", j), bodies))
				}
				return append(files,
					core.SourceFile{Name: "nofuncs.c", Src: "int x;\nextern void f(int);\n"},
					core.SourceFile{Name: "empty.c", Src: ""},
					core.SourceFile{Name: "misaligned.c",
						Src: "int a(void) { return 0; } int b(void) { return 1; }\n"},
				)
			}
			corpusA, corpusB := build(0), build(999) // B edits one function of f0.c

			patch := parsePatch(t, tc.patch)
			base := func(files []core.SourceFile) []CampaignFileResult {
				return runAll(t, single(patch, Options{Workers: 4, Engine: tc.eopts, NoFuncCache: true}), files)
			}
			baseA, baseB := base(corpusA), base(corpusB)

			// Function path without any cache store: parallel per-segment
			// matching alone must already be byte-identical.
			plain := runAll(t, single(patch, Options{Workers: 4, Engine: tc.eopts}), corpusA)
			compareResults(t, "no-store", plain, baseA)

			// Cold then warm through a shared store; the warm corpus has one
			// edited function, so the file-level record cannot shortcut it.
			store := cache.NewMemory(nil, 0)
			r := single(patch, Options{Workers: 4, Engine: tc.eopts, Store: store})
			cold := runAll(t, r, corpusA)
			compareResults(t, "cold", cold, baseA)
			warm := runAll(t, r, corpusB)
			compareResults(t, "warm", warm, baseB)

			if eligible := newFnRunner(core.Compile(patch), tc.eopts, nil) != nil; eligible {
				if only(warm[0]).FuncsCached != 4 || only(warm[0]).FuncsMatched != 1 {
					t.Errorf("warm f0.c: matched=%d cached=%d, want 1/4",
						only(warm[0]).FuncsMatched, only(warm[0]).FuncsCached)
				}
			} else if only(warm[0]).FuncsCached != 0 || only(warm[0]).FuncsMatched != 0 {
				t.Errorf("ineligible patch must not report function counters: %+v", only(warm[0]))
			}
		})
	}
}

// TestFunctionCacheFuzzOneEdit mutates one randomly chosen function per
// iteration (deterministic seed) and asserts that the warm pipeline both
// reproduces a from-scratch run byte-exactly and — per the instrumentation —
// re-matches exactly the edited function, replaying every other one.
func TestFunctionCacheFuzzOneEdit(t *testing.T) {
	const k = 6
	rng := rand.New(rand.NewSource(7))
	consts := make([]int, k)
	for i := range consts {
		consts[i] = i
	}
	build := func() []core.SourceFile {
		bodies := make([]string, k)
		for i := range bodies {
			bodies[i] = fmt.Sprintf("\told_api(x, %d);\n", consts[i])
		}
		return []core.SourceFile{fnBuildFile("fuzz.c", bodies)}
	}

	patch := parsePatch(t, renamePatch)
	warm := single(patch, Options{Workers: 4, Store: cache.NewMemory(nil, 0)})
	scratch := single(patch, Options{Workers: 1, NoFuncCache: true})

	cold := runAll(t, warm, build())
	compareResults(t, "cold", cold, runAll(t, scratch, build()))
	if only(cold[0]).FuncsMatched != k || only(cold[0]).FuncsCached != 0 {
		t.Fatalf("cold run: matched=%d cached=%d, want %d/0", only(cold[0]).FuncsMatched, only(cold[0]).FuncsCached, k)
	}

	for iter := 0; iter < 25; iter++ {
		consts[rng.Intn(k)] = 1000 + iter // always-fresh content, one function
		files := build()
		got := runAll(t, warm, files)
		want := runAll(t, scratch, files)
		compareResults(t, fmt.Sprintf("iter %d", iter), got, want)
		if only(got[0]).FuncsMatched != 1 || only(got[0]).FuncsCached != k-1 {
			t.Fatalf("iter %d: matched=%d cached=%d, want 1/%d",
				iter, only(got[0]).FuncsMatched, only(got[0]).FuncsCached, k-1)
		}
	}
}

// TestFunctionCacheInvalidation pins the invalidation semantics of the
// segment identities: a rename re-matches exactly the renamed function;
// reordering functions, touching only inter-function whitespace, or adding a
// comment between functions are full cache hits; deleting a function replays
// every survivor.
func TestFunctionCacheInvalidation(t *testing.T) {
	fnText := func(name string, c int) string {
		return fmt.Sprintf("int %s(int x)\n{\n\told_api(x, %d);\n\treturn x;\n}\n", name, c)
	}
	mk := func(sep string, funcs ...string) []core.SourceFile {
		src := "#include <hpc.h>\n\n" + strings.Join(funcs, sep) + "\n/* tail */\n"
		return []core.SourceFile{{Name: "inv.c", Src: src}}
	}
	f0, f1, f2, f3 := fnText("step_0", 0), fnText("step_1", 1), fnText("step_2", 2), fnText("step_3", 3)

	patch := parsePatch(t, renamePatch)
	warm := single(patch, Options{Workers: 4, Store: cache.NewMemory(nil, 0)})
	scratch := single(patch, Options{Workers: 1, NoFuncCache: true})

	cold := runAll(t, warm, mk("\n", f0, f1, f2, f3))
	if only(cold[0]).FuncsMatched != 4 {
		t.Fatalf("cold run matched %d functions, want 4", only(cold[0]).FuncsMatched)
	}

	check := func(t *testing.T, files []core.SourceFile, wantMatched, wantCached int) {
		t.Helper()
		got := runAll(t, warm, files)
		compareResults(t, "warm", got, runAll(t, scratch, files))
		if only(got[0]).FuncsMatched != wantMatched || only(got[0]).FuncsCached != wantCached {
			t.Errorf("matched=%d cached=%d, want %d/%d",
				only(got[0]).FuncsMatched, only(got[0]).FuncsCached, wantMatched, wantCached)
		}
	}

	t.Run("rename-invalidates-one", func(t *testing.T) {
		check(t, mk("\n", f0, fnText("step_1_v2", 1), f2, f3), 1, 3)
	})
	t.Run("reorder-full-hit", func(t *testing.T) {
		check(t, mk("\n", f2, f1, f0, f3), 0, 4)
	})
	t.Run("delete-replays-survivors", func(t *testing.T) {
		check(t, mk("\n", f0, f1, f2), 0, 3)
	})
	t.Run("gap-comment-full-hit", func(t *testing.T) {
		check(t, mk("\n/* interlude between kernels */\n", f0, f1, f2, f3), 0, 4)
	})
	t.Run("gap-whitespace-full-hit", func(t *testing.T) {
		check(t, mk("\n\n\n", f0, f1, f2, f3), 0, 4)
	})
}

// TestFunctionCacheCorruptionHeals corrupts every persisted segment and
// file record on disk: the next run must drop them, re-derive everything
// byte-exactly, count the corruption, and leave a healthy cache behind.
func TestFunctionCacheCorruptionHeals(t *testing.T) {
	dir := t.TempDir() + "/cache"
	bodies := []string{"\told_api(x, 0);\n", "\told_api(x, 1);\n", "\told_api(x, 2);\n"}
	files := []core.SourceFile{fnBuildFile("heal.c", bodies)}
	patch := parsePatch(t, renamePatch)
	want := runAll(t, single(patch, Options{Workers: 2, NoFuncCache: true}), files)

	r1 := single(patch, Options{Workers: 2, CacheDir: dir})
	compareResults(t, "cold", runAll(t, r1, files), want)

	// Garbage every result entry (file-level under res/, segment under fn/).
	corrupted := 0
	for _, sub := range []string{"res", "fn"} {
		err := filepath.WalkDir(filepath.Join(dir, sub), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			corrupted++
			return os.WriteFile(path, []byte("{garbage"), 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if corrupted == 0 {
		t.Fatal("cold run persisted no result entries")
	}

	r2 := single(patch, Options{Workers: 2, CacheDir: dir})
	healed := runAll(t, r2, files)
	compareResults(t, "healed", healed, want)
	if only(healed[0]).FuncsMatched != 3 {
		t.Errorf("healing run matched %d functions, want 3 (all re-derived)", only(healed[0]).FuncsMatched)
	}
	if n := r2.Cache().CorruptEntries(); n == 0 {
		t.Error("corrupt entries were read back without being counted")
	}

	// The rebuilt records replay: edit one function, only it re-matches.
	bodies[1] = "\told_api(x, 99);\n"
	edited := []core.SourceFile{fnBuildFile("heal.c", bodies)}
	wantEdited := runAll(t, single(patch, Options{Workers: 2, NoFuncCache: true}), edited)
	r3 := single(patch, Options{Workers: 2, CacheDir: dir})
	after := runAll(t, r3, edited)
	compareResults(t, "after-heal", after, wantEdited)
	if only(after[0]).FuncsMatched != 1 || only(after[0]).FuncsCached != 2 {
		t.Errorf("after heal: matched=%d cached=%d, want 1/2", only(after[0]).FuncsMatched, only(after[0]).FuncsCached)
	}
}

// countingStore wraps a Store and counts writes per key, pinning the write
// discipline of the function-granular layer: every segment record is written
// exactly once, and segment writes never replace the file-level manifest.
type countingStore struct {
	inner    cache.Store
	mu       sync.Mutex
	fnPuts   map[string]int
	filePuts map[string]int
}

func newCountingStore(inner cache.Store) *countingStore {
	return &countingStore{inner: inner, fnPuts: map[string]int{}, filePuts: map[string]int{}}
}

func (s *countingStore) Words(h string) (map[string]bool, bool) { return s.inner.Words(h) }
func (s *countingStore) PutWords(h string, w map[string]bool) error {
	return s.inner.PutWords(h, w)
}
func (s *countingStore) Result(key, h string) (*cache.Record, bool) { return s.inner.Result(key, h) }
func (s *countingStore) PutResult(key, h string, r *cache.Record) error {
	s.mu.Lock()
	s.filePuts[key+"\x00"+h]++
	s.mu.Unlock()
	return s.inner.PutResult(key, h, r)
}
func (s *countingStore) FuncResult(key, h string) (*cache.FuncRecord, bool) {
	return s.inner.FuncResult(key, h)
}
func (s *countingStore) PutFuncResult(key, h string, r *cache.FuncRecord) error {
	s.mu.Lock()
	s.fnPuts[key+"\x00"+h]++
	s.mu.Unlock()
	return s.inner.PutFuncResult(key, h, r)
}

// TestFuncStoreWriteDiscipline pins the caching layer's bookkeeping: a cold
// run writes each segment record once (k functions + residue strong key +
// residue token key) and exactly one file manifest; a warm run after a
// one-function edit adds exactly one new segment record and one manifest,
// re-writing nothing. The file manifest must still be readable afterwards —
// segment entries live under their own key prefix and can never displace it.
func TestFuncStoreWriteDiscipline(t *testing.T) {
	const k = 4
	mem := cache.NewMemory(nil, 0)
	cs := newCountingStore(mem)
	patch := parsePatch(t, renamePatch)
	r := single(patch, Options{Workers: 2, Store: cs})

	bodies := make([]string, k)
	for i := range bodies {
		bodies[i] = fmt.Sprintf("\told_api(x, %d);\n", i)
	}
	files := []core.SourceFile{fnBuildFile("disc.c", bodies)}
	runAll(t, r, files)

	cs.mu.Lock()
	if len(cs.fnPuts) != k+2 {
		t.Errorf("cold run wrote %d segment records, want %d (k functions + 2 residue keys)", len(cs.fnPuts), k+2)
	}
	for key, n := range cs.fnPuts {
		if n != 1 {
			t.Errorf("segment record %x written %d times", key, n)
		}
	}
	if len(cs.filePuts) != 1 {
		t.Errorf("cold run wrote %d file manifests, want 1", len(cs.filePuts))
	}
	coldFn := len(cs.fnPuts)
	cs.mu.Unlock()

	// The manifest replays through the store even though k+2 segment entries
	// were written under the same (patch, options) key.
	fileHash := cache.HashString(files[0].Src)
	key := cache.ResultKey(patch.Src, keyFingerprint(r.opts.Engine, false, false, nil))
	if rec, ok := cs.Result(key, fileHash); !ok || !rec.Changed {
		t.Fatalf("file manifest unreadable after segment writes: ok=%v rec=%+v", ok, rec)
	}

	bodies[2] = "\told_api(x, 77);\n"
	runAll(t, r, []core.SourceFile{fnBuildFile("disc.c", bodies)})
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(cs.fnPuts) != coldFn+1 {
		t.Errorf("warm run grew segment records by %d, want 1", len(cs.fnPuts)-coldFn)
	}
	for key, n := range cs.fnPuts {
		if n != 1 {
			t.Errorf("segment record %x re-written (%d writes)", key, n)
		}
	}
	if len(cs.filePuts) != 2 {
		t.Errorf("total file manifests = %d, want 2 (one per content version)", len(cs.filePuts))
	}
}

// TestFunctionCacheCampaignCounters checks the campaign path wires the
// per-member counters: a two-patch campaign over an edited file replays
// per function for each eligible member.
func TestFunctionCacheCampaignCounters(t *testing.T) {
	secondPatch := `@s@
expression list el;
@@
- aux_api(el)
+ aux_api_v2(el)
`
	patches := []*smpl.Patch{parsePatch(t, renamePatch), parsePatch(t, secondPatch)}
	mk := func(c int) []string {
		return []string{
			fmt.Sprintf("\told_api(x, %d);\n", c),
			"\taux_api(x, 1);\n",
			"\told_api(x, 2);\n\taux_api(x, 2);\n",
		}
	}
	c := NewCampaign(patches, Options{Workers: 2, Store: cache.NewMemory(nil, 0)})
	cold, err := c.Collect([]core.SourceFile{fnBuildFile("camp.c", mk(0))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range cold.PerPatch {
		if ps.FuncsMatched == 0 {
			t.Errorf("cold campaign member %d matched no functions: %+v", i, ps)
		}
	}
	warm, err := c.Collect([]core.SourceFile{fnBuildFile("camp.c", mk(9))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Member 0 re-matches the edited function; member 1 sees a different
	// intermediate text (member 0 already transformed it), so only assert it
	// replays at least one function.
	if ps := warm.PerPatch[0]; ps.FuncsMatched != 1 || ps.FuncsCached != 2 {
		t.Errorf("warm member 0: matched=%d cached=%d, want 1/2", ps.FuncsMatched, ps.FuncsCached)
	}
	if ps := warm.PerPatch[1]; ps.FuncsCached == 0 {
		t.Errorf("warm member 1 replayed no functions: %+v", ps)
	}
}
