package batch

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/smpl"
)

func TestIsSource(t *testing.T) {
	for _, p := range []string{"a.c", "b.h", "c.cu", "d.cuh", "e.cpp", "f.hpp", "g.cc", "h.cxx"} {
		if !IsSource(p) {
			t.Errorf("IsSource(%s) = false", p)
		}
	}
	for _, p := range []string{"a.go", "b.txt", "Makefile", "c.cocci", "d"} {
		if IsSource(p) {
			t.Errorf("IsSource(%s) = true", p)
		}
	}
}

const renamePatch = `@r@
expression list el;
@@
- old_api(el)
+ new_api(el)
`

// single returns the one-member campaign that single-patch tests drive.
func single(p *smpl.Patch, opts Options) *Campaign {
	return NewCampaign([]*smpl.Patch{p}, opts)
}

// only returns a file's outcome under its campaign's sole member: the zero
// outcome when a per-file error stopped the file first.
func only(fr CampaignFileResult) PatchOutcome {
	if len(fr.Patches) == 0 {
		return PatchOutcome{}
	}
	return fr.Patches[0]
}

func parsePatch(t *testing.T, text string) *smpl.Patch {
	t.Helper()
	p, err := smpl.ParsePatch("t.cocci", text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// corpus fabricates n small files; every third one contains a match.
func corpus(n int) []core.SourceFile {
	files := make([]core.SourceFile, n)
	for i := range files {
		call := "other_api"
		if i%3 == 0 {
			call = "old_api"
		}
		files[i] = core.SourceFile{
			Name: fmt.Sprintf("f%03d.c", i),
			Src:  fmt.Sprintf("void fn%d(int x)\n{\n\t%s(x, %d);\n}\n", i, call, i),
		}
	}
	return files
}

func TestEmptyFileSet(t *testing.T) {
	r := single(parsePatch(t, renamePatch), Options{Workers: 4})
	st, err := r.Collect(nil, func(CampaignFileResult) error {
		t.Error("callback invoked for empty set")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := (CampaignStats{PerPatch: []PatchStats{{Patch: "t.cocci"}}}); !reflect.DeepEqual(st, want) {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

func TestDeterministicOrderAndOutputs(t *testing.T) {
	files := corpus(40)
	patch := parsePatch(t, renamePatch)

	// Sequential reference: the one-file-at-a-time engine.
	want := make([]string, len(files))
	for i, f := range files {
		res, err := core.New(patch, core.Options{}).Run([]core.SourceFile{f})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Outputs[f.Name]
	}

	for _, workers := range []int{1, 3, 16} {
		r := single(patch, Options{Workers: workers})
		var got []CampaignFileResult
		r.Run(files, func(fr CampaignFileResult) bool {
			got = append(got, fr)
			return true
		})
		if len(got) != len(files) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(files))
		}
		for i, fr := range got {
			if fr.Index != i || fr.Name != files[i].Name {
				t.Fatalf("workers=%d: result %d is %s (index %d), want %s", workers, i, fr.Name, fr.Index, files[i].Name)
			}
			if fr.Err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, fr.Name, fr.Err)
			}
			if fr.Output != want[i] {
				t.Errorf("workers=%d: %s output differs from sequential engine", workers, fr.Name)
			}
			if i%3 == 0 && !fr.Changed() {
				t.Errorf("workers=%d: %s should have changed", workers, fr.Name)
			}
			if i%3 != 0 && fr.Changed() {
				t.Errorf("workers=%d: %s should be untouched", workers, fr.Name)
			}
		}
	}
}

func TestParseFailureMidBatch(t *testing.T) {
	files := corpus(9)
	// The broken file mentions old_api so the prefilter cannot rule it out;
	// a broken file without the patch's atoms is skipped unparsed (see
	// TestPrefilterSkipsUnparseable).
	files[4] = core.SourceFile{Name: "broken.c", Src: "void f( {{{ old_api"}
	r := single(parsePatch(t, renamePatch), Options{Workers: 4})
	st, err := r.Collect(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 1 {
		t.Errorf("Errors = %d, want 1", st.Errors)
	}
	if st.Files != 9 {
		t.Errorf("Files = %d, want 9 (others must still complete)", st.Files)
	}
	if st.Changed != 3 { // indices 0, 3, 6 contain old_api
		t.Errorf("Changed = %d, want 3", st.Changed)
	}
	// A parse that fails still counts as parsed: the three old_api files
	// plus broken.c; the rest are prefilter skips.
	if st.Parsed != 4 {
		t.Errorf("Parsed = %d, want 4 (failed parses count)", st.Parsed)
	}

	// The failing file reports its error in order, with the name attached.
	var got []CampaignFileResult
	r.Run(files, func(fr CampaignFileResult) bool { got = append(got, fr); return true })
	if got[4].Err == nil || got[4].Name != "broken.c" {
		t.Errorf("result 4 = %+v, want parse error for broken.c", got[4])
	}
	if !strings.Contains(got[4].Err.Error(), "broken.c") {
		t.Errorf("error should name the file: %v", got[4].Err)
	}
	if !got[4].Parsed || len(got[4].Patches) != 0 {
		t.Errorf("result 4: Parsed=%v with %d outcomes, want a parsed file and no outcome", got[4].Parsed, len(got[4].Patches))
	}
}

func TestWorkerCountExceedsFiles(t *testing.T) {
	files := corpus(2)
	r := single(parsePatch(t, renamePatch), Options{Workers: 64})
	st, err := r.Collect(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 2 || st.Errors != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEarlyStop(t *testing.T) {
	files := corpus(200)
	r := single(parsePatch(t, renamePatch), Options{Workers: 8})
	seen := 0
	r.Run(files, func(fr CampaignFileResult) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Errorf("saw %d results after early stop, want 5", seen)
	}
	// The runner must still be reusable after an aborted run.
	st, err := r.Collect(files[:6], nil)
	if err != nil || st.Files != 6 {
		t.Errorf("rerun after stop: stats=%+v err=%v", st, err)
	}
}

// TestBoundedWindow streams a corpus far larger than the in-flight window
// (2x the workers) and checks that every file is delivered, in order.
func TestBoundedWindow(t *testing.T) {
	files := corpus(100)
	r := single(parsePatch(t, renamePatch), Options{Workers: 4})
	count := 0
	r.Run(files, func(fr CampaignFileResult) bool {
		if fr.Index != count {
			t.Fatalf("out of order: got %d want %d", fr.Index, count)
		}
		count++
		return true
	})
	if count != 100 {
		t.Errorf("delivered %d/100", count)
	}
}

func TestScriptRuleAcrossWorkers(t *testing.T) {
	patch := parsePatch(t, `@find@
identifier fn;
expression list el;
@@
fn(el)

@script:python up@
f << find.fn;
nf;
@@
coccinelle.nf = cocci.make_ident(RENAMES[f])

@apply depends on find@
identifier find.fn;
identifier up.nf;
expression list find.el;
@@
- fn(el)
+ nf(el)
`)
	// The Go handler replaces the Python body; it must be safe for
	// concurrent calls from multiple workers.
	renames := map[string]string{"old_api": "new_api", "other_api": "kept_api"}
	r := single(patch, Options{Workers: 8})
	r.RegisterScript("up", func(in map[string]string) (map[string]string, error) {
		nf, ok := renames[in["f"]]
		if !ok {
			return nil, fmt.Errorf("no rename for %q", in["f"])
		}
		return map[string]string{"nf": nf}, nil
	})
	files := corpus(24)
	st, err := r.Collect(files, func(fr CampaignFileResult) error {
		if fr.Err != nil {
			return fr.Err
		}
		if strings.Contains(fr.Output, "old_api") {
			return fmt.Errorf("%s: old_api survived:\n%s", fr.Name, fr.Output)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Changed != 24 {
		t.Errorf("Changed = %d, want 24", st.Changed)
	}
}

func TestRunPathsLazyReads(t *testing.T) {
	dir := t.TempDir()
	files := corpus(12)
	paths := make([]string, 0, len(files)+1)
	for _, f := range files {
		p := filepath.Join(dir, f.Name)
		if err := os.WriteFile(p, []byte(f.Src), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	// A missing file mid-batch must fail alone, like a parse error.
	paths = append(paths[:6:6], append([]string{filepath.Join(dir, "gone.c")}, paths[6:]...)...)

	r := single(parsePatch(t, renamePatch), Options{Workers: 4})
	st, err := r.CollectPaths(paths, func(fr CampaignFileResult) error {
		if fr.Name == filepath.Join(dir, "gone.c") {
			if fr.Err == nil {
				t.Error("missing file should report an error")
			}
		} else if fr.Err != nil {
			t.Errorf("%s: %v", fr.Name, fr.Err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 13 || st.Errors != 1 || st.Changed != 4 { // indices 0,3,6,9 contain old_api
		t.Errorf("stats = %+v", st)
	}
}

func TestUndeclaredDefineReportedOnce(t *testing.T) {
	r := single(parsePatch(t, renamePatch), Options{
		Workers: 4,
		Engine:  core.Options{Defines: []string{"nosuch"}},
	})
	var results []CampaignFileResult
	r.Run(corpus(10), func(fr CampaignFileResult) bool { results = append(results, fr); return true })
	if len(results) != 1 || results[0].Index != -1 || results[0].Err == nil {
		t.Fatalf("want one Index=-1 config-error result, got %+v", results)
	}
	st, err := r.Collect(corpus(10), nil)
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("Collect err = %v, want undeclared-define error", err)
	}
	if st.Files != 0 || st.Errors != 0 {
		t.Errorf("config error must not count as per-file stats: %+v", st)
	}
}

func TestCollectCallbackError(t *testing.T) {
	files := corpus(50)
	r := single(parsePatch(t, renamePatch), Options{Workers: 4})
	boom := fmt.Errorf("boom")
	st, err := r.Collect(files, func(fr CampaignFileResult) error {
		if fr.Index == 3 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Errorf("err = %v, want boom", err)
	}
	if st.Files != 4 {
		t.Errorf("Files = %d, want 4 (stopped at the failing callback)", st.Files)
	}
}

// parityPatches exercise the prefilter's conservative paths: a plain rename,
// a dependency chain, a virtual-gated rule, a disjunction, and a
// fresh-identifier rule that forces the filter to widen.
var parityPatches = []struct {
	name    string
	patch   string
	defines []string
}{
	{name: "rename", patch: renamePatch},
	{name: "chain", patch: `@first@
expression list el;
@@
- old_api(el)
+ mid_api(el)

@second depends on first@
expression list el;
@@
- mid_api(el)
+ new_api(el)
`},
	{name: "virtual", patch: `virtual go

@r depends on go@
expression list el;
@@
- old_api(el)
+ new_api(el)
`, defines: []string{"go"}},
	{name: "disjunction", patch: `@r@
expression E;
@@
- \( old_api(E, E) \| other_api(E, E) \)
+ new_api(E)
`},
	{name: "fresh", patch: `@r@
expression E;
fresh identifier tmp = "t";
@@
- old_api(E, E)
+ old_api(E, tmp)
`},
}

// parityCorpus mixes matching files, near-miss files (the atom embedded in
// a longer identifier or a comment), and plain non-matching files.
func parityCorpus() []core.SourceFile {
	files := corpus(12)
	files = append(files,
		core.SourceFile{Name: "near.c", Src: "void f(void)\n{\n\tmy_old_api(1, 2);\n}\n"},
		core.SourceFile{Name: "comment.c", Src: "/* old_api gone */\nvoid f(void)\n{\n\tx();\n}\n"},
		core.SourceFile{Name: "empty.c", Src: ""},
	)
	return files
}

// TestPrefilterParity is the prefilter's core guarantee: enabling it changes
// nothing observable per file — outputs, diffs and match counts are
// byte-identical — it only avoids work, and its two forms (per-atom probe,
// stored word set) skip exactly the same files.
func TestPrefilterParity(t *testing.T) {
	files := parityCorpus()
	for _, pc := range parityPatches {
		t.Run(pc.name, func(t *testing.T) {
			collect := func(noPrefilter bool, store cache.Store) []CampaignFileResult {
				r := single(parsePatch(t, pc.patch), Options{
					Workers:     4,
					Engine:      core.Options{Defines: pc.defines},
					NoPrefilter: noPrefilter,
					Store:       store,
				})
				var out []CampaignFileResult
				r.Run(files, func(fr CampaignFileResult) bool { out = append(out, fr); return true })
				return out
			}
			off := collect(true, nil)
			// Without a store a lone member probes atoms on the raw text; with
			// one it shares a scanned word set. Both must skip the same files.
			on := collect(false, nil)
			stored := collect(false, cache.NewMemory(nil, 0))
			if len(on) != len(off) {
				t.Fatalf("result counts differ: on=%d off=%d", len(on), len(off))
			}
			skipped := 0
			for i := range on {
				if only(on[i]).Skipped {
					skipped++
				}
				if only(on[i]).Skipped != only(stored[i]).Skipped {
					t.Errorf("%s: Skipped differs between the atom probe (%v) and the stored word set (%v)",
						on[i].Name, only(on[i]).Skipped, only(stored[i]).Skipped)
				}
				if stored[i].Output != off[i].Output || stored[i].Diff != off[i].Diff {
					t.Errorf("%s: store-backed output differs with prefilter on", on[i].Name)
				}
				if on[i].Output != off[i].Output {
					t.Errorf("%s: output differs with prefilter on", on[i].Name)
				}
				if on[i].Diff != off[i].Diff {
					t.Errorf("%s: diff differs with prefilter on", on[i].Name)
				}
				if only(on[i]).Matches() != only(off[i]).Matches() {
					t.Errorf("%s: match count differs: on=%d off=%d",
						on[i].Name, only(on[i]).Matches(), only(off[i]).Matches())
				}
				if (on[i].Err == nil) != (off[i].Err == nil) {
					t.Errorf("%s: error presence differs: on=%v off=%v",
						on[i].Name, on[i].Err, off[i].Err)
				}
				if only(off[i]).Skipped {
					t.Errorf("%s: NoPrefilter run must never skip", off[i].Name)
				}
			}
			if skipped == 0 {
				t.Error("prefilter never skipped anything on a mostly-non-matching corpus")
			}
		})
	}
	// A whole-codebase shape: 100 generated files, every tenth of which
	// calls the API the patch migrates. The outputs are byte-identical with
	// the prefilter on and off, and both runs change exactly those ten.
	t.Run("mixed-corpus", func(t *testing.T) {
		files := make([]core.SourceFile, 100)
		for i := range files {
			src := codegen.Mixed(codegen.Config{Funcs: 6 + i%4, StmtsPerFunc: 3, Seed: int64(i + 1)})
			if i%10 == 0 {
				src += "\nvoid migrate_me(int n)\n{\n\tlegacy_halo_exchange(n, 0);\n}\n"
			}
			files[i] = core.SourceFile{Name: fmt.Sprintf("src%03d.c", i), Src: src}
		}
		p := parsePatch(t, "@r@\nexpression list el;\n@@\n- legacy_halo_exchange(el)\n+ halo_exchange_v2(el)\n")
		var outs [2][]string
		for k, noPrefilter := range []bool{false, true} {
			st, err := single(p, Options{Workers: 2, NoPrefilter: noPrefilter}).Collect(files, func(fr CampaignFileResult) error {
				outs[k] = append(outs[k], fr.Output)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Changed != 10 || st.Errors != 0 {
				t.Errorf("NoPrefilter=%v: stats = %+v, want 10 changed and no errors", noPrefilter, st)
			}
		}
		if !reflect.DeepEqual(outs[0], outs[1]) {
			t.Error("the prefilter changed an output")
		}
	})
}

// TestPrefilterSkippedStats pins the Skipped accounting: skipped files count
// in Files and Skipped, never in Matched/Changed/Errors.
func TestPrefilterSkippedStats(t *testing.T) {
	files := parityCorpus() // 12 corpus files (4 matching) + 3 unmatchable
	r := single(parsePatch(t, renamePatch), Options{Workers: 2})
	st, err := r.Collect(files, func(fr CampaignFileResult) error {
		if only(fr).Skipped && (fr.Diff != "" || fr.Err != nil || only(fr).Matches() != 0) {
			t.Errorf("%s: skipped result must be inert: %+v", fr.Name, fr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 15 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 15 files, 0 errors", st)
	}
	if st.PerPatch[0].Matched != 4 || st.Changed != 4 {
		t.Errorf("stats = %+v, want 4 matched/changed", st)
	}
	// 8 corpus files call other_api, plus near.c and empty.c. comment.c
	// mentions old_api in a comment, which conservatively counts as
	// present, so it is parsed (and found unmatched) rather than skipped.
	if st.PerPatch[0].Skipped != 10 {
		t.Errorf("Skipped = %d, want 10", st.PerPatch[0].Skipped)
	}
}

// TestPrefilterSkipsUnparseable documents the intended trade-off: a file the
// patch provably cannot touch is never parsed, so its syntax errors go
// unreported unless the prefilter is disabled.
func TestPrefilterSkipsUnparseable(t *testing.T) {
	files := []core.SourceFile{{Name: "broken.c", Src: "void f( {{{"}}
	r := single(parsePatch(t, renamePatch), Options{Workers: 1})
	st, err := r.Collect(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 || st.PerPatch[0].Skipped != 1 {
		t.Errorf("stats = %+v, want the broken file skipped, not errored", st)
	}

	r = single(parsePatch(t, renamePatch), Options{Workers: 1, NoPrefilter: true})
	st, err = r.Collect(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 1 || st.PerPatch[0].Skipped != 0 {
		t.Errorf("stats = %+v, want a parse error with the prefilter off", st)
	}
}
