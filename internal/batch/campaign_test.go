package batch

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/smpl"
)

const secondPatch = `@s@
expression list el;
@@
- new_api(el)
+ newer_api(el)
`

const unrelatedPatch = `@u@
expression list el;
@@
- absent_api(el)
+ present_api(el)
`

// campaignCorpus mixes files that match patch 1 only, patch 2 only (via
// patch 1's output), and neither.
func campaignCorpus(n int) []core.SourceFile {
	return corpus(n)
}

// sequentialReference applies the patches one at a time with a fresh
// core.Engine per file, feeding each patch the previous one's outputs — the
// semantics a campaign must reproduce exactly, derived without the code
// under test.
func sequentialReference(t *testing.T, patchTexts []string, files []core.SourceFile) []string {
	t.Helper()
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.Src
	}
	for _, pt := range patchTexts {
		patch := parsePatch(t, pt)
		for i, f := range files {
			res, err := core.New(patch, core.Options{}).Run([]core.SourceFile{{Name: f.Name, Src: out[i]}})
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			out[i] = res.Outputs[f.Name]
		}
	}
	return out
}

// A campaign must equal running its member patches as separate sequential
// batch runs, file for file and byte for byte, at any worker count.
func TestCampaignEqualsSequentialRuns(t *testing.T) {
	files := campaignCorpus(30)
	texts := []string{renamePatch, secondPatch, unrelatedPatch}
	want := sequentialReference(t, texts, files)

	for _, workers := range []int{1, 4, 16} {
		c := NewCampaign(parseAll(t, texts), Options{Workers: workers})
		i := 0
		c.Run(files, func(fr CampaignFileResult) bool {
			if fr.Err != nil {
				t.Fatalf("%s: %v", fr.Name, fr.Err)
			}
			if fr.Index != i {
				t.Fatalf("out of order: got index %d at position %d", fr.Index, i)
			}
			if fr.Output != want[i] {
				t.Errorf("workers=%d %s: campaign output differs from sequential runs", workers, fr.Name)
			}
			if len(fr.Patches) != len(texts) {
				t.Fatalf("%s: %d patch outcomes, want %d", fr.Name, len(fr.Patches), len(texts))
			}
			i++
			return true
		})
		if i != len(files) {
			t.Fatalf("workers=%d: delivered %d of %d results", workers, i, len(files))
		}
	}
}

func parseAll(t *testing.T, texts []string) []*smpl.Patch {
	t.Helper()
	out := make([]*smpl.Patch, len(texts))
	for i, pt := range texts {
		out[i] = parsePatch(t, pt)
	}
	return out
}

func TestCampaignStats(t *testing.T) {
	files := campaignCorpus(9) // files 0,3,6 call old_api
	c := NewCampaign(parseAll(t, []string{renamePatch, secondPatch, unrelatedPatch}), Options{Workers: 2})
	st, err := c.Collect(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 9 || st.Changed != 3 || st.Errors != 0 {
		t.Errorf("aggregate = %+v", st)
	}
	if len(st.PerPatch) != 3 {
		t.Fatalf("PerPatch = %v", st.PerPatch)
	}
	// Patch 1 rewrites old_api in 3 files; patch 2 rewrites patch 1's
	// output in the same 3; patch 3 can never fire and is prefilter-skipped
	// everywhere.
	if p := st.PerPatch[0]; p.Matched != 3 || p.Changed != 3 {
		t.Errorf("patch 1 stats = %+v", p)
	}
	if p := st.PerPatch[1]; p.Matched != 3 || p.Changed != 3 {
		t.Errorf("patch 2 stats = %+v", p)
	}
	if p := st.PerPatch[2]; p.Matched != 0 || p.Changed != 0 || p.Skipped != 9 {
		t.Errorf("patch 3 stats = %+v", p)
	}
}

// A parse failure aborts that file's remaining patches and reports one
// error; other files complete.
func TestCampaignParseFailure(t *testing.T) {
	files := campaignCorpus(4)
	files[2].Src = "void broken( {" // unparseable, but contains no atom...
	// Give it an atom so the prefilter cannot save it from the parser.
	files[2].Src = "void broken(\n{\n\told_api(1;\n}\n"
	c := NewCampaign(parseAll(t, []string{renamePatch, secondPatch}), Options{Workers: 2})
	st, err := c.Collect(files, func(fr CampaignFileResult) error {
		if fr.Name == files[2].Name {
			if fr.Err == nil {
				t.Error("broken file reported no error")
			}
		} else if fr.Err != nil {
			t.Errorf("%s: unexpected error %v", fr.Name, fr.Err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 1 || st.Files != 4 {
		t.Errorf("stats = %+v", st)
	}
}

// A define declared in only one member patch configures that patch and is
// invisible to the others; an entirely undeclared define is a config error
// delivered once.
func TestCampaignDefines(t *testing.T) {
	virtualPatch := "virtual aggressive;\n@v depends on aggressive@\nexpression list el;\n@@\n- old_api(el)\n+ tuned_api(el)\n"
	files := campaignCorpus(3)

	c := NewCampaign(parseAll(t, []string{virtualPatch, unrelatedPatch}), Options{
		Workers: 2, Engine: core.Options{Defines: []string{"aggressive"}},
	})
	st, err := c.Collect(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.PerPatch[0].Changed != 1 {
		t.Errorf("virtual patch did not fire: %+v", st.PerPatch[0])
	}

	bad := NewCampaign(parseAll(t, []string{virtualPatch, unrelatedPatch}), Options{
		Workers: 2, Engine: core.Options{Defines: []string{"nonsense"}},
	})
	calls := 0
	bad.Run(files, func(fr CampaignFileResult) bool {
		calls++
		if fr.Index != -1 || fr.Err == nil {
			t.Errorf("want one config error result, got %+v", fr)
		}
		return true
	})
	if calls != 1 {
		t.Errorf("config error delivered %d times", calls)
	}
}

func TestCampaignEarlyStop(t *testing.T) {
	files := campaignCorpus(40)
	c := NewCampaign(parseAll(t, []string{renamePatch, secondPatch}), Options{Workers: 4})
	n := 0
	c.Run(files, func(fr CampaignFileResult) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("stopped after %d results, want 5", n)
	}
	// The campaign stays reusable.
	st, err := c.Collect(files, nil)
	if err != nil || st.Files != 40 {
		t.Errorf("reuse after early stop: %+v, %v", st, err)
	}
}

func TestCampaignEmptyPatchList(t *testing.T) {
	c := NewCampaign(nil, Options{})
	got := 0
	c.Run(campaignCorpus(2), func(fr CampaignFileResult) bool {
		got++
		if fr.Err == nil {
			t.Error("want config error")
		}
		return true
	})
	if got != 1 {
		t.Errorf("got %d results", got)
	}
}

// Editing a file invalidates exactly its own cached results.
func TestCacheInvalidationByContent(t *testing.T) {
	files := campaignCorpus(6)
	dir := filepath.Join(t.TempDir(), "cache")
	patch := parsePatch(t, renamePatch)

	if _, err := single(patch, Options{CacheDir: dir}).Collect(files, nil); err != nil {
		t.Fatal(err)
	}
	files[0].Src = "void edited(int x)\n{\n\told_api(x, 99);\n}\n"
	var results []CampaignFileResult
	st, err := single(patch, Options{CacheDir: dir}).Collect(files, func(fr CampaignFileResult) error {
		results = append(results, fr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := st.PerPatch[0].Cached; n != len(files)-1 {
		t.Errorf("cached = %d, want %d (only the edited file re-runs)", n, len(files)-1)
	}
	if only(results[0]).Cached {
		t.Error("edited file served from cache")
	}
	if !strings.Contains(results[0].Output, "new_api(x, 99)") {
		t.Errorf("edited file not re-patched:\n%s", results[0].Output)
	}
}

// A patch edit changes the result key: nothing from the old patch replays.
func TestCacheInvalidationByPatch(t *testing.T) {
	files := campaignCorpus(6)
	dir := filepath.Join(t.TempDir(), "cache")

	if _, err := single(parsePatch(t, renamePatch), Options{CacheDir: dir}).Collect(files, nil); err != nil {
		t.Fatal(err)
	}
	other := strings.Replace(renamePatch, "new_api", "brand_new_api", 1)
	st, err := single(parsePatch(t, other), Options{CacheDir: dir}).Collect(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := st.PerPatch[0].Cached; n != 0 {
		t.Errorf("edited patch replayed %d stale results", n)
	}
}

// Cold, warm, and disabled cache must produce byte-identical results for a
// single-patch campaign; the warm run must be served from the cache.
func TestRunnerCacheParity(t *testing.T) {
	checkCacheParity(t, []string{renamePatch}, campaignCorpus(20))
}

// Campaign warm runs replay every member outcome from the cache, and a
// member's cached output still feeds the next member.
func TestCampaignCacheWarm(t *testing.T) {
	checkCacheParity(t, []string{renamePatch, secondPatch}, campaignCorpus(12))
}

// checkCacheParity runs the campaign of texts over files uncached, cold and
// warm: outputs, diffs and match counts must agree, the result must equal
// running the members one after another, and the warm run must be served
// entirely from the cache (hits report cached, never skipped).
func checkCacheParity(t *testing.T, texts []string, files []core.SourceFile) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "cache")
	want := sequentialReference(t, texts, files)
	collect := func(opts Options) ([]CampaignFileResult, CampaignStats) {
		var out []CampaignFileResult
		st, err := NewCampaign(parseAll(t, texts), opts).Collect(files, func(fr CampaignFileResult) error {
			out = append(out, fr)
			return fr.Err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, st
	}
	plain, _ := collect(Options{Workers: 2})
	cold, coldSt := collect(Options{Workers: 2, CacheDir: dir})
	warm, warmSt := collect(Options{Workers: 2, CacheDir: dir})

	for i := range files {
		if warm[i].Output != want[i] {
			t.Errorf("%d members, %s: warm campaign output differs from sequential runs", len(texts), files[i].Name)
		}
		for _, run := range []struct {
			name string
			got  CampaignFileResult
		}{{"cold", cold[i]}, {"warm", warm[i]}} {
			if run.got.Output != plain[i].Output || run.got.Diff != plain[i].Diff {
				t.Errorf("%s %s: output differs from uncached run", run.name, files[i].Name)
			}
			for pi, o := range run.got.Patches {
				if fmt.Sprint(o.MatchCount) != fmt.Sprint(plain[i].Patches[pi].MatchCount) {
					t.Errorf("%s %s: patch %s match counts differ", run.name, files[i].Name, o.Patch)
				}
			}
		}
		for _, o := range warm[i].Patches {
			if !o.Cached {
				t.Errorf("%s: patch %s not cached on warm run", files[i].Name, o.Patch)
			}
			if o.MatchCount == nil {
				t.Errorf("%s: patch %s replayed a nil MatchCount (cold runs always produce a map)", files[i].Name, o.Patch)
			}
		}
	}
	for pi := range texts {
		if n := coldSt.PerPatch[pi].Cached; n != 0 {
			t.Errorf("patch %d: cold run reported %d cached files", pi, n)
		}
		if ps := warmSt.PerPatch[pi]; ps.Cached != len(files) || ps.Skipped != 0 {
			t.Errorf("patch %d: warm run cached %d and skipped %d of %d files, want all cached", pi, ps.Cached, ps.Skipped, len(files))
		}
	}
}

// Corrupting a cache entry between runs must not corrupt outputs: the entry
// is dropped, the file re-runs, and the cache heals.
func TestCacheCorruptionHeals(t *testing.T) {
	files := campaignCorpus(4)
	dir := filepath.Join(t.TempDir(), "cache")
	patch := parsePatch(t, renamePatch)
	if _, err := single(patch, Options{CacheDir: dir}).Collect(files, nil); err != nil {
		t.Fatal(err)
	}
	// Smash every result entry.
	err := filepath.Walk(filepath.Join(dir, "res"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		return os.WriteFile(path, []byte("not json"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	r := single(patch, Options{CacheDir: dir})
	var outs []string
	st, err := r.Collect(files, func(fr CampaignFileResult) error {
		outs = append(outs, fr.Output)
		return fr.Err
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.PerPatch[0].Cached != 0 {
		t.Errorf("corrupt entries replayed: %+v", st)
	}
	if n := r.Cache().CorruptEntries(); n == 0 {
		t.Error("corruption not counted")
	}
	if !strings.Contains(outs[0], "new_api(x, 0)") {
		t.Errorf("output wrong after corruption:\n%s", outs[0])
	}
	// Third run: healed, fully cached.
	st, err = single(patch, Options{CacheDir: dir}).Collect(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.PerPatch[0].Cached != len(files) {
		t.Errorf("cache did not heal: %+v", st)
	}
}

// Registering a Go script handler disables result caching (the handler's
// behaviour is outside the patch hash) but never breaks the run.
func TestGoScriptDisablesResultCache(t *testing.T) {
	scriptPatch := `@r@
identifier f;
@@
old_api(f)

@script:python s@
f << r.f;
g;
@@
g = f + "_mk2"

@w@
identifier r.f;
identifier s.g;
@@
- old_api(f)
+ new_api(g)
`
	files := []core.SourceFile{
		{Name: "a.c", Src: "void a(void)\n{\n\told_api(dev);\n}\n"},
	}
	dir := filepath.Join(t.TempDir(), "cache")
	mk := func() *Campaign {
		r := single(parsePatch(t, scriptPatch), Options{CacheDir: dir})
		r.RegisterScript("s", func(in map[string]string) (map[string]string, error) {
			return map[string]string{"g": in["f"] + "_native"}, nil
		})
		return r
	}
	for run := 0; run < 2; run++ {
		st, err := mk().Collect(files, func(fr CampaignFileResult) error { return fr.Err })
		if err != nil {
			t.Fatal(err)
		}
		if st.PerPatch[0].Cached != 0 {
			t.Errorf("run %d: results cached despite Go script handler", run)
		}
		if st.Changed != 1 {
			t.Errorf("run %d: stats %+v", run, st)
		}
	}
}
