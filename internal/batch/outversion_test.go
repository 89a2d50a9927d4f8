package batch

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// TestCacheMissesStaleOutputVersion seeds a cache directory with records an
// engine of another output version wrote, each claiming a wrong output:
// one under the key format from before the output version joined the key,
// one under an older version. A warm run must miss both and print exactly
// what a run without the cache prints.
func TestCacheMissesStaleOutputVersion(t *testing.T) {
	patch := parsePatch(t, renamePatch)
	files := []core.SourceFile{
		{Name: "a.c", Src: "int f(int x)\n{\n\told_api(x, 1);\n\treturn x;\n}\n"},
		{Name: "b.c", Src: "int g(int x)\n{\n\treturn x;\n}\n"},
	}
	plain := runAll(t, single(patch, Options{Workers: 1}), files)

	dir := t.TempDir()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprint(core.Options{})
	for _, stale := range []string{fp, fp + ",out=0"} {
		if stale == keyFingerprint(core.Options{}, false, false, nil) {
			t.Fatalf("stale fingerprint %q is the current one", stale)
		}
		key := cache.ResultKey(patch.Src, stale)
		for _, f := range files {
			rec := &cache.Record{
				Changed:    true,
				Output:     "/* stale output */\n",
				Diff:       "@@ -1 +1 @@\n-stale\n+output\n",
				MatchCount: map[string]int{"r": 7},
			}
			if err := store.PutResult(key, cache.HashString(f.Src), rec); err != nil {
				t.Fatal(err)
			}
			if _, ok := store.Result(key, cache.HashString(f.Src)); !ok {
				t.Fatalf("seeded record under %q unreadable", stale)
			}
		}
	}

	warm := runAll(t, single(patch, Options{Workers: 1, CacheDir: dir}), files)
	compareResults(t, "warm over stale records", warm, plain)
	for _, fr := range warm {
		if o := only(fr); o.Cached || o.FuncsCached > 0 {
			t.Errorf("%s: replayed a record of another output version (cached=%v, funcs cached=%d)",
				fr.Name, o.Cached, o.FuncsCached)
		}
		if fr.Output == "/* stale output */\n" {
			t.Errorf("%s: printed the stale output", fr.Name)
		}
	}
}
