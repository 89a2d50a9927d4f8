package cache

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestScanRoundtrip(t *testing.T) {
	c, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	h := HashString("int main(void) { return 0; }")
	if _, ok := c.Words(h); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	words := map[string]bool{"int": true, "main": true, "void": true, "return": true}
	if err := c.PutWords(h, words); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Words(h)
	if !ok {
		t.Fatal("miss after put")
	}
	if len(got) != len(words) {
		t.Fatalf("got %v want %v", got, words)
	}
	for w := range words {
		if !got[w] {
			t.Errorf("missing word %q", w)
		}
	}
}

func TestResultRoundtrip(t *testing.T) {
	c, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	key := ResultKey("@@\n- a()\n+ b()\n", "v1|cpp=false")
	h := HashString("void f(void) { a(); }")
	if _, ok := c.Result(key, h); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	rec := &Record{
		MatchCount: map[string]int{"r": 2},
		Changed:    true,
		Output:     "void f(void) { b(); }",
	}
	if err := c.PutResult(key, h, rec); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Result(key, h)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.Output != rec.Output || !got.Changed || got.MatchCount["r"] != 2 {
		t.Fatalf("got %+v want %+v", got, rec)
	}
	// A different patch key or file hash must miss.
	if _, ok := c.Result(ResultKey("other", "v1"), h); ok {
		t.Error("hit across patch keys")
	}
	if _, ok := c.Result(key, HashString("edited")); ok {
		t.Error("hit across file hashes")
	}
}

// A corrupt entry is dropped, counted, and treated as a miss — never
// returned to the caller.
func TestCorruptEntryDropped(t *testing.T) {
	dir := t.TempDir() + "/cache"
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ResultKey("patch", "opts")
	h := HashString("src")
	if err := c.PutResult(key, h, &Record{Changed: true, Output: "out"}); err != nil {
		t.Fatal(err)
	}
	path := c.resPath(key, h)
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Result(key, h); ok {
		t.Fatal("corrupt entry returned")
	}
	if c.CorruptEntries() != 1 {
		t.Fatalf("CorruptEntries = %d, want 1", c.CorruptEntries())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry not deleted")
	}
	// Rebuilding the entry heals the cache.
	if err := c.PutResult(key, h, &Record{Changed: true, Output: "out"}); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Result(key, h); !ok || got.Output != "out" {
		t.Fatalf("rebuilt entry = %+v ok=%v", got, ok)
	}
}

// Valid JSON with a flipped output or diff byte fails the checksum and is
// rebuilt, never written into user files or printed.
func TestChecksumMismatchDropped(t *testing.T) {
	for _, field := range []string{"output", "diff"} {
		t.Run(field, func(t *testing.T) {
			c, err := Open(t.TempDir() + "/cache")
			if err != nil {
				t.Fatal(err)
			}
			key := ResultKey("patch", "opts")
			h := HashString("src")
			rec := &Record{Changed: true, Output: "good output\n", Diff: "@@ -1,1 +1,1 @@\n-src\n+good output\n"}
			if err := c.PutResult(key, h, rec); err != nil {
				t.Fatal(err)
			}
			path := c.resPath(key, h)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip "good" inside the chosen field only.
			marker := `"` + field + `":"`
			at := strings.Index(string(b), marker) + len(marker)
			tampered := string(b[:at]) + strings.Replace(string(b[at:]), "good", "evil", 1)
			if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Result(key, h); ok {
				t.Fatal("tampered entry returned")
			}
			if c.CorruptEntries() != 1 {
				t.Fatalf("CorruptEntries = %d, want 1", c.CorruptEntries())
			}
		})
	}
}

// An old-format cache (v1 records have no diff in their checksum) is wiped
// and rebuilt, and the rebuild is reported.
func TestVersionMismatchRebuilds(t *testing.T) {
	dir := t.TempDir() + "/cache"
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := HashString("src")
	if err := c.PutWords(h, map[string]bool{"w": true}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("gocci-cache-v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c2.Rebuilt(), "gocci-cache-v1") {
		t.Errorf("rebuild reason %q does not name the old version", c2.Rebuilt())
	}
	if _, ok := c2.Words(h); ok {
		t.Error("old entries survived the rebuild")
	}
	// A third open sees the fresh marker and keeps the cache.
	c3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Rebuilt() != "" {
		t.Errorf("unexpected rebuild: %s", c3.Rebuilt())
	}
}

// A non-empty directory without a VERSION marker is not a cache; Open must
// refuse rather than wipe it.
func TestRefusesForeignDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "thesis.tex"), []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a non-cache directory")
	}
	if _, err := os.Stat(filepath.Join(dir, "thesis.tex")); err != nil {
		t.Fatal("Open destroyed foreign data")
	}
}

// A path that exists as a regular file cannot become a cache.
func TestRefusesFilePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "afile")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a regular file")
	}
}

// Concurrent writers of the same and different entries never corrupt the
// store (run with -race).
func TestConcurrentWrites(t *testing.T) {
	c, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	key := ResultKey("p", "o")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := HashString("shared")
			for j := 0; j < 20; j++ {
				if err := c.PutResult(key, h, &Record{Changed: true, Output: "same text"}); err != nil {
					t.Error(err)
				}
				if rec, ok := c.Result(key, h); ok && rec.Output != "same text" {
					t.Errorf("torn read: %q", rec.Output)
				}
			}
		}()
	}
	wg.Wait()
	if c.CorruptEntries() != 0 {
		t.Fatalf("CorruptEntries = %d after clean concurrent use", c.CorruptEntries())
	}
}
