package cliutil

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteInPlace(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a.c")
	if err := os.WriteFile(p, []byte("old"), 0o750); err != nil {
		t.Fatal(err)
	}
	if err := WriteInPlace(p, "new"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p)
	if err != nil || string(b) != "new" {
		t.Fatalf("content = %q, err = %v", b, err)
	}
	info, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o750 {
		t.Errorf("permission bits not preserved: %v", info.Mode().Perm())
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("stray files after write: %v", entries)
	}
}

func TestWriteInPlaceFollowsSymlink(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "real.c")
	link := filepath.Join(dir, "link.c")
	if err := os.WriteFile(target, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	if err := WriteInPlace(link, "new"); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Errorf("link was replaced by a regular file")
	}
	b, _ := os.ReadFile(target)
	if string(b) != "new" {
		t.Errorf("target content = %q", b)
	}
}

func TestWriteInPlaceMissing(t *testing.T) {
	if err := WriteInPlace(filepath.Join(t.TempDir(), "nope.c"), "x"); err == nil {
		t.Error("want error for missing file")
	}
}

func TestCollectSources(t *testing.T) {
	dir := t.TempDir()
	mk := func(rel string) string {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("int x;\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := mk("src/a.c")
	b := mk("src/sub/b.cu")
	mk("src/readme.txt")          // wrong suffix: skipped
	mk(".git/objects/deadbeef.c") // .git: skipped

	// Overlapping roots must not duplicate files.
	got, err := CollectSources([]string{dir, filepath.Join(dir, "src")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("got %v, want [%s %s]", got, a, b)
	}
}

func TestCollectSourcesMissingDir(t *testing.T) {
	var warned bool
	got, err := CollectSources([]string{filepath.Join(t.TempDir(), "nope")},
		func(string, ...any) { warned = true })
	if err != nil {
		t.Fatalf("missing dir should warn, not fail: %v", err)
	}
	if !warned || len(got) != 0 {
		t.Errorf("warned=%v got=%v", warned, got)
	}
}
