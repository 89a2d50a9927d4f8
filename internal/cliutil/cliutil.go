// Package cliutil is the gocci command line: Main parses the flags,
// collects the inputs, and runs the patches — the named shipped campaign
// (`--campaign`) and any .cocci files — either through one cross-file
// engine run or on the batch runner with its worker pool, prefilter, and
// caches, rendering diffs, in-place rewrites, check-mode findings, and
// statistics. cmd/gocci is a call to Main; cmd/gocci-hipify is the same
// call with `--campaign hipify` prepended. This file holds its file
// handling: the atomic in-place writer, the trace writer, and the
// recursive source-tree collector.
package cliutil

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/batch"
	"repro/internal/obs"
)

// WriteInPlace atomically replaces path with content, keeping the original
// file's permission bits: the new text lands in a temp file in the same
// directory, is fsynced, and is renamed over the original, so a crash
// mid-write can never leave a truncated source file behind, and an
// executable script stays executable. Symlinks are resolved first so the
// rename rewrites the link's target instead of silently replacing the link
// with a regular file. (Hard-link peers do detach — the price of an atomic
// replace.)
func WriteInPlace(path, content string) error {
	real, err := filepath.EvalSymlinks(path)
	if err != nil {
		return err
	}
	path = real
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".gocci-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.WriteString(content); err != nil {
		tmp.Close()
		return err
	}
	// Chmod rather than relying on CreateTemp's 0600: the replacement must
	// carry the original's permission bits.
	if err := tmp.Chmod(info.Mode().Perm()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// WriteTrace renders a run's trace buffer as Chrome trace-event JSON at
// path, ready to load in Perfetto or chrome://tracing. Shared by every
// front end's --trace flag.
func WriteTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CollectSources walks directories gathering C/C++/CUDA files in sorted
// path order, so batch output order is reproducible run to run. Files
// reached through repeated or overlapping directory arguments are kept
// once — patching a file twice in one run would double-apply the rules.
// An unreadable entry is reported through warnf (when non-nil) and skipped
// — one bad subdirectory must not abort the whole batch.
func CollectSources(dirs []string, warnf func(format string, args ...any)) ([]string, error) {
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	var out []string
	seen := map[string]bool{}
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				warnf("skipping %s: %v", path, err)
				if d != nil && d.IsDir() {
					return filepath.SkipDir
				}
				return nil
			}
			if d.IsDir() {
				if name := d.Name(); name == ".git" {
					return filepath.SkipDir
				}
				return nil
			}
			if !batch.IsSource(path) {
				return nil
			}
			key := filepath.Clean(path)
			if !seen[key] {
				seen[key] = true
				out = append(out, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}
