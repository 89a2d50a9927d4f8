// Command gocci applies semantic patches to C/C++ source files, printing a
// unified diff by default (like spatch) or rewriting files in place.
//
// Usage:
//
//	gocci --sp-file patch.cocci [-cxx STD] [--cuda] [--in-place] file.c [file2.c ...]
//	gocci -j 8 -r --stats [--cache-dir DIR] path/to/tree patch.cocci [more.cocci ...]
//	gocci --campaign NAME [-r] [--verify] [--in-place] path ...
//
// With an explicit file list, one engine processes all files together and
// metavariable bindings flow across files between rules. In recursive mode
// (-r) the positional arguments are directories, scanned for C/C++/CUDA
// sources, and the patches are applied to each file independently with a
// -j worker pool; files are read lazily inside the pool, a required-atom
// prefilter skips files a patch provably cannot touch (disable with
// --no-prefilter), and diffs stream in deterministic path order. Patches
// are named with --sp-file and/or as positional .cocci arguments; giving
// several runs them as a campaign, each file seeing the patches in command
// order but parsed at most once. --campaign NAME runs a shipped HPC
// campaign (see --list-campaigns) ahead of them, always on the batch
// runner. --cache-dir enables the persistent corpus index: re-runs over
// unchanged files replay cached results instead of re-scanning,
// re-parsing, and re-matching them. --trace FILE records the run as Chrome
// trace-event JSON (per-stage spans on one track per worker) and --profile
// prints the aggregate table; see docs/observability.md. The command is
// implemented in internal/cliutil.
package main

import (
	"os"

	"repro/internal/cliutil"
)

func main() {
	os.Exit(cliutil.Main("gocci", os.Args[1:]))
}
