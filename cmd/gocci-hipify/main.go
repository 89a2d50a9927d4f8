// Command gocci-hipify translates CUDA sources to HIP by running the
// shipped "hipify" semantic-patch campaign (see internal/hpc) through the
// engine's batch runner, so it inherits the -j worker pool, recursive tree
// scanning, the prefilter, and the persistent result cache; --verify adds
// the post-transform safety checker, demoting unsafe edits to warnings.
//
// Usage:
//
//	gocci-hipify [--in-place] [--stats] [--verify] [-j N] [-r]
//	             [--cache-dir DIR] file.cu ...
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/buildinfo"
	"repro/internal/hpc"
	"repro/internal/hpccli"
)

func main() {
	showVersion := buildinfo.Setup("gocci-hipify")
	inPlace := flag.Bool("in-place", false, "rewrite files instead of printing diffs")
	stats := flag.Bool("stats", false, "print translation statistics")
	verify := flag.Bool("verify", false, "run the post-transform safety checker; unsafe edits are demoted to warnings")
	recurse := flag.Bool("r", false, "treat arguments as directories; translate all CUDA/C++ sources below them")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "worker count for the campaign batch runner")
	cacheDir := flag.String("cache-dir", "", "persistent corpus-index directory; re-runs over unchanged files replay cached results")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON profile of the campaign run to this file")
	profile := flag.Bool("profile", false, "print an aggregate per-stage/per-rule profile to stderr")
	flag.Parse()
	buildinfo.HandleVersion("gocci-hipify", showVersion)

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: gocci-hipify [--in-place] [--stats] [--verify] [-j N] [-r] [--cache-dir DIR] file.cu ...")
		os.Exit(2)
	}
	campaign, _ := hpc.ByName("hipify")
	os.Exit(hpccli.Run(hpccli.Spec{
		Tool: "gocci-hipify", Campaign: campaign, InPlace: *inPlace, Stats: *stats, Verify: *verify,
		Recurse: *recurse, Workers: *workers, CacheDir: *cacheDir,
		TracePath: *tracePath, Profile: *profile, Args: flag.Args(),
	}))
}
