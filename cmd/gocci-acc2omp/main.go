// Command gocci-acc2omp translates OpenACC directives to OpenMP by running
// the shipped "acc2omp" semantic-patch campaign (the paper's pragmainfo use
// case, with the directive translator as a script rule — see internal/hpc)
// through the engine's batch runner, inheriting the -j worker pool,
// recursive tree scanning, the prefilter, and the persistent result cache;
// --verify adds the post-transform safety checker, including the pragma
// round-trip test. --offload targets OpenMP device offloading instead of
// host threading.
//
// Usage:
//
//	gocci-acc2omp [--offload] [--in-place] [--stats] [--verify] [-j N] [-r]
//	              [--cache-dir DIR] file.c ...
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
	showVersion := buildinfo.Setup("gocci-acc2omp")
	offload := flag.Bool("offload", false, "target OpenMP device offloading instead of host threading")
	inPlace := flag.Bool("in-place", false, "rewrite files instead of printing diffs")
	stats := flag.Bool("stats", false, "print translation statistics")
	verify := flag.Bool("verify", false, "run the post-transform safety checker; unsafe edits are demoted to warnings")
	recurse := flag.Bool("r", false, "treat arguments as directories; translate all C/C++ sources below them")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "worker count for the campaign batch runner")
	cacheDir := flag.String("cache-dir", "", "persistent corpus-index directory; re-runs over unchanged files replay cached results")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON profile of the campaign run to this file")
	profile := flag.Bool("profile", false, "print an aggregate per-stage/per-rule profile to stderr")
	flag.Parse()
	buildinfo.HandleVersion("gocci-acc2omp", showVersion)

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: gocci-acc2omp [--offload] [--in-place] [--stats] [--verify] [-j N] [-r] [--cache-dir DIR] file.c ...")
		os.Exit(2)
	}
	name := "acc2omp"
	if *offload {
		name = "acc2omp-offload"
	}
	campaign, _ := hpc.ByName(name)
	os.Exit(hpccli.Run(hpccli.Spec{
		Tool: "gocci-acc2omp", Campaign: campaign, InPlace: *inPlace, Stats: *stats, Verify: *verify,
		Recurse: *recurse, Workers: *workers, CacheDir: *cacheDir,
		TracePath: *tracePath, Profile: *profile, Args: flag.Args(),
	}))
}
