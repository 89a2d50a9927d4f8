// Package hpccli is the shared driver behind the HPC command-line tools
// (gocci-hipify, gocci-acc2omp). Both tools are thin clients of the shipped
// campaigns in internal/hpc: the driver collects the input paths, runs the
// campaign through the engine's batch runner — inheriting the worker pool,
// prefilter, per-function cache, and persistent result cache — and renders
// diffs, in-place rewrites, verifier findings, and statistics in one
// consistent format.
package hpccli

import (
	"fmt"
	"os"
	"time"

	sempatch "repro"
	"repro/internal/cliutil"
	"repro/internal/cparse"
	"repro/internal/hpc"
)

// Spec describes one tool invocation after flag parsing.
type Spec struct {
	// Tool is the binary name used as the message prefix.
	Tool string
	// Campaign is the shipped campaign to run.
	Campaign *hpc.Campaign
	// InPlace rewrites files atomically instead of printing diffs.
	InPlace bool
	// Stats prints a summary (including the parse count) to stderr.
	Stats bool
	// Verify enables the post-transform safety checker.
	Verify bool
	// Recurse treats Args as directory trees to scan.
	Recurse bool
	// Workers is the batch pool size; 0 means GOMAXPROCS.
	Workers int
	// CacheDir enables the persistent corpus index.
	CacheDir string
	// TracePath, when non-empty, writes the run's Chrome trace-event JSON
	// there.
	TracePath string
	// Profile prints the aggregate stage/rule profile to stderr.
	Profile bool
	// Args are the positional file (or, with Recurse, directory) arguments.
	Args []string
}

// Run sweeps the campaign over the input paths and returns the process exit
// code.
func Run(s Spec) int {
	paths := s.Args
	if s.Recurse {
		var err error
		paths, err = cliutil.CollectSources(s.Args, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, s.Tool+": "+format+"\n", args...)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.Tool, err)
			return 1
		}
	}
	opts := sempatch.Options{Workers: s.Workers, CacheDir: s.CacheDir, Verify: s.Verify}
	var tracer *sempatch.Tracer
	if s.TracePath != "" || s.Profile {
		tracer = sempatch.NewTracer()
		opts.Tracer = tracer
	}
	ca, err := s.Campaign.Build(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", s.Tool, err)
		return 1
	}
	code := 0
	start := time.Now()
	parses := cparse.Parses()
	st, err := ca.ApplyAllPathsFunc(paths, func(fr sempatch.CampaignFileResult) error {
		if fr.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.Tool, fr.Err)
			code = 1
			return nil
		}
		for _, o := range fr.Patches {
			for _, w := range o.Warnings {
				fmt.Fprintf(os.Stderr, "%s: verify: %s: %s\n", s.Tool, fr.Name, w)
			}
			if o.Demoted {
				fmt.Fprintf(os.Stderr, "%s: verify: %s: unsafe edit by %s demoted\n", s.Tool, fr.Name, o.Patch)
			}
		}
		if fr.Diff == "" {
			return nil
		}
		if s.InPlace {
			if err := cliutil.WriteInPlace(fr.Name, fr.Output); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", s.Tool, err)
				code = 1
				return nil
			}
			fmt.Fprintf(os.Stderr, "patched %s\n", fr.Name)
			return nil
		}
		fmt.Print(fr.Diff)
		return nil
	})
	parses = cparse.Parses() - parses
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", s.Tool, err)
		return 1
	}
	cs := ca.CacheStatus()
	if cs.Enabled && cs.Rebuilt != "" {
		fmt.Fprintf(os.Stderr, "%s: warning: cache at %s was incompatible (%s); it was dropped and rebuilt\n", s.Tool, cs.Dir, cs.Rebuilt)
	}
	if cs.Enabled && cs.CorruptEntries > 0 {
		fmt.Fprintf(os.Stderr, "%s: warning: %d corrupt cache entries at %s were dropped and rebuilt\n", s.Tool, cs.CorruptEntries, cs.Dir)
	}
	if s.Stats {
		fmt.Fprintf(os.Stderr, "%s: campaign %s v%s: %d files, %d changed, %d errors, parsed: %d in %v\n",
			s.Tool, s.Campaign.Name, s.Campaign.Version, st.Files, st.Changed, st.Errors,
			parses, elapsed.Round(time.Millisecond))
		for _, ps := range st.PerPatch {
			fmt.Fprintf(os.Stderr, "%s:   patch %s: %d skipped by prefilter, %d cached, %d matched (%d matches), %d changed, %d functions matched, %d functions cached, %d demoted, %d warnings\n",
				s.Tool, ps.Patch, ps.Skipped, ps.Cached, ps.Matched, ps.Matches, ps.Changed,
				ps.FuncsMatched, ps.FuncsCached, ps.Demoted, ps.Warnings)
		}
	}
	if s.Profile {
		fmt.Fprint(os.Stderr, tracer.Profile().Format())
	}
	if s.TracePath != "" {
		if err := cliutil.WriteTrace(s.TracePath, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.Tool, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "%s: trace written to %s\n", s.Tool, s.TracePath)
	}
	return code
}
