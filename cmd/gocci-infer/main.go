// Command gocci-infer derives a semantic patch from before/after examples —
// patch inference by demonstration. Examples are given as file pairs on the
// command line or mined from a git repository's history at function
// granularity. The inferred .cocci is verified in-process before it is
// printed: the engine compiles it and replays every "before" file, demanding
// byte-identity with its "after"; the most abstract patch surviving that
// round-trip oracle wins.
//
// Usage:
//
//	gocci-infer [flags] before.c after.c [before2.c after2.c ...]
//	gocci-infer [flags] --git path/to/repo
//
// Flags:
//
//	-o file      write the inferred .cocci to file (default stdout)
//	--rule name  name of the emitted rule (default "inferred")
//	--git dir    mine before/after pairs from the repository's history
//	--git-limit  maximum pairs to mine (default 16)
//	--cxx N      C++ standard (0 = C)
//	--cuda       enable CUDA kernel-launch tokens
//	-v           report the surviving variant, examples, and rejected
//	             variants on stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/infer"
)

func main() {
	showVersion := buildinfo.Setup(flag.CommandLine, "gocci-infer")
	out := flag.String("o", "", "write the inferred .cocci here (default stdout)")
	rule := flag.String("rule", "", `name of the emitted rule (default "inferred")`)
	gitRepo := flag.String("git", "", "mine before/after pairs from this git repository")
	gitLimit := flag.Int("git-limit", 16, "maximum pairs to mine from history")
	cxx := flag.Int("cxx", 0, "C++ standard (0 = C)")
	cuda := flag.Bool("cuda", false, "enable CUDA kernel-launch tokens")
	verbose := flag.Bool("v", false, "report variant, examples, and rejected variants on stderr")
	flag.Parse()
	buildinfo.HandleVersion("gocci-infer", showVersion)

	popts := cparse.Options{CPlusPlus: *cxx > 0, Std: *cxx, CUDA: *cuda}
	opts := infer.Options{
		RuleName: *rule,
		Parse:    popts,
		Engine:   core.Options{CPlusPlus: *cxx > 0, Std: *cxx, CUDA: *cuda},
	}

	var pairs []infer.Pair
	switch {
	case *gitRepo != "":
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "gocci-infer: --git and explicit file pairs are mutually exclusive")
			os.Exit(2)
		}
		mined, err := infer.MineGit(*gitRepo, *gitLimit, popts)
		if err != nil {
			fatal(err)
		}
		for _, m := range mined {
			if *verbose {
				fmt.Fprintf(os.Stderr, "gocci-infer: mined %s (functions: %v)\n", m.Name, m.Changed)
			}
			pairs = append(pairs, m.Pair)
		}
	case flag.NArg() == 0 || flag.NArg()%2 != 0:
		fmt.Fprintln(os.Stderr, "usage: gocci-infer [flags] before.c after.c [before2.c after2.c ...]")
		fmt.Fprintln(os.Stderr, "       gocci-infer [flags] --git path/to/repo")
		os.Exit(2)
	default:
		for i := 0; i < flag.NArg(); i += 2 {
			bPath, aPath := flag.Arg(i), flag.Arg(i+1)
			before, err := os.ReadFile(bPath)
			if err != nil {
				fatal(err)
			}
			after, err := os.ReadFile(aPath)
			if err != nil {
				fatal(err)
			}
			pairs = append(pairs, infer.Pair{
				Name:   filepath.Base(bPath) + ":" + filepath.Base(aPath),
				Before: string(before),
				After:  string(after),
			})
		}
	}

	res, err := infer.Infer(pairs, opts)
	if err != nil {
		if pe, ok := err.(*infer.PairError); ok {
			fmt.Fprintf(os.Stderr, "gocci-infer: %v\n", pe)
			os.Exit(1)
		}
		fatal(err)
	}

	if *verbose {
		fmt.Fprintf(os.Stderr, "gocci-infer: variant %s verified against %d pair(s), inferred from %d example(s)\n",
			res.Variant, len(pairs), len(res.Examples))
		for _, ex := range res.Examples {
			fmt.Fprintf(os.Stderr, "gocci-infer:   example %s\n", ex)
		}
		for _, n := range res.Notes {
			fmt.Fprintf(os.Stderr, "gocci-infer:   note: %s\n", n)
		}
	}

	if *out == "" {
		fmt.Print(res.Cocci)
		return
	}
	if err := os.WriteFile(*out, []byte(res.Cocci), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gocci-infer:", err)
	os.Exit(1)
}
