// `gocci vet` lints semantic patches without running them: unused and
// unbindable metavariables, rules unreachable through their depends-on
// chains, shadowed disjunction branches, and rules the batch prefilter can
// never prune. Exit codes follow the check-mode convention: 0 clean, 1 when
// any patch fails to parse or has issues, 2 on usage errors.

package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
	"repro/internal/smpl"
)

// runVet implements the vet subcommand over args (everything after "vet").
func runVet(tool string, args []string) int {
	fs := flag.NewFlagSet(tool+" vet", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s vet patch.cocci [more.cocci ...]\n", tool)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	exit := 0
	total := 0
	for _, path := range fs.Args() {
		b, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: vet: %v\n", tool, err)
			exit = 1
			continue
		}
		p, err := smpl.ParsePatch(path, string(b))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: vet: %v\n", tool, err)
			exit = 1
			continue
		}
		issues := lint.Check(p)
		for _, is := range issues {
			fmt.Println(is.String())
		}
		total += len(issues)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "%s: vet: %d issues\n", tool, total)
		exit = 1
	}
	return exit
}
