// Command gocci-gen emits synthetic C/C++ workloads with the code shapes the
// semantic patch experiments target (OpenMP blocks, unrolled loops, CUDA
// calls, AoS accesses, ...). Benchmarks and examples use it to fabricate
// codebases of controllable size.
//
// Usage:
//
//	gocci-gen --shape cuda --funcs 20 --stmts 5 [--seed 42] [-o out.cu]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/buildinfo"
	"repro/internal/codegen"
)

func main() {
	showVersion := buildinfo.Setup(flag.CommandLine, "gocci-gen")
	shape := flag.String("shape", "mixed", "workload shape (see --list)")
	funcs := flag.Int("funcs", 8, "number of functions")
	stmts := flag.Int("stmts", 4, "statements per function")
	seed := flag.Int64("seed", 20250326, "generator seed")
	out := flag.String("o", "", "output file (default stdout)")
	list := flag.Bool("list", false, "list available shapes")
	flag.Parse()
	buildinfo.HandleVersion("gocci-gen", showVersion)

	if *list {
		names := make([]string, 0, len(codegen.Shapes))
		for n := range codegen.Shapes {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}
	gen, ok := codegen.Shapes[*shape]
	if !ok {
		fmt.Fprintf(os.Stderr, "gocci-gen: unknown shape %q (try --list)\n", *shape)
		os.Exit(2)
	}
	src := gen(codegen.Config{Funcs: *funcs, StmtsPerFunc: *stmts, Seed: *seed})
	if *out == "" {
		fmt.Print(src)
		return
	}
	if err := os.WriteFile(*out, []byte(src), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gocci-gen:", err)
		os.Exit(1)
	}
}
