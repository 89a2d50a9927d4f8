// Command gocci-parse inspects how the front end sees a C/C++ file: the
// token stream, the syntax tree, per-function control-flow graphs (Graphviz
// dot), or summary statistics. It is the debugging companion to gocci, for
// understanding why a semantic patch does or does not match.
//
// Usage:
//
//	gocci-parse --dump ast|cfg|tokens|stats [--cxx 17] [--cuda] file.c
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/cparse"
	"repro/internal/ctoken"
)

func main() {
	showVersion := buildinfo.Setup("gocci-parse")
	dump := flag.String("dump", "ast", "what to print: ast, cfg, tokens, stats")
	cxx := flag.Int("cxx", 0, "C++ standard (0 = C)")
	cuda := flag.Bool("cuda", false, "enable CUDA kernel-launch tokens")
	flag.Parse()
	buildinfo.HandleVersion("gocci-parse", showVersion)

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: gocci-parse --dump ast|cfg|tokens|stats file.c ...")
		os.Exit(2)
	}

	opts := cparse.Options{CPlusPlus: *cxx > 0, Std: *cxx, CUDA: *cuda}
	for _, path := range flag.Args() {
		b, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		src := string(b)
		switch *dump {
		case "tokens":
			lf, err := ctoken.Lex(path, src, ctoken.Options{CUDAChevrons: *cuda})
			if err != nil {
				fatal(err)
			}
			for i, t := range lf.Tokens {
				fmt.Printf("%4d %-10s %-8s %q\n", i, t.Pos, t.Kind, lf.Text(i))
			}
		case "ast":
			f, err := cparse.Parse(path, src, opts)
			if err != nil {
				fatal(err)
			}
			fmt.Print(cast.Dump(f))
		case "cfg":
			f, err := cparse.Parse(path, src, opts)
			if err != nil {
				fatal(err)
			}
			for _, fd := range f.Funcs() {
				fmt.Printf("// function %s\n", fd.Name.Name)
				fmt.Print(cfg.Build(fd).Dot(f))
			}
		case "stats":
			f, err := cparse.Parse(path, src, opts)
			if err != nil {
				fatal(err)
			}
			st := cast.Summarize(f)
			fmt.Printf("%s: %d decls, %d funcs, %d stmts, %d exprs, %d pragmas, %d includes, depth %d\n",
				path, st.Decls, st.Funcs, st.Stmts, st.Exprs, st.Pragmas, st.Includes, st.MaxDepth)
		default:
			fmt.Fprintf(os.Stderr, "gocci-parse: unknown dump mode %q\n", *dump)
			os.Exit(2)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gocci-parse:", err)
	os.Exit(1)
}
