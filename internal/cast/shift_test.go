package cast_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cast"
	"repro/internal/codegen"
	"repro/internal/cparse"
)

// shiftInputs parses the repository's C sources and generated corpora of
// every shape: between them they hold every node type plain code parses
// to.
func shiftInputs(t *testing.T) []func() *cast.File {
	t.Helper()
	var srcs []string
	paths, _ := filepath.Glob("../../testdata/*.c")
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(b))
	}
	for _, gen := range codegen.Shapes {
		srcs = append(srcs, gen(codegen.Config{Funcs: 6, StmtsPerFunc: 4, Seed: 5}))
	}
	srcs = append(srcs, "int f(void) { auto g = [&](int x) { return x->y.z; }; for (auto &e : v) { switch (e) { case 1: goto out; default: break; } } out: do { continue; } while (0); return sizeof(int) + (int)c ? a[1, 2] : {1, 2}; }\n")
	var out []func() *cast.File
	for _, src := range srcs {
		src := src
		parse := func() *cast.File {
			f, err := cparse.Parse("t.c", src, cparse.Options{CPlusPlus: true, Std: 23, CUDA: true})
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, src)
			}
			return f
		}
		parse()
		out = append(out, parse)
	}
	return out
}

// nodes collects every node reachable from f.
func nodes(f *cast.File) map[cast.Node]int {
	seen := map[cast.Node]int{}
	cast.Walk(f, func(n cast.Node) bool { seen[n]++; return true })
	return seen
}

func TestShiftDeclCopiesAndShifts(t *testing.T) {
	for _, parse := range shiftInputs(t) {
		orig, ref := parse(), parse()
		// In place, every node moves exactly once: no node is reachable
		// twice.
		for n, k := range nodes(orig) {
			if k > 1 {
				t.Fatalf("node %T reachable %d times", n, k)
			}
		}

		var copies []cast.Decl
		for _, d := range orig.Decls {
			copies = append(copies, cast.ShiftDecl(d, 3, true))
		}
		if !reflect.DeepEqual(orig.Decls, ref.Decls) {
			t.Fatal("a clone shift changed its input")
		}
		copied := &cast.File{Toks: orig.Toks, Decls: copies}
		inputs := nodes(orig)
		for n := range nodes(copied) {
			if _, shared := inputs[n]; shared {
				if _, isFile := n.(*cast.File); !isFile {
					t.Fatalf("copy shares a %T with its input", n)
				}
			}
		}
		for i, d := range copies {
			copies[i] = cast.ShiftDecl(d, -3, false)
		}
		if !reflect.DeepEqual(copies, ref.Decls) {
			t.Fatal("a copy shifted by 3 and back differs from its input")
		}
		first, _ := orig.Decls[0].Span()
		for _, d := range orig.Decls {
			if cast.ShiftDecl(d, 5, false) != d {
				t.Fatal("an in-place shift returned a different node")
			}
		}
		if now, _ := orig.Decls[0].Span(); now != first+5 {
			t.Fatalf("in-place shift moved the first declaration from %d to %d", first, now)
		}
	}
}
