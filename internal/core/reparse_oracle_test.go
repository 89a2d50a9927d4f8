package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/patchlib"
	"repro/internal/smpl"
)

// treeDiff describes how f differs from want ("" when they deep-equal):
// node types, spans, token indices and every other field of every node,
// and the token stream under them.
func treeDiff(f, want *cast.File) string {
	if !reflect.DeepEqual(f.Toks.Tokens, want.Toks.Tokens) || f.Toks.Opts != want.Toks.Opts {
		return "token streams differ"
	}
	if reflect.DeepEqual(f.Decls, want.Decls) {
		return ""
	}
	got, exp := strings.Split(cast.Dump(f), "\n"), strings.Split(cast.Dump(want), "\n")
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] {
			return fmt.Sprintf("dump line %d: got %q, want %q", i+1, got[i], exp[i])
		}
	}
	if len(got) != len(exp) {
		return fmt.Sprintf("dump has %d lines, want %d", len(got), len(exp))
	}
	return "trees differ in a field the dump does not show"
}

// oracle installs on eng a check that every tree its lazy re-parse builds
// deep-equals a full parse of the same text, and that it fails exactly
// where a full parse fails, with the same error; it counts re-parses, the
// incremental ones, and the declarations they reused.
type oracle struct {
	t                           *testing.T
	opts                        cparse.Options
	label                       string
	reparses, incremental, decl int
}

func (o *oracle) install(eng *core.Engine) {
	eng.OnReparse(func(name, src string, f *cast.File, reused int, err error) {
		o.reparses++
		if reused > 0 {
			o.incremental++
			o.decl += reused
		}
		full, ferr := cparse.Parse(name, src, o.opts)
		switch {
		case err != nil && ferr != nil:
			if err.Error() != ferr.Error() {
				o.t.Errorf("%s: re-parse error %q, full parse error %q", o.label, err, ferr)
			}
			return
		case err != nil:
			o.t.Errorf("%s: re-parse failed (%d declarations reused) where a full parse succeeds: %v", o.label, reused, err)
			return
		case ferr != nil:
			o.t.Errorf("%s: re-parse built a tree where a full parse fails: %v", o.label, ferr)
			return
		}
		if d := treeDiff(f, full); d != "" {
			o.t.Errorf("%s: incremental re-parse (%d declarations reused) differs from a full parse: %s", o.label, reused, d)
		}
	})
}

// TestIncrementalReparseOracle runs every shipped patch over every
// repository input, on trees the engine was handed (RunParsed: reused
// declarations are copied) and on trees it parsed itself (Run: they are
// shifted in place), and checks every re-parse against a full parse.
func TestIncrementalReparseOracle(t *testing.T) {
	patches, inputs := shippedCorpus(t)
	var total oracle
	for _, p := range patches {
		c := core.Compile(p)
		for _, in := range inputs {
			for _, owned := range []bool{false, true} {
				o := &oracle{t: t, opts: in.opts, label: fmt.Sprintf("%s on %s (owned=%v)", p.Name, in.name, owned)}
				eng := core.NewCompiled(c, in.engineOptions())
				o.install(eng)
				var res *core.Result
				var err error
				if owned {
					res, err = eng.Run([]core.SourceFile{{Name: in.name, Src: in.src}})
				} else {
					res, err = eng.RunParsed([]core.ParsedFile{{Name: in.name, Src: in.src, File: in.file}})
				}
				_, _ = res, err // a patch may fail on an input; only its re-parses are checked
				total.reparses += o.reparses
				total.incremental += o.incremental
				total.decl += o.decl
			}
		}
	}
	if total.incremental == 0 {
		t.Fatalf("%d re-parses, none incremental: the oracle checked nothing", total.reparses)
	}
	t.Logf("%d patches × %d inputs × 2 tree owners: %d re-parses, %d incremental, %d declarations reused",
		len(patches), len(inputs), total.reparses, total.incremental, total.decl)
}

// TestRunParsedLeavesInputTree dumps the tree handed to RunParsed before
// and after a run whose re-parses take the incremental path: the dumps and
// the tree's fields must not change.
func TestRunParsedLeavesInputTree(t *testing.T) {
	e, _ := patchlib.ByID("L1")
	p, err := smpl.ParsePatch("L1.cocci", e.Patch)
	if err != nil {
		t.Fatal(err)
	}
	src := codegen.OpenMP(codegen.Config{Funcs: 16, StmtsPerFunc: 2, Seed: 1})
	in, err := cparse.Parse("f.c", src, cparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cparse.Parse("f.c", src, cparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := cast.Dump(in)
	o := &oracle{t: t, label: "L1 on f.c"}
	eng := core.New(p, core.Options{})
	o.install(eng)
	res, err := eng.RunParsed([]core.ParsedFile{{Name: "f.c", Src: src, File: in}})
	if err != nil {
		t.Fatal(err)
	}
	if o.incremental == 0 {
		t.Fatalf("%d re-parses, none incremental", o.reparses)
	}
	if after := cast.Dump(in); after != before {
		t.Errorf("RunParsed changed its input tree:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if d := treeDiff(in, ref); d != "" {
		t.Errorf("RunParsed changed its input tree: %s", d)
	}
	if res.Outputs["f.c"] == src {
		t.Error("L1 left the file unchanged")
	}
}
