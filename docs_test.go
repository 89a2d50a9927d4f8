package sempatch

// Docs-check: every fenced `cocci` snippet in the documentation must parse,
// every `c`/`cpp`/`cuda` snippet must parse in the corresponding dialect,
// and every cocci snippet immediately followed by a code snippet is applied
// to it and must match at least once. Every `go` snippet must type-check
// against the public API. Every fenced block must carry a language tag, and
// every relative link between the documentation files must resolve.
// Documentation that drifts from the implementation fails the build.

import (
	"bufio"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/serve"
	"repro/internal/verify"
)

// docFiles is the complete documentation set under test; TestDocsComplete
// fails when a file appears in docs/ without being listed here.
var docFiles = []string{
	"README.md",
	"docs/smpl.md",
	"docs/batch.md",
	"docs/cli.md",
	"docs/check.md",
	"docs/architecture.md",
	"docs/serve.md",
	"docs/hpc.md",
	"docs/infer.md",
	"docs/observability.md",
}

type snippet struct {
	lang string
	text string
	line int // 1-based line of the opening fence
}

func extractSnippets(t *testing.T, path string) []snippet {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var snips []snippet
	var cur *snippet
	var body []string
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if !strings.HasPrefix(text, "```") {
			if cur != nil {
				body = append(body, text)
			}
			continue
		}
		if cur != nil {
			cur.text = strings.Join(body, "\n") + "\n"
			snips = append(snips, *cur)
			cur, body = nil, nil
			continue
		}
		cur = &snippet{lang: strings.TrimSpace(strings.TrimPrefix(text, "```")), line: line}
		if cur.lang == "" {
			t.Errorf("%s:%d: fenced block without a language tag (use ```text for plain blocks)", path, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cur != nil {
		t.Fatalf("%s:%d: unterminated code fence", path, cur.line)
	}
	return snips
}

// dialect maps a fence language to engine and parser options. The docs
// promise cpp snippets are checked in C++23 mode (docs/smpl.md).
func dialect(lang string) (Options, cparse.Options, bool) {
	switch lang {
	case "c":
		return Options{}, cparse.Options{}, true
	case "cpp":
		return Options{CPlusPlus: true, Std: 23}, cparse.Options{CPlusPlus: true, Std: 23}, true
	case "cuda":
		return Options{CPlusPlus: true, CUDA: true}, cparse.Options{CPlusPlus: true, CUDA: true}, true
	}
	return Options{}, cparse.Options{}, false
}

// TestDocsComplete pins docFiles to the actual documentation set, so a new
// docs/*.md file cannot ship without entering the snippet and link checks.
func TestDocsComplete(t *testing.T) {
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, d := range docFiles {
		listed[d] = true
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".md") && !listed["docs/"+e.Name()] {
			t.Errorf("docs/%s exists but is not in docFiles — add it so its snippets and links are checked", e.Name())
		}
	}
}

// mdLink matches inline markdown links; images and autolinks are out of
// scope (the docs use neither).
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocsLinks verifies every relative cross-file link in the docs
// resolves to an existing file (anchors are stripped; external URLs are
// skipped — CI has no business depending on the network).
func TestDocsLinks(t *testing.T) {
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(b), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // pure in-page anchor
			}
			resolved := filepath.Join(filepath.Dir(doc), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (resolved %s): %v", doc, m[1], resolved, err)
			}
		}
	}
}

// removedNames are names the public API dropped: the single-patch batch
// wrapper and its result types (a one-member Campaign is the batch API),
// the general CTL checker package (the path engine keeps the one fixpoint
// it runs), and the function-cache flag. None may reappear in non-test Go
// or in the documentation.
var removedNames = regexp.MustCompile(
	`\b(NewBatchApplier|BatchApplier|BatchStats|FileResult|soleResults?|soleStats|soleCallback)\b|repro/internal/ctl\b|--no-fn-cache`)

// removedCalls are internal functions only tests called; the tests that
// still need one keep it in a _test.go file. No non-test Go may call them
// again: cast.Compounds, cfg.(*Graph).Reachable and StmtNodes,
// transform.(*EditSet).Deleted, match.Binding.Synthesized,
// minipy.(*Interp).Global and cparse.ParseExpr.
var removedCalls = regexp.MustCompile(
	`\b(Compounds|ParseExpr)\(|\.(Reachable|StmtNodes|Deleted|Synthesized|Global)\(`)

func TestRemovedNamesStayGone(t *testing.T) {
	// The function-cache switch is internal (batch.Options.NoFuncCache,
	// for the differential tests); outputs never depend on it.
	if _, ok := reflect.TypeOf(Options{}).FieldByName("NoFuncCache"); ok {
		t.Error("Options.NoFuncCache is back on the public Options")
	}
	// The public result types are aliases of the engine's own, so a new
	// outcome field needs no mirror struct and no field-by-field copy.
	for _, c := range []struct {
		name          string
		public, inner any
	}{
		{"CampaignFileResult", CampaignFileResult{}, batch.CampaignFileResult{}},
		{"PatchOutcome", PatchOutcome{}, batch.PatchOutcome{}},
		{"Warning", Warning{}, verify.Warning{}},
		{"Result", Result{}, core.Result{}},
		{"ServeRunStats", ServeRunStats{}, serve.RunStats{}},
	} {
		if pt, it := reflect.TypeOf(c.public), reflect.TypeOf(c.inner); pt != it {
			t.Errorf("%s is %v, want an alias of %v", c.name, pt, it)
		}
	}
	files := append([]string(nil), docFiles...)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			if m := removedNames.FindString(line); m != "" {
				t.Errorf("%s:%d: %s was removed; a batch run is a Campaign (docs/batch.md)", f, i+1, m)
			}
			if m := removedCalls.FindString(line); m != "" {
				t.Errorf("%s:%d: %s was removed; only tests used it", f, i+1, m)
			}
		}
	}
}

// goPrelude is the package a Go fragment from the docs is checked in: the
// imports and the variables the fragments take as given.
const goPrelude = `package snippet

import (
	"fmt"
	"io"
	"log"
	"os"

	sempatch "repro"
)

var (
	patch, instr, migrate, acc2omp *sempatch.Patch
	files                          []sempatch.File
	paths                          []string
	before, after                  string
	traceFile                      io.Writer
)

func _() {
`

// checkGoSnippet type-checks one go snippet: a whole program as written, a
// fragment as the body of a function in goPrelude. Soft errors (unused
// imports and variables) are ignored, since fragments show API use, not
// complete programs.
func checkGoSnippet(t *testing.T, doc string, s snippet, imp types.Importer) {
	t.Helper()
	src, offset := s.text, s.line
	if !strings.HasPrefix(src, "package ") {
		src = goPrelude + src + "}\n"
		offset -= strings.Count(goPrelude, "\n")
	}
	abs, err := filepath.Abs(doc)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, abs+".go", src, 0)
	if err != nil {
		t.Errorf("%s:%d: go snippet does not parse: %v", doc, s.line, err)
		return
	}
	conf := types.Config{Importer: imp, Error: func(err error) {
		if te := err.(types.Error); !te.Soft {
			t.Errorf("%s:%d: go snippet: %s", doc, offset+te.Fset.Position(te.Pos).Line, te.Msg)
		}
	}}
	conf.Check("snippet", fset, []*ast.File{f}, nil)
}

func TestDocsSnippets(t *testing.T) {
	// One source importer for every go snippet, so the public API is
	// type-checked once.
	imp := importer.ForCompiler(token.NewFileSet(), "source", nil)
	for _, doc := range docFiles {
		t.Run(doc, func(t *testing.T) {
			snips := extractSnippets(t, doc)
			if len(snips) == 0 {
				t.Fatalf("no fenced snippets in %s", doc)
			}
			var lastPatch *Patch // pending cocci block awaiting its code pair
			var lastLine int
			parsed, applied := 0, 0
			for _, s := range snips {
				switch {
				case s.lang == "cocci":
					p, err := ParsePatch(doc, s.text)
					if err != nil {
						t.Errorf("%s:%d: cocci snippet does not parse: %v", doc, s.line, err)
						lastPatch = nil
						continue
					}
					lastPatch, lastLine = p, s.line
					parsed++
				case s.lang == "go":
					checkGoSnippet(t, doc, s, imp)
					lastPatch = nil
				default:
					opts, popts, isCode := dialect(s.lang)
					if !isCode {
						// sh/diagram blocks are out of scope here.
						lastPatch = nil
						continue
					}
					if _, err := cparse.Parse(doc, s.text, popts); err != nil {
						t.Errorf("%s:%d: %s snippet does not parse: %v", doc, s.line, s.lang, err)
						lastPatch = nil
						continue
					}
					if lastPatch == nil {
						continue
					}
					// Apply the preceding patch to this code. Declared
					// virtuals are all defined, mirroring `gocci -D`.
					opts.Defines = lastPatch.Virtuals()
					res, err := NewApplier(lastPatch, opts).
						Apply(File{Name: "snippet." + s.lang, Src: s.text})
					if err != nil {
						t.Errorf("%s:%d: applying the cocci snippet from line %d failed: %v",
							doc, s.line, lastLine, err)
					} else {
						total := 0
						for _, n := range res.MatchCount {
							total += n
						}
						if total == 0 {
							t.Errorf("%s:%d: the cocci snippet from line %d does not match its example code",
								doc, s.line, lastLine)
						}
					}
					applied++
					lastPatch = nil
				}
			}
			t.Logf("%s: %d snippets, %d cocci parsed, %d pairs applied", doc, len(snips), parsed, applied)
		})
	}
}
