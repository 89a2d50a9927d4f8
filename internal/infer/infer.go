// Package infer derives semantic patches from before/after example pairs —
// patch inference by demonstration, after Sottile & Hulette's
// transformation-by-demonstration (arXiv:1301.4334) and FlexiRepair's
// generic fix patterns (arXiv:2011.13280).
//
// The pipeline: each pair's files are parsed and their function definitions
// matched by name; every function whose body changed becomes one example.
// Within an example, the before and after statement sequences are aligned
// (longest common subsequence over normalized statement text); unchanged
// statements become context anchors, deleted/inserted statements become
// minus/plus lines, and long unchanged runs between edits collapse to `...`.
// Paired modified statements are anti-unified: subtrees shared verbatim by
// both sides abstract into typed metavariables (expression / identifier /
// constant / type), while the divergent subtrees — the edit itself — stay
// concrete. Multiple examples are then generalized pairwise: corresponding
// match-side subtrees that differ across examples promote to shared
// metavariables of the joined kind; divergent *inserted* code is
// irreconcilable and reported as a structured PairError naming both
// examples.
//
// Every inferred patch is verified in-process before it is returned: the
// rendered .cocci is compiled (smpl.BuildPatch goes through the same front
// end as hand-written patches) and run through the batch campaign API
// against every "before" file; any pair whose output is not byte-identical
// to its "after" fails inference. On failure the engine retries a ladder of
// less-abstract variants (full context instead of dots, concrete instead of
// abstracted) and only reports an error when none survives the oracle — the
// engine is its own round-trip test oracle.
package infer

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/batch"
	"repro/internal/cast"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/ctoken"
	"repro/internal/smpl"
)

// Pair is one before/after demonstration: two versions of a C/C++ source
// file. A pair may contain several changed functions; each becomes one
// example feeding inference, and verification always replays the whole
// file.
type Pair struct {
	// Name labels the pair in diagnostics (a file name, "before.c:after.c",
	// or a commit:path reference for mined pairs).
	Name string
	// Before and After are the two full file sources.
	Before string
	After  string
}

// Options configures inference.
type Options struct {
	// RuleName names the emitted rule (default "inferred").
	RuleName string
	// Parse selects the C dialect for the example files.
	Parse cparse.Options
	// Engine configures the verification runs (dialect fields should agree
	// with Parse).
	Engine core.Options
}

func (o Options) rule() string {
	if o.RuleName == "" {
		return "inferred"
	}
	return o.RuleName
}

// Result is a successfully inferred and verified patch.
type Result struct {
	// Patch is the compiled patch; Patch.Src is exactly Cocci.
	Patch *smpl.Patch
	// Cocci is the rendered .cocci text (smpl.Render form).
	Cocci string
	// Metas maps each declared metavariable to its kind keyword.
	Metas map[string]string
	// Examples names the function examples the patch was inferred from.
	Examples []string
	// Variant reports which abstraction level survived verification:
	// "abstracted", "abstracted/full-context", "concrete", or
	// "concrete/full-context".
	Variant string
	// Notes carries non-fatal observations (variants that failed the
	// oracle before one succeeded, skipped pairs, ...).
	Notes []string
}

// PairError is a structured inference failure. It names the offending pair
// (and, for cross-example irreconcilability, the second pair), the pipeline
// stage that failed, and — when the failure is a subtree that could not be
// generalized — the subtree's source text.
type PairError struct {
	// Pair is the offending pair or example name.
	Pair string
	// Other is the second example for irreconcilable divergences.
	Other string
	// Stage is the failing pipeline stage: "input", "parse", "align",
	// "generalize", "compile", or "verify".
	Stage string
	// Subtree is the source text of the subtree that failed to generalize.
	Subtree string
	// Detail is the human-readable specifics.
	Detail string
}

func (e *PairError) Error() string {
	var sb strings.Builder
	sb.WriteString("infer: ")
	sb.WriteString(e.Stage)
	sb.WriteString(" failed")
	if e.Pair != "" {
		fmt.Fprintf(&sb, " for %s", e.Pair)
	}
	if e.Other != "" {
		fmt.Fprintf(&sb, " vs %s", e.Other)
	}
	if e.Detail != "" {
		sb.WriteString(": ")
		sb.WriteString(e.Detail)
	}
	if e.Subtree != "" {
		fmt.Fprintf(&sb, " (subtree %q)", cast.NormalizeSpace(e.Subtree))
	}
	return sb.String()
}

// variant is one rung of the abstraction ladder, most general first.
type variant struct {
	abstract bool // anti-unify shared subtrees into metavariables
	collapse bool // collapse unchanged runs to `...`
	label    string
}

var ladder = []variant{
	{true, true, "abstracted"},
	{true, false, "abstracted/full-context"},
	{false, true, "concrete"},
	{false, false, "concrete/full-context"},
}

// Infer derives one semantic patch from the pairs and verifies it by
// applying it to every pair's "before" and comparing the output to the
// "after" byte for byte. The most abstract variant that survives
// verification wins. The returned error is always a *PairError.
func Infer(pairs []Pair, opts Options) (*Result, error) {
	if len(pairs) == 0 {
		return nil, &PairError{Stage: "input", Detail: "no before/after pairs given"}
	}
	var examples []example
	idents := map[string]bool{}
	for _, p := range pairs {
		exs, perr := extractExamples(p, opts.Parse, idents)
		if perr != nil {
			return nil, perr
		}
		examples = append(examples, exs...)
	}
	if len(examples) == 0 {
		return nil, &PairError{Pair: pairs[0].Name, Stage: "align",
			Detail: "no function body differs between before and after in any pair"}
	}

	var notes []string
	var firstErr *PairError
	for _, v := range ladder {
		res, perr := inferVariant(examples, pairs, idents, v, opts)
		if perr == nil {
			res.Notes = append(notes, res.Notes...)
			return res, nil
		}
		if firstErr == nil {
			firstErr = perr
		}
		notes = append(notes, fmt.Sprintf("variant %s rejected by oracle: %v", v.label, perr))
	}
	return nil, firstErr
}

// inferVariant builds, generalizes, compiles, and verifies one ladder rung.
func inferVariant(examples []example, pairs []Pair, idents map[string]bool, v variant, opts Options) (*Result, *PairError) {
	vb := newVariantBuilder(idents)
	skels := make([]*skeleton, len(examples))
	for i, ex := range examples {
		sk, perr := vb.buildSkeleton(ex, v.abstract)
		if perr != nil {
			return nil, perr
		}
		if v.collapse {
			sk = collapseSkeleton(sk)
		}
		skels[i] = sk
	}
	folded := skels[0]
	for _, sk := range skels[1:] {
		var perr *PairError
		folded, perr = generalize(folded, sk, vb, opts.Parse)
		if perr != nil {
			return nil, perr
		}
	}
	patch, perr := buildPatch(folded, vb, opts)
	if perr != nil {
		return nil, perr
	}
	if perr := verifyAll(patch, pairs, opts.Engine); perr != nil {
		return nil, perr
	}
	names := make([]string, len(examples))
	for i, ex := range examples {
		names[i] = ex.name
	}
	metas := map[string]string{}
	for _, r := range patch.Rules {
		for _, m := range r.Metas {
			metas[m.Name] = m.Kind.String()
		}
	}
	return &Result{
		Patch: patch, Cocci: patch.Src, Metas: metas,
		Examples: names, Variant: v.label,
	}, nil
}

// example is one changed function within a pair.
type example struct {
	pair string
	name string // pair + ":" + function name
	bf   *cast.File
	af   *cast.File
	bFn  *cast.FuncDef
	aFn  *cast.FuncDef
}

// extractExamples parses both sides of a pair, matches function definitions
// by name, and returns one example per changed body. It also accumulates
// every identifier token into idents, the reserve set metavariable naming
// must avoid.
func extractExamples(p Pair, popts cparse.Options, idents map[string]bool) ([]example, *PairError) {
	bf, err := cparse.Parse(p.Name+":before", p.Before, popts)
	if err != nil {
		return nil, &PairError{Pair: p.Name, Stage: "parse", Detail: "before: " + err.Error()}
	}
	af, err := cparse.Parse(p.Name+":after", p.After, popts)
	if err != nil {
		return nil, &PairError{Pair: p.Name, Stage: "parse", Detail: "after: " + err.Error()}
	}
	collectIdents(bf.Toks, idents)
	collectIdents(af.Toks, idents)

	bFns, perr := funcsByName(p.Name, "before", bf)
	if perr != nil {
		return nil, perr
	}
	aFns, perr := funcsByName(p.Name, "after", af)
	if perr != nil {
		return nil, perr
	}
	for name := range bFns {
		if _, ok := aFns[name]; !ok {
			return nil, &PairError{Pair: p.Name, Stage: "align",
				Detail: fmt.Sprintf("function %q exists only in the before version (deletions of whole functions are not inferable)", name)}
		}
	}
	for name := range aFns {
		if _, ok := bFns[name]; !ok {
			return nil, &PairError{Pair: p.Name, Stage: "align",
				Detail: fmt.Sprintf("function %q exists only in the after version (additions of whole functions are not inferable)", name)}
		}
	}

	// Deterministic example order: by position in the before file.
	names := make([]string, 0, len(bFns))
	for name := range bFns {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		fi, _ := bFns[names[i]].Span()
		fj, _ := bFns[names[j]].Span()
		return fi < fj
	})

	var out []example
	for _, name := range names {
		bFn, aFn := bFns[name], aFns[name]
		if headerText(bf, bFn) != headerText(af, aFn) {
			return nil, &PairError{Pair: p.Name, Stage: "align",
				Detail: fmt.Sprintf("signature of %q changed; only body edits are inferable", name)}
		}
		if cast.NormText(bf, bFn.Body) == cast.NormText(af, aFn.Body) {
			continue // untouched function; still replayed during verification
		}
		out = append(out, example{
			pair: p.Name, name: p.Name + ":" + name,
			bf: bf, af: af, bFn: bFn, aFn: aFn,
		})
	}
	return out, nil
}

// funcsByName indexes a file's function definitions (with bodies) by name.
func funcsByName(pair, side string, f *cast.File) (map[string]*cast.FuncDef, *PairError) {
	out := map[string]*cast.FuncDef{}
	for _, fd := range f.Funcs() {
		name := f.Text(fd.Name)
		if _, dup := out[name]; dup {
			return nil, &PairError{Pair: pair, Stage: "align",
				Detail: fmt.Sprintf("duplicate definition of %q in the %s version", name, side)}
		}
		out[name] = fd
	}
	return out, nil
}

// headerText is the function's signature text (everything before the body),
// whitespace-normalized.
func headerText(f *cast.File, fd *cast.FuncDef) string {
	first, _ := fd.Span()
	bodyFirst, _ := fd.Body.Span()
	if bodyFirst <= first {
		return ""
	}
	return cast.NormalizeSpace(f.Toks.Slice(first, bodyFirst-1))
}

func collectIdents(tf *ctoken.File, idents map[string]bool) {
	for i, t := range tf.Tokens {
		if t.Kind == ctoken.Ident {
			idents[tf.Text(i)] = true
		}
	}
}

// buildPatch renders the skeleton to .cocci text and compiles it through
// the standard front end, declaring exactly the metavariables the body uses.
func buildPatch(sk *skeleton, vb *variantBuilder, opts Options) (*smpl.Patch, *PairError) {
	body := sk.body()
	var decls []*smpl.MetaDecl
	for _, name := range vb.order {
		if usesWord(body, name) {
			decls = append(decls, smpl.NewMetaDecl(vb.metas[name], name))
		}
	}
	rule := &smpl.Rule{Name: opts.rule(), Kind: smpl.MatchRule, Metas: decls, Body: body}
	p, err := smpl.BuildPatch(opts.rule()+".cocci", nil, []*smpl.Rule{rule})
	if err != nil {
		return nil, &PairError{Pair: sk.example, Stage: "compile",
			Detail: fmt.Sprintf("inferred rule does not compile: %v\nbody:\n%s", err, body)}
	}
	return p, nil
}

// usesWord reports whether body contains name as a whole word.
func usesWord(body, name string) bool {
	for i := 0; ; {
		j := strings.Index(body[i:], name)
		if j < 0 {
			return false
		}
		j += i
		before := j == 0 || !isWordByte(body[j-1])
		after := j+len(name) == len(body) || !isWordByte(body[j+len(name)])
		if before && after {
			return true
		}
		i = j + 1
	}
}

func isWordByte(b byte) bool {
	return b == '_' || b >= '0' && b <= '9' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

// verifyAll is the oracle: it applies the patch to every pair's before file
// through the batch campaign API and demands byte-identity with the after.
func verifyAll(p *smpl.Patch, pairs []Pair, eng core.Options) *PairError {
	camp := batch.NewCampaign([]*smpl.Patch{p}, batch.Options{Engine: eng})
	files := make([]core.SourceFile, len(pairs))
	for i, pr := range pairs {
		files[i] = core.SourceFile{Name: pr.Name, Src: pr.Before}
	}
	var perr *PairError
	camp.Run(files, func(fr batch.CampaignFileResult) bool {
		if fr.Index < 0 {
			perr = &PairError{Stage: "verify", Detail: fmt.Sprintf("configuration: %v", fr.Err)}
			return false
		}
		pr := pairs[fr.Index]
		if fr.Err != nil {
			perr = &PairError{Pair: pr.Name, Stage: "verify", Detail: fr.Err.Error()}
			return false
		}
		if fr.Output != pr.After {
			perr = &PairError{Pair: pr.Name, Stage: "verify",
				Detail: mismatchDetail(fr.Output, pr.After, fr.Patches[0].Matches())}
			return false
		}
		return true
	})
	return perr
}

// mismatchDetail pinpoints the first divergence between the patched output
// and the expected after text.
func mismatchDetail(got, want string, matches int) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	line := 1 + strings.Count(want[:min(i, len(want))], "\n")
	excerpt := func(s string) string {
		e := s[min(i, len(s)):]
		if len(e) > 40 {
			e = e[:40]
		}
		return e
	}
	return fmt.Sprintf("patched output diverges from the expected after at byte %d (line %d): got %q, want %q (%d rule matches)",
		i, line, excerpt(got), excerpt(want), matches)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
