// Cross-example generalization: two skeletons describing "the same edit" in
// different code are folded into one. Corresponding match-side (context or
// minus) subtrees that differ across examples promote to shared typed
// metavariables — the anti-unification join — while divergent inserted code
// is irreconcilable: a plus-line metavariable would have no binding to
// substitute, so the conflict is reported as a structured PairError naming
// both examples and the offending subtree.

package infer

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/ctoken"
)

// generalize folds s2 into s1. The skeletons must have the same edit shape;
// when their full piece sequences disagree (different context structure
// around the same edit), both are reduced to their edit-only form first.
func generalize(s1, s2 *skeleton, vb *variantBuilder, popts cparse.Options) (*skeleton, *PairError) {
	a, b := s1, s2
	if a.marks() != b.marks() {
		a, b = editOnly(a), editOnly(b)
		if a.marks() != b.marks() {
			return nil, &PairError{Pair: s1.example, Other: s2.example, Stage: "generalize",
				Detail: fmt.Sprintf("edit shapes differ (%q vs %q)", s1.marks(), s2.marks())}
		}
	}
	// Match-side pieces are folded first: they discover the metavariable
	// aliasing between the two examples (s2's I2 standing where s1 uses
	// I1), which plus pieces then consume — a plus line may differ only by
	// such renames, never by genuinely different inserted code.
	alias := map[string]string{}
	out := &skeleton{example: a.example}
	out.pieces = make([]piece, len(a.pieces))
	for i := range a.pieces {
		p1, p2 := a.pieces[i], b.pieces[i]
		if p1.mark == '+' || p1.mark == '.' ||
			cast.NormalizeSpace(p1.text) == cast.NormalizeSpace(p2.text) {
			out.pieces[i] = p1
			continue
		}
		text, perr := promotePiece(p1, p2, a.example, b.example, vb, alias, popts)
		if perr != nil {
			return nil, perr
		}
		out.pieces[i] = piece{p1.mark, text}
	}
	for i := range a.pieces {
		p1, p2 := a.pieces[i], b.pieces[i]
		if p1.mark != '+' {
			continue
		}
		renamed := renameWords(p2.text, alias)
		if cast.NormalizeSpace(p1.text) != cast.NormalizeSpace(renamed) {
			return nil, &PairError{Pair: a.example, Other: b.example, Stage: "generalize",
				Subtree: p2.text,
				Detail:  "inserted code differs between examples (a plus-line metavariable would have no binding to substitute)"}
		}
	}
	return out, nil
}

// renameWords substitutes whole-word occurrences per the alias map.
func renameWords(text string, alias map[string]string) string {
	if len(alias) == 0 {
		return text
	}
	var sb strings.Builder
	i := 0
	for i < len(text) {
		if !isWordByte(text[i]) {
			sb.WriteByte(text[i])
			i++
			continue
		}
		j := i
		for j < len(text) && isWordByte(text[j]) {
			j++
		}
		word := text[i:j]
		if to, ok := alias[word]; ok {
			sb.WriteString(to)
		} else {
			sb.WriteString(word)
		}
		i = j
	}
	return sb.String()
}

// editOnly strips a skeleton to its edits: interior context runs become a
// single `...`, leading and trailing context is dropped, and adjacent dots
// merge. This is the common shape two examples of the same edit share even
// when their surrounding functions look nothing alike.
func editOnly(sk *skeleton) *skeleton {
	out := &skeleton{example: sk.example}
	// Locate the first and last non-context piece.
	lo, hi := -1, -1
	for i, p := range sk.pieces {
		if p.mark != ' ' {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo < 0 {
		return out // no edits; empty skeleton
	}
	for i := lo; i <= hi; i++ {
		p := sk.pieces[i]
		if p.mark == ' ' || p.mark == '.' {
			if len(out.pieces) > 0 && out.pieces[len(out.pieces)-1].mark == '.' {
				continue // merge adjacent gaps
			}
			p = piece{mark: '.'}
		}
		out.pieces = append(out.pieces, p)
	}
	return out
}

// promotePiece anti-unifies two match-side pieces: both texts are parsed as
// statement sequences (metavariable names lex as plain identifiers) and
// walked in lockstep; divergent subtrees of joinable kinds are replaced in
// the first piece's text by fresh shared metavariables.
func promotePiece(p1, p2 piece, ex1, ex2 string, vb *variantBuilder, alias map[string]string, popts cparse.Options) (string, *PairError) {
	stmts1, tf1, err := cparse.ParseStmts(p1.text, popts)
	if err != nil {
		return "", &PairError{Pair: ex1, Other: ex2, Stage: "generalize",
			Subtree: p1.text, Detail: "piece does not re-parse: " + err.Error()}
	}
	stmts2, tf2, err := cparse.ParseStmts(p2.text, popts)
	if err != nil {
		return "", &PairError{Pair: ex1, Other: ex2, Stage: "generalize",
			Subtree: p2.text, Detail: "piece does not re-parse: " + err.Error()}
	}
	if len(stmts1) != len(stmts2) {
		return "", &PairError{Pair: ex1, Other: ex2, Stage: "generalize",
			Subtree: p2.text, Detail: "pieces differ in statement structure"}
	}
	pr := &promoter{
		vb: vb, ex1: ex1, ex2: ex2, alias: alias,
		f1: &cast.File{Name: ex1, Toks: tf1},
		f2: &cast.File{Name: ex2, Toks: tf2},
	}
	for i := range stmts1 {
		pr.visit(stmts1[i], stmts2[i], false)
	}
	if pr.perr != nil {
		return "", pr.perr
	}
	return applySplices(p1.text, tf1, pr.spl), nil
}

// promoter is the cross-example lockstep walker.
type promoter struct {
	vb       *variantBuilder
	f1, f2   *cast.File
	ex1, ex2 string
	alias    map[string]string // example-2 metavariable name -> surviving name
	spl      []splice          // replacements into f1's token stream
	perr     *PairError
}

func (pr *promoter) fail(n2 cast.Node, detail string) {
	if pr.perr == nil {
		pr.perr = &PairError{Pair: pr.ex1, Other: pr.ex2, Stage: "generalize",
			Subtree: pr.f2.Text(n2), Detail: detail}
	}
}

func (pr *promoter) visit(n1, n2 cast.Node, callee bool) {
	if pr.perr != nil || n1 == nil || n2 == nil {
		return
	}
	if cast.NormText(pr.f1, n1) == cast.NormText(pr.f2, n2) {
		return // identical across examples: stays as-is
	}
	// A side that is already a metavariable absorbs the other side when the
	// kinds are compatible (weakening to `expression` when needed).
	if name1, k1, ok := pr.metaIdent(pr.f1, n1); ok {
		if name2, k2, ok2 := pr.metaIdent(pr.f2, n2); ok2 {
			joined, jerr := joinKind(k1, k2)
			if jerr != "" {
				pr.fail(n2, fmt.Sprintf("metavariables %s and %s have incompatible kinds (%s)", name1, name2, jerr))
				return
			}
			pr.vb.metas[name1] = joined
			if name2 != name1 {
				pr.alias[name2] = name1
			}
			return
		}
		joined, jerr := pr.joinWithConcrete(k1, n2)
		if jerr != "" {
			pr.fail(n2, fmt.Sprintf("metavariable %s cannot absorb this subtree (%s)", name1, jerr))
			return
		}
		pr.vb.metas[name1] = joined
		return
	}
	if name2, k2, ok := pr.metaIdent(pr.f2, n2); ok {
		joined, jerr := pr.joinWithConcrete(k2, n1)
		if jerr != "" {
			pr.fail(n2, fmt.Sprintf("metavariable %s cannot absorb this subtree (%s)", name2, jerr))
			return
		}
		pr.vb.metas[name2] = joined
		first, last := n1.Span()
		pr.spl = append(pr.spl, splice{first, last, name2})
		return
	}
	// Both concrete. Same shape: recurse. Different shape or unpaired
	// children: promote the whole divergent subtree pair.
	if reflect.TypeOf(n1) == reflect.TypeOf(n2) {
		if call, ok := n1.(*cast.CallExpr); ok {
			other := n2.(*cast.CallExpr)
			if len(call.Args) == len(other.Args) {
				pr.visit(call.Fun, other.Fun, true)
				for i := range call.Args {
					pr.visit(call.Args[i], other.Args[i], false)
				}
				return
			}
		} else {
			c1, c2 := cast.Children(n1), cast.Children(n2)
			if len(c1) == len(c2) && len(c1) > 0 {
				for i := range c1 {
					pr.visit(c1[i], c2[i], false)
				}
				return
			}
		}
	}
	pr.promote(n1, n2, callee)
}

// promote replaces the divergent pair with one shared metavariable.
func (pr *promoter) promote(n1, n2 cast.Node, callee bool) {
	k1, ok1 := abstractKind(n1)
	k2, ok2 := abstractKind(n2)
	if !ok1 || !ok2 || callee {
		pr.fail(n2, "subtree has no metavariable kind that could stand for both examples")
		return
	}
	joined, jerr := joinKind(k1, k2)
	if jerr != "" {
		pr.fail(n2, "subtree kinds are incompatible ("+jerr+")")
		return
	}
	// Key the hole by both sides' texts so the same cross-example
	// divergence reuses one metavariable (coreference across edit sites).
	key := cast.NormText(pr.f1, n1) + "\x00" + cast.NormText(pr.f2, n2)
	name := pr.vb.hole(joined, key)
	first, last := n1.Span()
	pr.spl = append(pr.spl, splice{first, last, name})
}

// metaIdent recognizes a bare identifier that names a declared
// metavariable.
func (pr *promoter) metaIdent(f *cast.File, n cast.Node) (string, cast.MetaKind, bool) {
	id, ok := n.(*cast.Ident)
	if !ok {
		return "", 0, false
	}
	k, ok := pr.vb.isMeta(id.Name)
	return id.Name, k, ok
}

// joinWithConcrete joins a metavariable kind with a concrete node.
func (pr *promoter) joinWithConcrete(k cast.MetaKind, n cast.Node) (cast.MetaKind, string) {
	kn, ok := abstractKind(n)
	if !ok {
		return 0, "the concrete side is not abstractable"
	}
	return joinKind(k, kn)
}

// joinKind is the kind lattice: equal kinds stay, identifier/constant
// weaken to expression, and type joins with nothing but itself.
func joinKind(a, b cast.MetaKind) (cast.MetaKind, string) {
	if a == b {
		return a, ""
	}
	if a == cast.MetaTypeKind || b == cast.MetaTypeKind {
		return 0, "a type cannot join with a non-type"
	}
	return cast.MetaExprKind, ""
}

// applySplices rewrites token spans of text (lexed as tf) to metavariable
// names. Spans never overlap: the lockstep walk stops at each splice.
func applySplices(text string, tf *ctoken.File, spls []splice) string {
	if len(spls) == 0 {
		return text
	}
	sorted := append([]splice(nil), spls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].first < sorted[j].first })
	toks := tf.Tokens
	var sb strings.Builder
	at := 0
	for _, sp := range sorted {
		a := int(toks[sp.first].Pos.Offset)
		b := toks[sp.last].End()
		sb.WriteString(text[at:a])
		sb.WriteString(sp.name)
		at = b
	}
	sb.WriteString(text[at:])
	return sb.String()
}
