// Skeleton construction: one example's before/after function bodies become
// a sequence of marked pieces (context / minus / plus / dots), with shared
// subtrees of paired modified statements anti-unified into typed
// metavariable holes.

package infer

import (
	"reflect"
	"sort"
	"strings"

	"repro/internal/cast"
)

// piece is one statement-granular element of a rule body.
type piece struct {
	mark byte   // ' ' context, '-' deletion, '+' insertion, '.' dots
	text string // statement text, base-indent-stripped, possibly multi-line
}

// skeleton is one example's (or a generalization's) rule-body shape.
type skeleton struct {
	example string
	pieces  []piece
}

// marks returns the piece marks as a string — the shape compared across
// examples during generalization.
func (sk *skeleton) marks() string {
	b := make([]byte, len(sk.pieces))
	for i, p := range sk.pieces {
		b[i] = p.mark
	}
	return string(b)
}

// body renders the skeleton as an SmPL rule body.
func (sk *skeleton) body() string {
	var lines []string
	for _, p := range sk.pieces {
		switch p.mark {
		case '.':
			lines = append(lines, "  ...")
		case '-':
			for _, l := range strings.Split(p.text, "\n") {
				lines = append(lines, "- "+l)
			}
		case '+':
			for _, l := range strings.Split(p.text, "\n") {
				lines = append(lines, "+ "+l)
			}
		default:
			for _, l := range strings.Split(p.text, "\n") {
				lines = append(lines, "  "+l)
			}
		}
	}
	return strings.Join(lines, "\n")
}

// variantBuilder holds the metavariable state shared by every skeleton of
// one ladder variant: the allocator (collision-free against all source
// identifiers), the kind table, and the coreference map keying holes by
// their concrete text so the same subtree always gets the same name —
// within an example and across examples.
type variantBuilder struct {
	reserved map[string]bool
	metas    map[string]cast.MetaKind
	order    []string
	keyName  map[string]string // "kind\x00normtext" -> metavariable name
	counters map[byte]int
}

func newVariantBuilder(idents map[string]bool) *variantBuilder {
	reserved := make(map[string]bool, len(idents))
	for id := range idents {
		reserved[id] = true
	}
	return &variantBuilder{
		reserved: reserved,
		metas:    map[string]cast.MetaKind{},
		keyName:  map[string]string{},
		counters: map[byte]int{},
	}
}

func kindPrefix(kind cast.MetaKind) byte {
	switch kind {
	case cast.MetaIdentKind:
		return 'I'
	case cast.MetaConstKind:
		return 'C'
	case cast.MetaTypeKind:
		return 'T'
	default:
		return 'E'
	}
}

// fresh allocates a new metavariable name of the given kind, skipping any
// identifier that appears in the example sources (plus-line substitution is
// word-based, so a collision would rewrite unrelated code).
func (vb *variantBuilder) fresh(kind cast.MetaKind) string {
	prefix := kindPrefix(kind)
	for {
		vb.counters[prefix]++
		name := string(prefix) + itoa(vb.counters[prefix])
		if !vb.reserved[name] {
			vb.reserved[name] = true
			vb.metas[name] = kind
			vb.order = append(vb.order, name)
			return name
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// hole returns the metavariable standing for a shared subtree, reusing the
// name when the same (kind, text) was abstracted before — that is what
// gives repeated subterms coreference in the pattern.
func (vb *variantBuilder) hole(kind cast.MetaKind, norm string) string {
	key := string(kindPrefix(kind)) + "\x00" + norm
	if name, ok := vb.keyName[key]; ok {
		return name
	}
	name := vb.fresh(kind)
	vb.keyName[key] = name
	return name
}

// isMeta reports the kind of a declared metavariable name.
func (vb *variantBuilder) isMeta(name string) (cast.MetaKind, bool) {
	k, ok := vb.metas[name]
	return k, ok
}

// splice is one subtree replacement: token range [first,last] of a file
// becomes the metavariable name.
type splice struct {
	first, last int
	name        string
}

// buildSkeleton aligns the example's body statements and assembles pieces.
// Hole discovery is a first pass over the edit hunks only; context
// statements are then abstracted in a second pass, but solely at subtrees
// coreferent with an already-discovered hole — novel context text stays
// concrete, so the pattern keeps its anchors while unchanged mentions of an
// edited subterm generalize with it.
func (vb *variantBuilder) buildSkeleton(ex example, abstract bool) (*skeleton, *PairError) {
	bItems, aItems := ex.bFn.Body.Items, ex.aFn.Body.Items
	bKeys := make([]string, len(bItems))
	for i, s := range bItems {
		bKeys[i] = cast.NormText(ex.bf, s)
	}
	aKeys := make([]string, len(aItems))
	for i, s := range aItems {
		aKeys[i] = cast.NormText(ex.af, s)
	}
	ops := cast.AlignSeq(bKeys, aKeys)

	// Pass 1: anti-unify each hunk's paired modified statements.
	bSpl, aSpl := map[int][]splice{}, map[int][]splice{}
	if abstract {
		var dels, inss []int
		discover := func() {
			if len(dels) == len(inss) {
				for i := range dels {
					au := &antiUnifier{vb: vb, bf: ex.bf, af: ex.af}
					au.visit(bItems[dels[i]], aItems[inss[i]], false)
					bSpl[dels[i]] = au.bSpl
					aSpl[inss[i]] = au.aSpl
				}
			}
			dels, inss = nil, nil
		}
		for _, op := range ops {
			switch op.Kind {
			case cast.AlignSame:
				discover()
			case cast.AlignDel:
				dels = append(dels, op.A)
			case cast.AlignIns:
				inss = append(inss, op.B)
			}
		}
		discover()
	}

	// Pass 2a: match-side splices. Context and minus statements reuse the
	// holes pass 1 discovered and abstract their remaining identifiers into
	// fresh ones — match-side holes bind freely, and the oracle demotes the
	// variant if an anchor was load-bearing. Plus statements (pass 2b, after
	// every binder has been seen) only consume existing holes: a plus-side
	// metavariable without a minus-side binding would be unsubstitutable.
	ctxSpl := map[int][]splice{}
	if abstract {
		for _, op := range ops {
			switch op.Kind {
			case cast.AlignSame:
				ctxSpl[op.A] = vb.sideSplices(ex.bf, bItems[op.A], nil, true)
			case cast.AlignDel:
				bSpl[op.A] = vb.sideSplices(ex.bf, bItems[op.A], bSpl[op.A], true)
			}
		}
		for _, op := range ops {
			if op.Kind == cast.AlignIns {
				aSpl[op.B] = vb.sideSplices(ex.af, aItems[op.B], aSpl[op.B], false)
			}
		}
	}

	// Pass 3: emit pieces; hunks keep diff order (deletions then
	// insertions).
	sk := &skeleton{example: ex.name}
	var dels, inss []int
	flush := func() {
		for _, di := range dels {
			sk.pieces = append(sk.pieces, piece{'-', stmtText(ex.bf, bItems[di], bSpl[di])})
		}
		for _, ii := range inss {
			sk.pieces = append(sk.pieces, piece{'+', stmtText(ex.af, aItems[ii], aSpl[ii])})
		}
		dels, inss = nil, nil
	}
	for _, op := range ops {
		switch op.Kind {
		case cast.AlignSame:
			flush()
			sk.pieces = append(sk.pieces, piece{' ', stmtText(ex.bf, bItems[op.A], ctxSpl[op.A])})
		case cast.AlignDel:
			dels = append(dels, op.A)
		case cast.AlignIns:
			inss = append(inss, op.B)
		}
	}
	flush()
	return sk, nil
}

// sideSplices computes one statement's final splice set: the fixed splices
// (pass 1's anti-unification holes) are kept, subtrees whose text already
// names a hole reuse it, and — when fresh is set, i.e. on match-side
// statements — remaining identifiers get fresh holes. Call-function
// positions stay concrete throughout, preserving the pattern's anchors.
func (vb *variantBuilder) sideSplices(f *cast.File, n cast.Node, fixed []splice, fresh bool) []splice {
	out := append([]splice(nil), fixed...)
	walkHolable(n, false, func(m cast.Node, kind cast.MetaKind) bool {
		first, last := m.Span()
		contains := false
		for _, sp := range fixed {
			if sp.first <= first && last <= sp.last {
				return true // already inside a pass-1 hole
			}
			if first <= sp.first && sp.last <= last {
				contains = true
			}
		}
		if contains {
			return false // holds a pass-1 hole; only descend
		}
		norm := cast.NormText(f, m)
		key := string(kindPrefix(kind)) + "\x00" + norm
		if name, ok := vb.keyName[key]; ok {
			out = append(out, splice{first, last, name})
			return true
		}
		if fresh && kind == cast.MetaIdentKind {
			out = append(out, splice{first, last, vb.hole(kind, norm)})
			return true
		}
		return false
	})
	return out
}

// collapseSkeleton reduces unchanged context: interior runs of three or
// more context statements keep only their two edit-adjacent anchors with
// `...` between; the leading run keeps only its last statement and the
// trailing run only its first (a statement-sequence pattern may start and
// end anywhere, so no outer dots are needed).
func collapseSkeleton(sk *skeleton) *skeleton {
	out := &skeleton{example: sk.example}
	n := len(sk.pieces)
	i := 0
	for i < n {
		if sk.pieces[i].mark != ' ' {
			out.pieces = append(out.pieces, sk.pieces[i])
			i++
			continue
		}
		j := i
		for j < n && sk.pieces[j].mark == ' ' {
			j++
		}
		run := sk.pieces[i:j]
		switch {
		case i == 0 && j == n:
			// Whole body unchanged — nothing to collapse against; keep.
			out.pieces = append(out.pieces, run...)
		case i == 0:
			out.pieces = append(out.pieces, run[len(run)-1])
		case j == n:
			out.pieces = append(out.pieces, run[0])
		case len(run) <= 2:
			out.pieces = append(out.pieces, run...)
		default:
			out.pieces = append(out.pieces, run[0], piece{mark: '.'}, run[len(run)-1])
		}
		i = j
	}
	return out
}

// stmtText returns the statement's exact source text with the given token
// spans replaced by metavariable names and the statement's own-line
// indentation stripped from continuation lines (the transformer re-adds the
// insertion site's indentation to every plus line, so stored text must be
// relative).
func stmtText(f *cast.File, n cast.Node, spls []splice) string {
	first, last := n.Span()
	toks := f.Toks.Tokens
	start := int(toks[first].Pos.Offset)
	end := toks[last].End()
	raw := f.Toks.Src[start:end]
	if len(spls) > 0 {
		sorted := append([]splice(nil), spls...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].first < sorted[j].first })
		var sb strings.Builder
		at := start
		for _, sp := range sorted {
			a := int(toks[sp.first].Pos.Offset)
			b := toks[sp.last].End()
			sb.WriteString(f.Toks.Src[at:a])
			sb.WriteString(sp.name)
			at = b
		}
		sb.WriteString(f.Toks.Src[at:end])
		raw = sb.String()
	}
	return stripBase(raw, lineIndent(f.Toks.WS(first)))
}

// lineIndent is the tail of a whitespace run after its last newline — the
// indentation of the token's own line.
func lineIndent(ws string) string {
	if nl := strings.LastIndexByte(ws, '\n'); nl >= 0 {
		return ws[nl+1:]
	}
	return ws
}

// stripBase removes the base indentation from every continuation line.
func stripBase(text, base string) string {
	if base == "" || !strings.Contains(text, "\n") {
		return text
	}
	lines := strings.Split(text, "\n")
	for i := 1; i < len(lines); i++ {
		lines[i] = strings.TrimPrefix(lines[i], base)
	}
	return strings.Join(lines, "\n")
}

// antiUnifier walks a paired before/after statement in lockstep, recording
// hole splices for subtrees shared verbatim by both sides.
type antiUnifier struct {
	vb   *variantBuilder
	bf   *cast.File
	af   *cast.File
	bSpl []splice
	aSpl []splice
}

// abstractKind maps a node to the metavariable kind that may stand for it;
// ok is false for nodes that must stay concrete (statements, initializer
// lists, opaque runs).
func abstractKind(n cast.Node) (cast.MetaKind, bool) {
	switch n.(type) {
	case *cast.Ident:
		return cast.MetaIdentKind, true
	case *cast.BasicLit:
		return cast.MetaConstKind, true
	case *cast.Type:
		return cast.MetaTypeKind, true
	case *cast.ParenExpr, *cast.UnaryExpr, *cast.BinaryExpr, *cast.CondExpr,
		*cast.CallExpr, *cast.IndexExpr, *cast.MemberExpr, *cast.CastExpr,
		*cast.SizeofExpr, *cast.KernelLaunch:
		return cast.MetaExprKind, true
	}
	return 0, false
}

// visit anti-unifies one before/after node pair. callee suppresses
// abstraction of the node itself (a call's function position abstracted to
// a metavariable would match any call site and destroy the pattern's
// anchor); recursion below a callee is unrestricted again.
func (au *antiUnifier) visit(bn, an cast.Node, callee bool) {
	if bn == nil || an == nil {
		return
	}
	normB := cast.NormText(au.bf, bn)
	normA := cast.NormText(au.af, an)
	if kind, ok := abstractKind(bn); ok && !callee && normB == normA &&
		reflect.TypeOf(bn) == reflect.TypeOf(an) {
		name := au.vb.hole(kind, normB)
		bFirst, bLast := bn.Span()
		aFirst, aLast := an.Span()
		au.bSpl = append(au.bSpl, splice{bFirst, bLast, name})
		au.aSpl = append(au.aSpl, splice{aFirst, aLast, name})
		return
	}
	if reflect.TypeOf(bn) != reflect.TypeOf(an) {
		au.divergent(bn, an) // the edit: only shared sub-subtrees abstract
		return
	}
	switch x := bn.(type) {
	case *cast.CallExpr:
		y := an.(*cast.CallExpr)
		au.visit(x.Fun, y.Fun, true)
		au.visitArgs(x.Args, y.Args)
	case *cast.KernelLaunch:
		y := an.(*cast.KernelLaunch)
		au.visit(x.Fun, y.Fun, true)
		au.visitArgs(x.Config, y.Config)
		au.visitArgs(x.Args, y.Args)
	default:
		bc, ac := cast.Children(bn), cast.Children(an)
		if len(bc) != len(ac) {
			au.divergent(bn, an)
			return
		}
		for i := range bc {
			au.visit(bc[i], ac[i], false)
		}
	}
}

// divergent handles a structurally divergent pair — the edit itself. The
// edit's own shape stays concrete, but maximal subtrees appearing verbatim
// on BOTH sides still abstract to one shared metavariable: the minus side
// binds it and the plus side substitutes the binding, so an edit like
// `acc` → `clamp(acc)` generalizes over the wrapped variable. A subtree
// present on only one side stays concrete — a plus-side metavariable with
// no minus-side binding would be unsubstitutable.
func (au *antiUnifier) divergent(bn, an cast.Node) {
	bKeys := subtreeKeys(au.bf, bn)
	aKeys := subtreeKeys(au.af, an)
	shared := map[string]bool{}
	for k := range bKeys {
		if aKeys[k] {
			shared[k] = true
		}
	}
	if len(shared) == 0 {
		return
	}
	au.bSpl = append(au.bSpl, spliceShared(au.vb, au.bf, bn, shared)...)
	au.aSpl = append(au.aSpl, spliceShared(au.vb, au.af, an, shared)...)
}

// subtreeKeys collects the hole key of every abstractable subtree, honoring
// the callee rule (a call's function position contributes its children, not
// itself).
func subtreeKeys(f *cast.File, n cast.Node) map[string]bool {
	out := map[string]bool{}
	walkHolable(n, false, func(m cast.Node, kind cast.MetaKind) bool {
		out[string(kindPrefix(kind))+"\x00"+cast.NormText(f, m)] = true
		return false // keep descending: inner shared subtrees count too
	})
	return out
}

// spliceShared splices a hole over every maximal subtree whose key is in
// shared, descending no further below a splice.
func spliceShared(vb *variantBuilder, f *cast.File, n cast.Node, shared map[string]bool) []splice {
	var out []splice
	walkHolable(n, false, func(m cast.Node, kind cast.MetaKind) bool {
		norm := cast.NormText(f, m)
		if !shared[string(kindPrefix(kind))+"\x00"+norm] {
			return false
		}
		first, last := m.Span()
		out = append(out, splice{first, last, vb.hole(kind, norm)})
		return true // maximal: stop below the splice
	})
	return out
}

// walkHolable visits every node that may become a hole (abstractable, not a
// callee position), calling fn with its kind; fn returning true prunes the
// subtree below that node.
func walkHolable(n cast.Node, callee bool, fn func(m cast.Node, kind cast.MetaKind) bool) {
	if n == nil {
		return
	}
	if kind, ok := abstractKind(n); ok && !callee {
		if fn(n, kind) {
			return
		}
	}
	switch x := n.(type) {
	case *cast.CallExpr:
		walkHolable(x.Fun, true, fn)
		for _, a := range x.Args {
			walkHolable(a, false, fn)
		}
	case *cast.KernelLaunch:
		walkHolable(x.Fun, true, fn)
		for _, c := range x.Config {
			walkHolable(c, false, fn)
		}
		for _, a := range x.Args {
			walkHolable(a, false, fn)
		}
	default:
		for _, c := range cast.Children(n) {
			walkHolable(c, false, fn)
		}
	}
}

// visitArgs pairs variadic child lists (call arguments) by aligning their
// normalized texts, so a shared argument abstracts even when the argument
// count changed around it.
func (au *antiUnifier) visitArgs(bArgs, aArgs []cast.Expr) {
	bKeys := make([]string, len(bArgs))
	for i, e := range bArgs {
		bKeys[i] = cast.NormText(au.bf, e)
	}
	aKeys := make([]string, len(aArgs))
	for i, e := range aArgs {
		aKeys[i] = cast.NormText(au.af, e)
	}
	var dels, inss []int
	flush := func() {
		if len(dels) == len(inss) {
			// Positionally paired rewritten arguments anti-unify like any
			// modified pair; unbalanced runs (an argument appeared or
			// vanished) stay concrete.
			for i := range dels {
				au.visit(bArgs[dels[i]], aArgs[inss[i]], false)
			}
		}
		dels, inss = nil, nil
	}
	for _, op := range cast.AlignSeq(bKeys, aKeys) {
		switch op.Kind {
		case cast.AlignSame:
			flush()
			au.visit(bArgs[op.A], aArgs[op.B], false)
		case cast.AlignDel:
			dels = append(dels, op.A)
		case cast.AlignIns:
			inss = append(inss, op.B)
		}
	}
	flush()
}
