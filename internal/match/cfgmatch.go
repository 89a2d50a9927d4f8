package match

import (
	"slices"

	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/smpl"
)

// This file implements the path-sensitive dots engine: when a rule's
// top-level statement pattern contains `...`, matches are enumerated by
// walking the function's control-flow graph instead of scanning sibling
// statement lists. Anchors (the concrete pattern statements between dots)
// are matched against CFG nodes with the ordinary node matcher; each dots
// segment becomes a path search across if/else arms, switch cases, and
// loop back-edges, with the `when` constraint family checked on every
// traversed node. `when strict`/`when forall` segments are additionally
// verified with the CTL fixpoint A[ok U anchor] over the graph (allUntil),
// so the quantified semantics match Coccinelle's CTL-VW formulation.
//
// On straight-line code the engine enumerates exactly the matches of the
// syntactic sequence matcher, in the same order and with byte-identical
// gap records (TestQuickSeqCFGParity pins this); on branchy code it finds
// the cross-arm and back-edge matches the sequence matcher cannot.

// CFGEligible reports whether the pattern's top-level statement sequence
// can be matched path-sensitively: it must contain statement dots, and
// every other element must be an anchor the node matcher can compare
// against a single CFG node. Compound anchors ({ } blocks, which the CFG
// flattens away), statement-list metavariables (which bind contiguous
// sibling runs), and disjunctions with multi-statement branches fall back
// to the sequence matcher.
func CFGEligible(pat *smpl.Pattern, metas *smpl.MetaTable) bool {
	if pat == nil || pat.Kind != smpl.StmtSeqPattern {
		return false
	}
	hasDots := false
	for _, s := range pat.Stmts {
		switch st := s.(type) {
		case *cast.Dots:
			hasDots = true
		case *cast.Compound:
			return false
		case *cast.DisjStmt:
			for _, br := range st.Branches {
				if len(br) != 1 {
					return false
				}
			}
		case *cast.MetaStmt:
			if metas != nil {
				if d, ok := metas.Decl(st.Name); ok && d.Kind == cast.MetaStmtListKind {
					return false
				}
			}
		}
	}
	return hasDots
}

// QuantifiersDecidable reports whether the pattern's `when strict`/`when
// forall` dots can be decided. They are path quantifiers only the CFG
// engine decides, so they are allowed only at the top level of a
// CFG-eligible pattern: on the sequence fallback, or nested inside an
// anchor (where matching is syntactic even under the CFG engine), they
// would silently degrade to existential matching.
func QuantifiersDecidable(pat *smpl.Pattern, metas *smpl.MetaTable) bool {
	top, nested := quantifiedDots(pat)
	return !nested && (!top || CFGEligible(pat, metas))
}

// quantifiedDots reports where `when strict`/`when forall` dots appear in
// the pattern: as top-level statement elements or nested anywhere else
// (inside anchors, compounds, expressions).
func quantifiedDots(p *smpl.Pattern) (topLevel, nested bool) {
	if p == nil {
		return false, false
	}
	top := map[*cast.Dots]bool{}
	if p.Kind == smpl.StmtSeqPattern {
		for _, s := range p.Stmts {
			if d, ok := s.(*cast.Dots); ok {
				top[d] = true
			}
		}
	}
	visit := func(n cast.Node) bool {
		d, ok := n.(*cast.Dots)
		if !ok || (!d.WhenStrict && !d.WhenForall) {
			return true
		}
		if top[d] {
			topLevel = true
		} else {
			nested = true
		}
		return true
	}
	switch p.Kind {
	case smpl.ExprPattern:
		cast.Walk(p.Expr, visit)
	case smpl.StmtSeqPattern:
		for _, s := range p.Stmts {
			cast.Walk(s, visit)
		}
	case smpl.DeclPattern:
		for _, d := range p.Decls {
			cast.Walk(d, visit)
		}
	}
	return topLevel, nested
}

// pathCtx carries one function's graph through a path-matching attempt.
type pathCtx struct {
	c *ctx
	g *cfg.Graph
}

// nodeStmt returns the statement a content node carries (branch nodes
// carry their whole construct).
func nodeStmt(n *cfg.Node) (cast.Stmt, bool) {
	s, ok := n.AST.(cast.Stmt)
	return s, ok && s != nil
}

// content reports whether the node carries matchable program content.
// Entry/exit/join nodes (including label joins, whose statement is wired
// as its own node) are transparent: paths cross them freely, constraints
// never apply to them, and anchors never match them.
func content(n *cfg.Node) bool {
	return n.Kind == cfg.Stmt || n.Kind == cfg.Branch
}

// findCFG enumerates path-sensitive matches over every function in the
// file. Like the sequence matcher it commits to the first solution per
// start point — the shortest-path witness — so straight-line results stay
// identical between engines; distinct start points yield distinct matches.
func (m *Matcher) findCFG(add func(Match) bool) bool {
	elems := mergeDots(m.Pat.Stmts)
	if len(elems) == 0 {
		return false
	}
	_, leadingDots := elems[0].(*cast.Dots)
	for _, fd := range m.funcCands() {
		if !m.admits(fd) {
			continue
		}
		g := m.CFGs(fd)
		if g == nil {
			continue
		}
		if leadingDots {
			// Leading dots are anchored once, at function entry.
			c := m.newCtx()
			p := &pathCtx{c: c, g: g}
			if p.matchElems(elems, 0, p.contentSuccs(g.EntryID)) {
				if add(c.finish()) {
					return true
				}
			}
			continue
		}
		for _, n := range g.Nodes { // id order tracks source order
			if !content(n) {
				continue
			}
			ast, ok := nodeStmt(n)
			if !ok {
				continue
			}
			c := m.newCtx()
			p := &pathCtx{c: c, g: g}
			if c.stmt(elems[0], ast) && p.matchElems(elems, 1, p.frontier(n.ID)) {
				if add(c.finish()) {
					return true
				}
			}
		}
	}
	return false
}

// mergeDots collapses adjacent dots elements into one, unioning their
// constraints, so the recursion below can assume dots and anchors
// alternate.
func mergeDots(stmts []cast.Stmt) []cast.Stmt {
	var out []cast.Stmt
	for _, s := range stmts {
		d, isDots := s.(*cast.Dots)
		if !isDots || len(out) == 0 {
			out = append(out, s)
			continue
		}
		prev, prevDots := out[len(out)-1].(*cast.Dots)
		if !prevDots {
			out = append(out, s)
			continue
		}
		merged := *prev
		merged.WhenNot = append(append([]cast.Expr{}, prev.WhenNot...), d.WhenNot...)
		merged.WhenOnly = append(append([]cast.Expr{}, prev.WhenOnly...), d.WhenOnly...)
		merged.WhenAny = prev.WhenAny && d.WhenAny
		merged.WhenStrict = prev.WhenStrict || d.WhenStrict
		merged.WhenForall = prev.WhenForall || d.WhenForall
		merged.WhenExists = prev.WhenExists || d.WhenExists
		out[len(out)-1] = &merged
	}
	return out
}

// matchElems matches pattern elements i.. given the content nodes where
// the next element may begin. Returns true on the first full solution.
func (p *pathCtx) matchElems(elems []cast.Stmt, i int, entry []int) bool {
	if i >= len(elems) {
		return true
	}
	c := p.c
	if d, ok := elems[i].(*cast.Dots); ok {
		if i == len(elems)-1 {
			// Trailing dots consume nothing, mirroring the sequence
			// matcher: the path to function exit is unconstrained.
			c.pair(d, -1, -2)
			return p.matchElems(elems, i+1, nil)
		}
		next := elems[i+1]
		return p.matchGap(d, entry, func(cand int, skipped func() []int) bool {
			ast, ok := nodeStmt(p.g.Nodes[cand])
			if !ok {
				return false
			}
			na, nc := c.save()
			if !c.stmt(next, ast) {
				c.restore(na, nc)
				return false
			}
			// The gap's pairs precede the anchor's in Corr. They are only
			// worth building once the anchor matched, so record them now and
			// rotate them into place.
			mid := len(c.corr)
			p.recordGap(d, skipped())
			rotate(c.corr[nc:], mid-nc)
			if p.matchElems(elems, i+2, p.frontier(cand)) {
				return true
			}
			c.restore(na, nc)
			return false
		})
	}
	// No dots between the previous anchor and this one: it must match one
	// of the immediately following content nodes.
	for _, id := range entry {
		ast, ok := nodeStmt(p.g.Nodes[id])
		if !ok {
			continue
		}
		na, nc := c.save()
		if c.stmt(elems[i], ast) && p.matchElems(elems, i+1, p.frontier(id)) {
			return true
		}
		c.restore(na, nc)
	}
	return false
}

// matchGap explores the paths a dots segment may take from the entry
// nodes, in breadth-first (shortest-skip-first) order. Every discovered
// content node is offered to `try` as a candidate position for the next
// anchor, with a function returning the content nodes skipped along its
// discovery path (built only when asked); the search then continues through
// the node only if the dots' constraints allow traversing it. Under `when
// strict`/`when forall` a candidate is only offered when the CTL check
// proves every path from the gap's entry reaches it through allowed nodes.
func (p *pathCtx) matchGap(d *cast.Dots, entry []int, try func(cand int, skipped func() []int) bool) bool {
	type gapNode struct{ id, parent int }
	visited := make([]bool, len(p.g.Nodes))
	var order []gapNode
	push := func(id, parent int) {
		if !visited[id] {
			visited[id] = true
			order = append(order, gapNode{id, parent})
		}
	}
	for _, e := range entry {
		push(e, -1)
	}
	var qi int
	skipped := func() []int {
		var out []int
		for pi := order[qi].parent; pi >= 0; pi = order[pi].parent {
			out = append(out, order[pi].id)
		}
		slices.Reverse(out)
		return out
	}
	strict := d.WhenStrict || d.WhenForall
	for ; qi < len(order); qi++ {
		id := order[qi].id
		if !strict || p.allPathsReach(d, entry, id) {
			if try(id, skipped) {
				return true
			}
		}
		if p.nodeAllowed(d, p.g.Nodes[id]) {
			for _, s := range p.contentSuccs(id) {
				push(s, qi)
			}
		}
	}
	return false
}

// nodeAllowed checks the dots constraints against one traversed node: no
// `when != e` expression may occur in its probe fragments (for branch
// headers, the header only — arm content is its own node and is checked
// when the path enters it), and under `when == e` the node must be a
// permitted expression statement.
func (p *pathCtx) nodeAllowed(d *cast.Dots, n *cfg.Node) bool {
	if !content(n) || d.WhenAny {
		return true
	}
	var subs []cast.Expr
	if len(d.WhenNot) > 0 {
		for _, root := range n.ProbeNodes() {
			subs = append(subs, cast.Exprs(root)...)
		}
	}
	return p.c.whenAllows(d, subs, n.AST)
}

// allPathsReach decides the `when strict`/`when forall` obligation:
// A[allowed U cand] must hold at every gap entry — every path from where
// the dots begin reaches the candidate anchor, and until then traverses
// only nodes the constraints allow.
func (p *pathCtx) allPathsReach(d *cast.Dots, entry []int, cand int) bool {
	holds := allUntil(p.g,
		func(n *cfg.Node) bool { return p.nodeAllowed(d, n) },
		func(n *cfg.Node) bool { return n.ID == cand })
	for _, e := range entry {
		if !holds[e] {
			return false
		}
	}
	return true
}

// allUntil evaluates the CTL formula A[allowed U anchor] on every node of
// g: the least fixpoint Z = anchor ∨ (allowed ∧ AX Z ∧ a successor exists).
// It runs backward from the anchors by successor count-down: an allowed
// node joins the set when the last of its successors has joined. A node in
// the set therefore reaches an anchor on every path, through allowed nodes
// only; a cycle that can avoid the anchors never joins (its nodes' counts
// never reach zero), and neither does a path that ends first.
func allUntil(g *cfg.Graph, allowed, anchor func(*cfg.Node) bool) []bool {
	holds := make([]bool, len(g.Nodes))
	ok := make([]bool, len(g.Nodes))
	remaining := make([]int, len(g.Nodes))
	var work []int
	for i, n := range g.Nodes {
		if anchor(n) {
			holds[i] = true
			work = append(work, i)
			continue
		}
		ok[i] = allowed(n)
		remaining[i] = len(n.Succs)
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for _, pr := range g.Nodes[id].Preds {
			if holds[pr] || !ok[pr] {
				continue
			}
			remaining[pr]--
			if remaining[pr] == 0 {
				holds[pr] = true
				work = append(work, pr)
			}
		}
	}
	return holds
}

// recordGap records the correspondence between the dots pattern tokens and
// the skipped content nodes, as maximal contiguous token runs so that on
// straight-line code the record is exactly the sequence matcher's single
// gap pair. Skipped branch headers contribute nothing: their token span
// covers arms the path may never take, and a `- ...` deletion must not
// swallow untaken code.
func (p *pathCtx) recordGap(d *cast.Dots, skipped []int) {
	type rng struct{ f, l int }
	var runs []rng
	for _, id := range skipped {
		n := p.g.Nodes[id]
		if n.Kind != cfg.Stmt || n.AST == nil {
			continue
		}
		f, l := n.AST.Span()
		placed := false
		for i := range runs {
			if f >= runs[i].f && f <= runs[i].l+1 {
				if l > runs[i].l {
					runs[i].l = l
				}
				placed = true
				break
			}
			if l >= runs[i].f-1 && l <= runs[i].l {
				if f < runs[i].f {
					runs[i].f = f
				}
				placed = true
				break
			}
		}
		if !placed {
			runs = append(runs, rng{f, l})
		}
	}
	// merge runs that became adjacent after extension
	for merged := true; merged; {
		merged = false
		for i := 0; i < len(runs) && !merged; i++ {
			for j := i + 1; j < len(runs); j++ {
				if runs[j].f <= runs[i].l+1 && runs[i].f <= runs[j].l+1 {
					if runs[j].f < runs[i].f {
						runs[i].f = runs[j].f
					}
					if runs[j].l > runs[i].l {
						runs[i].l = runs[j].l
					}
					runs = append(runs[:j], runs[j+1:]...)
					merged = true
					break
				}
			}
		}
	}
	if len(runs) == 0 {
		p.c.pair(d, -1, -2) // empty gap: dots over nothing
		return
	}
	for _, r := range runs {
		p.c.pair(d, r.f, r.l)
	}
}

// contentSuccs returns the content nodes immediately after `id`, crossing
// transparent entry/exit/join nodes, in deterministic successor order.
func (p *pathCtx) contentSuccs(id int) []int {
	var out []int
	seen := make([]bool, len(p.g.Nodes))
	seen[id] = true
	var walk func(int)
	walk = func(nid int) {
		for _, s := range p.g.Nodes[nid].Succs {
			if seen[s] {
				continue
			}
			seen[s] = true
			if content(p.g.Nodes[s]) {
				out = append(out, s)
			} else {
				walk(s)
			}
		}
	}
	walk(id)
	return out
}

// frontier returns the content nodes where a path continues after the
// whole construct matched at node `id`: successors reached by crossing
// transparent nodes and nodes inside the anchor's own token span (the
// bodies of a matched if/loop, which the anchor matched syntactically).
func (p *pathCtx) frontier(id int) []int {
	n := p.g.Nodes[id]
	nf, nl := -1, -1
	if n.AST != nil {
		nf, nl = n.AST.Span()
	}
	var out []int
	seen := make([]bool, len(p.g.Nodes))
	seen[id] = true
	queue := []int{id}
	for qi := 0; qi < len(queue); qi++ {
		for _, s := range p.g.Nodes[queue[qi]].Succs {
			if seen[s] {
				continue
			}
			seen[s] = true
			sn := p.g.Nodes[s]
			if !content(sn) {
				queue = append(queue, s)
				continue
			}
			if f, l := sn.AST.Span(); nf >= 0 && f >= nf && l <= nl {
				queue = append(queue, s)
				continue
			}
			out = append(out, s)
		}
	}
	return out
}

// rotate moves the first k elements of s to its end, keeping both runs in
// order, without allocating.
func rotate(s []Pair, k int) {
	slices.Reverse(s[:k])
	slices.Reverse(s[k:])
	slices.Reverse(s)
}
