package match

import (
	"strings"

	"repro/internal/cast"
)

// stmt matches one pattern statement against one code statement.
func (c *ctx) stmt(p, x cast.Stmt) bool {
	if p == nil || x == nil {
		return p == nil && x == nil
	}
	switch pt := p.(type) {
	case *cast.MetaStmt:
		cf, cl := x.Span()
		if !c.bind(pt.Name, cast.MetaStmtKind, cf, cl) {
			return false
		}
		c.pairNode(pt, x)
		return c.bindPositions(pt.Positions, cf)
	case *cast.Dots:
		// bare dots in single-statement position match any statement
		c.pairNode(pt, x)
		return true
	case *cast.DisjStmt:
		for _, br := range pt.Branches {
			if len(br) != 1 {
				continue
			}
			na, nc := c.save()
			if c.stmt(br[0], x) {
				c.pairNode(pt, x)
				return true
			}
			c.restore(na, nc)
		}
		return false
	case *cast.ConjStmt:
		for _, op := range pt.Operands {
			if !c.conjOperand(op, x) {
				return false
			}
		}
		c.pairNode(pt, x)
		return true
	case *cast.ExprStmt:
		es, ok := x.(*cast.ExprStmt)
		if !ok {
			return false
		}
		if !c.expr(pt.X, es.X) {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.DeclStmt:
		ds, ok := x.(*cast.DeclStmt)
		if !ok {
			return false
		}
		if !c.varDecl(pt.D, ds.D) {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.If:
		f, ok := x.(*cast.If)
		if !ok {
			return false
		}
		if !c.expr(pt.Cond, f.Cond) || !c.bodyStmt(pt.Then, f.Then) {
			return false
		}
		if (pt.Else == nil) != (f.Else == nil) {
			return false
		}
		if pt.Else != nil && !c.bodyStmt(pt.Else, f.Else) {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.For:
		f, ok := x.(*cast.For)
		if !ok {
			return false
		}
		if !c.forInit(pt.Init, f.Init) {
			return false
		}
		if !c.optExpr(pt.Cond, f.Cond) || !c.optExpr(pt.Post, f.Post) {
			return false
		}
		if !c.bodyStmt(pt.Body, f.Body) {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.RangeFor:
		f, ok := x.(*cast.RangeFor)
		if !ok {
			return false
		}
		if !c.varDecl(pt.Decl, f.Decl) || !c.expr(pt.X, f.X) || !c.bodyStmt(pt.Body, f.Body) {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.While:
		w, ok := x.(*cast.While)
		if !ok {
			return false
		}
		if !c.expr(pt.Cond, w.Cond) || !c.bodyStmt(pt.Body, w.Body) {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.DoWhile:
		w, ok := x.(*cast.DoWhile)
		if !ok {
			return false
		}
		if !c.bodyStmt(pt.Body, w.Body) || !c.expr(pt.Cond, w.Cond) {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.Switch:
		s, ok := x.(*cast.Switch)
		if !ok {
			return false
		}
		if !c.expr(pt.Cond, s.Cond) || !c.bodyStmt(pt.Body, s.Body) {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.Return:
		r, ok := x.(*cast.Return)
		if !ok {
			return false
		}
		if (pt.X == nil) != (r.X == nil) {
			return false
		}
		if pt.X != nil && !c.expr(pt.X, r.X) {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.Break:
		if _, ok := x.(*cast.Break); !ok {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.Continue:
		if _, ok := x.(*cast.Continue); !ok {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.Goto:
		g, ok := x.(*cast.Goto)
		if !ok || g.Label != pt.Label {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.Label:
		l, ok := x.(*cast.Label)
		if !ok || l.Name != pt.Name {
			return false
		}
		if !c.stmt(pt.Stmt, l.Stmt) {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.Case:
		cs, ok := x.(*cast.Case)
		if !ok {
			return false
		}
		if (pt.X == nil) != (cs.X == nil) {
			return false
		}
		if pt.X != nil && !c.expr(pt.X, cs.X) {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.Empty:
		if _, ok := x.(*cast.Empty); !ok {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.Compound:
		cp, ok := x.(*cast.Compound)
		if !ok {
			return false
		}
		ok2, _ := c.stmtSeq(pt.Items, cp.Items, true)
		if !ok2 {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.PragmaPattern:
		ps, ok := x.(*cast.PragmaStmt)
		if !ok {
			return false
		}
		if !c.pragma(pt, ps.P) {
			return false
		}
		c.pairNode(pt, x)
		return true
	case *cast.PragmaStmt:
		ps, ok := x.(*cast.PragmaStmt)
		if !ok || ps.P.Info != pt.P.Info {
			return false
		}
		c.pairNode(pt, x)
		return true
	}
	return false
}

// conjOperand implements conjunction semantics: a statement-pattern operand
// must match the statement itself; an expression-pattern operand must match
// some subexpression of the statement (every occurrence is recorded so the
// transformer can rewrite all of them, as the unroll rules require).
func (c *ctx) conjOperand(op cast.Stmt, x cast.Stmt) bool {
	if es, ok := op.(*cast.ExprStmt); ok {
		// A pattern expression used as a conjunction operand without a
		// semicolon parses as ExprStmt only when followed by ';'; treat
		// both ExprStmt and bare expression forms as containment patterns
		// unless the code statement is itself a matching ExprStmt.
		na, nc := c.save()
		if c.stmt(op, x) {
			return true
		}
		c.restore(na, nc)
		return c.containsExpr(es.X, x)
	}
	return c.stmt(op, x)
}

// containsExpr matches the pattern expression against every subexpression of
// the statement, requiring at least one hit and recording all of them with a
// consistent environment.
func (c *ctx) containsExpr(pe cast.Expr, x cast.Stmt) bool {
	found := false
	for _, sub := range cast.Exprs(x) {
		na, nc := c.save()
		if c.expr(pe, sub) {
			found = true
			// keep bindings and correspondence of every occurrence
			continue
		}
		c.restore(na, nc)
	}
	return found
}

// bodyStmt matches loop/if bodies: a pattern Compound matches either a code
// Compound or is compared via stmt; a bare pattern statement also matches a
// code Compound holding exactly that statement (brace isomorphism).
func (c *ctx) bodyStmt(p, x cast.Stmt) bool {
	if p == nil || x == nil {
		return p == nil && x == nil
	}
	// A statement metavariable binds the body as written, braces included,
	// so its text survives verbatim into script rules and plus lines.
	if _, isMeta := p.(*cast.MetaStmt); isMeta {
		return c.stmt(p, x)
	}
	if _, pIsComp := p.(*cast.Compound); !pIsComp {
		if cp, ok := x.(*cast.Compound); ok && len(cp.Items) == 1 {
			na, nc := c.save()
			if c.stmt(p, cp.Items[0]) {
				return true
			}
			c.restore(na, nc)
		}
	}
	if pc, ok := p.(*cast.Compound); ok {
		if xc, ok2 := x.(*cast.Compound); ok2 {
			ok3, _ := c.stmtSeq(pc.Items, xc.Items, true)
			if ok3 {
				c.pairNode(pc, xc)
			}
			return ok3
		}
		// pattern { ... } with a single wildcard matches a bare statement
		if len(pc.Items) == 1 {
			if _, isDots := pc.Items[0].(*cast.Dots); isDots {
				c.pairNode(pc.Items[0].(*cast.Dots), x)
				return true
			}
		}
		return false
	}
	return c.stmt(p, x)
}

// forInit matches the for-loop init clause; pattern Dots matches any.
func (c *ctx) forInit(p, x cast.Stmt) bool {
	if d, ok := p.(*cast.Dots); ok {
		if x != nil {
			c.pairNode(d, x)
		}
		return true
	}
	return c.stmt(p, x)
}

// optExpr matches optional expressions (for-clauses); pattern Dots matches
// anything including absent.
func (c *ctx) optExpr(p, x cast.Expr) bool {
	if p == nil {
		return x == nil
	}
	if d, ok := p.(*cast.Dots); ok {
		if x != nil {
			c.pairNode(d, x)
		}
		return true
	}
	if x == nil {
		return false
	}
	return c.expr(p, x)
}

// varDecl matches declarations.
func (c *ctx) varDecl(p, x *cast.VarDecl) bool {
	if p == nil || x == nil {
		return p == x
	}
	if !c.typ(p.Type, x.Type) {
		return false
	}
	if len(p.Items) != len(x.Items) {
		return false
	}
	for i := range p.Items {
		pd, xd := p.Items[i], x.Items[i]
		if pd.Stars != xd.Stars || pd.Ref != xd.Ref {
			return false
		}
		nf, _ := xd.Name.Span()
		if !c.name(pd.Name, nf, xd.Name.Name) {
			return false
		}
		if len(pd.Dims) != len(xd.Dims) {
			return false
		}
		for j := range pd.Dims {
			if (pd.Dims[j] == nil) != (xd.Dims[j] == nil) {
				return false
			}
			if pd.Dims[j] != nil && !c.expr(pd.Dims[j], xd.Dims[j]) {
				return false
			}
		}
		if (pd.Init == nil) != (xd.Init == nil) {
			return false
		}
		if pd.Init != nil && !c.expr(pd.Init, xd.Init) {
			return false
		}
	}
	c.pairNode(p, x)
	return true
}

// pragma matches a pragma pattern against a concrete pragma.
func (c *ctx) pragma(p *cast.PragmaPattern, x *cast.Pragma) bool {
	words := x.Word
	if len(words) < len(p.Words) {
		return false
	}
	for i, w := range p.Words {
		if words[i] != w {
			return false
		}
	}
	rest := strings.Join(words[len(p.Words):], " ")
	if p.InfoMeta != "" {
		cf, _ := x.Span()
		b := Binding{
			Kind: cast.MetaPragmaInfoKind, Text: rest, Norm: rest,
			First: cf, Last: cf, File: c.m.Code.Name,
		}
		if !c.bindValue(p.InfoMeta, b) {
			return false
		}
		return true
	}
	if p.TailDots {
		return true
	}
	return rest == ""
}

// stmtSeq matches a pattern statement sequence against a code statement
// slice. When exact is true the pattern must consume the entire slice;
// otherwise trailing code statements may remain (sliding-window matching).
// Returns the number of code statements consumed.
func (c *ctx) stmtSeq(pats []cast.Stmt, items []cast.Stmt, exact bool) (bool, int) {
	if len(pats) == 0 {
		if exact && len(items) != 0 {
			return false, 0
		}
		return true, 0
	}
	p0 := pats[0]
	switch pt := p0.(type) {
	case *cast.Dots:
		// Dots absorb 0..len(items) statements, honoring `when` constraints.
		for k := 0; k <= len(items); k++ {
			if k > 0 && !c.dotsAllows(pt, items[k-1]) {
				return false, 0
			}
			na, nc := c.save()
			c.recordStmtGap(pt, items, k)
			if ok, n := c.stmtSeq(pats[1:], items[k:], exact); ok {
				return true, k + n
			}
			c.restore(na, nc)
		}
		return false, 0
	case *cast.MetaStmt:
		if d := c.metaDecl(pt.Name); d != nil && d.Kind == cast.MetaStmtListKind {
			// statement-list metavariable: greedy bind of a contiguous run
			for k := len(items); k >= 0; k-- {
				na, nc := c.save()
				if c.bindStmtRange(pt, items, k) {
					if ok, n := c.stmtSeq(pats[1:], items[k:], exact); ok {
						return true, k + n
					}
				}
				c.restore(na, nc)
			}
			return false, 0
		}
	case *cast.DisjStmt:
		// A disjunction with multi-statement branches participates in
		// sequence matching.
		for _, br := range pt.Branches {
			na, nc := c.save()
			if ok, n := c.stmtSeq(br, items, false); ok {
				if ok2, n2 := c.stmtSeq(pats[1:], items[n:], exact); ok2 {
					return true, n + n2
				}
			}
			c.restore(na, nc)
		}
		return false, 0
	}
	if len(items) == 0 {
		return false, 0
	}
	na, nc := c.save()
	if !c.stmt(p0, items[0]) {
		c.restore(na, nc)
		return false, 0
	}
	ok, n := c.stmtSeq(pats[1:], items[1:], exact)
	if !ok {
		c.restore(na, nc)
		return false, 0
	}
	return true, n + 1
}

// dotsAllows checks the dots' `when` constraints against a skipped
// statement: no `when != e` expression may occur anywhere in its subtree
// (cast.Exprs walks nested compound bodies, so content hidden inside a
// skipped if/while/block is checked too), and under `when == e` the
// statement must itself be one of the permitted expression forms. The
// parser guarantees `when any` never carries other constraints, so it
// cannot silently mask them here.
func (c *ctx) dotsAllows(d *cast.Dots, skipped cast.Stmt) bool {
	if d.WhenAny {
		return true
	}
	var subs []cast.Expr
	if len(d.WhenNot) > 0 {
		subs = cast.Exprs(skipped)
	}
	return c.whenAllows(d, subs, skipped)
}

func (c *ctx) recordStmtGap(p cast.Node, items []cast.Stmt, k int) {
	pf, pl := p.Span()
	if k == 0 {
		anchor := -1
		if len(items) > 0 {
			f, _ := items[0].Span()
			anchor = f
		}
		c.corr = append(c.corr, Pair{PF: pf, PL: pl, CF: anchor, CL: anchor - 1})
		return
	}
	f, _ := items[0].Span()
	_, l := items[k-1].Span()
	c.corr = append(c.corr, Pair{PF: pf, PL: pl, CF: f, CL: l})
}

func (c *ctx) bindStmtRange(pt *cast.MetaStmt, items []cast.Stmt, k int) bool {
	pf, pl := pt.Span()
	if k == 0 {
		if !c.bindValue(pt.Name, NewValueBinding(cast.MetaStmtListKind, "")) {
			return false
		}
		c.corr = append(c.corr, Pair{PF: pf, PL: pl, CF: -1, CL: -2})
		return true
	}
	f, _ := items[0].Span()
	_, l := items[k-1].Span()
	if !c.bind(pt.Name, cast.MetaStmtListKind, f, l) {
		return false
	}
	c.corr = append(c.corr, Pair{PF: pf, PL: pl, CF: f, CL: l})
	return true
}
