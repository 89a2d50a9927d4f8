// Package match implements SmPL pattern matching against C/C++ syntax trees.
// A match binds metavariables to code fragments and records a correspondence
// between pattern tokens and code tokens; the correspondence is what lets the
// transformer delete exactly the code tokens that '-' pattern tokens matched
// and anchor '+' insertions at the right code positions.
package match

import (
	"strings"
	"sync"

	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/ctoken"
	"repro/internal/smpl"
)

// Binding is the value of one metavariable.
type Binding struct {
	Kind cast.MetaKind
	// Text is the exact source text of the bound fragment (or the
	// synthesized value for script/fresh bindings).
	Text string
	// Norm is the whitespace-normalized text used for consistency checks.
	Norm string
	// First/Last are the code token range; -1/-2 when synthesized.
	First, Last int
	// TokIdx is the anchor token for position bindings.
	TokIdx int
	// File is the source file name the binding came from.
	File string
}

// NewValueBinding makes a synthesized binding (script outputs, fresh ids).
func NewValueBinding(kind cast.MetaKind, text string) Binding {
	return Binding{Kind: kind, Text: text, Norm: text, First: -1, Last: -2}
}

// Env maps metavariable names (local to a rule) to bindings.
type Env map[string]Binding

// Clone copies the environment.
func (e Env) Clone() Env {
	out := make(Env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// Pair records that pattern tokens [PF,PL] matched code tokens [CF,CL].
// An empty code range (CL<CF) is legal: dots that consumed nothing.
type Pair struct{ PF, PL, CF, CL int }

// Match is one successful pattern application.
type Match struct {
	Env   Env
	Corr  []Pair
	First int // first code token covered
	Last  int // last code token covered
}

// Matcher runs one rule's pattern over one file.
type Matcher struct {
	Pat   *smpl.Pattern
	Metas *smpl.MetaTable
	Code  *cast.File
	// Inherited holds pre-bound metavariables (local names).
	Inherited Env
	// MaxMatches caps the result list (0 = unlimited).
	MaxMatches int
	// CFGs, when non-nil, provides per-function control-flow graphs and
	// enables the path-sensitive dots engine (cfgmatch.go) for eligible
	// statement patterns. The engine caches graphs behind this hook so one
	// build serves every rule, environment, and match on the file. Nil
	// falls back to the syntactic sequence matcher.
	CFGs func(*cast.FuncDef) *cfg.Graph
	// Window, when non-nil, restricts matching to candidate roots whose
	// token span [first,last] it admits. Candidate roots — expressions,
	// statement contexts, declarations, CFG functions — each occupy a
	// contiguous token range, so a partition of the token file into windows
	// (cast.Segmentation's function extents and residue) partitions the
	// match set: every match found without a window is found under exactly
	// one window of the partition, and vice versa.
	Window func(first, last int) bool
	// Cands, when non-nil, supplies the file's candidate enumerations,
	// computed once by PrecomputeCands. Windowed per-segment matchers share
	// one Cands so FindAll filters a ready list instead of re-walking the
	// whole AST per segment; it must have been computed from Code.
	Cands *Cands
}

// Cands caches the per-file candidate enumerations FindAll iterates: every
// expression, every statement context, and every function definition.
// Computing them costs a full AST walk, so segment-granular callers that run
// FindAll once per window build one Cands per file and share it (it is
// read-only and safe for concurrent matchers).
type Cands struct {
	exprs []cast.Expr
	stmts []stmtContext
	funcs []*cast.FuncDef
	// types are enumerated on first use: only type patterns need them.
	typesOnce sync.Once
	types     []*cast.Type
}

// PrecomputeCands enumerates f's candidates for Matcher.Cands.
func PrecomputeCands(f *cast.File) *Cands {
	return &Cands{exprs: cast.Exprs(f), stmts: stmtContexts(f), funcs: f.Funcs()}
}

// exprCands returns the expression candidates, enumerating on demand when no
// precomputed set was supplied.
func (m *Matcher) exprCands() []cast.Expr {
	if m.Cands != nil {
		return m.Cands.exprs
	}
	return cast.Exprs(m.Code)
}

// stmtCands returns the statement-context candidates.
func (m *Matcher) stmtCands() []stmtContext {
	if m.Cands != nil {
		return m.Cands.stmts
	}
	return stmtContexts(m.Code)
}

// funcCands returns the function-definition candidates.
func (m *Matcher) funcCands() []*cast.FuncDef {
	if m.Cands != nil {
		return m.Cands.funcs
	}
	return m.Code.Funcs()
}

// typeCands returns every type node of the file.
func (m *Matcher) typeCands() []*cast.Type {
	if m.Cands == nil {
		return types(m.Code)
	}
	m.Cands.typesOnce.Do(func() { m.Cands.types = types(m.Code) })
	return m.Cands.types
}

func types(f *cast.File) []*cast.Type {
	var out []*cast.Type
	cast.Walk(f, func(n cast.Node) bool {
		if t, ok := n.(*cast.Type); ok && t != nil {
			out = append(out, t)
		}
		return true
	})
	return out
}

// admits reports whether the window (if any) accepts the node's span.
func (m *Matcher) admits(n cast.Node) bool {
	if m.Window == nil {
		return true
	}
	first, last := n.Span()
	return m.Window(first, last)
}

// ctx is the per-attempt mutable state with undo support.
type ctx struct {
	m    *Matcher
	env  Env
	adds []string // keys added to env, for rollback
	corr []Pair
}

func (c *ctx) save() (int, int) { return len(c.adds), len(c.corr) }

func (c *ctx) restore(na, nc int) {
	for i := len(c.adds) - 1; i >= na; i-- {
		delete(c.env, c.adds[i])
	}
	c.adds = c.adds[:na]
	c.corr = c.corr[:nc]
}

// probe reports whether pattern p matches code x under the current
// bindings, then rolls back whatever the attempt bound or recorded, so a
// probe leaves the match as it found it whether it succeeds or fails
// partway. It is exact because bindValue is the only writer of env and logs
// every key it adds.
func (c *ctx) probe(p, x cast.Expr) bool {
	na, nc := c.save()
	ok := c.expr(p, x)
	c.restore(na, nc)
	return ok
}

// whenAllows checks a dots segment's `when !=` and `when ==` constraints
// against one skipped node: no forbidden pattern may match any of subs (the
// node's subexpressions, collected once by the caller), and under `when ==`
// the node must be an expression statement one permitted pattern matches.
func (c *ctx) whenAllows(d *cast.Dots, subs []cast.Expr, n cast.Node) bool {
	for _, sub := range subs {
		for _, forbidden := range d.WhenNot {
			if c.probe(forbidden, sub) {
				return false
			}
		}
	}
	if len(d.WhenOnly) == 0 {
		return true
	}
	es, ok := n.(*cast.ExprStmt)
	if !ok {
		return false
	}
	for _, only := range d.WhenOnly {
		if c.probe(only, es.X) {
			return true
		}
	}
	return false
}

func (c *ctx) pair(p cast.Node, first, last int) {
	pf, pl := p.Span()
	c.corr = append(c.corr, Pair{PF: pf, PL: pl, CF: first, CL: last})
}

func (c *ctx) pairNode(p, code cast.Node) {
	cf, cl := code.Span()
	c.pair(p, cf, cl)
}

// norm produces the canonical text of a code token range.
func norm(f *ctoken.File, first, last int) string {
	if last < first {
		return ""
	}
	var sb strings.Builder
	for i := first; i <= last && i < len(f.Tokens); i++ {
		if i > first {
			sb.WriteByte(' ')
		}
		sb.WriteString(f.Text(i))
	}
	return sb.String()
}

// bind records name := code range with consistency and constraint checks.
func (c *ctx) bind(name string, kind cast.MetaKind, first, last int) bool {
	n := norm(c.m.Code.Toks, first, last)
	return c.bindValue(name, Binding{
		Kind: kind, Text: c.m.Code.Toks.Slice(first, last), Norm: n,
		First: first, Last: last, File: c.m.Code.Name,
	})
}

func (c *ctx) bindValue(name string, b Binding) bool {
	if prev, ok := c.env[name]; ok {
		return prev.Norm == b.Norm
	}
	if inh, ok := c.m.Inherited[name]; ok {
		if inh.Kind == cast.MetaPosKind {
			if b.Kind == cast.MetaPosKind && (inh.File != b.File || inh.TokIdx != b.TokIdx) {
				return false
			}
		} else if inh.Norm != b.Norm {
			return false
		}
	}
	if !c.checkConstraints(name, b) {
		return false
	}
	c.env[name] = b
	c.adds = append(c.adds, name)
	return true
}

// checkConstraints enforces regex and value-set restrictions from the
// metavariable declaration.
func (c *ctx) checkConstraints(name string, b Binding) bool {
	d, ok := c.m.Metas.Decl(name)
	if !ok {
		return true
	}
	if d.Regex != nil && !d.Regex.MatchString(b.Norm) {
		return false
	}
	if len(d.Values) > 0 {
		for _, v := range d.Values {
			if b.Norm == v {
				return true
			}
		}
		return false
	}
	return true
}

// bindPositions records position metavariables attached with @p.
func (c *ctx) bindPositions(names []string, tokIdx int) bool {
	for _, p := range names {
		tok := c.m.Code.Toks.Tokens[tokIdx]
		b := Binding{
			Kind: cast.MetaPosKind, TokIdx: tokIdx, First: tokIdx, Last: tokIdx,
			File: c.m.Code.Name,
			Text: c.m.Code.Name + ":" + tok.Pos.String(),
			Norm: c.m.Code.Name + ":" + tok.Pos.String(),
		}
		if inh, ok := c.m.Inherited[p]; ok && inh.Kind == cast.MetaPosKind {
			if inh.File != b.File || inh.TokIdx != b.TokIdx {
				return false
			}
		}
		if !c.bindValue(p, b) {
			return false
		}
	}
	return true
}

// metaDecl looks up the declaration behind an identifier used in the
// pattern; plain names return nil.
func (c *ctx) metaDecl(name string) *smpl.MetaDecl {
	d, ok := c.m.Metas.Decl(name)
	if !ok {
		return nil
	}
	return d
}

// finish converts ctx state into a Match.
func (c *ctx) finish() Match {
	first, last := -1, -1
	for _, p := range c.corr {
		if p.CL < p.CF {
			continue
		}
		if first < 0 || p.CF < first {
			first = p.CF
		}
		if p.CL > last {
			last = p.CL
		}
	}
	env := c.env.Clone()
	corr := make([]Pair, len(c.corr))
	copy(corr, c.corr)
	return Match{Env: env, Corr: corr, First: first, Last: last}
}

func (m *Matcher) newCtx() *ctx {
	return &ctx{m: m, env: Env{}}
}

// FindAll returns every match of the pattern in the file.
func (m *Matcher) FindAll() []Match {
	var out []Match
	add := func(mt Match) bool {
		out = append(out, mt)
		return m.MaxMatches > 0 && len(out) >= m.MaxMatches
	}
	switch m.Pat.Kind {
	case smpl.ExprPattern:
		for _, e := range m.exprCands() {
			if !m.admits(e) {
				continue
			}
			c := m.newCtx()
			if c.expr(m.Pat.Expr, e) {
				if add(c.finish()) {
					return out
				}
			}
		}
	case smpl.StmtSeqPattern:
		if m.CFGs != nil && CFGEligible(m.Pat, m.Metas) {
			m.findCFG(add)
			return dedupMatches(out)
		}
		for _, sc := range m.stmtCands() {
			if m.Window != nil && !m.Window(sc.first, sc.last) {
				continue
			}
			seq := sc.items
			for start := 0; start <= len(seq); start++ {
				c := m.newCtx()
				if ok, _ := c.stmtSeq(m.Pat.Stmts, seq[min(start, len(seq)):], false); ok {
					if add(c.finish()) {
						return out
					}
				}
				if start >= len(seq) {
					break
				}
				// Patterns that begin with dots are anchored once.
				if len(m.Pat.Stmts) > 0 {
					if _, isDots := m.Pat.Stmts[0].(*cast.Dots); isDots && start == 0 {
						break
					}
				}
			}
		}
	case smpl.DeclPattern:
		out = append(out, m.findDecls()...)
		if m.MaxMatches > 0 && len(out) > m.MaxMatches {
			out = out[:m.MaxMatches]
		}
	case smpl.TypePattern:
		// Unlike typ, which compares pointer depth and qualifiers, a type
		// pattern matches the base-name token of every type on the name.
		name := m.Pat.Type.Base
		pf, pl := m.Pat.Type.Span()
		for _, t := range m.typeCands() {
			if t.Base != name || !m.admits(t) {
				continue
			}
			first, last := t.Span()
			for i := first; i <= last; i++ {
				if m.Code.Toks.IsIdent(i, name) {
					if add(Match{Env: Env{}, Corr: []Pair{{PF: pf, PL: pl, CF: i, CL: i}}, First: i, Last: i}) {
						return out
					}
					break
				}
			}
		}
	}
	return dedupMatches(out)
}

// stmtContext is one statement list together with the token span of the
// node that owns it, so windowed matching can admit or reject it whole.
type stmtContext struct {
	first, last int
	items       []cast.Stmt
}

// stmtContexts enumerates every statement list in the file: compound bodies
// plus singleton lists for bare (unbraced) bodies.
func stmtContexts(f *cast.File) []stmtContext {
	var out []stmtContext
	bare := func(s cast.Stmt) {
		if s == nil {
			return
		}
		if _, ok := s.(*cast.Compound); ok {
			return // already walked
		}
		first, last := s.Span()
		out = append(out, stmtContext{first: first, last: last, items: []cast.Stmt{s}})
	}
	cast.Walk(f, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.Compound:
			first, last := x.Span()
			out = append(out, stmtContext{first: first, last: last, items: x.Items})
		case *cast.If:
			bare(x.Then)
			bare(x.Else)
		case *cast.For:
			bare(x.Body)
		case *cast.RangeFor:
			bare(x.Body)
		case *cast.While:
			bare(x.Body)
		case *cast.DoWhile:
			bare(x.Body)
		case *cast.Label:
			bare(x.Stmt)
		}
		return true
	})
	return out
}

// dedupMatches removes duplicate matches covering the identical code span
// with identical environments.
func dedupMatches(ms []Match) []Match {
	seen := map[string]bool{}
	var out []Match
	for _, m := range ms {
		key := matchKey(m)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, m)
	}
	return out
}

func matchKey(m Match) string {
	var sb strings.Builder
	sb.WriteString(itoa(m.First))
	sb.WriteByte(':')
	sb.WriteString(itoa(m.Last))
	// environments sorted deterministically
	keys := make([]string, 0, len(m.Env))
	for k := range m.Env {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		sb.WriteByte(';')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(m.Env[k].Norm)
	}
	return sb.String()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		p--
		buf[p] = '-'
	}
	return string(buf[p:])
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
