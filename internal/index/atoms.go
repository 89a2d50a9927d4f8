package index

import (
	"sort"

	"repro/internal/cast"
	"repro/internal/ctoken"
	"repro/internal/smpl"
)

// maxAtomsPerRule bounds the per-file scan cost. Extraction keeps the
// longest atoms, which in C code are almost always the rarest (API names
// like cudaMemcpyAsync discriminate; one-letter locals do not). Dropping
// atoms only weakens the filter, never its soundness.
const maxAtomsPerRule = 8

// extractor accumulates the required atoms of one rule pattern. An atom is
// a literal identifier the matcher compares by name: if the word is absent
// from a file, no subtree of that file can match the pattern. Every method
// mirrors the corresponding case of internal/match; positions where the
// matcher binds a metavariable, accepts a wildcard, or skips a comparison
// contribute nothing. When in doubt the extractor stays silent — a missed
// atom costs a wasted parse, an invented one would skip a matching file.
type extractor struct {
	metas *smpl.MetaTable
	atoms map[string]bool
	// groups are at-least-one-of word sets contributed by disjunctions: a
	// matching file must contain some word of every group. Each group
	// holds one representative word per branch.
	groups [][]string
}

func newExtractor(metas *smpl.MetaTable) *extractor {
	return &extractor{metas: metas, atoms: map[string]bool{}}
}

// add records w if it is a genuine literal identifier: not a metavariable
// of the rule (symbol metavariables excepted — the matcher compares those
// by name) and not a language keyword, which nearly every file contains.
func (x *extractor) add(w string) {
	if w == "" || ctoken.Keywords[w] {
		return
	}
	if d, ok := x.metas.Decl(w); ok {
		if d.Kind != cast.MetaSymbolKind {
			return
		}
	}
	x.atoms[w] = true
}

// addRuns records every identifier word embedded in raw text (pragma
// words, include paths). Sound because the matcher compares such text
// verbatim, so each embedded identifier run appears word-bounded in any
// file the pattern matches.
func (x *extractor) addRuns(text string) {
	for _, w := range identWords(text) {
		x.add(w)
	}
}

// branch runs fn against a fresh extractor, for disjunction branches whose
// requirements must not be conflated with the enclosing pattern's.
func (x *extractor) branch(fn func(*extractor)) *extractor {
	b := newExtractor(x.metas)
	fn(b)
	return b
}

// disjoin combines branch requirements two ways. Words required by *every*
// branch are required outright. And when each branch pins down at least one
// word, one representative per branch forms an at-least-one-of group: any
// match takes some branch, so some representative must be present. A branch
// with no requirements at all poisons both (the disjunction can then match
// anything).
func (x *extractor) disjoin(branches []*extractor) {
	if len(branches) == 0 {
		return
	}
	for w := range branches[0].atoms {
		inAll := true
		for _, br := range branches[1:] {
			if !br.atoms[w] {
				inAll = false
				break
			}
		}
		if inAll {
			x.atoms[w] = true
		}
	}
	var group []string
	for _, br := range branches {
		rep := br.representatives()
		if rep == nil {
			return // unconstrained branch: no group possible
		}
		group = append(group, rep...)
	}
	x.groups = append(x.groups, dedup(group))
}

// representatives returns words of which at least one is guaranteed present
// whenever this branch matches: its longest plain atom if it has one,
// otherwise the members of one of its own groups.
func (x *extractor) representatives() []string {
	if len(x.atoms) > 0 {
		best := ""
		for w := range x.atoms {
			if len(w) > len(best) || (len(w) == len(best) && w < best) {
				best = w
			}
		}
		return []string{best}
	}
	if len(x.groups) > 0 {
		return x.groups[0]
	}
	return nil
}

func dedup(ws []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range ws {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func (x *extractor) pattern(p *smpl.Pattern) {
	switch p.Kind {
	case smpl.ExprPattern:
		x.expr(p.Expr)
	case smpl.StmtSeqPattern:
		for _, s := range p.Stmts {
			x.stmt(s)
		}
	case smpl.DeclPattern:
		for _, d := range p.Decls {
			x.decl(d)
		}
	case smpl.TypePattern:
		x.typ(p.Type)
	}
}

func (x *extractor) expr(e cast.Expr) {
	switch et := e.(type) {
	case *cast.Ident:
		x.add(et.Name)
	case *cast.ParenExpr:
		x.expr(et.X)
	case *cast.UnaryExpr:
		x.expr(et.X)
	case *cast.BinaryExpr:
		x.expr(et.X)
		x.expr(et.Y)
	case *cast.CondExpr:
		x.expr(et.Cond)
		x.expr(et.Then)
		x.expr(et.Else)
	case *cast.CallExpr:
		x.expr(et.Fun)
		for _, a := range et.Args {
			x.expr(a)
		}
	case *cast.IndexExpr:
		x.expr(et.X)
		for _, i := range et.Indices {
			x.expr(i)
		}
	case *cast.MemberExpr:
		x.expr(et.X)
		x.add(et.Name)
	case *cast.CastExpr:
		x.typ(et.Type)
		x.expr(et.X)
	case *cast.SizeofExpr:
		x.typ(et.Type)
		x.expr(et.X)
	case *cast.CommaExpr:
		for _, el := range et.List {
			x.expr(el)
		}
	case *cast.InitList:
		for _, el := range et.Elems {
			x.expr(el)
		}
	case *cast.KernelLaunch:
		x.expr(et.Fun)
		for _, c := range et.Config {
			x.expr(c)
		}
		for _, a := range et.Args {
			x.expr(a)
		}
	case *cast.Type:
		x.typ(et)
	case *cast.DisjExpr:
		var brs []*extractor
		for _, br := range et.Branches {
			brs = append(brs, x.branch(func(b *extractor) { b.expr(br) }))
		}
		x.disjoin(brs)
	case *cast.ConjExpr:
		for _, op := range et.Operands {
			x.expr(op)
		}
	case *cast.MetaExpr:
		// Symbol metavariables are the one metavariable kind the matcher
		// compares by name instead of binding.
		if et.Kind == cast.MetaSymbolKind {
			x.add(et.Name)
		}
		// LambdaExpr bodies are skipped (the matcher tolerates a nil body on
		// either side); other MetaExpr kinds, Dots, BasicLit and OpaqueExpr
		// never compare identifiers by name. nil falls through harmlessly.
	}
}

func (x *extractor) typ(t *cast.Type) {
	if t == nil {
		return
	}
	// A declared metavariable in base position binds instead of comparing,
	// whatever its kind; anything else is compared verbatim word by word.
	if _, ok := x.metas.Decl(t.Base); ok {
		return
	}
	x.addRuns(t.Base)
}

func (x *extractor) stmt(s cast.Stmt) {
	switch st := s.(type) {
	case *cast.Compound:
		for _, it := range st.Items {
			x.stmt(it)
		}
	case *cast.ExprStmt:
		x.expr(st.X)
	case *cast.DeclStmt:
		x.varDecl(st.D)
	case *cast.If:
		x.expr(st.Cond)
		x.stmt(st.Then)
		x.stmt(st.Else)
	case *cast.For:
		if _, dots := st.Init.(*cast.Dots); !dots {
			x.stmt(st.Init)
		}
		x.optExpr(st.Cond)
		x.optExpr(st.Post)
		x.stmt(st.Body)
	case *cast.RangeFor:
		x.varDecl(st.Decl)
		x.expr(st.X)
		x.stmt(st.Body)
	case *cast.While:
		x.expr(st.Cond)
		x.stmt(st.Body)
	case *cast.DoWhile:
		x.stmt(st.Body)
		x.expr(st.Cond)
	case *cast.Switch:
		x.expr(st.Cond)
		x.stmt(st.Body)
	case *cast.Return:
		x.expr(st.X)
	case *cast.Goto:
		x.add(st.Label)
	case *cast.Label:
		x.add(st.Name)
		x.stmt(st.Stmt)
	case *cast.Case:
		x.expr(st.X)
	case *cast.PragmaPattern:
		x.pragmaPattern(st)
	case *cast.PragmaStmt:
		x.add("pragma")
		x.addRuns(st.P.Info)
	case *cast.DisjStmt:
		var brs []*extractor
		for _, br := range st.Branches {
			brs = append(brs, x.branch(func(b *extractor) {
				for _, s := range br {
					b.stmt(s)
				}
			}))
		}
		x.disjoin(brs)
	case *cast.ConjStmt:
		for _, op := range st.Operands {
			x.stmt(op)
		}
	case *cast.Dots:
		// Dots match any path, so none of the `when` family may contribute
		// required atoms: `when != e` is *forbidden* content (requiring it
		// would skip exactly the files that can match), and `when == e`,
		// `when any`, and the strict/exists/forall quantifiers constrain
		// only what an arbitrarily-empty gap may contain. MetaStmt also
		// matches anything; Break, Continue and Empty carry no identifiers.
		// nil falls through harmlessly.
	}
}

func (x *extractor) optExpr(e cast.Expr) {
	if _, dots := e.(*cast.Dots); dots {
		return
	}
	x.expr(e)
}

func (x *extractor) decl(d cast.Decl) {
	switch dt := d.(type) {
	case *cast.IncludePattern:
		x.add("include")
		x.addRuns(dt.Path)
	case *cast.PragmaPattern:
		x.pragmaPattern(dt)
	case *cast.Pragma:
		x.add("pragma")
		x.addRuns(dt.Info)
	case *cast.FuncDef:
		if len(dt.Attrs) > 0 {
			x.add("__attribute__")
		}
		for _, a := range dt.Attrs {
			for _, arg := range a.Args {
				x.expr(arg)
			}
		}
		x.typ(dt.Ret)
		if dt.Name != nil {
			x.add(dt.Name.Name)
		}
		x.params(dt.Params)
		if dt.Body != nil {
			for _, it := range dt.Body.Items {
				x.stmt(it)
			}
		}
	case *cast.VarDecl:
		x.varDecl(dt)
		// OpaqueDecl and PPOther patterns never match anything, so their
		// content needs no atoms.
	}
}

func (x *extractor) pragmaPattern(p *cast.PragmaPattern) {
	x.add("pragma")
	for _, w := range p.Words {
		x.addRuns(w)
	}
}

func (x *extractor) params(p *cast.ParamList) {
	if p == nil || p.MetaDots {
		return
	}
	// A single parameter-list metavariable swallows the whole list.
	if len(p.Params) == 1 && p.Params[0].MetaName != "" {
		return
	}
	for _, pp := range p.Params {
		if pp.MetaName != "" {
			continue
		}
		x.typ(pp.Type)
		if pp.Name != nil {
			x.add(pp.Name.Name)
		}
	}
}

func (x *extractor) varDecl(v *cast.VarDecl) {
	if v == nil {
		return
	}
	x.typ(v.Type)
	for _, it := range v.Items {
		if it.Name != nil {
			x.add(it.Name.Name)
		}
		for _, dim := range it.Dims {
			x.expr(dim)
		}
		x.expr(it.Init)
	}
}

// finish returns the collected atoms longest-first and the at-least-one-of
// groups, both capped. Longest-first makes the per-file scan fail fast: the
// rarest atom is usually the longest, and one absent atom is all it takes
// to rule a file out.
func (x *extractor) finish() ([]string, [][]string) {
	atoms := make([]string, 0, len(x.atoms))
	for w := range x.atoms {
		atoms = append(atoms, w)
	}
	sort.Slice(atoms, func(i, j int) bool {
		if len(atoms[i]) != len(atoms[j]) {
			return len(atoms[i]) > len(atoms[j])
		}
		return atoms[i] < atoms[j]
	})
	if len(atoms) > maxAtomsPerRule {
		atoms = atoms[:maxAtomsPerRule]
	}
	groups := x.groups
	if len(groups) > maxAtomsPerRule {
		groups = groups[:maxAtomsPerRule]
	}
	return atoms, groups
}
