package smpl

import (
	"slices"
	"strings"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/ctoken"
)

// patternParseOpts is the dialect used for pattern bodies: a superset of
// everything the listings exercise.
func patternParseOpts(meta *MetaTable) cparse.Options {
	return cparse.Options{CPlusPlus: true, Std: 23, CUDA: true, Meta: meta}
}

// CompileBody classifies the rule body's lines, builds the minus slice,
// extracts plus blocks, and parses the slice into a pattern.
func CompileBody(file string, r *Rule) (*Pattern, error) {
	lines := strings.Split(r.Body, "\n")
	pat := &Pattern{LineMarks: make([]Mark, len(lines))}

	var minus []string
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "+"):
			pat.LineMarks[i] = Plus
			pat.HasTransform = true
			minus = append(minus, "")
		case strings.HasPrefix(l, "-"):
			pat.LineMarks[i] = Minus
			pat.HasTransform = true
			minus = append(minus, " "+l[1:])
		case strings.HasPrefix(l, "*"):
			// Coccinelle context mode: a column-0 `*` marks the line as a
			// report anchor. It matches exactly like a context line (the
			// space keeps token columns aligned with the body), so a star
			// rule never transforms.
			pat.LineMarks[i] = Star
			pat.HasStar = true
			minus = append(minus, " "+l[1:])
		default:
			pat.LineMarks[i] = Ctx
			minus = append(minus, l)
		}
	}
	if pat.HasStar && pat.HasTransform {
		return nil, &SyntaxError{File: file, Msg: "rule " + r.Name +
			" mixes `*` context lines with -/+ transform lines; a rule either reports or rewrites"}
	}

	// Plus blocks: consecutive + lines share one anchor.
	i := 0
	for i < len(lines) {
		if pat.LineMarks[i] != Plus {
			i++
			continue
		}
		blk := PlusBlock{AnchorLine: -1, FollowLine: -1}
		for j := i - 1; j >= 0; j-- {
			if pat.LineMarks[j] != Plus && strings.TrimSpace(lines[j]) != "" {
				blk.AnchorLine = j
				break
			}
		}
		for i < len(lines) && pat.LineMarks[i] == Plus {
			blk.Text = append(blk.Text, stripPlus(lines[i]))
			i++
		}
		for j := i; j < len(lines); j++ {
			if pat.LineMarks[j] != Plus && strings.TrimSpace(lines[j]) != "" {
				blk.FollowLine = j
				break
			}
		}
		pat.PlusBlocks = append(pat.PlusBlocks, blk)
	}

	// Lex the minus slice once; every parse attempt shares the token file so
	// pattern node spans always index into pat.Toks.
	sliceText := strings.Join(minus, "\n")
	meta := NewMetaTable(r.Metas)
	lf, err := ctoken.Lex(file+"@"+r.Name, sliceText, ctoken.Options{SmPL: true, CUDAChevrons: true})
	if err != nil {
		return nil, &SyntaxError{File: file, Msg: "lexing rule " + r.Name + ": " + err.Error()}
	}
	pat.Toks = lf
	opts := patternParseOpts(meta)

	// Empty pattern (script-less rule with only + lines and no context)
	// cannot be matched.
	onlyEOF := len(lf.Tokens) == 1
	if onlyEOF {
		return nil, &SyntaxError{File: file, Msg: "rule " + r.Name + " has an empty match pattern"}
	}

	// A lone declared type name is a type pattern.
	if len(lf.Tokens) == 2 && lf.Tokens[0].Kind == ctoken.Ident && slices.Contains(r.Typedefs, lf.Text(0)) {
		pat.Kind = TypePattern
		pat.Type = &cast.Type{Base: lf.Text(0)}
		pat.Type.SetSpan(0, 0)
		return pat, nil
	}

	// Try: declaration-level, then statement-level, then expression. A
	// declaration parse that resorted to opaque fallbacks is not accepted
	// outright: the matcher has no semantics for OpaqueDecl, so a body like
	// `foo(x); return x;` (top-level-parseable only as opaque runs) must
	// classify as a statement sequence. Such a parse is kept only as a last
	// resort when the statement parse fails too.
	var declPat *Pattern
	if f, derr := cparse.ParseTokens(lf, opts); derr == nil && len(f.Decls) > 0 {
		opaque := false
		for _, d := range f.Decls {
			if _, ok := d.(*cast.OpaqueDecl); ok {
				opaque = true
				break
			}
		}
		if !opaque {
			pat.Kind = DeclPattern
			pat.Decls = f.Decls
			return pat, nil
		}
		cp := *pat
		cp.Kind = DeclPattern
		cp.Decls = f.Decls
		declPat = &cp
	}
	stmts, serr := cparse.ParseStmtsTokens(lf, opts)
	if serr == nil && len(stmts) > 0 {
		// A single expression statement without a terminating semicolon is
		// an expression pattern (Coccinelle distinguishes by the ';').
		// Likewise a disjunction whose branches are all bare expressions.
		if len(stmts) == 1 {
			if e, ok := bareExpr(lf, stmts[0]); ok {
				pat.Kind = ExprPattern
				pat.Expr = e
				return pat, nil
			}
		}
		if hasAdjacentDots(stmts) {
			return nil, &SyntaxError{File: file, Msg: "rule " + r.Name +
				": adjacent `...` in statement position; merge them into one dots (and one set of `when` constraints)"}
		}
		pat.Kind = StmtSeqPattern
		pat.Stmts = stmts
		return pat, nil
	}
	if declPat != nil {
		return declPat, nil
	}
	e, eerr := cparse.ParseExprTokens(lf, opts)
	if eerr != nil {
		msg := "cannot parse body of rule " + r.Name + ": " + eerr.Error()
		// The expression fallback's error is useless for statement-shaped
		// bodies; a `...` line means the author wrote a statement pattern,
		// so surface what the statement parser rejected (e.g. a
		// contradictory `when` combination) instead.
		if serr != nil && strings.Contains(r.Body, "...") {
			msg = "cannot parse body of rule " + r.Name + ": " + serr.Error()
		}
		return nil, &SyntaxError{File: file, Msg: msg}
	}
	pat.Kind = ExprPattern
	pat.Expr = e
	return pat, nil
}

// hasAdjacentDots reports consecutive statement dots in the pattern, at
// the top level or inside any compound: two `...` in a row have no defined
// meaning (which constraints govern the combined gap?), so the pattern is
// rejected rather than letting the engines guess differently.
func hasAdjacentDots(stmts []cast.Stmt) bool {
	adjacent := func(items []cast.Stmt) bool {
		for i := 1; i < len(items); i++ {
			_, a := items[i-1].(*cast.Dots)
			_, b := items[i].(*cast.Dots)
			if a && b {
				return true
			}
		}
		return false
	}
	if adjacent(stmts) {
		return true
	}
	found := false
	for _, s := range stmts {
		cast.Walk(s, func(n cast.Node) bool {
			if c, ok := n.(*cast.Compound); ok && adjacent(c.Items) {
				found = true
			}
			return !found
		})
	}
	return found
}

// stripPlus removes the leading '+' and at most one following space,
// preserving deeper indentation of the inserted line.
func stripPlus(l string) string {
	l = strings.TrimPrefix(l, "+")
	if strings.HasPrefix(l, " ") {
		l = l[1:]
	}
	return l
}

// bareExpr recognizes statement trees that are really expression patterns:
// an ExprStmt with no ';', or a disjunction of such branches.
func bareExpr(lf *ctoken.File, s cast.Stmt) (cast.Expr, bool) {
	switch x := s.(type) {
	case *cast.ExprStmt:
		_, last := x.Span()
		if lf.Is(last, ";") {
			return nil, false
		}
		return x.X, true
	case *cast.DisjStmt:
		d := &cast.DisjExpr{}
		for _, br := range x.Branches {
			if len(br) != 1 {
				return nil, false
			}
			e, ok := bareExpr(lf, br[0])
			if !ok {
				return nil, false
			}
			d.Branches = append(d.Branches, e)
		}
		f, l := x.Span()
		sp := cast.NewSpan(f, l)
		_ = sp
		dd := *d
		ddp := &dd
		setDisjSpan(ddp, f, l)
		return ddp, true
	}
	return nil, false
}

func setDisjSpan(d *cast.DisjExpr, f, l int) {
	type spanner interface{ SetSpan(int, int) }
	if s, ok := any(d).(spanner); ok {
		s.SetSpan(f, l)
	}
}
