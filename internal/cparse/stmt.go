package cparse

import (
	"repro/internal/cast"
	"repro/internal/ctoken"
)

// parseCompound parses { items... }.
func (p *parser) parseCompound() (*cast.Compound, error) {
	start, err := p.expect("{")
	if err != nil {
		return nil, err
	}
	c := &cast.Compound{}
	for !p.is("}") && !p.at(ctoken.EOF) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		c.Items = append(c.Items, s)
	}
	if _, err := p.expect("}"); err != nil {
		return nil, err
	}
	setSpan(c, start, p.prev())
	return c, nil
}

// parseStmt parses one statement (or pattern statement form).
func (p *parser) parseStmt() (cast.Stmt, error) {
	start := p.pos
	t := p.tok()
	text := p.text()

	// SmPL pattern forms first.
	if p.opts.pattern() {
		if p.is("...") {
			return p.parseDots()
		}
		if p.is("\\(") || (p.is("(") && t.Pos.Col == 1 && p.colGroupIsDisj()) {
			return p.parseStmtGroup(text == "\\(")
		}
		if t.Kind == ctoken.Ident {
			if k, ok := p.metaKind(text); ok && (k == cast.MetaStmtKind || k == cast.MetaStmtListKind) {
				// Statement metavariable, optionally with @pos, optionally a
				// bare reference (no semicolon).
				p.next()
				ms := &cast.MetaStmt{Name: text}
				for p.is("@") && p.peek(1).Kind == ctoken.Ident {
					p.next()
					ms.Positions = append(ms.Positions, p.nextText())
				}
				if p.is(";") {
					p.next()
				}
				setSpan(ms, start, p.prev())
				return ms, nil
			}
		}
	}

	if t.Kind == ctoken.PP {
		d, err := p.parsePP()
		if err != nil {
			return nil, err
		}
		switch x := d.(type) {
		case *cast.Pragma:
			ps := &cast.PragmaStmt{P: x}
			setSpan(ps, start, p.prev())
			return ps, nil
		case *cast.PragmaPattern:
			return x, nil
		case *cast.IncludePattern:
			return x, nil
		default:
			// Other directives in statement position: wrap as pragma-like
			// opaque statement via Empty + raw? Represent as PragmaStmt with
			// synthetic pragma to preserve tokens.
			pr := &cast.Pragma{Raw: p.file.Text(start)}
			setSpan(pr, start, start)
			ps := &cast.PragmaStmt{P: pr}
			setSpan(ps, start, start)
			return ps, nil
		}
	}

	if p.is(";") {
		p.next()
		e := &cast.Empty{}
		setSpan(e, start, start)
		return e, nil
	}
	if p.is("{") {
		return p.parseCompound()
	}

	if t.Kind == ctoken.Ident {
		switch text {
		case "if":
			return p.parseIf()
		case "for":
			return p.parseFor()
		case "while":
			return p.parseWhile()
		case "do":
			return p.parseDoWhile()
		case "return":
			p.next()
			r := &cast.Return{}
			if !p.is(";") {
				e, err := p.parseExpr(precComma)
				if err != nil {
					return nil, err
				}
				r.X = e
			}
			if _, err := p.expect(";"); err != nil {
				return nil, err
			}
			setSpan(r, start, p.prev())
			return r, nil
		case "break":
			p.next()
			if _, err := p.expect(";"); err != nil {
				return nil, err
			}
			b := &cast.Break{}
			setSpan(b, start, p.prev())
			return b, nil
		case "continue":
			p.next()
			if _, err := p.expect(";"); err != nil {
				return nil, err
			}
			c := &cast.Continue{}
			setSpan(c, start, p.prev())
			return c, nil
		case "goto":
			p.next()
			if p.tok().Kind != ctoken.Ident {
				return nil, p.errHere("expected label after goto")
			}
			g := &cast.Goto{Label: p.nextText()}
			if _, err := p.expect(";"); err != nil {
				return nil, err
			}
			setSpan(g, start, p.prev())
			return g, nil
		case "switch":
			return p.parseSwitch()
		case "case", "default":
			return p.parseCase()
		}
		// Label: ident ':' (not '::')
		if p.peekIs(1, ":") && !p.peekIs(2, ":") && !ctoken.Keywords[text] {
			if _, isMeta := p.metaKind(text); !isMeta {
				p.next()
				p.next()
				inner, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				l := &cast.Label{Name: text, Stmt: inner}
				setSpan(l, start, p.prev())
				return l, nil
			}
		}
	}

	// Declaration or expression statement.
	if p.startsDecl() {
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		stars := 0
		ref := false
		for p.is("*") {
			stars++
			p.next()
		}
		if p.is("&") {
			ref = true
			p.next()
		}
		name, err := p.parseDeclName()
		if err != nil {
			return nil, err
		}
		vd, err := p.parseVarDeclRest(start, ty, stars, ref, name)
		if err != nil {
			return nil, err
		}
		ds := &cast.DeclStmt{D: vd}
		setSpan(ds, start, p.prev())
		return ds, nil
	}

	e, err := p.parseExpr(precComma)
	if err != nil {
		return nil, err
	}
	if p.is(";") {
		p.next()
	} else if !p.patternStmtEnd() {
		return nil, p.errHere("expected \";\", found %q", p.text())
	}
	es := &cast.ExprStmt{X: e}
	setSpan(es, start, p.prev())
	return es, nil
}

// patternStmtEnd reports whether, in pattern mode, the current token may
// legally terminate a semicolon-less statement: end of pattern, or a
// disjunction/conjunction separator (escaped or column-zero).
func (p *parser) patternStmtEnd() bool {
	if !p.opts.pattern() {
		return false
	}
	t := p.tok()
	if t.Kind == ctoken.EOF {
		return true
	}
	if p.is("\\|") || p.is("\\&") || p.is("\\)") {
		return true
	}
	if t.Pos.Col == 1 && (p.is("|") || p.is("&") || p.is(")")) {
		return true
	}
	return false
}

// parseDots parses "..." in statement position plus any "when" constraints:
// `when != e`, `when == e`, `when any`, `when strict`, `when exists`,
// `when forall`. Contradictory combinations are rejected here so the
// matcher never sees them.
func (p *parser) parseDots() (cast.Stmt, error) {
	start := p.pos
	p.next() // ...
	d := &cast.Dots{}
	for p.isIdent("when") {
		p.next()
		switch {
		case p.is("!="):
			p.next()
			e, err := p.parseExpr(precAssign)
			if err != nil {
				return nil, err
			}
			d.WhenNot = append(d.WhenNot, e)
		case p.is("=="):
			p.next()
			e, err := p.parseExpr(precAssign)
			if err != nil {
				return nil, err
			}
			d.WhenOnly = append(d.WhenOnly, e)
		case p.isIdent("any"):
			p.next()
			d.WhenAny = true
		case p.isIdent("strict"):
			p.next()
			d.WhenStrict = true
		case p.isIdent("exists"):
			p.next()
			d.WhenExists = true
		case p.isIdent("forall"):
			p.next()
			d.WhenForall = true
		default:
			return nil, p.errHere("unsupported when constraint")
		}
	}
	if d.WhenAny && (len(d.WhenNot) > 0 || len(d.WhenOnly) > 0 || d.WhenStrict || d.WhenForall) {
		return nil, p.errHere("`when any` contradicts other when constraints on the same dots")
	}
	if d.WhenExists && (d.WhenStrict || d.WhenForall) {
		return nil, p.errHere("`when exists` contradicts `when strict`/`when forall` on the same dots")
	}
	setSpan(d, start, p.prev())
	return d, nil
}

// parseStmtGroup parses a statement-level disjunction/conjunction group
// delimited either by escaped \( \| \& \) tokens or by column-zero ( | ).
func (p *parser) parseStmtGroup(escaped bool) (cast.Stmt, error) {
	start := p.pos
	open, bar, amp, close := "(", "|", "&", ")"
	if escaped {
		open, bar, amp, close = "\\(", "\\|", "\\&", "\\)"
	}
	if _, err := p.expect(open); err != nil {
		return nil, err
	}
	isSep := func(txt string) bool {
		return p.is(txt) && (escaped || p.tok().Pos.Col == 1)
	}
	var branches [][]cast.Stmt
	var cur []cast.Stmt
	conj := false
	for {
		if p.at(ctoken.EOF) {
			return nil, p.errHere("unterminated pattern group")
		}
		if isSep(close) {
			p.next()
			branches = append(branches, cur)
			break
		}
		if isSep(bar) {
			p.next()
			branches = append(branches, cur)
			cur = nil
			continue
		}
		if isSep(amp) {
			p.next()
			branches = append(branches, cur)
			cur = nil
			conj = true
			continue
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		cur = append(cur, s)
	}
	if conj {
		cs := &cast.ConjStmt{}
		for _, b := range branches {
			if len(b) != 1 {
				return nil, p.errHere("conjunction branches must be single statements")
			}
			cs.Operands = append(cs.Operands, b[0])
		}
		setSpan(cs, start, p.prev())
		return cs, nil
	}
	ds := &cast.DisjStmt{Branches: branches}
	setSpan(ds, start, p.prev())
	return ds, nil
}

// startsDecl decides whether the statement at the current position is a
// declaration.
func (p *parser) startsDecl() bool {
	t := p.tok()
	if t.Kind != ctoken.Ident {
		return false
	}
	text := p.text()
	if ctoken.TypeKeywords[text] {
		return true
	}
	if ctoken.Keywords[text] && text != "bool" && text != "auto" {
		return false
	}
	if p.isMeta(text, cast.MetaTypeKind) {
		return true
	}
	if _, isMeta := p.metaKind(text); isMeta {
		return false
	}
	// Heuristics for "Typename x ...".
	i := 1
	// qualified name a::b
	for p.peekIs(i, "::") && p.peek(i+1).Kind == ctoken.Ident {
		i += 2
	}
	// Template suffix like vec<int>, only in C++ mode and only when the
	// angle brackets balance before a statement boundary.
	if p.opts.CPlusPlus && p.peekIs(i, "<") {
		if j, ok := p.scanTemplateArgs(i); ok {
			i = j
		}
	}
	stars := 0
	for p.peekIs(i, "*") || p.peekIs(i, "&") {
		if p.peekIs(i, "*") {
			stars++
		}
		i++
	}
	name := p.peekText(i)
	if p.peek(i).Kind != ctoken.Ident || ctoken.Keywords[name] {
		return false
	}
	if _, isMeta := p.metaKind(name); isMeta && !p.isMeta(name, cast.MetaIdentKind, cast.MetaFreshIdentKind) {
		return false
	}
	switch {
	case p.peekIs(i+1, ";"), p.peekIs(i+1, "="), p.peekIs(i+1, ","), p.peekIs(i+1, "["):
		return true
	}
	return false
}

// scanTemplateArgs checks whether tokens starting at offset form a balanced
// <...> group, returning the offset just past the closing '>'.
func (p *parser) scanTemplateArgs(off int) (int, bool) {
	depth := 0
	for i := off; ; i++ {
		t := p.peek(i)
		switch {
		case t.Kind == ctoken.EOF || p.peekIs(i, ";") || p.peekIs(i, "{") || p.peekIs(i, "}") || t.Kind == ctoken.PP:
			return 0, false
		case p.peekIs(i, "<"):
			depth++
		case p.peekIs(i, ">"):
			depth--
			if depth == 0 {
				return i + 1, true
			}
		case p.peekIs(i, ">>"):
			depth -= 2
			if depth == 0 {
				return i + 1, true
			}
			if depth < 0 {
				return 0, false
			}
		}
	}
}

func (p *parser) parseIf() (cast.Stmt, error) {
	start := p.pos
	p.next() // if
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr(precComma)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st := &cast.If{Cond: cond, Then: then}
	if p.isIdent("else") {
		p.next()
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	setSpan(st, start, p.prev())
	return st, nil
}

func (p *parser) parseFor() (cast.Stmt, error) {
	start := p.pos
	p.next() // for
	if _, err := p.expect("("); err != nil {
		return nil, err
	}

	// Range-based for? Scan for ':' before ';' at paren depth 0.
	if p.opts.CPlusPlus || p.opts.pattern() {
		if p.rangeForAhead() {
			return p.parseRangeFor(start)
		}
	}

	f := &cast.For{}
	// init clause
	switch {
	case p.is(";"):
		es := p.pos
		p.next()
		e := &cast.Empty{}
		setSpan(e, es, es)
		f.Init = e
	case p.opts.pattern() && p.is("..."):
		ds := p.pos
		p.next()
		d := &cast.Dots{}
		setSpan(d, ds, ds)
		f.Init = d
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	case p.startsDecl():
		is := p.pos
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		stars := 0
		for p.is("*") {
			stars++
			p.next()
		}
		name, err := p.parseDeclName()
		if err != nil {
			return nil, err
		}
		vd, err := p.parseVarDeclRest(is, ty, stars, false, name)
		if err != nil {
			return nil, err
		}
		dsNode := &cast.DeclStmt{D: vd}
		setSpan(dsNode, is, p.prev())
		f.Init = dsNode
	default:
		is := p.pos
		e, err := p.parseExpr(precComma)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		es := &cast.ExprStmt{X: e}
		setSpan(es, is, p.prev())
		f.Init = es
	}
	// cond clause
	if !p.is(";") {
		if p.opts.pattern() && p.is("...") && p.peekIs(1, ";") {
			ds := p.pos
			p.next()
			d := &cast.Dots{}
			setSpan(d, ds, ds)
			f.Cond = d
		} else {
			e, err := p.parseExpr(precComma)
			if err != nil {
				return nil, err
			}
			f.Cond = e
		}
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	// post clause
	if !p.is(")") {
		if p.opts.pattern() && p.is("...") && p.peekIs(1, ")") {
			ds := p.pos
			p.next()
			d := &cast.Dots{}
			setSpan(d, ds, ds)
			f.Post = d
		} else {
			e, err := p.parseExpr(precComma)
			if err != nil {
				return nil, err
			}
			f.Post = e
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	f.Body = body
	setSpan(f, start, p.prev())
	return f, nil
}

// rangeForAhead reports whether the for-header contains ':' before ';' at
// depth zero (range-based for).
func (p *parser) rangeForAhead() bool {
	depth := 0
	for i := 0; ; i++ {
		t := p.peek(i)
		if t.Kind == ctoken.EOF {
			return false
		}
		switch {
		case p.peekIs(i, "(") || p.peekIs(i, "[") || p.peekIs(i, "{"):
			depth++
		case p.peekIs(i, ")") || p.peekIs(i, "]") || p.peekIs(i, "}"):
			if depth == 0 {
				return false
			}
			depth--
		case p.peekIs(i, ";") && depth == 0:
			return false
		case p.peekIs(i, ":") && depth == 0 && !p.peekIs(i+1, ":") && (i == 0 || !p.peekIs(i-1, ":")):
			return true
		case p.peekIs(i, "?") && depth == 0:
			return false // ternary ':' would confuse us
		}
	}
}

func (p *parser) parseRangeFor(start int) (cast.Stmt, error) {
	rf := &cast.RangeFor{}
	is := p.pos
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	stars := 0
	ref := false
	for p.is("*") {
		stars++
		p.next()
	}
	if p.is("&") {
		ref = true
		p.next()
	}
	name, err := p.parseDeclName()
	if err != nil {
		return nil, err
	}
	d := &cast.Declarator{Stars: stars, Ref: ref, Name: name}
	nf, _ := name.Span()
	setSpan(d, nf, p.prev())
	vd := &cast.VarDecl{Type: ty, Items: []*cast.Declarator{d}}
	setSpan(vd, is, p.prev())
	rf.Decl = vd
	if _, err := p.expect(":"); err != nil {
		return nil, err
	}
	x, err := p.parseExpr(precComma)
	if err != nil {
		return nil, err
	}
	rf.X = x
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	rf.Body = body
	setSpan(rf, start, p.prev())
	return rf, nil
}

func (p *parser) parseWhile() (cast.Stmt, error) {
	start := p.pos
	p.next() // while
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr(precComma)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	w := &cast.While{Cond: cond, Body: body}
	setSpan(w, start, p.prev())
	return w, nil
}

func (p *parser) parseDoWhile() (cast.Stmt, error) {
	start := p.pos
	p.next() // do
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if !p.isIdent("while") {
		return nil, p.errHere("expected while after do body")
	}
	p.next()
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr(precComma)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	dw := &cast.DoWhile{Body: body, Cond: cond}
	setSpan(dw, start, p.prev())
	return dw, nil
}

func (p *parser) parseSwitch() (cast.Stmt, error) {
	start := p.pos
	p.next() // switch
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr(precComma)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s := &cast.Switch{Cond: cond, Body: body}
	setSpan(s, start, p.prev())
	return s, nil
}

func (p *parser) parseCase() (cast.Stmt, error) {
	start := p.pos
	c := &cast.Case{}
	if p.isIdent("case") {
		p.next()
		e, err := p.parseExpr(precComma)
		if err != nil {
			return nil, err
		}
		c.X = e
	} else {
		p.next() // default
	}
	if _, err := p.expect(":"); err != nil {
		return nil, err
	}
	setSpan(c, start, p.prev())
	return c, nil
}
