package cparse

import (
	"repro/internal/cast"
	"repro/internal/ctoken"
)

// Precedence levels, loosest first.
const (
	precComma = iota
	precAssign
	precCond
	precLor
	precLand
	precBitor
	precBitxor
	precBitand
	precEq
	precRel
	precShift
	precAdd
	precMul
	precUnary
)

var binPrec = map[string]int{
	"=": precAssign, "+=": precAssign, "-=": precAssign, "*=": precAssign,
	"/=": precAssign, "%=": precAssign, "&=": precAssign, "|=": precAssign,
	"^=": precAssign, "<<=": precAssign, ">>=": precAssign,
	"||": precLor, "&&": precLand,
	"|": precBitor, "^": precBitxor, "&": precBitand,
	"==": precEq, "!=": precEq,
	"<": precRel, ">": precRel, "<=": precRel, ">=": precRel,
	"<<": precShift, ">>": precShift,
	"+": precAdd, "-": precAdd,
	"*": precMul, "/": precMul, "%": precMul,
}

func rightAssoc(prec int) bool { return prec == precAssign }

// parseExpr parses an expression of at least the given precedence.
func (p *parser) parseExpr(minPrec int) (cast.Expr, error) {
	start := p.pos
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return p.parseBinRHS(start, lhs, minPrec)
}

func (p *parser) parseBinRHS(start int, lhs cast.Expr, minPrec int) (cast.Expr, error) {
	for {
		t := p.tok()

		// SmPL escaped conjunction/disjunction closing or separators end the
		// expression, as do their column-zero forms.
		if p.is("\\)") || p.is("\\|") || p.is("\\&") {
			return lhs, nil
		}
		if p.opts.pattern() && t.Pos.Col == 1 && (p.is("|") || p.is("&") || p.is(")") || p.is("(")) {
			return lhs, nil
		}

		// Ternary conditional.
		if p.is("?") && precCond >= minPrec {
			p.next()
			then, err := p.parseExpr(precComma + 1)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(":"); err != nil {
				return nil, err
			}
			els, err := p.parseExpr(precCond)
			if err != nil {
				return nil, err
			}
			c := &cast.CondExpr{Cond: lhs, Then: then, Else: els}
			setSpan(c, start, p.prev())
			lhs = c
			continue
		}

		// Comma expression (sequence), only at the loosest level.
		if p.is(",") && minPrec == precComma {
			list := []cast.Expr{lhs}
			for p.is(",") {
				p.next()
				e, err := p.parseExpr(precComma + 1)
				if err != nil {
					return nil, err
				}
				list = append(list, e)
			}
			ce := &cast.CommaExpr{List: list}
			setSpan(ce, start, p.prev())
			return ce, nil
		}

		prec, ok := binPrec[p.text()]
		if !ok || t.Kind != ctoken.Punct || prec < minPrec {
			return lhs, nil
		}
		op := p.text()
		p.next()
		nextMin := prec + 1
		if rightAssoc(prec) {
			nextMin = prec
		}
		rstart := p.pos
		rhs, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		rhs, err = p.parseBinRHS(rstart, rhs, nextMin)
		if err != nil {
			return nil, err
		}
		b := &cast.BinaryExpr{X: lhs, Op: op, Y: rhs}
		setSpan(b, start, p.prev())
		lhs = b
	}
}

func (p *parser) parseUnary() (cast.Expr, error) {
	start := p.pos
	t := p.tok()

	// SmPL expression dots: "..." as a wildcard expression.
	if p.opts.pattern() && p.is("...") {
		p.next()
		d := &cast.Dots{}
		setSpan(d, start, start)
		return d, nil
	}
	// SmPL escaped groups in expression position.
	if p.opts.pattern() && p.is("\\(") {
		return p.parseExprGroup()
	}
	// Column-zero parentheses form a disjunction in expression position too
	// (used inside attribute argument patterns) — but only when the group
	// really contains a column-zero separator; "(...)" wrapped to a new line
	// is ordinary syntax.
	if p.opts.pattern() && p.is("(") && t.Pos.Col == 1 && p.colGroupIsDisj() {
		return p.parseColDisjExpr()
	}

	switch {
	case p.is("++") || p.is("--") || p.is("!") || p.is("~") || p.is("-") ||
		p.is("+") || p.is("*") || p.is("&"):
		op := p.text()
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		u := &cast.UnaryExpr{Op: op, X: x}
		setSpan(u, start, p.prev())
		return u, nil
	case p.isIdent("sizeof"):
		p.next()
		se := &cast.SizeofExpr{}
		if p.is("(") && p.typeAhead(1) {
			p.next()
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			for p.is("*") {
				ty.Stars++
				p.next()
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			se.Type = ty
		} else {
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			se.X = x
		}
		setSpan(se, start, p.prev())
		return se, nil
	case p.is("(") && p.castAhead():
		p.next()
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		for p.is("*") {
			ty.Stars++
			p.next()
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		c := &cast.CastExpr{Type: ty, X: x}
		setSpan(c, start, p.prev())
		return c, nil
	}
	return p.parsePostfix()
}

// castAhead checks for "(type)" followed by something castable.
func (p *parser) castAhead() bool {
	if !p.typeAhead(1) {
		return false
	}
	// find matching ')'
	depth := 0
	i := 0
	for {
		t := p.peek(i)
		if t.Kind == ctoken.EOF {
			return false
		}
		if p.peekIs(i, "(") {
			depth++
		} else if p.peekIs(i, ")") {
			depth--
			if depth == 0 {
				break
			}
		}
		i++
	}
	after := p.peek(i + 1)
	// A cast is followed by a unary expression start.
	if after.Kind == ctoken.Ident && !ctoken.Keywords[p.peekText(i+1)] {
		return true
	}
	if after.Kind == ctoken.IntLit || after.Kind == ctoken.FloatLit ||
		after.Kind == ctoken.StringLit || after.Kind == ctoken.CharLit {
		return true
	}
	if p.peekIs(i+1, "(") || p.peekIs(i+1, "-") || p.peekIs(i+1, "*") || p.peekIs(i+1, "&") || p.peekIs(i+1, "!") || p.peekIs(i+1, "~") {
		// "(x)(y)" would be a call on parenthesized expr; require the inner
		// tokens to look like a type.
		return p.strictTypeAhead(1, i)
	}
	return false
}

// typeAhead reports whether tokens starting at offset form a type name.
func (p *parser) typeAhead(off int) bool {
	if p.peek(off).Kind != ctoken.Ident {
		return false
	}
	name := p.peekText(off)
	if ctoken.TypeKeywords[name] {
		return true
	}
	if p.isMeta(name, cast.MetaTypeKind) {
		return true
	}
	return false
}

// strictTypeAhead: all tokens in (start..end) are type-ish.
func (p *parser) strictTypeAhead(from, to int) bool {
	for i := from; i < to; i++ {
		t := p.peek(i)
		if t.Kind == ctoken.Ident {
			if name := p.peekText(i); !ctoken.TypeKeywords[name] && !p.isMeta(name, cast.MetaTypeKind) {
				return false
			}
			continue
		}
		if p.peekIs(i, "*") || p.peekIs(i, "const") {
			continue
		}
		return false
	}
	return to > from
}

// parseExprGroup parses \( a \| b \) or \( a \& b \) in expression position.
func (p *parser) parseExprGroup() (cast.Expr, error) {
	start := p.pos
	p.next() // \(
	var items []cast.Expr
	conj := false
	for {
		e, err := p.parseExpr(precComma + 1)
		if err != nil {
			return nil, err
		}
		items = append(items, e)
		switch {
		case p.is("\\|"):
			p.next()
		case p.is("\\&"):
			conj = true
			p.next()
		case p.is("\\)"):
			p.next()
			if conj {
				c := &cast.ConjExpr{Operands: items}
				setSpan(c, start, p.prev())
				return c, nil
			}
			d := &cast.DisjExpr{Branches: items}
			setSpan(d, start, p.prev())
			return d, nil
		default:
			return nil, p.errHere("expected \\| \\& or \\) in pattern group")
		}
	}
}

// colGroupIsDisj reports whether the column-zero "(" at the current
// position opens a disjunction group, i.e. a column-zero "|" or "&"
// separator appears before its matching column-zero ")".
func (p *parser) colGroupIsDisj() bool {
	depth := 0
	for i := 0; ; i++ {
		t := p.peek(i)
		if t.Kind == ctoken.EOF {
			return false
		}
		switch {
		case p.peekIs(i, "("):
			depth++
		case p.peekIs(i, ")"):
			depth--
			if depth == 0 {
				return false
			}
		case (p.peekIs(i, "|") || p.peekIs(i, "&")) && t.Pos.Col == 1 && depth == 1:
			return true
		}
	}
}

// parseColDisjExpr parses a column-zero ( a | b ) disjunction where the
// delimiters each sit in column one of their lines.
func (p *parser) parseColDisjExpr() (cast.Expr, error) {
	start := p.pos
	p.next() // (
	d := &cast.DisjExpr{}
	for {
		e, err := p.parseExpr(precComma + 1)
		if err != nil {
			return nil, err
		}
		d.Branches = append(d.Branches, e)
		t := p.tok()
		switch {
		case p.is("|") && t.Pos.Col == 1:
			p.next()
		case p.is(")") && t.Pos.Col == 1:
			p.next()
			setSpan(d, start, p.prev())
			return d, nil
		default:
			return nil, p.errHere("expected column-zero | or ) in disjunction")
		}
	}
}

func (p *parser) parsePostfix() (cast.Expr, error) {
	prim, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	return p.parsePostfixFrom(prim)
}

func (p *parser) parsePostfixFrom(x cast.Expr) (cast.Expr, error) {
	start, _ := x.Span()
	for {
		t := p.tok()
		// A column-zero paren opening a real disjunction group ends the
		// postfix chain (it belongs to the enclosing pattern).
		if p.opts.pattern() && p.is("(") && t.Pos.Col == 1 && p.colGroupIsDisj() {
			return x, nil
		}
		switch {
		case p.is("("):
			p.next()
			call := &cast.CallExpr{Fun: x}
			for !p.is(")") && !p.at(ctoken.EOF) {
				a, err := p.parseCallArg()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.is(",") {
					p.next()
				} else {
					break
				}
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			setSpan(call, start, p.prev())
			x = call
		case p.is("["):
			p.next()
			idx := &cast.IndexExpr{X: x}
			for !p.is("]") && !p.at(ctoken.EOF) {
				e, err := p.parseExpr(precComma + 1)
				if err != nil {
					return nil, err
				}
				idx.Indices = append(idx.Indices, e)
				if p.is(",") {
					if p.opts.Std < 23 && !p.opts.pattern() {
						// Pre-C++23: comma inside [] is a comma expression.
						p.next()
						rest := []cast.Expr{idx.Indices[len(idx.Indices)-1]}
						idx.Indices = idx.Indices[:len(idx.Indices)-1]
						for {
							e, err := p.parseExpr(precComma + 1)
							if err != nil {
								return nil, err
							}
							rest = append(rest, e)
							if p.is(",") {
								p.next()
								continue
							}
							break
						}
						ce := &cast.CommaExpr{List: rest}
						f, _ := rest[0].Span()
						setSpan(ce, f, p.prev())
						idx.Indices = append(idx.Indices, ce)
						break
					}
					p.next()
				} else {
					break
				}
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			setSpan(idx, start, p.prev())
			x = idx
		case p.is(".") || p.is("->") || p.is("::"):
			op := p.text()
			p.next()
			if p.tok().Kind != ctoken.Ident {
				return nil, p.errHere("expected member name after %q", op)
			}
			nameTok := p.pos
			m := &cast.MemberExpr{X: x, Op: op, Name: p.nextText(), NameT: nameTok}
			setSpan(m, start, p.prev())
			x = m
		case p.is("++") || p.is("--"):
			u := &cast.UnaryExpr{Op: p.nextText(), X: x, Postfix: true}
			setSpan(u, start, p.prev())
			x = u
		case p.is("<<<"):
			p.next()
			kl := &cast.KernelLaunch{Fun: x}
			for !p.is(">>>") && !p.at(ctoken.EOF) {
				e, err := p.parseCallArg()
				if err != nil {
					return nil, err
				}
				kl.Config = append(kl.Config, e)
				if p.is(",") {
					p.next()
				} else {
					break
				}
			}
			if _, err := p.expect(">>>"); err != nil {
				return nil, err
			}
			if _, err := p.expect("("); err != nil {
				return nil, err
			}
			for !p.is(")") && !p.at(ctoken.EOF) {
				e, err := p.parseCallArg()
				if err != nil {
					return nil, err
				}
				kl.Args = append(kl.Args, e)
				if p.is(",") {
					p.next()
				} else {
					break
				}
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			setSpan(kl, start, p.prev())
			x = kl
		default:
			return x, nil
		}
	}
}

// parseCallArg parses one call argument; in pattern mode "..." and
// expression-list metavariables are allowed. In code mode, an argument the
// expression grammar cannot model (template-heavy C++, lambda macros) is
// preserved as an opaque balanced token run.
func (p *parser) parseCallArg() (cast.Expr, error) {
	if p.opts.pattern() {
		if p.is("...") {
			s := p.pos
			p.next()
			d := &cast.Dots{}
			setSpan(d, s, s)
			return d, nil
		}
		if p.tok().Kind == ctoken.Ident {
			if p.isMeta(p.text(), cast.MetaExprListKind) && (p.peekIs(1, ",") || p.peekIs(1, ")")) {
				s := p.pos
				me := &cast.MetaExpr{Name: p.nextText(), Kind: cast.MetaExprListKind}
				setSpan(me, s, s)
				return me, nil
			}
		}
		return p.parseExpr(precComma + 1)
	}
	save := p.pos
	e, err := p.parseExpr(precComma + 1)
	if err == nil && (p.is(",") || p.is(")") || p.is(">>>")) {
		return e, nil
	}
	// Fallback: consume a balanced run up to a depth-zero ',' ')' or '>>>'.
	p.pos = save
	start := p.pos
	depth := 0
	for !p.at(ctoken.EOF) {
		switch {
		case p.is("(") || p.is("[") || p.is("{"):
			depth++
		case p.is(")") || p.is("]") || p.is("}"):
			if depth == 0 {
				goto done
			}
			depth--
		case (p.is(",") || p.is(">>>")) && depth == 0:
			goto done
		case p.is(";"):
			// a semicolon can only appear inside braces here
			if depth == 0 {
				goto done
			}
		}
		p.next()
	}
done:
	if p.pos == start {
		if err != nil {
			return nil, err
		}
		return nil, p.errHere("empty call argument")
	}
	o := &cast.OpaqueExpr{Raw: p.file.Slice(start, p.prev())}
	setSpan(o, start, p.prev())
	return o, nil
}

func (p *parser) parsePrimary() (cast.Expr, error) {
	start := p.pos
	t := p.tok()
	text := p.text()
	switch t.Kind {
	case ctoken.IntLit, ctoken.FloatLit, ctoken.CharLit, ctoken.StringLit:
		p.next()
		b := &cast.BasicLit{Kind: t.Kind, Value: text}
		setSpan(b, start, start)
		return b, nil
	case ctoken.Ident:
		if ctoken.Keywords[text] {
			switch text {
			case "true", "false", "nullptr":
				p.next()
				b := &cast.BasicLit{Kind: ctoken.Ident, Value: text}
				setSpan(b, start, start)
				return b, nil
			case "new", "delete":
				// Opaque-ish: treat as unary operator on following expr.
				p.next()
				if p.is("[") { // delete[]
					p.next()
					if _, err := p.expect("]"); err != nil {
						return nil, err
					}
				}
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				u := &cast.UnaryExpr{Op: text, X: x}
				setSpan(u, start, p.prev())
				return u, nil
			case "operator", "template", "typename", "class", "struct":
				return nil, p.errHere("unsupported keyword %q in expression", text)
			}
		}
		p.next()
		// Metavariable?
		if k, ok := p.metaKind(text); ok {
			me := &cast.MetaExpr{Name: text, Kind: k}
			// @position attachments
			for p.is("@") && p.peek(1).Kind == ctoken.Ident {
				p.next()
				me.Positions = append(me.Positions, p.nextText())
			}
			setSpan(me, start, p.prev())
			return me, nil
		}
		id := &cast.Ident{Name: text}
		setSpan(id, start, start)
		return id, nil
	case ctoken.Punct:
		if p.is("(") {
			p.next()
			e, err := p.parseExpr(precComma)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			pe := &cast.ParenExpr{X: e}
			setSpan(pe, start, p.prev())
			return pe, nil
		}
		if p.is("{") {
			return p.parseInitList()
		}
		if p.is("[") && p.opts.CPlusPlus {
			return p.parseLambda()
		}
	}
	return nil, p.errHere("unexpected token %q in expression", text)
}

// parseLambda parses a C++ lambda shallowly.
func (p *parser) parseLambda() (cast.Expr, error) {
	start := p.pos
	p.next() // [
	capStart := p.pos
	depth := 1
	for depth > 0 && !p.at(ctoken.EOF) {
		if p.is("[") {
			depth++
		} else if p.is("]") {
			depth--
			if depth == 0 {
				break
			}
		}
		p.next()
	}
	capture := ""
	if p.pos > capStart {
		capture = p.file.Slice(capStart, p.pos-1)
	}
	if _, err := p.expect("]"); err != nil {
		return nil, err
	}
	l := &cast.LambdaExpr{Capture: capture}
	if p.is("(") {
		pl, err := p.parseParamList()
		if err != nil {
			return nil, err
		}
		l.Params = pl
	}
	// skip specifiers until '{'
	for !p.is("{") && !p.at(ctoken.EOF) && !p.is(";") && !p.is(")") && !p.is(",") {
		p.next()
	}
	if p.is("{") {
		body, err := p.parseCompound()
		if err != nil {
			return nil, err
		}
		l.Body = body
	}
	setSpan(l, start, p.prev())
	return l, nil
}
