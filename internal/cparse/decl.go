package cparse

import (
	"strings"

	"repro/internal/cast"
	"repro/internal/ctoken"
)

// parseTopDecl parses one top-level declaration, directive, or function.
func (p *parser) parseTopDecl() (cast.Decl, error) {
	start := p.pos
	tok := p.tok()

	if tok.Kind == ctoken.PP {
		return p.parsePP()
	}

	// Opaque constructs we preserve but do not model.
	if tok.Kind == ctoken.Ident {
		switch p.text() {
		case "typedef", "using":
			// Terminated by ';' even after a braced body: typedef struct {...} name;
			return p.parseOpaqueDecl(start, false)
		case "template", "namespace":
			return p.parseOpaqueDecl(start, true)
		case "struct", "union", "enum", "class":
			// "struct X { ... };" or "struct X;" is opaque; "struct X f(...)"
			// is a type use and falls through.
			if p.structLikeDefinition() {
				return p.parseOpaqueDecl(start, true)
			}
		case "extern":
			if p.peek(1).Kind == ctoken.StringLit {
				return p.parseOpaqueDecl(start, true) // extern "C" { ... }
			}
		}
	}
	if p.is(";") {
		p.next()
		d := &cast.OpaqueDecl{Raw: ";"}
		setSpan(d, start, start)
		return d, nil
	}

	// Attributes preceding a function.
	var attrs []*cast.Attr
	for p.isIdent("__attribute__") {
		a, err := p.parseAttr()
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, a)
	}

	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}

	// Declarator: pointer stars belong to the item, not the base type here.
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

	if p.is("(") {
		fd := &cast.FuncDef{Attrs: attrs, Ret: ty, Name: name}
		ty.Stars += stars
		pl, err := p.parseParamList()
		if err != nil {
			return nil, err
		}
		fd.Params = pl
		// Trailing attributes / specifiers before body or semicolon.
		for p.tok().Kind == ctoken.Ident && !p.is("{") && !p.at(ctoken.EOF) && !p.is(";") {
			if p.isIdent("__attribute__") {
				a, err := p.parseAttr()
				if err != nil {
					return nil, err
				}
				fd.Attrs = append(fd.Attrs, a)
				continue
			}
			p.next() // const, noexcept, override ...
		}
		if p.is(";") {
			p.next()
			setSpan(fd, start, p.prev())
			return fd, nil
		}
		body, err := p.parseCompound()
		if err != nil {
			return nil, err
		}
		fd.Body = body
		setSpan(fd, start, p.prev())
		return fd, nil
	}

	// Variable declaration.
	vd, err := p.parseVarDeclRest(start, ty, stars, ref, name)
	if err != nil {
		return nil, err
	}
	return vd, nil
}

// structLikeDefinition reports whether the upcoming tokens form a struct/
// union/enum/class *definition* (ending in braces) rather than a type use.
func (p *parser) structLikeDefinition() bool {
	i := 1
	if p.peek(i).Kind == ctoken.Ident && !ctoken.Keywords[p.peekText(i)] {
		i++
	}
	return p.peekIs(i, "{") || p.peekIs(i, ";") || p.peekIs(i, ":")
}

// parseOpaqueDecl consumes a balanced top-level construct. With endAtBrace,
// a closing brace at depth zero ends the construct (plus an optional
// semicolon right after); otherwise only a depth-zero semicolon does, which
// is what typedefs with braced bodies need.
func (p *parser) parseOpaqueDecl(start int, endAtBrace bool) (cast.Decl, error) {
	depth := 0
	sawBrace := false
	for !p.at(ctoken.EOF) {
		switch {
		case p.is("{") || p.is("(") || p.is("["):
			depth++
			if p.is("{") {
				sawBrace = true
			}
		case p.is("}") || p.is(")") || p.is("]"):
			depth--
			if depth == 0 && p.is("}") && endAtBrace {
				p.next()
				if p.is(";") {
					p.next()
				}
				d := &cast.OpaqueDecl{Raw: p.file.Slice(start, p.prev())}
				setSpan(d, start, p.prev())
				return d, nil
			}
		case p.is(";") && depth == 0:
			p.next()
			d := &cast.OpaqueDecl{Raw: p.file.Slice(start, p.prev())}
			setSpan(d, start, p.prev())
			return d, nil
		}
		p.next()
	}
	if sawBrace && !endAtBrace {
		return nil, p.errHere("unterminated declaration")
	}
	d := &cast.OpaqueDecl{Raw: p.file.Slice(start, p.prev())}
	setSpan(d, start, p.prev())
	return d, nil
}

// readsPast reports whether parseTopDecl, building d from toks, looked at
// the token after d's last one. Only parseOpaqueDecl does: with endAtBrace
// it looks for a ';' after the closing '}', and a construct that runs to
// the end of the file stops on the EOF token. An opaque declaration ended
// by a ';' at depth zero did neither. Every other declaration ends on a
// token the parser consumed without looking further: a function's '}' or
// ';', a variable's ';', a lone ';', a directive line. The statement and
// expression look-aheads inside a function stop at its closing '}'.
func readsPast(f *ctoken.File, d cast.Decl) bool {
	if _, ok := d.(*cast.OpaqueDecl); !ok {
		return false
	}
	first, last := d.Span()
	if !f.Is(last, ";") {
		return true
	}
	// The depth parseOpaqueDecl counted: a ';' inside an open group did not
	// end the construct, so it ran on to the EOF.
	depth := 0
	for k := first; k < last; k++ {
		switch {
		case f.Is(k, "{") || f.Is(k, "(") || f.Is(k, "["):
			depth++
		case f.Is(k, "}") || f.Is(k, ")") || f.Is(k, "]"):
			depth--
		}
	}
	return depth != 0
}

// parsePP converts a preprocessor token into the right Decl node. In pattern
// mode, pragma and include lines become pattern nodes with wildcard support.
func (p *parser) parsePP() (cast.Decl, error) {
	start := p.pos
	text := p.nextText()
	rest := strings.TrimSpace(strings.TrimPrefix(text, "#"))
	switch {
	case strings.HasPrefix(rest, "include"):
		arg := strings.TrimSpace(strings.TrimPrefix(rest, "include"))
		inc := parseIncludeArg(arg, text)
		if p.opts.pattern() {
			ip := &cast.IncludePattern{Path: inc.Path, Angled: inc.Angled}
			setSpan(ip, start, start)
			return ip, nil
		}
		setSpan(inc, start, start)
		return inc, nil
	case strings.HasPrefix(rest, "pragma"):
		info := strings.TrimSpace(strings.TrimPrefix(rest, "pragma"))
		if p.opts.pattern() {
			pp := p.pragmaPattern(info)
			setSpan(pp, start, start)
			return pp, nil
		}
		pr := &cast.Pragma{Raw: text, Info: info, Word: strings.Fields(info)}
		setSpan(pr, start, start)
		return pr, nil
	default:
		o := &cast.PPOther{Raw: text}
		setSpan(o, start, start)
		return o, nil
	}
}

func parseIncludeArg(arg, raw string) *cast.Include {
	inc := &cast.Include{Raw: raw}
	if strings.HasPrefix(arg, "<") {
		inc.Angled = true
		inc.Path = strings.TrimSuffix(strings.TrimPrefix(arg, "<"), ">")
	} else {
		inc.Path = strings.Trim(arg, `"`)
	}
	return inc
}

// pragmaPattern interprets a pragma pattern body: fixed words, then either a
// "..." wildcard or a pragmainfo metavariable (possibly rule-qualified).
func (p *parser) pragmaPattern(info string) *cast.PragmaPattern {
	pp := &cast.PragmaPattern{}
	for _, w := range strings.Fields(info) {
		if w == "..." {
			pp.TailDots = true
			break
		}
		base := w
		if i := strings.LastIndex(w, "."); i >= 0 {
			base = w // keep qualified name whole for lookup by the compiler
			_ = i
		}
		if k, ok := p.metaKind(base); ok && k == cast.MetaPragmaInfoKind {
			pp.InfoMeta = base
			break
		}
		pp.Words = append(pp.Words, w)
	}
	return pp
}

// parseAttr parses __attribute__((args...)).
func (p *parser) parseAttr() (*cast.Attr, error) {
	start := p.pos
	p.next() // __attribute__
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	a := &cast.Attr{}
	for !p.is(")") && !p.at(ctoken.EOF) {
		e, err := p.parseExpr(precComma + 1)
		if err != nil {
			return nil, err
		}
		a.Args = append(a.Args, e)
		if p.is(",") {
			p.next()
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	setSpan(a, start, p.prev())
	return a, nil
}

// parseType parses qualifiers and a base type name. Pointer declarators are
// handled by the caller.
func (p *parser) parseType() (*cast.Type, error) {
	start := p.pos
	ty := &cast.Type{}
	var base []string

	qual := func(s string) bool {
		switch s {
		case "const", "volatile", "static", "extern", "inline", "register",
			"restrict", "constexpr", "typename",
			"__global__", "__device__", "__host__", "__shared__":
			return true
		}
		return false
	}
	baseKw := func(s string) bool {
		switch s {
		case "void", "char", "short", "int", "long", "float", "double",
			"signed", "unsigned", "bool", "auto":
			return true
		}
		return false
	}

	for p.tok().Kind == ctoken.Ident {
		t := p.text()
		switch {
		case qual(t):
			ty.Quals = append(ty.Quals, t)
			p.next()
		case baseKw(t):
			base = append(base, t)
			p.next()
		case t == "struct" || t == "union" || t == "enum" || t == "class":
			base = append(base, t)
			p.next()
			if p.tok().Kind == ctoken.Ident {
				base = append(base, p.nextText())
			}
		default:
			// Metavariable of kind type?
			if p.isMeta(t, cast.MetaTypeKind) {
				if len(base) == 0 {
					base = append(base, t)
					ty.Base = t
					p.next()
					p.qualifiedName(&base)
					ty.Base = strings.Join(base, " ")
					setSpan(ty, start, p.prev())
					return ty, nil
				}
				goto done
			}
			// Language keywords that cannot name a type (return, break,
			// if, sizeof, ...) never start a declaration; without this, a
			// top-level parse of statement text like `return r;` would
			// fabricate a VarDecl with base type "return".
			if ctoken.Keywords[t] {
				goto done
			}
			// A plain identifier can be the base type if none seen yet.
			if len(base) == 0 {
				base = append(base, t)
				p.next()
				p.qualifiedName(&base)
				// template argument list, consumed opaquely
				if p.opts.CPlusPlus && p.is("<") {
					if txt, ok := p.tryTemplateArgs(); ok {
						base[len(base)-1] += txt
					}
				}
				goto done
			}
			goto done
		}
	}
done:
	if len(base) == 0 && len(ty.Quals) == 0 {
		return nil, p.errHere("expected type, found %q", p.text())
	}
	if len(base) == 0 {
		base = append(base, "int") // e.g. "unsigned" alone handled above; bare quals default
	}
	ty.Base = strings.Join(base, " ")
	setSpan(ty, start, p.prev())
	return ty, nil
}

// qualifiedName extends base with ::name segments.
func (p *parser) qualifiedName(base *[]string) {
	for p.is("::") && p.peek(1).Kind == ctoken.Ident {
		p.next()
		(*base)[len(*base)-1] += "::" + p.nextText()
	}
}

// tryTemplateArgs consumes <...> if it is balanced before any ; or { and
// returns its text.
func (p *parser) tryTemplateArgs() (string, bool) {
	save := p.pos
	depth := 0
	start := p.pos
	for !p.at(ctoken.EOF) {
		if p.is("<") {
			depth++
		} else if p.is(">") {
			depth--
			if depth == 0 {
				p.next()
				return p.file.Slice(start, p.prev()), true
			}
		} else if p.is(">>") && depth >= 2 {
			depth -= 2
			if depth == 0 {
				p.next()
				return p.file.Slice(start, p.prev()), true
			}
		} else if p.is(";") || p.is("{") || p.is("}") || p.at(ctoken.PP) {
			break
		}
		p.next()
	}
	p.pos = save
	return "", false
}

// parseDeclName parses the declared identifier (plain or metavariable).
func (p *parser) parseDeclName() (*cast.Ident, error) {
	if p.tok().Kind != ctoken.Ident {
		return nil, p.errHere("expected identifier, found %q", p.text())
	}
	start := p.pos
	id := &cast.Ident{Name: p.nextText()}
	setSpan(id, start, start)
	return id, nil
}

// parseParamList parses (params...) including SmPL wildcards.
func (p *parser) parseParamList() (*cast.ParamList, error) {
	start, err := p.expect("(")
	if err != nil {
		return nil, err
	}
	pl := &cast.ParamList{}
	if p.is(")") {
		p.next()
		setSpan(pl, start, p.prev())
		return pl, nil
	}
	// SmPL: a bare "..." means "any parameter list"; a parameter-list
	// metavariable likewise stands for all parameters.
	for {
		if p.is("...") {
			if p.opts.pattern() && len(pl.Params) == 0 && p.peekIs(1, ")") {
				pl.MetaDots = true
			} else {
				pl.Variadic = true
			}
			p.next()
		} else if p.tok().Kind == ctoken.Ident && p.isMeta(p.text(), cast.MetaParamListKind) {
			ps := p.pos
			prm := &cast.Param{MetaName: p.nextText()}
			setSpan(prm, ps, ps)
			pl.Params = append(pl.Params, prm)
		} else if p.isIdent("void") && p.peekIs(1, ")") {
			p.next()
		} else {
			prm, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			pl.Params = append(pl.Params, prm)
		}
		if p.is(",") {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	setSpan(pl, start, p.prev())
	return pl, nil
}

func (p *parser) parseParam() (*cast.Param, error) {
	start := p.pos
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	for p.is("*") {
		ty.Stars++
		p.next()
	}
	if p.is("&") {
		ty.Ref = true
		p.next()
	}
	prm := &cast.Param{Type: ty}
	if p.tok().Kind == ctoken.Ident && !ctoken.Keywords[p.text()] {
		nstart := p.pos
		prm.Name = &cast.Ident{Name: p.nextText()}
		setSpan(prm.Name, nstart, nstart)
	}
	// array suffixes
	for p.is("[") {
		p.next()
		for !p.is("]") && !p.at(ctoken.EOF) {
			p.next()
		}
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	setSpan(prm, start, p.prev())
	return prm, nil
}

// parseVarDeclRest finishes a variable declaration whose type, leading stars,
// and first name have been consumed.
func (p *parser) parseVarDeclRest(start int, ty *cast.Type, stars int, ref bool, name *cast.Ident) (*cast.VarDecl, error) {
	vd := &cast.VarDecl{Type: ty}
	first := &cast.Declarator{Stars: stars, Ref: ref, Name: name}
	nf, _ := name.Span()
	dstart := nf
	if err := p.parseDeclaratorRest(first); err != nil {
		return nil, err
	}
	setSpan(first, dstart, p.prev())
	vd.Items = append(vd.Items, first)
	for p.is(",") {
		p.next()
		d := &cast.Declarator{}
		ds := p.pos
		for p.is("*") {
			d.Stars++
			p.next()
		}
		if p.is("&") {
			d.Ref = true
			p.next()
		}
		n, err := p.parseDeclName()
		if err != nil {
			return nil, err
		}
		d.Name = n
		if err := p.parseDeclaratorRest(d); err != nil {
			return nil, err
		}
		setSpan(d, ds, p.prev())
		vd.Items = append(vd.Items, d)
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	setSpan(vd, start, p.prev())
	return vd, nil
}

// parseDeclaratorRest parses array dims and the initializer.
func (p *parser) parseDeclaratorRest(d *cast.Declarator) error {
	for p.is("[") {
		p.next()
		if p.is("]") {
			d.Dims = append(d.Dims, nil)
			p.next()
			continue
		}
		e, err := p.parseExpr(precComma + 1)
		if err != nil {
			return err
		}
		d.Dims = append(d.Dims, e)
		if _, err := p.expect("]"); err != nil {
			return err
		}
	}
	if p.is("=") {
		p.next()
		if p.is("{") {
			il, err := p.parseInitList()
			if err != nil {
				return err
			}
			d.Init = il
			return nil
		}
		e, err := p.parseExpr(precComma + 1)
		if err != nil {
			return err
		}
		d.Init = e
	} else if p.is("(") && p.opts.CPlusPlus {
		// constructor-style init, consumed opaquely as a call on the name
		e, err := p.parsePostfixFrom(d.Name)
		if err != nil {
			return err
		}
		d.Init = e
	}
	return nil
}

func (p *parser) parseInitList() (*cast.InitList, error) {
	start, err := p.expect("{")
	if err != nil {
		return nil, err
	}
	il := &cast.InitList{}
	for !p.is("}") && !p.at(ctoken.EOF) {
		var e cast.Expr
		if p.is("{") {
			sub, err := p.parseInitList()
			if err != nil {
				return nil, err
			}
			e = sub
		} else {
			var err error
			e, err = p.parseExpr(precComma + 1)
			if err != nil {
				return nil, err
			}
		}
		il.Elems = append(il.Elems, e)
		if p.is(",") {
			p.next()
		}
	}
	if _, err := p.expect("}"); err != nil {
		return nil, err
	}
	setSpan(il, start, p.prev())
	return il, nil
}
