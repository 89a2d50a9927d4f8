// Package cparse implements a recursive-descent parser for the C/C++ dialect
// used by the semantic patch engine. The same parser, given a metavariable
// table, parses SmPL pattern fragments: metavariables parse as their declared
// kind (types, statements, parameter lists, ...), "..." parses as a dots
// wildcard, and column-zero or escaped parentheses parse as pattern
// disjunctions/conjunctions.
package cparse

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/cast"
	"repro/internal/ctoken"
)

// MetaTable resolves metavariable names during pattern parsing. A nil table
// means plain C/C++ parsing.
type MetaTable interface {
	Lookup(name string) (cast.MetaKind, bool)
}

// Options controls the accepted dialect.
type Options struct {
	CPlusPlus bool
	Std       int  // 11, 17, 23; 23 enables multi-index subscripts
	CUDA      bool // enables <<< >>> kernel launches
	Meta      MetaTable
}

// Pattern reports whether the parser runs in SmPL pattern mode.
func (o Options) pattern() bool { return o.Meta != nil }

// A ParseError carries a source position.
type ParseError struct {
	File string
	Pos  ctoken.Pos
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%s:%s: %s", e.File, e.Pos, e.Msg)
}

// parses counts full (non-pattern) translation-unit parses, the dominant
// cost on corpus-scale runs. Tests use the counter to assert parse-sharing:
// campaign mode must parse each unchanged file at most once however many
// patches it applies, and cached runs must not parse at all.
var parses atomic.Int64

// Parses returns the number of translation-unit parses performed so far by
// this process (SmPL pattern-fragment parses are not counted).
func Parses() int64 { return parses.Load() }

// Parse lexes and parses a translation unit.
func Parse(name, src string, opts Options) (*cast.File, error) {
	if !opts.pattern() {
		parses.Add(1)
	}
	lf, err := ctoken.Lex(name, src, lexOptions(src, opts))
	if err != nil {
		return nil, err
	}
	return ParseTokens(lf, opts)
}

// lexOptions derives a translation unit's lexer options: kernel-launch
// chevrons lex as such under CUDA or wherever the text holds a "<<<".
func lexOptions(src string, opts Options) ctoken.Options {
	return ctoken.Options{
		SmPL:         opts.pattern(),
		CUDAChevrons: opts.CUDA || strings.Contains(src, "<<<"),
	}
}

// ParseTokens parses an already-lexed file.
func ParseTokens(lf *ctoken.File, opts Options) (*cast.File, error) {
	p := &parser{toks: lf.Tokens, file: lf, opts: opts}
	f := &cast.File{Name: lf.Name, Toks: lf}
	for !p.at(ctoken.EOF) {
		d, err := p.parseTopDecl()
		if err != nil {
			return nil, err
		}
		if d != nil {
			f.Decls = append(f.Decls, d)
		}
	}
	return f, nil
}

// ParseStmts parses a brace-less statement sequence (used for SmPL
// statement-sequence patterns and plus-line fragments).
func ParseStmts(src string, opts Options) ([]cast.Stmt, *ctoken.File, error) {
	lf, err := ctoken.Lex("<stmts>", src, ctoken.Options{
		SmPL:         opts.pattern(),
		CUDAChevrons: true,
	})
	if err != nil {
		return nil, nil, err
	}
	stmts, err := ParseStmtsTokens(lf, opts)
	return stmts, lf, err
}

// ParseStmtsTokens parses an already-lexed statement sequence.
func ParseStmtsTokens(lf *ctoken.File, opts Options) ([]cast.Stmt, error) {
	p := &parser{toks: lf.Tokens, file: lf, opts: opts}
	var out []cast.Stmt
	for !p.at(ctoken.EOF) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ParseExprTokens parses an already-lexed file as one expression.
func ParseExprTokens(lf *ctoken.File, opts Options) (cast.Expr, error) {
	p := &parser{toks: lf.Tokens, file: lf, opts: opts}
	e, err := p.parseExpr(precComma + 1)
	if err != nil {
		return nil, err
	}
	if !p.at(ctoken.EOF) {
		return nil, p.errHere("trailing tokens after expression")
	}
	return e, nil
}

type parser struct {
	toks []ctoken.Token
	file *ctoken.File
	opts Options
	pos  int
}

func (p *parser) tok() ctoken.Token     { return p.toks[p.pos] }
func (p *parser) text() string          { return p.file.Text(p.pos) }
func (p *parser) at(k ctoken.Kind) bool { return p.toks[p.pos].Kind == k }

// ahead returns the index of the token n places ahead, or of the EOF
// token if that lies past the end.
func (p *parser) ahead(n int) int { return min(p.pos+n, len(p.toks)-1) }

func (p *parser) peek(n int) ctoken.Token        { return p.toks[p.ahead(n)] }
func (p *parser) peekText(n int) string          { return p.file.Text(p.ahead(n)) }
func (p *parser) peekIs(n int, text string) bool { return p.file.Is(p.ahead(n), text) }
func (p *parser) is(text string) bool            { return p.file.Is(p.pos, text) }
func (p *parser) isIdent(s string) bool          { return p.file.IsIdent(p.pos, s) }

// next consumes the current token; the parser stays on the EOF token.
func (p *parser) next() {
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
}

// nextText consumes the current token and returns its text.
func (p *parser) nextText() string {
	s := p.text()
	p.next()
	return s
}

func (p *parser) expect(text string) (int, error) {
	if !p.is(text) {
		return 0, p.errHere("expected %q, found %q", text, p.text())
	}
	i := p.pos
	p.next()
	return i, nil
}

func (p *parser) errHere(format string, args ...any) error {
	return &ParseError{File: p.file.Name, Pos: p.tok().Pos, Msg: fmt.Sprintf(format, args...)}
}

// metaKind looks up an identifier in the metavariable table.
func (p *parser) metaKind(name string) (cast.MetaKind, bool) {
	if p.opts.Meta == nil {
		return 0, false
	}
	return p.opts.Meta.Lookup(name)
}

func (p *parser) isMeta(name string, kinds ...cast.MetaKind) bool {
	k, ok := p.metaKind(name)
	if !ok {
		return false
	}
	for _, want := range kinds {
		if k == want {
			return true
		}
	}
	return false
}

// setSpan assigns a token span to a node created by the parser.
type spanner interface{ SetSpan(first, last int) }

func setSpan(n cast.Node, first, last int) {
	if s, ok := n.(spanner); ok {
		if last < first {
			last = first
		}
		s.SetSpan(first, last)
	}
}

// span helper: last consumed token index.
func (p *parser) prev() int {
	if p.pos == 0 {
		return 0
	}
	return p.pos - 1
}
