package cparse

import (
	"repro/internal/cast"
	"repro/internal/ctoken"
)

// ParseExpr parses a standalone expression, for tests that build one from
// source text (the SmPL compiler lexes its own and calls ParseExprTokens).
func ParseExpr(src string, opts Options) (cast.Expr, *ctoken.File, error) {
	lf, err := ctoken.Lex("<expr>", src, ctoken.Options{
		SmPL:         opts.pattern(),
		CUDAChevrons: true,
	})
	if err != nil {
		return nil, nil, err
	}
	p := &parser{toks: lf.Tokens, file: lf, opts: opts}
	e, err := p.parseExpr(precComma + 1)
	if err != nil {
		return nil, nil, err
	}
	if !p.at(ctoken.EOF) {
		return nil, nil, p.errHere("trailing tokens after expression")
	}
	return e, lf, nil
}
