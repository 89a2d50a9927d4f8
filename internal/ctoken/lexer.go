package ctoken

import (
	"fmt"
	"math"
	"strings"
)

// Options controls lexing behaviour.
type Options struct {
	// SmPL enables semantic-patch tokens: \( \| \) \& for escaped
	// disjunction/conjunction, @ for rule delimiters and position
	// attachment, ## for identifier concatenation, and =~ for regular
	// expression constraints.
	SmPL bool
	// CUDAChevrons enables the <<< and >>> kernel-launch tokens. When off,
	// those character runs lex as << < and >> >.
	CUDAChevrons bool
}

// A LexError describes a lexical error with its position.
type LexError struct {
	File string
	Pos  Pos
	Msg  string
}

func (e *LexError) Error() string {
	return fmt.Sprintf("%s:%s: %s", e.File, e.Pos, e.Msg)
}

// maxSrcLen is the longest source Lex accepts: every offset, line and
// column is at most len(src)+1 and must fit Pos's int32 fields. Tests lower
// it to exercise the guard without allocating gigabytes.
var maxSrcLen = math.MaxInt32 - 1

// Lex tokenizes src. The token stream always ends with an EOF token at
// len(src), so File.Render reproduces src exactly.
func Lex(name, src string, opts Options) (*File, error) {
	// Size the slice once for 1.5 bytes per token. HPC C runs 1.8–3.3
	// (arrays of structs are the densest), so append rarely regrows; denser
	// code costs one regrowth, never a wrong result.
	return LexSized(name, src, opts, len(src)*2/3+8)
}

// LexSized is Lex with the token slice sized for n tokens. A caller that
// knows the count closely (the re-lex of an edited file knows the old
// count and how much text the edit inserted) saves the slack Lex's
// bytes-per-token estimate leaves. n only sizes the slice: a short
// estimate costs a regrowth, never a different result.
func LexSized(name, src string, opts Options, n int) (*File, error) {
	if len(src) > maxSrcLen {
		return nil, &LexError{File: name, Pos: Pos{Line: 1, Col: 1},
			Msg: fmt.Sprintf("source is %d bytes; the lexer takes at most %d", len(src), maxSrcLen)}
	}
	lx := &lexer{name: name, src: src, opts: opts, line: 1, col: 1}
	f := &File{Name: name, Src: src, Opts: opts}
	f.Tokens = make([]Token, 0, max(n, 1))
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		f.Tokens = append(f.Tokens, tok)
		if tok.Kind == EOF {
			return f, nil
		}
	}
}

type lexer struct {
	name string
	src  string
	opts Options
	off  int
	line int
	col  int
}

func (lx *lexer) errf(pos Pos, format string, args ...any) error {
	return &LexError{File: lx.name, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) pos() Pos {
	return Pos{Offset: int32(lx.off), Line: int32(lx.line), Col: int32(lx.col)}
}

func (lx *lexer) peek() byte {
	if lx.off < len(lx.src) {
		return lx.src[lx.off]
	}
	return 0
}

func (lx *lexer) peekAt(n int) byte {
	if lx.off+n < len(lx.src) {
		return lx.src[lx.off+n]
	}
	return 0
}

// advanceNoNL advances n bytes known to contain no newline (identifier
// characters, punctuation), skipping advance's per-byte line accounting.
func (lx *lexer) advanceNoNL(n int) {
	lx.off += n
	lx.col += n
}

func (lx *lexer) advance(n int) {
	for i := 0; i < n && lx.off < len(lx.src); i++ {
		if lx.src[lx.off] == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
		lx.off++
	}
}

// skipWS consumes whitespace and comments, returning the exact text skipped.
func (lx *lexer) skipWS() (string, error) {
	start := lx.off
	for lx.off < len(lx.src) {
		c := lx.src[lx.off]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f':
			lx.advanceNoNL(1)
		case c == '\n':
			lx.advance(1)
		case c == '/' && lx.peekAt(1) == '/':
			for lx.off < len(lx.src) && lx.src[lx.off] != '\n' {
				lx.advance(1)
			}
		case c == '/' && lx.peekAt(1) == '*':
			p := lx.pos()
			lx.advance(2)
			for {
				if lx.off >= len(lx.src) {
					return "", lx.errf(p, "unterminated block comment")
				}
				if lx.src[lx.off] == '*' && lx.peekAt(1) == '/' {
					lx.advance(2)
					break
				}
				lx.advance(1)
			}
		case c == '\\' && (lx.peekAt(1) == '\n' || (lx.peekAt(1) == '\r' && lx.peekAt(2) == '\n')):
			// Line continuation outside a directive: treat as whitespace.
			if lx.peekAt(1) == '\r' {
				lx.advance(3)
			} else {
				lx.advance(2)
			}
		default:
			return lx.src[start:lx.off], nil
		}
	}
	return lx.src[start:lx.off], nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// punctuation, longest first within each leading byte; checked by max munch.
var puncts = []string{
	"<<<", ">>>", "<<=", ">>=", "...", "->*", "::",
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
	"(", ")", "[", "]", "{", "}", ",", ";", ":", "?", ".",
}

var smplPuncts = []string{"\\(", "\\|", "\\)", "\\&", "##", "=~", "@"}

// punctsByByte indexes puncts by leading byte so matching probes only the
// few candidates that can start with the byte at hand, preserving the
// longest-first (max munch) order within each bucket.
var punctsByByte = func() [256][]string {
	var t [256][]string
	for _, p := range puncts {
		t[p[0]] = append(t[p[0]], p)
	}
	return t
}()

func (lx *lexer) next() (Token, error) {
	ws, err := lx.skipWS()
	if err != nil {
		return Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := lx.peek()

	// Preprocessor directive: '#' at the start of a line (after whitespace).
	if c == '#' && lx.atLineStart(ws) && !(lx.opts.SmPL && lx.peekAt(1) == '#') {
		text, err := lx.lexPPLine()
		if err != nil {
			return Token{}, err
		}
		return Token{Kind: PP, Pos: pos, Len: int32(len(text))}, nil
	}

	if isIdentStart(c) {
		start := lx.off
		end := lx.off
		for end < len(lx.src) && isIdentCont(lx.src[end]) {
			end++
		}
		lx.advanceNoNL(end - start)
		text := lx.src[start:lx.off]
		// String literal prefixes: L"..." u8"..." R"(...)"
		if lx.off < len(lx.src) && (lx.peek() == '"' || lx.peek() == '\'') &&
			(text == "L" || text == "u" || text == "U" || text == "u8" || text == "R" || text == "LR" || text == "uR" || text == "UR" || text == "u8R") {
			lit, err := lx.lexStringFrom(start, pos, strings.HasSuffix(text, "R"))
			if err != nil {
				return Token{}, err
			}
			kind := StringLit
			if lx.src[start+len(text)] == '\'' {
				kind = CharLit
			}
			return Token{Kind: kind, Pos: pos, Len: int32(len(lit))}, nil
		}
		return Token{Kind: Ident, Pos: pos, Len: int32(len(text))}, nil
	}

	if isDigit(c) || (c == '.' && isDigit(lx.peekAt(1))) {
		text, kind, err := lx.lexNumber()
		if err != nil {
			return Token{}, err
		}
		return Token{Kind: kind, Pos: pos, Len: int32(len(text))}, nil
	}

	if c == '"' {
		lit, err := lx.lexStringFrom(lx.off, pos, false)
		if err != nil {
			return Token{}, err
		}
		return Token{Kind: StringLit, Pos: pos, Len: int32(len(lit))}, nil
	}
	if c == '\'' {
		lit, err := lx.lexStringFrom(lx.off, pos, false)
		if err != nil {
			return Token{}, err
		}
		return Token{Kind: CharLit, Pos: pos, Len: int32(len(lit))}, nil
	}

	if lx.opts.SmPL {
		for _, p := range smplPuncts {
			if strings.HasPrefix(lx.src[lx.off:], p) {
				lx.advance(len(p))
				return Token{Kind: Punct, Pos: pos, Len: int32(len(p))}, nil
			}
		}
	}
	rest := lx.src[lx.off:]
	for _, p := range punctsByByte[c] {
		// p starts with c, so only its tail needs comparing; no punctuator
		// is longer than three bytes.
		if len(p) > len(rest) || len(p) > 1 && rest[1] != p[1] || len(p) > 2 && rest[2] != p[2] {
			continue
		}
		if !lx.opts.CUDAChevrons && (p == "<<<" || p == ">>>") {
			continue
		}
		lx.advanceNoNL(len(p))
		return Token{Kind: Punct, Pos: pos, Len: int32(len(p))}, nil
	}

	return Token{}, lx.errf(pos, "unexpected character %q", string(c))
}

// atLineStart reports whether the current offset begins a line, i.e. the
// preceding skipped whitespace contains a newline or we are at file start.
func (lx *lexer) atLineStart(ws string) bool {
	if lx.off-len(ws) == 0 {
		return true
	}
	return strings.ContainsAny(ws, "\n")
}

// lexPPLine consumes a whole preprocessor line, merging backslash-newline
// continuations into the token text.
func (lx *lexer) lexPPLine() (string, error) {
	start := lx.off
	for lx.off < len(lx.src) {
		c := lx.src[lx.off]
		if c == '\\' && (lx.peekAt(1) == '\n' || (lx.peekAt(1) == '\r' && lx.peekAt(2) == '\n')) {
			if lx.peekAt(1) == '\r' {
				lx.advance(3)
			} else {
				lx.advance(2)
			}
			continue
		}
		if c == '\n' {
			break
		}
		// Comments terminate the directive text but a block comment may
		// continue the logical line; keep it simple and include them.
		lx.advance(1)
	}
	// A CRLF line's carriage return stays out of the directive's text; it
	// leads the next token's whitespace, so the file still renders exactly.
	return strings.TrimRight(lx.src[start:lx.off], "\r"), nil
}

// lexNumber lexes a numeric literal. Its bytes hold no newline, and every
// advance follows a check that the bytes are there.
func (lx *lexer) lexNumber() (string, Kind, error) {
	start := lx.off
	kind := IntLit
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.advanceNoNL(2)
		for lx.off < len(lx.src) && (isHex(lx.src[lx.off]) || lx.src[lx.off] == '\'') {
			lx.advanceNoNL(1)
		}
		// hex float
		if lx.peek() == '.' || lx.peek() == 'p' || lx.peek() == 'P' {
			kind = FloatLit
			for lx.off < len(lx.src) && (isHex(lx.src[lx.off]) || lx.src[lx.off] == '.' ||
				lx.src[lx.off] == 'p' || lx.src[lx.off] == 'P' ||
				((lx.src[lx.off] == '+' || lx.src[lx.off] == '-') && (lx.src[lx.off-1] == 'p' || lx.src[lx.off-1] == 'P'))) {
				lx.advanceNoNL(1)
			}
		}
	} else {
		for lx.off < len(lx.src) && (isDigit(lx.src[lx.off]) || lx.src[lx.off] == '\'') {
			lx.advanceNoNL(1)
		}
		if lx.peek() == '.' && lx.peekAt(1) != '.' {
			kind = FloatLit
			lx.advanceNoNL(1)
			for lx.off < len(lx.src) && isDigit(lx.src[lx.off]) {
				lx.advanceNoNL(1)
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			if isDigit(lx.peekAt(1)) || ((lx.peekAt(1) == '+' || lx.peekAt(1) == '-') && isDigit(lx.peekAt(2))) {
				kind = FloatLit
				lx.advanceNoNL(2)
				for lx.off < len(lx.src) && isDigit(lx.src[lx.off]) {
					lx.advanceNoNL(1)
				}
			}
		}
	}
	// suffixes
	for lx.off < len(lx.src) {
		c := lx.src[lx.off]
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' || c == 'f' || c == 'F' {
			if c == 'f' || c == 'F' {
				kind = FloatLit
			}
			lx.advanceNoNL(1)
		} else {
			break
		}
	}
	return lx.src[start:lx.off], kind, nil
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// lexStringFrom lexes a string or char literal whose prefix (if any) started
// at 'start'. The current offset is at the opening quote or still at the
// prefix end; raw selects C++ raw-string lexing.
func (lx *lexer) lexStringFrom(start int, pos Pos, raw bool) (string, error) {
	// advance to opening quote
	for lx.off < len(lx.src) && lx.src[lx.off] != '"' && lx.src[lx.off] != '\'' {
		lx.advance(1)
	}
	if lx.off >= len(lx.src) {
		return "", lx.errf(pos, "unterminated literal")
	}
	quote := lx.src[lx.off]
	lx.advance(1)
	if raw && quote == '"' {
		// R"delim( ... )delim"
		dstart := lx.off
		for lx.off < len(lx.src) && lx.src[lx.off] != '(' {
			lx.advance(1)
		}
		if lx.off >= len(lx.src) {
			return "", lx.errf(pos, "unterminated raw string")
		}
		delim := lx.src[dstart:lx.off]
		lx.advance(1)
		closer := ")" + delim + `"`
		idx := strings.Index(lx.src[lx.off:], closer)
		if idx < 0 {
			return "", lx.errf(pos, "unterminated raw string")
		}
		lx.advance(idx + len(closer))
		return lx.src[start:lx.off], nil
	}
	for {
		if lx.off >= len(lx.src) || lx.src[lx.off] == '\n' {
			return "", lx.errf(pos, "unterminated %q literal", string(quote))
		}
		c := lx.src[lx.off]
		if c == '\\' {
			lx.advance(2)
			continue
		}
		lx.advance(1)
		if c == quote {
			break
		}
	}
	return lx.src[start:lx.off], nil
}
