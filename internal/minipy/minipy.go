// Package minipy implements a deliberately restricted interpreter for the
// Python fragments that appear in Coccinelle script rules. It supports
// exactly the idioms the paper's listings use: dictionary literals, string
// literals and concatenation, name and subscript lookups, and calls to the
// cocci.make_ident / cocci.make_type / cocci.make_pragmainfo constructors,
// with assignments either to globals (initialize rules) or to
// coccinelle.<output> metavariables (script rules). Arbitrary Python is out
// of scope by design; the Go ScriptHost interface in internal/core covers
// anything beyond these forms.
package minipy

import (
	"fmt"
	"strings"
)

// Value is a runtime value: a string (possibly tagged by its constructor) or
// a dictionary.
type Value struct {
	Str  string
	Dict map[string]string
	// Tag records which cocci constructor made the value ("ident", "type",
	// "pragmainfo", "" for plain strings).
	Tag    string
	IsDict bool
}

// Interp holds global state shared across rules of one engine run.
type Interp struct {
	globals map[string]Value
}

// New creates an empty interpreter.
func New() *Interp {
	return &Interp{globals: map[string]Value{}}
}

// An Error reports a script failure.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("script line %d: %s", e.Line, e.Msg) }

// KeyError is returned when a dictionary subscript misses; the engine treats
// it as "this environment does not apply" rather than a hard failure,
// mirroring Python's KeyError aborting one script invocation.
type KeyError struct {
	Key string
}

func (e *KeyError) Error() string { return "KeyError: " + e.Key }

// Exec runs a script body. locals are read-only input bindings (inherited
// metavariable values); assignments to coccinelle.X are collected as
// outputs; assignments to bare names update the interpreter globals.
func (in *Interp) Exec(code string, locals map[string]string) (map[string]Value, error) {
	outputs := map[string]Value{}
	stmts, err := splitStatements(code)
	if err != nil {
		return nil, err
	}
	for _, st := range stmts {
		if err := in.execStmt(st, locals, outputs); err != nil {
			return nil, err
		}
	}
	return outputs, nil
}

type stmt struct {
	line int
	text string
}

// splitStatements joins continuation lines (trailing backslash or open
// brackets) and drops comments.
func splitStatements(code string) ([]stmt, error) {
	var out []stmt
	lines := strings.Split(code, "\n")
	i := 0
	for i < len(lines) {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") || strings.HasPrefix(trimmed, "//") {
			i++
			continue
		}
		start := i
		text := line
		for {
			depth := bracketDepth(text)
			trimmed := strings.TrimSpace(text)
			cont := strings.HasSuffix(trimmed, "\\")
			// An operator at end of line, or a bracket/operator opening the
			// next line, also continues the statement (the paper's listings
			// wrap assignments this way).
			hangs := strings.HasSuffix(trimmed, "=") || strings.HasSuffix(trimmed, "+") ||
				strings.HasSuffix(trimmed, ",") || strings.HasSuffix(trimmed, ":")
			nextOpens := false
			if i+1 < len(lines) {
				nt := strings.TrimSpace(lines[i+1])
				nextOpens = strings.HasPrefix(nt, "(") || strings.HasPrefix(nt, "[") ||
					strings.HasPrefix(nt, "+") || strings.HasPrefix(nt, ".")
			}
			if depth <= 0 && !cont && !hangs && !nextOpens {
				break
			}
			if cont {
				text = strings.TrimSuffix(trimmed, "\\")
			}
			i++
			if i >= len(lines) {
				if depth > 0 || cont || hangs {
					return nil, &Error{Line: start + 1, Msg: "unterminated statement"}
				}
				break
			}
			text += " " + strings.TrimSpace(lines[i])
		}
		st := strings.TrimSpace(text)
		st = strings.TrimSuffix(st, ";") // tolerate C-habit semicolons
		out = append(out, stmt{line: start + 1, text: st})
		i++
	}
	return out, nil
}

func bracketDepth(s string) int {
	depth := 0
	inStr := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr != 0 {
			if c == '\\' {
				i++
			} else if c == inStr {
				inStr = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			inStr = c
		case '{', '(', '[':
			depth++
		case '}', ')', ']':
			depth--
		case '#':
			return depth // comment to end of line
		}
	}
	return depth
}

// execStmt executes one logical statement.
func (in *Interp) execStmt(st stmt, locals map[string]string, outputs map[string]Value) error {
	text := st.text
	eq := topLevelAssign(text)
	if eq < 0 {
		// bare expression: evaluate for effect (none) and ignore
		_, err := in.eval(text, st.line, locals, outputs)
		return err
	}
	target := strings.TrimSpace(text[:eq])
	rhs := strings.TrimSpace(text[eq+1:])
	val, err := in.eval(rhs, st.line, locals, outputs)
	if err != nil {
		return err
	}
	switch {
	case strings.HasPrefix(target, "coccinelle."):
		outputs[strings.TrimPrefix(target, "coccinelle.")] = val
	case isName(target):
		in.globals[target] = val
	default:
		return &Error{Line: st.line, Msg: fmt.Sprintf("unsupported assignment target %q", target)}
	}
	return nil
}

// topLevelAssign finds a single '=' (not ==, not inside brackets/strings).
func topLevelAssign(s string) int {
	depth := 0
	inStr := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr != 0 {
			if c == '\\' {
				i++
			} else if c == inStr {
				inStr = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			inStr = c
		case '{', '(', '[':
			depth++
		case '}', ')', ']':
			depth--
		case '=':
			if depth == 0 {
				if i+1 < len(s) && s[i+1] == '=' {
					i++
					continue
				}
				if i > 0 && (s[i-1] == '!' || s[i-1] == '<' || s[i-1] == '>') {
					continue
				}
				return i
			}
		}
	}
	return -1
}

func isName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9') {
			continue
		}
		return false
	}
	return true
}

// eval evaluates an expression.
func (in *Interp) eval(expr string, line int, locals map[string]string, outputs map[string]Value) (Value, error) {
	p := &eparser{src: expr, line: line, in: in, locals: locals, outputs: outputs}
	v, err := p.parseConcat()
	if err != nil {
		return Value{}, err
	}
	p.skipWS()
	if p.pos < len(p.src) {
		return Value{}, &Error{Line: line, Msg: fmt.Sprintf("trailing text %q", p.src[p.pos:])}
	}
	return v, nil
}

type eparser struct {
	src     string
	pos     int
	line    int
	in      *Interp
	locals  map[string]string
	outputs map[string]Value
}

func (p *eparser) errf(format string, args ...any) error {
	return &Error{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *eparser) skipWS() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

// parseConcat handles `a + b + c` string concatenation.
func (p *eparser) parseConcat() (Value, error) {
	v, err := p.parsePostfix()
	if err != nil {
		return Value{}, err
	}
	for {
		p.skipWS()
		if p.pos < len(p.src) && p.src[p.pos] == '+' {
			p.pos++
			rhs, err := p.parsePostfix()
			if err != nil {
				return Value{}, err
			}
			if v.IsDict || rhs.IsDict {
				return Value{}, p.errf("cannot concatenate dictionaries")
			}
			v = Value{Str: v.Str + rhs.Str}
			continue
		}
		return v, nil
	}
}

// parsePostfix handles primary expressions with [subscript] suffixes.
func (p *eparser) parsePostfix() (Value, error) {
	v, err := p.parsePrimary()
	if err != nil {
		return Value{}, err
	}
	for {
		p.skipWS()
		if p.pos < len(p.src) && p.src[p.pos] == '[' {
			p.pos++
			key, err := p.parseConcat()
			if err != nil {
				return Value{}, err
			}
			p.skipWS()
			if p.pos >= len(p.src) || p.src[p.pos] != ']' {
				return Value{}, p.errf("expected ]")
			}
			p.pos++
			if !v.IsDict {
				return Value{}, p.errf("subscript on non-dictionary")
			}
			got, ok := v.Dict[key.Str]
			if !ok {
				return Value{}, &KeyError{Key: key.Str}
			}
			v = Value{Str: got}
			continue
		}
		return v, nil
	}
}

func (p *eparser) parsePrimary() (Value, error) {
	p.skipWS()
	if p.pos >= len(p.src) {
		return Value{}, p.errf("unexpected end of expression")
	}
	c := p.src[p.pos]
	switch {
	case c == '"' || c == '\'':
		return p.parseString(c)
	case c == '{':
		return p.parseDict()
	case c == '(':
		p.pos++
		v, err := p.parseConcat()
		if err != nil {
			return Value{}, err
		}
		p.skipWS()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return Value{}, p.errf("expected )")
		}
		p.pos++
		return v, nil
	default:
		return p.parseNameOrCall()
	}
}

func (p *eparser) parseString(quote byte) (Value, error) {
	p.pos++
	var sb strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '\\' && p.pos+1 < len(p.src) {
			next := p.src[p.pos+1]
			switch next {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '"', '\'':
				sb.WriteByte(next)
			default:
				sb.WriteByte('\\')
				sb.WriteByte(next)
			}
			p.pos += 2
			continue
		}
		if c == quote {
			p.pos++
			return Value{Str: sb.String()}, nil
		}
		sb.WriteByte(c)
		p.pos++
	}
	return Value{}, p.errf("unterminated string")
}

func (p *eparser) parseDict() (Value, error) {
	p.pos++ // {
	d := map[string]string{}
	for {
		p.skipWS()
		if p.pos < len(p.src) && p.src[p.pos] == '}' {
			p.pos++
			return Value{Dict: d, IsDict: true}, nil
		}
		key, err := p.parseConcat()
		if err != nil {
			return Value{}, err
		}
		p.skipWS()
		if p.pos >= len(p.src) || p.src[p.pos] != ':' {
			return Value{}, p.errf("expected : in dictionary")
		}
		p.pos++
		val, err := p.parseConcat()
		if err != nil {
			return Value{}, err
		}
		if key.IsDict || val.IsDict {
			return Value{}, p.errf("nested dictionaries unsupported")
		}
		d[key.Str] = val.Str
		p.skipWS()
		if p.pos < len(p.src) && p.src[p.pos] == ',' {
			p.pos++
			continue
		}
	}
}

func (p *eparser) parseNameOrCall() (Value, error) {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			p.pos++
			continue
		}
		break
	}
	name := p.src[start:p.pos]
	if name == "" {
		return Value{}, p.errf("unexpected character %q", string(p.src[p.pos]))
	}
	p.skipWS()
	// call?
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		var args []Value
		for {
			p.skipWS()
			if p.pos < len(p.src) && p.src[p.pos] == ')' {
				p.pos++
				break
			}
			a, err := p.parseConcat()
			if err != nil {
				return Value{}, err
			}
			args = append(args, a)
			p.skipWS()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
			}
		}
		return p.call(name, args)
	}
	return p.lookup(name)
}

func (p *eparser) call(name string, args []Value) (Value, error) {
	one := func() (string, error) {
		if len(args) != 1 || args[0].IsDict {
			return "", p.errf("%s expects one string argument", name)
		}
		return args[0].Str, nil
	}
	switch name {
	case "cocci.make_ident":
		s, err := one()
		return Value{Str: s, Tag: "ident"}, err
	case "cocci.make_type":
		s, err := one()
		return Value{Str: s, Tag: "type"}, err
	case "cocci.make_pragmainfo":
		s, err := one()
		return Value{Str: s, Tag: "pragmainfo"}, err
	case "cocci.make_expr":
		s, err := one()
		return Value{Str: s, Tag: "expr"}, err
	case "str":
		s, err := one()
		return Value{Str: s}, err
	case "len":
		if len(args) != 1 {
			return Value{}, p.errf("len expects one argument")
		}
		if args[0].IsDict {
			return Value{Str: itoa(len(args[0].Dict))}, nil
		}
		return Value{Str: itoa(len(args[0].Str))}, nil
	}
	return Value{}, p.errf("unsupported function %q", name)
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func (p *eparser) lookup(name string) (Value, error) {
	// coccinelle.X reads back an output being built
	if strings.HasPrefix(name, "coccinelle.") {
		if v, ok := p.outputs[strings.TrimPrefix(name, "coccinelle.")]; ok {
			return v, nil
		}
		return Value{}, p.errf("unbound output %q", name)
	}
	if v, ok := p.locals[name]; ok {
		return Value{Str: v}, nil
	}
	if v, ok := p.in.globals[name]; ok {
		return v, nil
	}
	return Value{}, p.errf("unbound name %q", name)
}
