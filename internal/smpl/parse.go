package smpl

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/cast"
)

// checkPrefix introduces a check metadata header comment line.
const checkPrefix = "// gocci:check"

// ParsePatch parses the text of a .cocci semantic patch file.
func ParsePatch(name, text string) (*Patch, error) {
	p := &Patch{Name: name, Src: text}
	lines := strings.Split(text, "\n")
	i := 0
	anon := 0
	var pendingCheck *CheckMeta
	for i < len(lines) {
		line := strings.TrimSpace(lines[i])
		if isCheckLine(line) {
			if pendingCheck != nil {
				return nil, &SyntaxError{File: name, Line: i + 1, Msg: "duplicate gocci:check header; one per rule"}
			}
			cm, err := parseCheckHeader(name, i+1, line)
			if err != nil {
				return nil, err
			}
			pendingCheck = cm
			i++
			continue
		}
		if line == "" || strings.HasPrefix(line, "//") || strings.HasPrefix(line, "#") {
			// blank, comment, or a "#spatch --c++" option line between rules
			i++
			continue
		}
		// Top-level virtual rule declarations: names settable from the
		// command line / engine options that dependencies can test, the
		// mechanism behind conditionally triggered patches (the paper's
		// compiler-bug workaround is enabled per compiler version this way).
		if strings.HasPrefix(line, "virtual ") || line == "virtual" {
			rest := strings.TrimSpace(strings.TrimPrefix(line, "virtual"))
			for _, n := range strings.Split(rest, ",") {
				n = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(n), ";"))
				if n != "" {
					p.Virtuals = append(p.Virtuals, n)
				}
			}
			i++
			continue
		}
		if !strings.HasPrefix(line, "@") {
			return nil, &SyntaxError{File: name, Line: i + 1, Msg: fmt.Sprintf("expected rule header, found %q", line)}
		}
		rule, next, err := parseRule(name, lines, i, &anon)
		if err != nil {
			return nil, err
		}
		for _, m := range rule.Metas {
			m.Rule = rule.Name
		}
		if pendingCheck != nil {
			if rule.Kind != MatchRule {
				return nil, &SyntaxError{File: name, Line: i + 1,
					Msg: "gocci:check header must precede a match rule, not a " + rule.Kind.String() + " rule"}
			}
			rule.Check = pendingCheck
			pendingCheck = nil
		}
		p.Rules = append(p.Rules, rule)
		i = next
	}
	if pendingCheck != nil {
		return nil, &SyntaxError{File: name, Line: len(lines), Msg: "gocci:check header with no rule following it"}
	}
	if len(p.Rules) == 0 {
		return nil, &SyntaxError{File: name, Line: 1, Msg: "no rules found"}
	}
	// Compile match rule bodies.
	for _, r := range p.Rules {
		if r.Kind != MatchRule {
			continue
		}
		pat, err := CompileBody(name, r)
		if err != nil {
			return nil, err
		}
		r.Pattern = pat
		if r.Check != nil && pat.HasTransform {
			return nil, &SyntaxError{File: name,
				Msg: "rule " + r.Name + " carries a gocci:check header but has -/+ transform lines; check rules are match-only"}
		}
	}
	return p, nil
}

// isCheckLine recognizes a `// gocci:check ...` metadata header comment.
func isCheckLine(l string) bool {
	return l == checkPrefix || strings.HasPrefix(l, checkPrefix+" ")
}

// parseCheckHeader parses `// gocci:check id=... severity=... msg="..."`.
// Fields may appear in any order; id is required, severity defaults to
// "warning", msg to "" (the engine then synthesizes a message).
func parseCheckHeader(file string, lineNo int, line string) (*CheckMeta, error) {
	cm := &CheckMeta{Severity: "warning"}
	rest := strings.TrimSpace(strings.TrimPrefix(line, checkPrefix))
	for rest != "" {
		eq := strings.Index(rest, "=")
		if eq <= 0 {
			return nil, &SyntaxError{File: file, Line: lineNo, Msg: fmt.Sprintf("malformed gocci:check field %q (want key=value)", rest)}
		}
		key := strings.TrimSpace(rest[:eq])
		rest = rest[eq+1:]
		var val string
		if strings.HasPrefix(rest, `"`) {
			// Quoted value: find the closing quote, honoring escapes.
			end := -1
			for j := 1; j < len(rest); j++ {
				if rest[j] == '\\' {
					j++
					continue
				}
				if rest[j] == '"' {
					end = j
					break
				}
			}
			if end < 0 {
				return nil, &SyntaxError{File: file, Line: lineNo, Msg: "unterminated quoted value in gocci:check header"}
			}
			uq, err := strconv.Unquote(rest[:end+1])
			if err != nil {
				return nil, &SyntaxError{File: file, Line: lineNo, Msg: fmt.Sprintf("bad quoted value in gocci:check header: %v", err)}
			}
			val = uq
			rest = strings.TrimSpace(rest[end+1:])
		} else {
			sp := strings.IndexAny(rest, " \t")
			if sp < 0 {
				val, rest = rest, ""
			} else {
				val, rest = rest[:sp], strings.TrimSpace(rest[sp+1:])
			}
		}
		switch key {
		case "id":
			cm.ID = val
		case "severity":
			switch val {
			case "error", "warning", "info":
				cm.Severity = val
			default:
				return nil, &SyntaxError{File: file, Line: lineNo,
					Msg: fmt.Sprintf("gocci:check severity %q is not error, warning, or info", val)}
			}
		case "msg":
			cm.Msg = val
		default:
			return nil, &SyntaxError{File: file, Line: lineNo, Msg: fmt.Sprintf("unknown gocci:check field %q", key)}
		}
	}
	if cm.ID == "" {
		return nil, &SyntaxError{File: file, Line: lineNo, Msg: "gocci:check header is missing id="}
	}
	if !checkIDRe.MatchString(cm.ID) {
		return nil, &SyntaxError{File: file, Line: lineNo,
			Msg: fmt.Sprintf("gocci:check id %q may only contain letters, digits, '.', '_', and '-'", cm.ID)}
	}
	return cm, nil
}

// checkIDRe bounds check ids to SARIF-friendly rule-id characters; the
// renderer prints ids unquoted, so spaces and '=' must stay out.
var checkIDRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// parseRule parses one rule starting at line i; returns the rule and the
// index of the first line after its body.
func parseRule(file string, lines []string, i int, anon *int) (*Rule, int, error) {
	header := strings.TrimSpace(lines[i])
	// header: @NAME@ [rest-of-line may contain @@]
	if len(header) < 2 || header[0] != '@' {
		return nil, 0, &SyntaxError{File: file, Line: i + 1, Msg: "malformed rule header"}
	}
	close1 := strings.Index(header[1:], "@")
	if close1 < 0 {
		return nil, 0, &SyntaxError{File: file, Line: i + 1, Msg: "unterminated rule header"}
	}
	headText := header[1 : 1+close1]
	rest := strings.TrimSpace(header[2+close1:])

	r := &Rule{Kind: MatchRule}
	if err := parseHeader(file, i+1, headText, r); err != nil {
		return nil, 0, err
	}
	if r.Name == "" {
		*anon++
		r.Name = fmt.Sprintf("rule%d", *anon)
	}

	// Declaration section: until a "@@" delimiter.
	var declLines []string
	i++
	if rest == "@@" {
		// inline empty declaration section: "@x@ @@"
	} else if rest != "" {
		return nil, 0, &SyntaxError{File: file, Line: i, Msg: fmt.Sprintf("unexpected text after header: %q", rest)}
	} else {
		for {
			if i >= len(lines) {
				return nil, 0, &SyntaxError{File: file, Line: i, Msg: "unterminated metavariable section"}
			}
			l := strings.TrimSpace(lines[i])
			if l == "@@" {
				i++
				break
			}
			declLines = append(declLines, lines[i])
			i++
		}
	}
	if err := parseDecls(file, declLines, r); err != nil {
		return nil, 0, err
	}

	// Body: until the next rule header line (or the gocci:check header of
	// the next rule) or EOF.
	var body []string
	for i < len(lines) {
		t := strings.TrimSpace(lines[i])
		if strings.HasPrefix(t, "@") && isHeaderLine(t) {
			break
		}
		if isCheckLine(t) {
			break
		}
		body = append(body, lines[i])
		i++
	}
	// Trim trailing blank lines.
	for len(body) > 0 && strings.TrimSpace(body[len(body)-1]) == "" {
		body = body[:len(body)-1]
	}
	raw := strings.Join(body, "\n")
	if r.Kind == MatchRule {
		r.Body = raw
	} else {
		r.Code = raw
	}
	return r, i, nil
}

// isHeaderLine recognizes "@...@" and "@...@ @@" shapes.
func isHeaderLine(l string) bool {
	if !strings.HasPrefix(l, "@") || len(l) < 2 {
		return false
	}
	close1 := strings.Index(l[1:], "@")
	if close1 < 0 {
		return false
	}
	rest := strings.TrimSpace(l[2+close1:])
	return rest == "" || rest == "@@"
}

// parseHeader interprets the text between the first pair of @s.
func parseHeader(file string, lineNo int, head string, r *Rule) error {
	head = strings.TrimSpace(head)
	switch {
	case strings.HasPrefix(head, "script:"):
		r.Kind = ScriptRule
		rest := strings.TrimPrefix(head, "script:")
		parts := strings.Fields(rest)
		if len(parts) == 0 {
			return &SyntaxError{File: file, Line: lineNo, Msg: "script rule missing language"}
		}
		r.Lang = parts[0]
		parts = parts[1:]
		if len(parts) > 0 && parts[0] != "depends" {
			r.Name = parts[0]
			parts = parts[1:]
		}
		return parseDependsTail(file, lineNo, parts, r)
	case strings.HasPrefix(head, "initialize:"):
		r.Kind = InitializeRule
		r.Lang = strings.TrimSpace(strings.TrimPrefix(head, "initialize:"))
		return nil
	case strings.HasPrefix(head, "finalize:"):
		r.Kind = FinalizeRule
		r.Lang = strings.TrimSpace(strings.TrimPrefix(head, "finalize:"))
		return nil
	default:
		parts := strings.Fields(head)
		if len(parts) > 0 && parts[0] != "depends" {
			r.Name = parts[0]
			parts = parts[1:]
		}
		return parseDependsTail(file, lineNo, parts, r)
	}
}

func parseDependsTail(file string, lineNo int, parts []string, r *Rule) error {
	if len(parts) == 0 {
		return nil
	}
	if parts[0] != "depends" || len(parts) < 3 || parts[1] != "on" {
		return &SyntaxError{File: file, Line: lineNo, Msg: fmt.Sprintf("malformed rule header tail: %v", parts)}
	}
	dep, err := parseDepExpr(strings.Join(parts[2:], " "))
	if err != nil {
		return &SyntaxError{File: file, Line: lineNo, Msg: err.Error()}
	}
	r.Depends = dep
	return nil
}

// parseDepExpr parses "a && b", "a || b", "!a", "a".
func parseDepExpr(s string) (*DepExpr, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("empty dependency expression")
	}
	if parts := splitTop(s, "||"); len(parts) > 1 {
		d := &DepExpr{}
		for _, p := range parts {
			c, err := parseDepExpr(p)
			if err != nil {
				return nil, err
			}
			d.Or = append(d.Or, c)
		}
		return d, nil
	}
	if parts := splitTop(s, "&&"); len(parts) > 1 {
		d := &DepExpr{}
		for _, p := range parts {
			c, err := parseDepExpr(p)
			if err != nil {
				return nil, err
			}
			d.And = append(d.And, c)
		}
		return d, nil
	}
	if strings.HasPrefix(s, "!") {
		return &DepExpr{Name: strings.TrimSpace(s[1:]), Not: true}, nil
	}
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")") {
		return parseDepExpr(s[1 : len(s)-1])
	}
	if !identRe.MatchString(s) {
		return nil, fmt.Errorf("bad dependency name %q", s)
	}
	return &DepExpr{Name: s}, nil
}

var identRe = regexp.MustCompile(`^[A-Za-z_][A-Za-z_0-9]*$`)

func splitTop(s, sep string) []string {
	depth := 0
	var parts []string
	last := 0
	for i := 0; i+len(sep) <= len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		}
		if depth == 0 && s[i:i+len(sep)] == sep {
			parts = append(parts, s[last:i])
			last = i + len(sep)
		}
	}
	parts = append(parts, s[last:])
	if len(parts) == 1 {
		return parts
	}
	return parts
}

// parseDecls parses the metavariable declaration section (or script I/O
// bindings for script rules).
func parseDecls(file string, declLines []string, r *Rule) error {
	text := strings.Join(declLines, "\n")
	// Split on ';' at top level.
	var stmts []string
	depth := 0
	last := 0
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '{', '(', '[':
			depth++
		case '}', ')', ']':
			depth--
		case '"':
			// skip string literal
			for i++; i < len(text) && text[i] != '"'; i++ {
				if text[i] == '\\' {
					i++
				}
			}
		case ';':
			if depth == 0 {
				stmts = append(stmts, text[last:i])
				last = i + 1
			}
		}
	}
	if rest := strings.TrimSpace(text[last:]); rest != "" {
		return &SyntaxError{File: file, Line: 0, Msg: fmt.Sprintf("unterminated declaration %q", rest)}
	}
	for _, st := range stmts {
		st = strings.TrimSpace(st)
		if st == "" || strings.HasPrefix(st, "//") {
			continue
		}
		if r.Kind == ScriptRule || r.Kind == InitializeRule || r.Kind == FinalizeRule {
			if err := parseScriptDecl(file, st, r); err != nil {
				return err
			}
			continue
		}
		if err := parseMetaDecl(file, st, r); err != nil {
			return err
		}
	}
	return nil
}

// parseScriptDecl handles `local << rule.remote;` and bare output names.
func parseScriptDecl(file, st string, r *Rule) error {
	if idx := strings.Index(st, "<<"); idx >= 0 {
		local := strings.TrimSpace(st[:idx])
		src := strings.TrimSpace(st[idx+2:])
		dot := strings.Index(src, ".")
		if dot < 0 {
			return &SyntaxError{File: file, Msg: fmt.Sprintf("script input %q must be rule.name", st)}
		}
		r.Inputs = append(r.Inputs, ScriptInput{Local: local, Rule: src[:dot], Remote: src[dot+1:]})
		return nil
	}
	name := strings.TrimSpace(st)
	if !identRe.MatchString(name) {
		return &SyntaxError{File: file, Msg: fmt.Sprintf("bad script output name %q", name)}
	}
	r.Outputs = append(r.Outputs, name)
	return nil
}

// metaKindWords maps leading keywords to metavariable kinds, longest phrase
// first.
var metaKindWords = []struct {
	words string
	kind  cast.MetaKind
}{
	{"fresh identifier", cast.MetaFreshIdentKind},
	{"parameter list", cast.MetaParamListKind},
	{"expression list", cast.MetaExprListKind},
	{"statement list", cast.MetaStmtListKind},
	{"identifier", cast.MetaIdentKind},
	{"expression", cast.MetaExprKind},
	{"statement", cast.MetaStmtKind},
	{"constant", cast.MetaConstKind},
	{"parameter", cast.MetaParamListKind},
	{"position", cast.MetaPosKind},
	{"pragmainfo", cast.MetaPragmaInfoKind},
	{"function", cast.MetaFuncKind},
	{"symbol", cast.MetaSymbolKind},
	{"type", cast.MetaTypeKind},
}

// parseMetaDecl parses one metavariable declaration statement, or a
// `typedef NAME[, NAME];` type-name declaration.
func parseMetaDecl(file, st string, r *Rule) error {
	if names, ok := strings.CutPrefix(st, "typedef "); ok {
		for _, name := range splitDeclarators(names) {
			name = strings.TrimSpace(name)
			if !identRe.MatchString(name) {
				return &SyntaxError{File: file, Msg: fmt.Sprintf("bad typedef name %q", name)}
			}
			r.Typedefs = append(r.Typedefs, name)
		}
		return nil
	}
	var kind cast.MetaKind
	found := false
	for _, kw := range metaKindWords {
		if strings.HasPrefix(st, kw.words+" ") || st == kw.words {
			kind = kw.kind
			st = strings.TrimSpace(strings.TrimPrefix(st, kw.words))
			found = true
			break
		}
	}
	if !found {
		return &SyntaxError{File: file, Msg: fmt.Sprintf("unknown metavariable kind in %q", st)}
	}
	// Comma-split declarators at top level (respects {..} and "..").
	for _, decl := range splitDeclarators(st) {
		decl = strings.TrimSpace(decl)
		if decl == "" {
			continue
		}
		md, err := parseOneMeta(file, kind, decl)
		if err != nil {
			return err
		}
		r.Metas = append(r.Metas, md)
	}
	return nil
}

func splitDeclarators(s string) []string {
	var parts []string
	depth := 0
	last := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{', '(', '[':
			depth++
		case '}', ')', ']':
			depth--
		case '"':
			for i++; i < len(s) && s[i] != '"'; i++ {
				if s[i] == '\\' {
					i++
				}
			}
		case ',':
			if depth == 0 {
				parts = append(parts, s[last:i])
				last = i + 1
			}
		}
	}
	parts = append(parts, s[last:])
	return parts
}

// parseOneMeta parses one declarator: NAME, rule.NAME, NAME =~ "re",
// NAME = {a,b}, NAME = "lit" ## ref.
func parseOneMeta(file string, kind cast.MetaKind, decl string) (*MetaDecl, error) {
	md := &MetaDecl{Kind: kind}
	name := decl
	rest := ""
	if i := strings.Index(decl, "=~"); i >= 0 {
		name = strings.TrimSpace(decl[:i])
		reStr := strings.TrimSpace(decl[i+2:])
		reStr = strings.Trim(reStr, `"`)
		re, err := regexp.Compile(reStr)
		if err != nil {
			return nil, &SyntaxError{File: file, Msg: fmt.Sprintf("bad regex in %q: %v", decl, err)}
		}
		md.Regex = re
	} else if i := strings.Index(decl, "="); i >= 0 {
		name = strings.TrimSpace(decl[:i])
		rest = strings.TrimSpace(decl[i+1:])
	}
	name = strings.TrimSpace(name)

	// Inherited metavariable: rule.name declares local `name`.
	if dot := strings.Index(name, "."); dot >= 0 {
		md.FromRule = name[:dot]
		md.RemoteName = name[dot+1:]
		md.Name = name[dot+1:]
	} else {
		md.Name = name
		md.RemoteName = name
	}
	if !identRe.MatchString(md.Name) {
		return nil, &SyntaxError{File: file, Msg: fmt.Sprintf("bad metavariable name %q", name)}
	}

	if rest == "" {
		return md, nil
	}
	if strings.HasPrefix(rest, "{") {
		if !strings.HasSuffix(rest, "}") {
			return nil, &SyntaxError{File: file, Msg: fmt.Sprintf("unterminated value set in %q", decl)}
		}
		inner := rest[1 : len(rest)-1]
		for _, v := range strings.Split(inner, ",") {
			v = strings.TrimSpace(v)
			v = strings.Trim(v, `"`)
			if v != "" {
				md.Values = append(md.Values, v)
			}
		}
		return md, nil
	}
	if kind == cast.MetaFreshIdentKind {
		for _, part := range strings.Split(rest, "##") {
			part = strings.TrimSpace(part)
			if strings.HasPrefix(part, `"`) {
				md.Fresh = append(md.Fresh, FreshPart{Lit: strings.Trim(part, `"`)})
			} else if part != "" {
				md.Fresh = append(md.Fresh, FreshPart{Ref: part})
			}
		}
		return md, nil
	}
	return nil, &SyntaxError{File: file, Msg: fmt.Sprintf("unsupported metavariable initializer %q", decl)}
}
