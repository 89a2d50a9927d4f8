// Package smpl parses semantic patches written in the Semantic Patch
// Language (SmPL) of Coccinelle: rules delimited by @name@ ... @@ headers,
// metavariable declarations, transformation bodies annotated with - and +
// line marks, script rules bound to a restricted Python interpreter, rule
// dependencies, and cross-rule metavariable inheritance.
package smpl

import (
	"fmt"
	"regexp"

	"repro/internal/cast"
	"repro/internal/ctoken"
)

// Patch is a parsed semantic patch file.
type Patch struct {
	Name string
	// Src is the raw patch text the rules were parsed from; the persistent
	// result cache keys on its content hash, so editing a patch invalidates
	// every result cached under it.
	Src   string
	Rules []*Rule
	// Virtuals are names declared with `virtual x;` at the top of the
	// patch: dependency atoms whose truth the caller sets (like spatch -D).
	Virtuals []string
}

// HasChecks reports whether any rule of the patch is a match-only check
// rule — the patches `gocci --check` runs.
func (p *Patch) HasChecks() bool {
	for _, r := range p.Rules {
		if r.IsCheck() {
			return true
		}
	}
	return false
}

// RuleKind discriminates rule flavours.
type RuleKind uint8

// Rule kinds.
const (
	MatchRule RuleKind = iota
	ScriptRule
	InitializeRule
	FinalizeRule
)

func (k RuleKind) String() string {
	switch k {
	case MatchRule:
		return "match"
	case ScriptRule:
		return "script"
	case InitializeRule:
		return "initialize"
	case FinalizeRule:
		return "finalize"
	}
	return "?"
}

// Rule is one SmPL rule.
type Rule struct {
	Name    string
	Kind    RuleKind
	Lang    string // script language ("python", "go")
	Depends *DepExpr
	Metas   []*MetaDecl
	// Typedefs are the names declared with `typedef NAME;`: type names,
	// not metavariables. A body that is one of them alone is a type
	// pattern.
	Typedefs []string

	// Check is the `// gocci:check` metadata header preceding the rule, nil
	// for ordinary rules. A rule carrying one is match-only: it reports
	// findings and never rewrites.
	Check *CheckMeta

	// Match rules.
	Body    string // raw body text (with -/+/* marks)
	Pattern *Pattern

	// Script rules.
	Inputs  []ScriptInput
	Outputs []string
	Code    string
}

// CheckMeta is the metadata of one check rule, written as a
// `// gocci:check id=... severity=... msg="..."` comment line immediately
// before the rule header. Msg may reference the rule's metavariables; the
// engine interpolates their bound text into the reported message.
type CheckMeta struct {
	ID       string
	Severity string // "error", "warning", or "info"
	Msg      string
}

// IsCheck reports whether the rule is a match-only check rule: it carries
// check metadata, or its body contains `*` star-lines. Check rules match
// and report but never transform.
func (r *Rule) IsCheck() bool {
	if r.Kind != MatchRule {
		return false
	}
	if r.Check != nil {
		return true
	}
	return r.Pattern != nil && r.Pattern.HasStar
}

// ScriptInput is one `local << rule.remote;` binding of a script rule.
type ScriptInput struct {
	Local  string
	Rule   string
	Remote string
}

// MetaDecl declares one metavariable.
type MetaDecl struct {
	Kind  cast.MetaKind
	Name  string // local name
	Rule  string // owning rule name (set by the parser)
	Regex *regexp.Regexp
	// Values restricts constants/identifiers to an explicit set, e.g.
	// constant k={4}; or identifier c = {i,j};.
	Values []string
	// Fresh identifier construction: literal and reference parts joined by ##.
	Fresh []FreshPart
	// FromRule marks an inherited metavariable (`type c.T;` binds local T
	// from rule c).
	FromRule string
	// RemoteName is the name in the source rule (usually same as Name).
	RemoteName string
}

// FreshPart is one component of a fresh identifier seed.
type FreshPart struct {
	Lit string // literal text, or
	Ref string // metavariable reference
}

// DepExpr is a rule dependency expression: name, !name, conjunction,
// disjunction.
type DepExpr struct {
	Name    string
	Not     bool
	And, Or []*DepExpr
}

// Eval evaluates the dependency against the set of rules that matched.
func (d *DepExpr) Eval(matched map[string]bool) bool {
	if d == nil {
		return true
	}
	if len(d.And) > 0 {
		for _, c := range d.And {
			if !c.Eval(matched) {
				return false
			}
		}
		return true
	}
	if len(d.Or) > 0 {
		for _, c := range d.Or {
			if c.Eval(matched) {
				return true
			}
		}
		return false
	}
	ok := matched[d.Name]
	if d.Not {
		return !ok
	}
	return ok
}

// Mark classifies a body line.
type Mark uint8

// Line marks.
const (
	Ctx Mark = iota
	Minus
	Plus
	// Star marks Coccinelle context-mode lines (`*` in column 0): the line
	// participates in matching exactly like a context line, but flags the
	// rule as match-only and its tokens as report anchors.
	Star
)

// PlusBlock is a group of consecutive + lines with its anchor in the
// minus-slice.
type PlusBlock struct {
	// AnchorLine is the 0-based body line index of the nearest preceding
	// non-plus line; -1 if the block starts the body.
	AnchorLine int
	// FollowLine is the 0-based body line index of the nearest following
	// non-plus line; -1 if the block ends the body.
	FollowLine int
	// Text lines with the leading '+' stripped.
	Text []string
}

// PatternKind classifies what a rule body matches.
type PatternKind uint8

// Pattern kinds.
const (
	ExprPattern PatternKind = iota
	StmtSeqPattern
	DeclPattern
	// TypePattern is a body that is a lone `typedef` name: it matches the
	// base-name token of every type built on that name, whatever its
	// pointer depth and qualifiers.
	TypePattern
)

func (k PatternKind) String() string {
	switch k {
	case ExprPattern:
		return "expression"
	case StmtSeqPattern:
		return "statements"
	case DeclPattern:
		return "declarations"
	case TypePattern:
		return "type"
	}
	return "?"
}

// Pattern is a compiled rule body.
type Pattern struct {
	Kind  PatternKind
	Expr  cast.Expr
	Stmts []cast.Stmt
	Decls []cast.Decl
	Type  *cast.Type // TypePattern only
	// Toks is the lexed minus-slice; pattern node spans index into it.
	Toks *ctoken.File
	// LineMarks maps 0-based body line index to its mark.
	LineMarks []Mark
	// Plus blocks anchored to body lines.
	PlusBlocks []PlusBlock
	// HasTransform is true when the body contains - or + lines.
	HasTransform bool
	// HasStar is true when the body contains `*` star-lines (context mode).
	// Star-lines and transform lines are mutually exclusive per rule.
	HasStar bool
}

// TokenMark returns the mark of the body line on which pattern token i sits.
func (p *Pattern) TokenMark(i int) Mark {
	if i < 0 || i >= len(p.Toks.Tokens) {
		return Ctx
	}
	line := int(p.Toks.Tokens[i].Pos.Line) - 1
	if line < 0 || line >= len(p.LineMarks) {
		return Ctx
	}
	return p.LineMarks[line]
}

// FirstStarToken returns the index of the first pattern token sitting on a
// star-line, or -1 when the body has none. It is the default report anchor
// of a check rule without position metavariables.
func (p *Pattern) FirstStarToken() int {
	if !p.HasStar || p.Toks == nil {
		return -1
	}
	for i := range p.Toks.Tokens {
		if p.TokenMark(i) == Star {
			return i
		}
	}
	return -1
}

// MetaTable implements cparse.MetaTable over a rule's declarations.
type MetaTable struct {
	byName map[string]*MetaDecl
}

// NewMetaTable builds the lookup table for a declaration list.
func NewMetaTable(decls []*MetaDecl) *MetaTable {
	t := &MetaTable{byName: map[string]*MetaDecl{}}
	for _, d := range decls {
		t.byName[d.Name] = d
	}
	return t
}

// Lookup resolves a metavariable name to its kind.
func (t *MetaTable) Lookup(name string) (cast.MetaKind, bool) {
	d, ok := t.byName[name]
	if !ok {
		return 0, false
	}
	return d.Kind, true
}

// Decl returns the full declaration for a name.
func (t *MetaTable) Decl(name string) (*MetaDecl, bool) {
	d, ok := t.byName[name]
	return d, ok
}

// A SyntaxError reports a malformed semantic patch.
type SyntaxError struct {
	File string
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}
