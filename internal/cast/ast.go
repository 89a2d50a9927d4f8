// Package cast defines the abstract syntax tree for the C/C++ dialect
// understood by the semantic patch engine. Every node records the span of
// tokens it covers in the underlying token file, which is what makes exact,
// token-level transformations possible: the engine edits token ranges, never
// re-prints whole trees.
//
// The same node set also represents SmPL patterns. Pattern-only nodes
// (metavariables, dots, disjunctions, conjunctions) carry the Meta* prefix or
// are documented as pattern-only; they never appear in trees parsed from
// plain C/C++ sources.
package cast

import "repro/internal/ctoken"

// Node is implemented by all AST nodes.
type Node interface {
	// Span returns the inclusive token index range covered by the node.
	Span() (first, last int)
}

// span is the common embeddable token range.
type span struct{ first, last int }

func (s span) Span() (int, int) { return s.first, s.last }

// SetSpan is used by the parser to record token coverage.
func (s *span) SetSpan(first, last int) { s.first, s.last = first, last }

// NewSpan builds a span; exported for the parser and tests.
func NewSpan(first, last int) Span { return Span{span{first, last}} }

// Span is a concrete spanning helper for nodes constructed outside cparse.
type Span struct{ span }

// ---------------------------------------------------------------------------
// File and top-level declarations

// File is a parsed translation unit.
type File struct {
	Name  string
	Toks  *ctoken.File
	Decls []Decl
}

// Span covers the whole token stream, making *File usable as a Node.
func (f *File) Span() (int, int) {
	if f.Toks == nil || len(f.Toks.Tokens) == 0 {
		return 0, 0
	}
	return 0, len(f.Toks.Tokens) - 1
}

// Decl is a top-level declaration or directive.
type Decl interface {
	Node
	declNode()
}

// Include is an #include directive.
type Include struct {
	span
	Path   string // header name without delimiters
	Angled bool   // <...> vs "..."
	Raw    string // full directive text
}

// Pragma is a #pragma directive (top level or statement position).
type Pragma struct {
	span
	Raw  string   // full "#pragma ..." text
	Info string   // text after "#pragma "
	Word []string // whitespace-split Info, for directive matching
}

// PPOther is any other preprocessor directive (#define, #if, ...), kept
// opaque.
type PPOther struct {
	span
	Raw string
}

// FuncDef is a function definition or prototype.
type FuncDef struct {
	span
	Attrs  []*Attr // __attribute__((...)) specifiers, in order
	Ret    *Type
	Name   *Ident
	Params *ParamList
	Body   *Compound // nil for a prototype
}

// Attr is a GNU __attribute__((...)) specifier.
type Attr struct {
	span
	Args []Expr // the attribute expression list inside the double parens
}

// VarDecl is a variable (or typedef-like) declaration; usable at top level
// and as a statement.
type VarDecl struct {
	span
	Type  *Type
	Items []*Declarator
}

// Declarator is one declared name with its modifiers and initializer.
type Declarator struct {
	span
	Stars int // pointer depth
	Ref   bool
	Name  *Ident
	Dims  []Expr // array dimensions, nil-entry for []
	Init  Expr   // nil if none
}

// OpaqueDecl preserves a top-level construct the parser does not model
// (struct/enum/typedef definitions, templates, namespaces).
type OpaqueDecl struct {
	span
	Raw string
}

func (*Include) declNode()    {}
func (*Pragma) declNode()     {}
func (*PPOther) declNode()    {}
func (*FuncDef) declNode()    {}
func (*VarDecl) declNode()    {}
func (*OpaqueDecl) declNode() {}

// ---------------------------------------------------------------------------
// Statements

// Stmt is a statement.
type Stmt interface {
	Node
	stmtNode()
}

// Compound is a { ... } block.
type Compound struct {
	span
	Items []Stmt
}

// ExprStmt is an expression statement.
type ExprStmt struct {
	span
	X Expr
}

// DeclStmt is a declaration in statement position.
type DeclStmt struct {
	span
	D *VarDecl
}

// If statement.
type If struct {
	span
	Cond Expr
	Then Stmt
	Else Stmt // nil if absent
}

// For is a classic three-clause for loop.
type For struct {
	span
	Init Stmt // DeclStmt, ExprStmt or Empty (never nil; Empty for ';')
	Cond Expr // nil if empty
	Post Expr // nil if empty
	Body Stmt
}

// RangeFor is a C++ range-based for: for (T &x : arr) body.
type RangeFor struct {
	span
	Decl *VarDecl // declaration of the loop variable
	X    Expr     // the range expression
	Body Stmt
}

// While loop.
type While struct {
	span
	Cond Expr
	Body Stmt
}

// DoWhile loop.
type DoWhile struct {
	span
	Body Stmt
	Cond Expr
}

// Return statement.
type Return struct {
	span
	X Expr // nil if void return
}

// Break statement.
type Break struct{ span }

// Continue statement.
type Continue struct{ span }

// Goto statement.
type Goto struct {
	span
	Label string
}

// Label declaration: name: stmt.
type Label struct {
	span
	Name string
	Stmt Stmt
}

// Switch statement.
type Switch struct {
	span
	Cond Expr
	Body Stmt
}

// Case label inside a switch ("case e:" or "default:").
type Case struct {
	span
	X Expr // nil for default
}

// Empty statement (bare semicolon).
type Empty struct{ span }

// PragmaStmt wraps a #pragma appearing in statement position.
type PragmaStmt struct {
	span
	P *Pragma
}

func (*Compound) stmtNode()   {}
func (*ExprStmt) stmtNode()   {}
func (*DeclStmt) stmtNode()   {}
func (*If) stmtNode()         {}
func (*For) stmtNode()        {}
func (*RangeFor) stmtNode()   {}
func (*While) stmtNode()      {}
func (*DoWhile) stmtNode()    {}
func (*Return) stmtNode()     {}
func (*Break) stmtNode()      {}
func (*Continue) stmtNode()   {}
func (*Goto) stmtNode()       {}
func (*Label) stmtNode()      {}
func (*Switch) stmtNode()     {}
func (*Case) stmtNode()       {}
func (*Empty) stmtNode()      {}
func (*PragmaStmt) stmtNode() {}

// ---------------------------------------------------------------------------
// Expressions

// Expr is an expression.
type Expr interface {
	Node
	exprNode()
}

// Ident is an identifier use.
type Ident struct {
	span
	Name string
}

// BasicLit is a literal (int, float, char, string).
type BasicLit struct {
	span
	Kind  ctoken.Kind
	Value string
}

// ParenExpr is a parenthesized expression.
type ParenExpr struct {
	span
	X Expr
}

// UnaryExpr is a prefix or postfix unary operation.
type UnaryExpr struct {
	span
	Op      string
	X       Expr
	Postfix bool
}

// BinaryExpr is a binary operation (including assignments, which carry
// assignment operators such as "=", "+=").
type BinaryExpr struct {
	span
	X  Expr
	Op string
	Y  Expr
}

// CondExpr is the ternary conditional.
type CondExpr struct {
	span
	Cond, Then, Else Expr
}

// CallExpr is a function call.
type CallExpr struct {
	span
	Fun  Expr
	Args []Expr
}

// IndexExpr is a subscript. Under C++23, Indices may hold several
// comma-separated expressions (a[x, y, z]); otherwise exactly one.
type IndexExpr struct {
	span
	X       Expr
	Indices []Expr
}

// MemberExpr is a field access with '.' or '->' (Arrow true) or '::'.
type MemberExpr struct {
	span
	X     Expr
	Op    string // ".", "->", "::"
	Name  string
	NameT int // token index of the name
}

// CastExpr is a C-style cast.
type CastExpr struct {
	span
	Type *Type
	X    Expr
}

// SizeofExpr is sizeof(type) or sizeof expr.
type SizeofExpr struct {
	span
	Type *Type // one of Type or X set
	X    Expr
}

// CommaExpr is a comma expression sequence.
type CommaExpr struct {
	span
	List []Expr
}

// InitList is a braced initializer, kept shallow.
type InitList struct {
	span
	Elems []Expr
}

// KernelLaunch is CUDA's triple-chevron launch: k<<<cfg...>>>(args...).
type KernelLaunch struct {
	span
	Fun    Expr
	Config []Expr
	Args   []Expr
}

// LambdaExpr is a C++ lambda, modelled shallowly: capture text, parameters
// and body.
type LambdaExpr struct {
	span
	Capture string
	Params  *ParamList // may be nil
	Body    *Compound
}

// OpaqueExpr preserves an expression the parser cannot model (template-heavy
// C++, lambda macros) as a balanced token run. It appears only in code
// trees, never in patterns, and matches expression metavariables and dots.
type OpaqueExpr struct {
	span
	Raw string
}

func (*OpaqueExpr) exprNode() {}

func (*Ident) exprNode()        {}
func (*BasicLit) exprNode()     {}
func (*ParenExpr) exprNode()    {}
func (*UnaryExpr) exprNode()    {}
func (*BinaryExpr) exprNode()   {}
func (*CondExpr) exprNode()     {}
func (*CallExpr) exprNode()     {}
func (*IndexExpr) exprNode()    {}
func (*MemberExpr) exprNode()   {}
func (*CastExpr) exprNode()     {}
func (*SizeofExpr) exprNode()   {}
func (*CommaExpr) exprNode()    {}
func (*InitList) exprNode()     {}
func (*KernelLaunch) exprNode() {}
func (*LambdaExpr) exprNode()   {}

// ---------------------------------------------------------------------------
// Types and parameters

// Type is a type reference: qualifiers + base name + pointer/reference
// markers. Types the parser cannot decompose stay textual in Base.
type Type struct {
	span
	Quals []string // const, volatile, static, ...
	Base  string   // normalized base, e.g. "unsigned long", "struct particle"
	Stars int
	Ref   bool
}

func (*Type) exprNode() {} // types may appear in expression positions (sizeof, casts)

// ParamList is a function parameter list.
type ParamList struct {
	span
	Params   []*Param
	Variadic bool // trailing ", ..."
	// MetaDots marks an SmPL "(...)" parameter list wildcard pattern.
	MetaDots bool
}

// Param is one function parameter.
type Param struct {
	span
	Type *Type
	Name *Ident // may be nil (unnamed)
	// MetaName set when this param is an SmPL "parameter list" metavariable.
	MetaName string
}

// ---------------------------------------------------------------------------
// SmPL pattern-only nodes

// MetaKind enumerates metavariable kinds from SmPL declarations.
type MetaKind uint8

// Metavariable kinds.
const (
	MetaExprKind MetaKind = iota
	MetaIdentKind
	MetaTypeKind
	MetaStmtKind
	MetaConstKind
	MetaParamListKind
	MetaExprListKind
	MetaStmtListKind
	MetaPosKind
	MetaFreshIdentKind
	MetaSymbolKind
	MetaPragmaInfoKind
	MetaFuncKind
)

func (k MetaKind) String() string {
	switch k {
	case MetaExprKind:
		return "expression"
	case MetaIdentKind:
		return "identifier"
	case MetaTypeKind:
		return "type"
	case MetaStmtKind:
		return "statement"
	case MetaConstKind:
		return "constant"
	case MetaParamListKind:
		return "parameter list"
	case MetaExprListKind:
		return "expression list"
	case MetaStmtListKind:
		return "statement list"
	case MetaPosKind:
		return "position"
	case MetaFreshIdentKind:
		return "fresh identifier"
	case MetaSymbolKind:
		return "symbol"
	case MetaPragmaInfoKind:
		return "pragmainfo"
	case MetaFuncKind:
		return "function"
	}
	return "metavariable"
}

// MetaExpr is a metavariable in expression position (expression, identifier,
// constant, type metavariables used as expressions).
type MetaExpr struct {
	span
	Name string
	Kind MetaKind
	// Positions attached with @p.
	Positions []string
}

func (*MetaExpr) exprNode() {}

// MetaStmt is a statement metavariable.
type MetaStmt struct {
	span
	Name      string
	Positions []string
}

func (*MetaStmt) stmtNode() {}

// Dots is "..." in statement or expression-list position. In statement
// position the dots stand for a control-flow path, and the When* fields
// carry the full SmPL `when` constraint family governing what that path may
// traverse and how it is quantified.
type Dots struct {
	span
	// WhenNot holds "when != e" constraints: no traversed statement may
	// contain a match of e.
	WhenNot []Expr
	// WhenOnly holds "when == e" constraints: every traversed statement
	// must be a match of one of these expressions.
	WhenOnly []Expr
	// WhenAny ("when any") lifts all content constraints from the path.
	// The parser rejects combining it with WhenNot/WhenOnly.
	WhenAny bool
	// WhenStrict/WhenForall ("when strict", "when forall") require the
	// constraints to hold on every path between the surrounding anchors,
	// not just on some witness path.
	WhenStrict bool
	WhenForall bool
	// WhenExists ("when exists") names the default existential
	// quantification explicitly.
	WhenExists bool
}

func (*Dots) stmtNode() {}
func (*Dots) exprNode() {}

// DisjExpr is an escaped expression disjunction \( a \| b \).
type DisjExpr struct {
	span
	Branches []Expr
}

func (*DisjExpr) exprNode() {}

// ConjExpr is an escaped expression conjunction \( a \& b \): all operands
// must match the same code expression.
type ConjExpr struct {
	span
	Operands []Expr
}

func (*ConjExpr) exprNode() {}

// DisjStmt is a statement-level disjunction written with (, |, ) in column 0.
type DisjStmt struct {
	span
	Branches [][]Stmt
}

func (*DisjStmt) stmtNode() {}

// ConjStmt is a statement-level conjunction: branches of \( s \& s \) that
// must all match the same statement.
type ConjStmt struct {
	span
	Operands []Stmt
}

func (*ConjStmt) stmtNode() {}

// PragmaPattern matches #pragma directives in patterns: a sequence of fixed
// words, then optionally a pragmainfo metavariable or dots wildcard.
type PragmaPattern struct {
	span
	Words    []string // fixed leading words ("omp", "acc", ...)
	InfoMeta string   // pragmainfo metavariable name, "" if none
	TailDots bool     // trailing "..." wildcard
}

func (*PragmaPattern) stmtNode() {}
func (*PragmaPattern) declNode() {}

// IncludePattern matches #include directives in patterns.
type IncludePattern struct {
	span
	Path   string
	Angled bool
}

func (*IncludePattern) declNode() {}
func (*IncludePattern) stmtNode() {}
