// Package ctoken implements a lexer for the C/C++ dialect used by the
// semantic patch engine. Tokens record where their text starts in the
// source and how long it is, and the whitespace (including comments) before
// a token is the source between it and the previous one, so a token stream
// renders back to the original source byte-for-byte. The same lexer, in
// SmPL mode, tokenizes semantic patch bodies, which extend C with a handful
// of pattern operators (escaped disjunctions, metavariable positions, and
// identifier concatenation).
package ctoken

import "fmt"

// Kind classifies a token.
type Kind uint8

// Token kinds. PP is a whole preprocessor line (continuations merged).
const (
	EOF Kind = iota
	Ident
	IntLit
	FloatLit
	CharLit
	StringLit
	Punct
	PP // preprocessor directive line: #include, #pragma, #define, ...
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "Ident"
	case IntLit:
		return "IntLit"
	case FloatLit:
		return "FloatLit"
	case CharLit:
		return "CharLit"
	case StringLit:
		return "StringLit"
	case Punct:
		return "Punct"
	case PP:
		return "PP"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Pos is a source position. Its fields are 32-bit to keep Token small; Lex
// rejects sources too long for them.
type Pos struct {
	Offset int32 // byte offset in the file
	Line   int32 // 1-based line
	Col    int32 // 1-based column (bytes)
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical element: its kind, where it starts and how many bytes
// of source it spans. It holds no pointers, so building a token slice needs
// no write barriers and the garbage collector never scans one. The text and
// the whitespace and comments before the token are not stored but read from
// the file's source (File.Text, File.WS). The field order packs a Token into
// 20 bytes.
type Token struct {
	Kind Kind
	Pos  Pos
	Len  int32 // length of the text in bytes
}

// End returns the byte offset just past the token's text.
func (t *Token) End() int { return int(t.Pos.Offset) + int(t.Len) }

// File is a lexed source file. Only Lex builds one, so every token's text
// sits in Src at its offset and the tokens cover Src in order.
type File struct {
	Name   string
	Src    string
	Opts   Options // the options Src was lexed with
	Tokens []Token // always ends with an EOF token
}

// Text returns the source text of token i. It shares Src's bytes.
func (f *File) Text(i int) string {
	t := &f.Tokens[i]
	return f.Src[t.Pos.Offset : t.Pos.Offset+t.Len]
}

// Is reports whether token i is a punctuation token with the given text.
// The parser calls it for most tokens it reads, and most calls fail, so it
// compares the first byte before the rest.
func (f *File) Is(i int, text string) bool {
	t := &f.Tokens[i]
	if t.Kind != Punct || int(t.Len) != len(text) || f.Src[t.Pos.Offset] != text[0] {
		return false
	}
	return len(text) == 1 || f.Src[t.Pos.Offset+1:t.Pos.Offset+t.Len] == text[1:]
}

// IsIdent reports whether token i is an identifier with the given name.
func (f *File) IsIdent(i int, name string) bool {
	t := &f.Tokens[i]
	return t.Kind == Ident && int(t.Len) == len(name) && f.Text(i) == name
}

// WS returns the exact whitespace and comments that precede token i: the
// source between the end of token i-1 (or the start of the file) and token
// i. The EOF token's WS is the file's trailing whitespace, so concatenating
// WS(i)+Text(i) over all tokens reproduces Src.
func (f *File) WS(i int) string {
	start := 0
	if i > 0 {
		start = f.Tokens[i-1].End()
	}
	return f.Src[start:f.Tokens[i].Pos.Offset]
}

// Render reconstructs the source text of the token stream.
func (f *File) Render() string {
	buf := make([]byte, 0, len(f.Src))
	for i := range f.Tokens {
		buf = append(buf, f.WS(i)...)
		buf = append(buf, f.Text(i)...)
	}
	return string(buf)
}

// Slice returns the exact source text spanned by tokens [first, last],
// excluding the leading whitespace of the first token. It shares Src's
// bytes.
func (f *File) Slice(first, last int) string {
	if first < 0 || last >= len(f.Tokens) || first > last {
		return ""
	}
	return f.Src[f.Tokens[first].Pos.Offset:f.Tokens[last].End()]
}

// Keywords of the supported C/C++ dialect. The lexer does not give keywords a
// distinct kind (they stay Ident); the parser consults this set.
var Keywords = map[string]bool{
	"auto": true, "break": true, "case": true, "char": true, "const": true,
	"continue": true, "default": true, "do": true, "double": true,
	"else": true, "enum": true, "extern": true, "float": true, "for": true,
	"goto": true, "if": true, "inline": true, "int": true, "long": true,
	"register": true, "restrict": true, "return": true, "short": true,
	"signed": true, "sizeof": true, "static": true, "struct": true,
	"switch": true, "typedef": true, "union": true, "unsigned": true,
	"void": true, "volatile": true, "while": true,
	// C++ additions we recognize
	"bool": true, "true": true, "false": true, "class": true, "new": true,
	"delete": true, "namespace": true, "template": true, "typename": true,
	"using": true, "nullptr": true, "constexpr": true, "operator": true,
	"public": true, "private": true, "protected": true,
	// CUDA qualifiers
	"__global__": true, "__device__": true, "__host__": true, "__shared__": true,
}

// TypeKeywords are keywords that can begin a type.
var TypeKeywords = map[string]bool{
	"void": true, "char": true, "short": true, "int": true, "long": true,
	"float": true, "double": true, "signed": true, "unsigned": true,
	"bool": true, "const": true, "volatile": true, "struct": true,
	"union": true, "enum": true, "auto": true, "register": true,
	"static": true, "extern": true, "inline": true, "restrict": true,
	"typename": true, "constexpr": true,
}
