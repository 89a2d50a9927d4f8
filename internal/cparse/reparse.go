package cparse

import (
	"sort"

	"repro/internal/cast"
	"repro/internal/ctoken"
)

// Prior is an earlier parse that Reparse may draw on.
type Prior struct {
	// File is the parse of the text the edit started from.
	File *cast.File
	// Edited lists the token indices of File that the edit deleted or
	// anchored an insertion on, in any order. Only a top-level declaration
	// holding none of them is a candidate for reuse.
	Edited []int
	// Inserted is the number of bytes the edit inserted. With File's token
	// count it sizes the re-lex's token slice.
	Inserted int
	// Owned lets Reparse shift reused declarations in place, which leaves
	// File unusable. Set it only when nothing else holds File.
	Owned bool
}

// Reparse parses src, the text an edit made from prior.File's source, and
// returns exactly the tree, or the error, Parse returns. It counts as one
// parse in Parses, and reports how many top-level declarations it took
// from prior.File instead of parsing them.
//
// It lexes src whole, then rebuilds the declaration list in order. Where
// the parser stands on the tokens of the next untouched declaration of
// prior.File, it takes that declaration with its token indices shifted;
// anywhere else it parses one declaration. This is exact because the
// parser keeps no state across top-level declarations: what parseTopDecl
// builds at a position depends only on the options and on the tokens from
// there to the declaration's end, or one past it for the declarations
// whose parse looks there (readsPast: an opaque struct definition looks
// for a trailing ';'). So a declaration is taken only when those tokens
// match its old ones by kind and text, and only under the same lexer
// options (a CUDA rewrite can remove a file's last "<<<"). The bytes
// between its tokens must match too, since opaque nodes keep them. A plus
// line that opens a comment or a string changes the tokens after it, so
// the declarations there are parsed afresh.
func Reparse(name, src string, opts Options, prior Prior) (*cast.File, int, error) {
	old := prior.File
	if opts.pattern() || old == nil {
		f, err := Parse(name, src, opts)
		return f, 0, err
	}
	parses.Add(1)
	lf, err := ctoken.LexSized(name, src, lexOptions(src, opts), len(old.Toks.Tokens)+prior.Inserted+1)
	if err != nil {
		return nil, 0, err
	}
	if lf.Opts != old.Toks.Opts || !tiles(old) {
		f, err := ParseTokens(lf, opts)
		return f, 0, err
	}
	touched := make([]bool, len(old.Decls))
	for _, t := range prior.Edited {
		if k := declAt(old.Decls, t); k >= 0 {
			touched[k] = true
		}
	}

	p := &parser{toks: lf.Tokens, file: lf, opts: opts}
	f := &cast.File{Name: lf.Name, Toks: lf, Decls: make([]cast.Decl, 0, len(old.Decls))}
	reused := 0
	next := 0 // the next old declaration that may be taken
	for !p.at(ctoken.EOF) {
		for next < len(old.Decls) && touched[next] {
			next++
		}
		if next < len(old.Decls) {
			d := old.Decls[next]
			first, last := d.Span()
			if sameRun(old.Toks, first, last, lf, p.pos) {
				after := p.pos + last - first + 1
				next++
				if !readsPast(old.Toks, d) || sameToken(old.Toks, last+1, lf, after) {
					f.Decls = append(f.Decls, cast.ShiftDecl(d, p.pos-first, !prior.Owned))
					p.pos = after
					reused++
					continue
				}
				// The declaration is here but the token after it changed,
				// and its parse may have looked at that token: parse it.
			}
		}
		d, err := p.parseTopDecl()
		if err != nil {
			// The declarations so far are the ones a full parse builds,
			// so it would meet this same error at this same token.
			return nil, reused, err
		}
		if d != nil {
			f.Decls = append(f.Decls, d)
		}
	}
	if len(f.Decls) == 0 {
		f.Decls = nil // as ParseTokens leaves it
	}
	return f, reused, nil
}

// tiles reports whether f's top-level declarations cover its tokens one
// after another, from the first to the one before EOF, as the parser
// builds them. Reparse's position arithmetic relies on it.
func tiles(f *cast.File) bool {
	at := 0
	for _, d := range f.Decls {
		first, last := d.Span()
		if first != at || last < first {
			return false
		}
		at = last + 1
	}
	return at == len(f.Toks.Tokens)-1
}

// declAt returns the index of the declaration whose span holds token t, or
// -1 (the EOF token, or an index out of range).
func declAt(decls []cast.Decl, t int) int {
	k := sort.Search(len(decls), func(k int) bool {
		_, last := decls[k].Span()
		return last >= t
	})
	if k == len(decls) {
		return -1
	}
	if first, _ := decls[k].Span(); first > t {
		return -1
	}
	return k
}

// sameRun reports whether b's tokens from bf on repeat a's tokens
// [af, al] by kind and text, with the same bytes between them. It compares
// kinds, lengths and relative offsets token by token, then the covered
// source once: equal bytes at equal offsets make equal texts.
func sameRun(a *ctoken.File, af, al int, b *ctoken.File, bf int) bool {
	bl := bf + al - af
	if bl+1 >= len(b.Tokens) {
		return false
	}
	at, bt := a.Tokens[af:al+1], b.Tokens[bf:bl+1]
	a0, b0 := at[0].Pos.Offset, bt[0].Pos.Offset
	for k := range at {
		x, y := &at[k], &bt[k]
		if x.Kind != y.Kind || x.Len != y.Len || x.Pos.Offset-a0 != y.Pos.Offset-b0 {
			return false
		}
	}
	return a.Src[a0:at[len(at)-1].End()] == b.Src[b0:bt[len(bt)-1].End()]
}

// sameToken reports whether token i of a and token j of b have the same
// kind and text.
func sameToken(a *ctoken.File, i int, b *ctoken.File, j int) bool {
	return a.Tokens[i].Kind == b.Tokens[j].Kind && a.Text(i) == b.Text(j)
}
