package cparse

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/codegen"
	"repro/internal/ctoken"
	"repro/internal/transform"
)

// reparseEdit parses src, lets edit record edits against its tokens, and
// re-parses the result incrementally and in full. It fails the test unless
// both give the same tree or the same error, and returns the incremental
// tree with the number of declarations it reused.
func reparseEdit(t *testing.T, src string, opts Options, owned bool, edit func(f *cast.File, ed *transform.EditSet)) (*cast.File, int) {
	t.Helper()
	old, err := Parse("t.c", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	ed := transform.NewEditSet(old.Toks)
	edit(old, ed)
	text := ed.Apply()
	before := Parses()
	got, reused, err := Reparse("t.c", text, opts, Prior{File: old, Edited: ed.Edited(), Inserted: ed.InsertedBytes(), Owned: owned})
	if n := Parses() - before; n != 1 {
		t.Errorf("Reparse counted %d parses, want 1", n)
	}
	want, werr := Parse("t.c", text, opts)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("re-parse error %v, full parse error %v\ntext:\n%s", err, werr, text)
	}
	if err != nil {
		return nil, reused
	}
	if !reflect.DeepEqual(got.Toks.Tokens, want.Toks.Tokens) || !reflect.DeepEqual(got.Decls, want.Decls) {
		t.Fatalf("incremental tree differs from a full parse\ntext:\n%s\ngot:\n%s\nwant:\n%s", text, cast.Dump(got), cast.Dump(want))
	}
	return got, reused
}

// tokenOf returns the index of the first token with the given text.
func tokenOf(t *testing.T, f *cast.File, text string) int {
	t.Helper()
	for i := range f.Toks.Tokens {
		if f.Toks.Text(i) == text {
			return i
		}
	}
	t.Fatalf("no token %q", text)
	return -1
}

const threeFuncs = "#include <omp.h>\n\nint a(int x)\n{\n\treturn x + 1;\n}\n\nint b(int x)\n{\n\treturn one(x);\n}\n\nint c(int x)\n{\n\treturn x.f;\n}\n"

func TestReparseReusesUntouchedDecls(t *testing.T) {
	cases := []struct {
		name   string
		edit   func(f *cast.File, ed *transform.EditSet)
		reused int
	}{
		{"insert a directive after the include", func(f *cast.File, ed *transform.EditSet) {
			ed.Insert(0, transform.AfterOwnLine, "#include <likwid-marker.h>")
		}, 3},
		{"rename a call in the middle function", func(f *cast.File, ed *transform.EditSet) {
			i := tokenOf(t, f, "one")
			ed.DeleteRange(i, i)
			ed.Insert(i, transform.Inline, "two")
		}, 3},
		// The insertion is anchored on b and changes the token after a,
		// but a function's parse ends on its '}', so a is still taken.
		{"insert a declaration between functions", func(f *cast.File, ed *transform.EditSet) {
			first, _ := f.Decls[2].Span()
			ed.Insert(first, transform.BeforeOwnLine, "static int k;")
		}, 3},
		{"delete a whole function", func(f *cast.File, ed *transform.EditSet) {
			first, last := f.Decls[2].Span()
			ed.DeleteRange(first, last)
		}, 3},
		{"edits in two functions", func(f *cast.File, ed *transform.EditSet) {
			ed.Insert(tokenOf(t, f, "return"), transform.BeforeOwnLine, "count();")
			ed.DeleteRange(tokenOf(t, f, "f"), tokenOf(t, f, "f"))
			ed.Insert(tokenOf(t, f, "f"), transform.Inline, "g")
		}, 2},
	}
	for _, tc := range cases {
		for _, owned := range []bool{false, true} {
			if _, reused := reparseEdit(t, threeFuncs, Options{}, owned, tc.edit); reused != tc.reused {
				t.Errorf("%s (owned=%v): reused %d declarations, want %d", tc.name, owned, reused, tc.reused)
			}
		}
	}
}

// An edit whose text changes how the rest of the file lexes must not let
// the old declarations after it stand.
func TestReparseLexicalDisruption(t *testing.T) {
	for _, plus := range []string{"/*", "\"", "//", "'"} {
		reparseEdit(t, threeFuncs, Options{}, false, func(f *cast.File, ed *transform.EditSet) {
			ed.Insert(tokenOf(t, f, "one"), transform.Inline, plus)
		})
	}
	// A comment opened before the last function and closed inside it.
	reparseEdit(t, threeFuncs, Options{}, false, func(f *cast.File, ed *transform.EditSet) {
		ed.Insert(tokenOf(t, f, "b"), transform.BeforeOwnLine, "/*")
		ed.Insert(tokenOf(t, f, "c"), transform.Inline, "*/ void")
	})
}

// An opaque struct definition looks one token past its '}' for a ';'. An
// edit that inserts one there changes the struct's parse, though the
// struct itself is untouched.
func TestReparseLookaheadPastDecl(t *testing.T) {
	src := "struct P { int x; }\nint a;\nint b;\n"
	_, reused := reparseEdit(t, src, Options{CPlusPlus: true}, false, func(f *cast.File, ed *transform.EditSet) {
		first, _ := f.Decls[1].Span()
		ed.Insert(first, transform.BeforeOwnLine, ";")
	})
	if reused != 1 {
		t.Errorf("reused %d declarations, want 1 (b: the struct's next token changed, the edit touched a)", reused)
	}
}

// readsPast names exactly the declarations whose parse depends on what
// follows them. For every top-level declaration of every generated shape
// and of a set of opaque forms, the test re-parses it from its first token
// with each of several texts after its last one: a declaration readsPast
// clears must come out the same after every text, and one it flags must
// come out differently after at least one.
func TestReadsPastMatchesParser(t *testing.T) {
	srcs := []string{
		threeFuncs,
		"struct P { int x; }\nint a;\nstruct Q { int y; };\nstruct R;\n",
		"typedef struct { int a; } T;\nenum E { A, B }\nunion U { int i; float f; }",
		"namespace n { int v; }\ntemplate <class T> struct S { T v; };\nextern \"C\" { int f(void); }\nextern \"C\" int g(void);\n",
		"int f(void);\n;\n#define N 4\n#pragma omp parallel\nint v[N] = { 1, 2 }, *p;\nstruct S s;\nstruct S mk(int a) { S r; if (a) r.v = a; else r.v = (int)a; return r; }\n",
		"struct open { int a;",
		"int a;\nnamespace m { int b; } ;\ntypedef int (U;",
		"extern \"C\" { int c;",
		"class C : public B { int m() { return 1; } }",
	}
	for _, gen := range codegen.Shapes {
		srcs = append(srcs, gen(codegen.Config{Funcs: 3, StmtsPerFunc: 3, Seed: 42}))
	}
	opts := Options{CPlusPlus: true, CUDA: true, Std: 17}
	flagged := 0
	for _, src := range srcs {
		f, err := Parse("t.c", src, opts)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		for k, d := range f.Decls {
			first, last := d.Span()
			changed := ""
			for _, after := range []string{"", ";", "}", "{", "x", "(", "else", "int y;"} {
				text := src[:f.Toks.Tokens[last].End()] + "\n" + after
				lf, err := ctoken.Lex("t.c", text, lexOptions(src, opts))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lf.Tokens[:last+1], f.Toks.Tokens[:last+1]) {
					t.Fatalf("declaration %d: cutting the text after it re-lexes it differently\n%s", k, text)
				}
				p := &parser{toks: lf.Tokens, file: lf, opts: opts, pos: first}
				got, err := p.parseTopDecl()
				if err != nil || !reflect.DeepEqual(got, d) {
					changed = after
				}
			}
			switch past := readsPast(f.Toks, d); {
			case past && changed == "":
				t.Errorf("readsPast flags %q, but its parse is the same whatever follows it", f.Toks.Slice(first, last))
			case !past && changed != "":
				t.Errorf("readsPast clears %q, but its parse changes when %q follows it", f.Toks.Slice(first, last), changed)
			case past:
				flagged++
			}
		}
	}
	if flagged == 0 {
		t.Error("no declaration read past its end; the test proves nothing")
	}
}

// Removing a file's last "<<<" changes how ">>>" and "<<<" lex, so the
// re-parse starts over.
func TestReparseChevronOptions(t *testing.T) {
	src := "void h(int *p)\n{\n\tk<<<1, 2>>>(p);\n}\nint z;\n"
	_, reused := reparseEdit(t, src, Options{}, false, func(f *cast.File, ed *transform.EditSet) {
		first, last := f.Decls[0].Span()
		ed.DeleteRange(first, last)
		ed.Insert(first, transform.Inline, "void h(int *p) { launch(p); }")
	})
	if reused != 0 {
		t.Errorf("reused %d declarations across a lexer-option change, want 0", reused)
	}
}

func TestReparseErrorMatchesFullParse(t *testing.T) {
	got, _ := reparseEdit(t, threeFuncs, Options{}, false, func(f *cast.File, ed *transform.EditSet) {
		ed.Insert(tokenOf(t, f, "one"), transform.Inline, "(")
	})
	if got != nil {
		t.Error("unbalanced edit re-parsed without error")
	}
}

// A tree someone else holds keeps its nodes and spans; a tree the caller
// owns gives its nodes up to the new tree.
func TestReparseOwnership(t *testing.T) {
	edit := func(f *cast.File, ed *transform.EditSet) {
		ed.Insert(0, transform.AfterOwnLine, "#include <likwid-marker.h>")
	}
	for _, owned := range []bool{false, true} {
		old, err := Parse("t.c", threeFuncs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dump := cast.Dump(old)
		ed := transform.NewEditSet(old.Toks)
		edit(old, ed)
		got, _, err := Reparse("t.c", ed.Apply(), Options{}, Prior{File: old, Edited: ed.Edited(), Owned: owned})
		if err != nil {
			t.Fatal(err)
		}
		shared := got.Decls[2] == old.Decls[1]
		if shared != owned {
			t.Errorf("owned=%v: new tree shares the old tree's nodes: %v", owned, shared)
		}
		if !owned && cast.Dump(old) != dump {
			t.Errorf("Reparse changed a tree it does not own:\n%s\nwas:\n%s", cast.Dump(old), dump)
		}
	}
}

// The re-lex sizes its token slice from the old token count and the
// inserted text, not from Lex's bytes-per-token estimate.
func TestReparseTokenSliceSize(t *testing.T) {
	src := codegen.OpenMP(codegen.Config{Funcs: 16, StmtsPerFunc: 4, Seed: 4})
	plus := "#include <likwid-marker.h>"
	got, _ := reparseEdit(t, src, Options{}, false, func(f *cast.File, ed *transform.EditSet) {
		ed.Insert(0, transform.AfterOwnLine, plus)
	})
	old, _ := Parse("t.c", src, Options{})
	if want := len(old.Toks.Tokens) + len(plus) + 1; cap(got.Toks.Tokens) != want {
		t.Errorf("re-lex slice holds %d tokens, want %d (old count + inserted bytes + 1)", cap(got.Toks.Tokens), want)
	}
	full, err := ctoken.Lex("t.c", got.Toks.Src, ctoken.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cap(got.Toks.Tokens) >= cap(full.Tokens) {
		t.Errorf("re-lex slice (%d) is no tighter than Lex's (%d)", cap(got.Toks.Tokens), cap(full.Tokens))
	}
	if strings.Count(got.Toks.Src, "likwid") != 1 {
		t.Error("edit lost")
	}
}
