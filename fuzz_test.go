package sempatch

// Fuzz targets for the four front-end invariants the engine leans on:
//
//   - FuzzSmPLParse: the .cocci parser never panics, and every patch it
//     accepts survives the renderer's parse→print→parse fixpoint.
//   - FuzzCParse: the C/C++/CUDA parser never panics on arbitrary input,
//     in any dialect, and every file it accepts keeps a lossless token
//     stream: each token's text sits in the source at its offset, and the
//     tokens with their derived whitespace render the source back.
//   - FuzzSegmentSplice: function-granular segmentation is lossless — for
//     every file it segments, splicing the raw pieces reproduces the input
//     byte for byte (the invariant the incremental cache's correctness
//     rests on).
//   - FuzzIncrementalReparse: after random edits, the incremental re-parse
//     builds exactly the tree (node types, spans, token indices) or the
//     error a full parse of the edited text builds, and never changes a
//     tree it does not own.
//
// Seed corpora live in testdata/fuzz/<FuzzName>/; CI replays them as part
// of the ordinary test run and additionally fuzzes each target briefly.

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/smpl"
	"repro/internal/transform"
)

func FuzzSmPLParse(f *testing.F) {
	f.Add("@@\nexpression e;\n@@\n- foo(e)\n+ bar(e)\n")
	f.Add("virtual fix\n\n@r depends on fix@\nidentifier i;\ntype T;\n@@\n- T i = old();\n+ T i = new();\n  ...\n")
	f.Add("@s@\n@@\n- a();\n...\nwhen != b(x)\n+ c();\n")
	f.Add("@script:python p@\nx << r.i;\ny;\n@@\ny = x + \"_v2\"\n")
	f.Add("// gocci:check id=chk severity=error msg=\"bad call of e\"\n@c@\nexpression e;\nposition p;\n@@\n* risky(e)\n")
	f.Add("@s@\nexpression x;\n@@\n* x = malloc(1);\n... when != free(x)\nwhen exists\n* return ...;\n")
	f.Add("@t@\ntypedef cudaStream_t, cudaEvent_t;\n@@\n- cudaStream_t\n+ hipStream_t\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := smpl.ParsePatch("fuzz.cocci", src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted input must round-trip through the renderer.
		text := smpl.Render(p)
		p2, err := smpl.ParsePatch("fuzz.cocci", text)
		if err != nil {
			t.Fatalf("rendered patch does not re-parse: %v\nrendered:\n%s", err, text)
		}
		if again := smpl.Render(p2); again != text {
			t.Fatalf("render is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, again)
		}
	})
}

func FuzzCParse(f *testing.F) {
	f.Add("int f(int n) {\n    return n + 1;\n}\n", uint8(0))
	f.Add("template <typename T> T id(T x) { return x; }\n", uint8(1))
	f.Add("__global__ void k(float *a) { a[0] = 1.0f; }\nvoid h() { k<<<1, 2>>>(p); }\n", uint8(3))
	f.Add("#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = b[i];\n", uint8(0))
	f.Fuzz(func(t *testing.T, src string, dialect uint8) {
		opts := cparse.Options{
			CPlusPlus: dialect&1 != 0,
			CUDA:      dialect&2 != 0,
		}
		if opts.CPlusPlus {
			opts.Std = 23
		}
		file, err := cparse.Parse("fuzz.c", src, opts)
		if err != nil {
			return
		}
		toks := file.Toks
		if toks.Src != src {
			t.Fatalf("the lexed file's source is not the input")
		}
		end := 0
		for i, tok := range toks.Tokens {
			off := int(tok.Pos.Offset)
			if off < end || tok.End() > len(src) {
				t.Fatalf("token %d spans [%d, %d): before the previous token's end %d or past the source", i, off, tok.End(), end)
			}
			if got := toks.Text(i); got != src[off:tok.End()] {
				t.Fatalf("token %d %q is not the source at offset %d", i, got, off)
			}
			end = tok.End()
		}
		if got := toks.Render(); got != src {
			t.Fatalf("token stream does not render the source:\ngot:\n%q\nwant:\n%q\nfirst diff at %d",
				got, src, firstDiff(got, src))
		}
	})
}

func FuzzSegmentSplice(f *testing.F) {
	f.Add("int a;\n\nint f(void) {\n    return a;\n}\n\nstatic void g(int x) {\n    use(x);\n}\n")
	f.Add("#include <x.h>\nvoid only(void) {}\n")
	f.Add("int f(void){return 0;} int g(void){return 1;}\n")
	f.Fuzz(func(t *testing.T, src string) {
		file, err := cparse.Parse("fuzz.c", src, cparse.Options{})
		if err != nil {
			return
		}
		seg := cast.SegmentFile(file)
		if seg == nil {
			return
		}
		gaps := make([]string, len(seg.Funcs)+1)
		funcs := make([]string, len(seg.Funcs))
		for i := range gaps {
			gaps[i] = seg.GapRaw(i)
		}
		for i := range seg.Funcs {
			funcs[i] = seg.Funcs[i].Raw()
		}
		if got := seg.Splice(gaps, funcs); got != src {
			t.Fatalf("splice of raw segments is not byte-identical:\ngot:\n%q\nwant:\n%q\nfirst diff at %d",
				got, src, firstDiff(got, src))
		}
	})
}

// reparsePlus is the plus text FuzzIncrementalReparse inserts: code that
// adds or ends declarations, text that opens a comment, a string or a
// character literal, and kernel launches that add or remove "<<<".
var reparsePlus = []string{
	"x", "int y;", "foo(1);", "}", "{", ";", "(", ")", "\n",
	"/*", "*/", "// c", "\"", "'", "\"s\"", "\\",
	"<<<", ">>>", "k<<<1, 2>>>(p);",
	"#include <a.h>", "#pragma omp parallel for", "struct S { int a; }",
	"void g(void) { return; }", "typedef int T;",
}

// fuzzDialect maps FuzzCParse's dialect byte onto parser options.
func fuzzDialect(dialect uint8) cparse.Options {
	opts := cparse.Options{CPlusPlus: dialect&1 != 0, CUDA: dialect&2 != 0}
	if opts.CPlusPlus {
		opts.Std = 23
	}
	return opts
}

// fuzzEdits records the edits that script spells, three bytes each
// (operation, token, plus text), against f's tokens.
func fuzzEdits(f *cast.File, script []byte) *transform.EditSet {
	ed := transform.NewEditSet(f.Toks)
	n := len(f.Toks.Tokens) // the last one is EOF
	for ; len(script) >= 3; script = script[3:] {
		op, tok, text := script[0]%6, int(script[1]), reparsePlus[int(script[2])%len(reparsePlus)]
		switch {
		case op < 2 && n > 1:
			i := tok % (n - 1)
			ed.DeleteRange(i, min(i+int(op)*int(script[2]%3), n-2))
		case op >= 2:
			ed.Insert(tok%n, transform.Where(op-2), text)
		}
	}
	return ed
}

func FuzzIncrementalReparse(f *testing.F) {
	f.Add("int f(int n) {\n    return n + 1;\n}\nint g(void) { return 2; }\n", uint8(0), []byte{2, 0, 19, 0, 9, 0, 3, 12, 9})
	f.Add("__global__ void k(float *a) { a[0] = 1.0f; }\nvoid h() { k<<<1, 2>>>(p); }\nint z;\n", uint8(0), []byte{1, 17, 2, 4, 3, 16})
	f.Add("#include <a.h>\nstruct P { int x; }\n;\nint a;\nint b;\n", uint8(1), []byte{0, 6, 0, 5, 6, 5})
	f.Fuzz(func(t *testing.T, src string, dialect uint8, script []byte) {
		opts := fuzzDialect(dialect)
		old, err := cparse.Parse("fuzz.c", src, opts)
		if err != nil {
			return
		}
		ref, _ := cparse.Parse("fuzz.c", src, opts)
		half := len(script) / 2 / 3 * 3
		// First round: a tree someone else holds, so reused declarations
		// must be copies. Second round: the tree the first round built,
		// which the caller owns, so they may be shifted in place.
		cur, owned := old, false
		for _, part := range [][]byte{script[:half], script[half:]} {
			ed := fuzzEdits(cur, part)
			text := ed.Apply()
			got, _, err := cparse.Reparse("fuzz.c", text, opts, cparse.Prior{
				File: cur, Edited: ed.Edited(), Inserted: ed.InsertedBytes(), Owned: owned,
			})
			want, werr := cparse.Parse("fuzz.c", text, opts)
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("re-parse error %v, full parse error %v\ntext:\n%q", err, werr, text)
			}
			if err != nil {
				return
			}
			if !reflect.DeepEqual(got.Toks.Tokens, want.Toks.Tokens) {
				t.Fatalf("re-lex differs from a full lex\ntext:\n%q", text)
			}
			if !reflect.DeepEqual(got.Decls, want.Decls) {
				t.Fatalf("incremental tree differs from a full parse\ntext:\n%q\ngot:\n%s\nwant:\n%s",
					text, cast.Dump(got), cast.Dump(want))
			}
			cur, owned = got, true
		}
		if !reflect.DeepEqual(old.Decls, ref.Decls) {
			t.Fatalf("re-parse changed a tree it does not own:\nnow:\n%s\nwas:\n%s", cast.Dump(old), cast.Dump(ref))
		}
	})
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestFuzzSeedCorpusReplay makes the on-disk seed corpus part of the
// ordinary (non-fuzz) test run even on toolchains that skip corpus replay,
// by checking the directories exist and are non-empty. The actual replay
// happens in the Fuzz* functions above, which `go test` runs over every
// seed without -fuzz.
func TestFuzzSeedCorpusReplay(t *testing.T) {
	for _, name := range []string{"FuzzSmPLParse", "FuzzCParse", "FuzzSegmentSplice", "FuzzIncrementalReparse"} {
		entries, err := fuzzDirEntries(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if entries == 0 {
			t.Errorf("testdata/fuzz/%s has no seed corpus entries", name)
		}
	}
}

func fuzzDirEntries(name string) (int, error) {
	ents, err := os.ReadDir("testdata/fuzz/" + name)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			n++
		}
	}
	return n, nil
}
