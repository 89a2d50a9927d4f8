package smpl

import (
	"strings"
	"testing"

	"repro/internal/cast"
)

func parsePatchOK(t *testing.T, text string) *Patch {
	t.Helper()
	p, err := ParsePatch("test.cocci", text)
	if err != nil {
		t.Fatalf("ParsePatch: %v\npatch:\n%s", err, text)
	}
	return p
}

func TestParseAnonymousRule(t *testing.T) {
	p := parsePatchOK(t, "@@ @@\n- f(x);\n+ g(x);\n")
	if len(p.Rules) != 1 {
		t.Fatalf("rules=%d", len(p.Rules))
	}
	r := p.Rules[0]
	if r.Kind != MatchRule || r.Name == "" {
		t.Errorf("rule: %+v", r)
	}
	if !r.Pattern.HasTransform {
		t.Error("transform not detected")
	}
}

func TestParseNamedRuleWithMetas(t *testing.T) {
	text := `@p0@
type T;
identifier i,l;
constant k={4};
statement A,B,C,D;
@@
for (T i=0; i<l; i++) { A }
`
	p := parsePatchOK(t, text)
	r := p.Rules[0]
	if r.Name != "p0" {
		t.Errorf("name=%q", r.Name)
	}
	if len(r.Metas) != 8 {
		t.Fatalf("metas=%d: %+v", len(r.Metas), r.Metas)
	}
	byName := map[string]*MetaDecl{}
	for _, m := range r.Metas {
		byName[m.Name] = m
	}
	if byName["T"].Kind != cast.MetaTypeKind {
		t.Errorf("T kind=%v", byName["T"].Kind)
	}
	if byName["k"].Kind != cast.MetaConstKind || len(byName["k"].Values) != 1 || byName["k"].Values[0] != "4" {
		t.Errorf("k decl=%+v", byName["k"])
	}
	if byName["A"].Kind != cast.MetaStmtKind {
		t.Errorf("A kind=%v", byName["A"].Kind)
	}
}

func TestParseRegexConstraint(t *testing.T) {
	text := "@r@\nidentifier f =~ \"kernel\";\n@@\nf(...)\n"
	p := parsePatchOK(t, text)
	m := p.Rules[0].Metas[0]
	if m.Regex == nil || !m.Regex.MatchString("my_kernel_fn") {
		t.Errorf("regex not working: %+v", m)
	}
}

func TestParseFreshIdentifier(t *testing.T) {
	text := `@r@
identifier f;
fresh identifier f512 = "avx512_" ## f;
@@
f(...)
`
	p := parsePatchOK(t, text)
	var fresh *MetaDecl
	for _, m := range p.Rules[0].Metas {
		if m.Name == "f512" {
			fresh = m
		}
	}
	if fresh == nil || fresh.Kind != cast.MetaFreshIdentKind {
		t.Fatalf("fresh decl missing: %+v", p.Rules[0].Metas)
	}
	if len(fresh.Fresh) != 2 || fresh.Fresh[0].Lit != "avx512_" || fresh.Fresh[1].Ref != "f" {
		t.Errorf("fresh parts: %+v", fresh.Fresh)
	}
}

func TestParseInheritedMetas(t *testing.T) {
	text := `@c@
type T;
function f;
parameter list PL;
@@
- T f(PL) { ... }

@d@
type c.T;
function c.f;
parameter list c.PL;
@@
- T f(PL) { ... }
`
	p := parsePatchOK(t, text)
	if len(p.Rules) != 2 {
		t.Fatalf("rules=%d", len(p.Rules))
	}
	d := p.Rules[1]
	for _, m := range d.Metas {
		if m.FromRule != "c" {
			t.Errorf("meta %q FromRule=%q want c", m.Name, m.FromRule)
		}
	}
}

func TestParseDependsOn(t *testing.T) {
	text := "@rl@\n@@\n- x = 1;\n\n@ah depends on rl@\n@@\n- y = 2;\n"
	p := parsePatchOK(t, text)
	ah := p.Rules[1]
	if ah.Depends == nil || ah.Depends.Name != "rl" {
		t.Fatalf("depends: %+v", ah.Depends)
	}
	if !ah.Depends.Eval(map[string]bool{"rl": true}) {
		t.Error("depends should hold when rl matched")
	}
	if ah.Depends.Eval(map[string]bool{}) {
		t.Error("depends should fail when rl did not match")
	}
}

func TestParseDependsExpr(t *testing.T) {
	d, err := parseDepExpr("a && !b || c")
	if err != nil {
		t.Fatal(err)
	}
	// || binds loosest: (a && !b) || c
	if len(d.Or) != 2 {
		t.Fatalf("expr: %+v", d)
	}
	if !d.Eval(map[string]bool{"c": true}) {
		t.Error("c alone should satisfy")
	}
	if !d.Eval(map[string]bool{"a": true}) {
		t.Error("a && !b should satisfy when only a matched")
	}
	if d.Eval(map[string]bool{"a": true, "b": true}) {
		t.Error("a && !b must fail when b matched")
	}
}

func TestParseScriptRule(t *testing.T) {
	text := `@initialize:python@ @@
C2HF = { "curand_uniform_double": "rocrand_uniform_double" }

@cfe@
identifier fn;
expression list el;
position p;
@@
fn@p(el)

@script:python cf2hf@
fn << cfe.fn;
nf;
@@
coccinelle.nf = cocci.make_ident(C2HF[fn]);
`
	p := parsePatchOK(t, text)
	if len(p.Rules) != 3 {
		t.Fatalf("rules=%d", len(p.Rules))
	}
	init := p.Rules[0]
	if init.Kind != InitializeRule || init.Lang != "python" {
		t.Errorf("init rule: %+v", init)
	}
	if !strings.Contains(init.Code, "C2HF") {
		t.Errorf("init code=%q", init.Code)
	}
	script := p.Rules[2]
	if script.Kind != ScriptRule || script.Name != "cf2hf" {
		t.Errorf("script rule: %+v", script)
	}
	if len(script.Inputs) != 1 || script.Inputs[0].Local != "fn" || script.Inputs[0].Rule != "cfe" {
		t.Errorf("inputs: %+v", script.Inputs)
	}
	if len(script.Outputs) != 1 || script.Outputs[0] != "nf" {
		t.Errorf("outputs: %+v", script.Outputs)
	}
}

func TestPatternKinds(t *testing.T) {
	cases := []struct {
		body string
		meta string
		want PatternKind
	}{
		{"- a[x][y][z]\n+ a[x, y, z]", "symbol a;\nexpression x,y,z;", ExprPattern},
		{"- f(x);", "identifier f;\nexpression x;", StmtSeqPattern},
		{"T f(PL) { SL }", "type T;\nidentifier f;\nparameter list PL;\nstatement list SL;", DeclPattern},
		{"#include <omp.h>", "", DeclPattern},
		{"- cudaStream_t\n+ hipStream_t", "typedef cudaStream_t;", TypePattern},
		{"- cudaStream_t x;", "typedef cudaStream_t;", DeclPattern},
	}
	for _, c := range cases {
		text := "@r@\n" + c.meta + "\n@@\n" + c.body + "\n"
		p := parsePatchOK(t, text)
		if got := p.Rules[0].Pattern.Kind; got != c.want {
			t.Errorf("body %q: kind=%v want %v", c.body, got, c.want)
		}
	}
}

func TestPlusBlockAnchors(t *testing.T) {
	text := `@r@
type T;
identifier f;
parameter list PL;
statement list SL;
@@
+ T f512 (PL) { SL }
T f (PL) { SL }
`
	p, err := ParsePatch("t.cocci", text)
	if err != nil {
		t.Fatalf("%v", err)
	}
	pat := p.Rules[0].Pattern
	if len(pat.PlusBlocks) != 1 {
		t.Fatalf("blocks=%d", len(pat.PlusBlocks))
	}
	b := pat.PlusBlocks[0]
	if b.AnchorLine != -1 || b.FollowLine != 1 {
		t.Errorf("block anchors: %+v", b)
	}

	text2 := `@@ @@
#include <omp.h>
+ #include <likwid-marker.h>
`
	p2 := parsePatchOK(t, text2)
	b2 := p2.Rules[0].Pattern.PlusBlocks[0]
	if b2.AnchorLine != 0 {
		t.Errorf("anchor=%d want 0", b2.AnchorLine)
	}
}

func TestTokenMarks(t *testing.T) {
	text := `@@ @@
for (;; i
- +=k
+ ++
) x();
`
	p := parsePatchOK(t, text)
	pat := p.Rules[0].Pattern
	// token "+=" must be on a minus line
	foundMinus := false
	for i := range pat.Toks.Tokens {
		if pat.Toks.Text(i) == "+=" && pat.TokenMark(i) == Minus {
			foundMinus = true
		}
	}
	if !foundMinus {
		t.Error("minus mark not found for +=")
	}
}

func TestLineMarksClassification(t *testing.T) {
	text := "@@ @@\n- old();\n+ new();\nkept();\n"
	p := parsePatchOK(t, text)
	pat := p.Rules[0].Pattern
	if pat.LineMarks[0] != Minus || pat.LineMarks[1] != Plus || pat.LineMarks[2] != Ctx {
		t.Errorf("marks=%v", pat.LineMarks)
	}
}

func TestSpatchOptionLinesIgnored(t *testing.T) {
	text := "#spatch --c++=23\n@tomultiindex@\nsymbol a;\nexpression x,y,z;\n@@\n- a[x][y][z]\n+ a[x, y, z]\n"
	p := parsePatchOK(t, text)
	if p.Rules[0].Name != "tomultiindex" {
		t.Errorf("name=%q", p.Rules[0].Name)
	}
}

func TestBadPatchErrors(t *testing.T) {
	cases := []string{
		"not a rule",
		"@r@\nbogus kind x;\n@@\nf();\n",
		"@r@\n@@\n",
		"@r@ extra stuff\n@@\nf();\n",
		"@r@\ntypedef 1x;\n@@\n- a\n",
	}
	for _, c := range cases {
		if _, err := ParsePatch("bad.cocci", c); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

// A contradictory `when` combination is reported as such, not as the
// expression fallback's generic "trailing tokens" error.
func TestWhenConflictErrorSurfaces(t *testing.T) {
	_, err := ParsePatch("w.cocci", "@r@\n@@\na();\n... when any when != bad()\nb();\n")
	if err == nil {
		t.Fatal("want parse error")
	}
	if !strings.Contains(err.Error(), "`when any` contradicts") {
		t.Errorf("error does not explain the when conflict: %v", err)
	}
}
