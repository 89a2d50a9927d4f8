package smpl

import (
	"strings"
	"testing"

	"repro/internal/cast"
)

// fixpoint asserts the parse→print→parse contract on one patch text: the
// rendered text parses, and rendering the re-parse reproduces it exactly.
func fixpoint(t *testing.T, name, text string) *Patch {
	t.Helper()
	p1, err := ParsePatch(name, text)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	r1 := Render(p1)
	p2, err := ParsePatch(name, r1)
	if err != nil {
		t.Fatalf("re-parse of rendered %s failed: %v\nrendered:\n%s", name, err, r1)
	}
	r2 := Render(p2)
	if r1 != r2 {
		t.Errorf("%s: render not a fixpoint\nfirst:\n%s\nsecond:\n%s", name, r1, r2)
	}
	return p2
}

func TestRenderFixpointSimple(t *testing.T) {
	p := fixpoint(t, "simple.cocci", `@rename@
expression list el;
@@
- old_api(el)
+ new_api(el)
`)
	if len(p.Rules) != 1 || p.Rules[0].Name != "rename" {
		t.Fatalf("re-parse lost structure: %+v", p.Rules)
	}
	if !p.Rules[0].Pattern.HasTransform {
		t.Error("re-parsed rule lost its transformation")
	}
}

func TestRenderFixpointFullFeatures(t *testing.T) {
	text := `virtual fix_gcc, with_mpi;

@base@
type T;
identifier x =~ "^buf_";
constant k = {4,8};
expression E;
@@
- T x = alloc(E, k);
+ T x = alloc_aligned(E, k);

@script:python derive@
v << base.x;
out;
@@
out = v

@fixup depends on base && (fix_gcc || !with_mpi)@
identifier base.x;
fresh identifier tmp = "tmp_" ## x;
@@
- use(x)
+ use_checked(x)
`
	p := fixpoint(t, "full.cocci", text)
	if len(p.Virtuals) != 2 {
		t.Errorf("virtuals lost: %v", p.Virtuals)
	}
	if len(p.Rules) != 3 {
		t.Fatalf("rules lost: %d", len(p.Rules))
	}
	if p.Rules[1].Kind != ScriptRule || p.Rules[1].Lang != "python" {
		t.Errorf("script rule mangled: %+v", p.Rules[1])
	}
	dep := p.Rules[2].Depends
	if dep == nil || len(dep.And) != 2 {
		t.Fatalf("depends lost: %+v", dep)
	}
	if got := RenderDep(dep); got != "base && (fix_gcc || !with_mpi)" {
		t.Errorf("RenderDep = %q", got)
	}
	// Metavariable features survive: regex, value set, inheritance, fresh.
	base := p.Rules[0]
	var sawRegex, sawValues bool
	for _, m := range base.Metas {
		if m.Regex != nil && m.Regex.String() == "^buf_" {
			sawRegex = true
		}
		if len(m.Values) == 2 && m.Values[0] == "4" {
			sawValues = true
		}
	}
	if !sawRegex || !sawValues {
		t.Errorf("metavariable constraints lost: regex=%v values=%v", sawRegex, sawValues)
	}
	fix := p.Rules[2]
	var sawInherit, sawFresh bool
	for _, m := range fix.Metas {
		if m.FromRule == "base" && m.RemoteName == "x" {
			sawInherit = true
		}
		if m.Kind == cast.MetaFreshIdentKind && len(m.Fresh) == 2 {
			sawFresh = true
		}
	}
	if !sawInherit || !sawFresh {
		t.Errorf("inherited/fresh metavariables lost: inherit=%v fresh=%v", sawInherit, sawFresh)
	}
}

func TestRenderFixpointDotsAndWhen(t *testing.T) {
	fixpoint(t, "dots.cocci", `@r@
expression E;
@@
  init(E);
  ... when != release(E)
      when strict
- use(E);
+ use_v2(E);
`)
}

func TestRenderFixpointInitializeFinalize(t *testing.T) {
	fixpoint(t, "scripts.cocci", `@initialize:python@
@@
count = 0

@r@
@@
- old()
+ new()

@finalize:python@
@@
print(count)
`)
}

func TestBuildPatch(t *testing.T) {
	rules := []*Rule{{
		Name: "inferred",
		Kind: MatchRule,
		Metas: []*MetaDecl{
			NewMetaDecl(cast.MetaExprKind, "E1"),
			NewMetaDecl(cast.MetaIdentKind, "I1"),
		},
		Body: "- I1 = old_call(E1);\n+ I1 = new_call(E1, 0);",
	}}
	p, err := BuildPatch("built.cocci", nil, rules)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 1 || p.Rules[0].Pattern == nil {
		t.Fatalf("built patch did not compile: %+v", p.Rules)
	}
	if p.Src != Render(p) {
		t.Error("BuildPatch Src is not the rendered text")
	}
	// The built patch round-trips like any hand-written one.
	fixpoint(t, "built.cocci", p.Src)
}

// typedef declarations render after the metavariables and survive the
// parse→print→parse fixpoint.
func TestRenderFixpointTypedef(t *testing.T) {
	p, err := ParsePatch("t.cocci", "@r@\ntypedef cudaStream_t, cudaEvent_t;\nexpression e;\n@@\n- cudaStream_t\n+ hipStream_t\n")
	if err != nil {
		t.Fatal(err)
	}
	text := Render(p)
	if want := "@r@\nexpression e;\ntypedef cudaStream_t;\ntypedef cudaEvent_t;\n@@\n- cudaStream_t\n+ hipStream_t\n"; text != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", text, want)
	}
	p2, err := ParsePatch("t.cocci", text)
	if err != nil {
		t.Fatal(err)
	}
	if Render(p2) != text || p2.Rules[0].Pattern.Kind != TypePattern {
		t.Errorf("typedef rule does not round-trip:\n%s", Render(p2))
	}
}

func TestRenderMetaKinds(t *testing.T) {
	// Every kind keyword the parser accepts renders back to itself.
	for _, m := range []struct {
		kind cast.MetaKind
		want string
	}{
		{cast.MetaExprKind, "expression x;"},
		{cast.MetaIdentKind, "identifier x;"},
		{cast.MetaTypeKind, "type x;"},
		{cast.MetaConstKind, "constant x;"},
		{cast.MetaStmtKind, "statement x;"},
		{cast.MetaExprListKind, "expression list x;"},
		{cast.MetaPragmaInfoKind, "pragmainfo x;"},
	} {
		if got := RenderMeta(NewMetaDecl(m.kind, "x")); got != m.want {
			t.Errorf("RenderMeta(%v) = %q, want %q", m.kind, got, m.want)
		}
		// And the rendered declaration parses back to the same kind.
		r := &Rule{Kind: MatchRule}
		if err := parseMetaDecl("t", strings.TrimSuffix(RenderMeta(NewMetaDecl(m.kind, "x")), ";"), r); err != nil {
			t.Errorf("rendered decl %q does not parse: %v", m.want, err)
		} else if len(r.Metas) != 1 || r.Metas[0].Kind != m.kind {
			t.Errorf("rendered decl %q re-parsed as %+v", m.want, r.Metas)
		}
	}
}
