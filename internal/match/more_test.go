package match

import (
	"strings"
	"testing"

	"repro/internal/cast"
)

func TestMatchMemberFieldMetavar(t *testing.T) {
	// identifier metavariable in member-name position (the AoS->SoA shape)
	m, _ := compile(t, `@r@
identifier fld;
expression idx;
symbol P;
@@
P[idx].fld
`, "void f(int i){ P[i].px = P[i+1].mass; Q[i].px = 0; }")
	ms := m.FindAll()
	if len(ms) != 2 {
		t.Fatalf("matches=%d want 2 (P only)", len(ms))
	}
	fields := []string{ms[0].Env["fld"].Norm, ms[1].Env["fld"].Norm}
	got := strings.Join(fields, ",")
	if got != "px,mass" && got != "mass,px" {
		t.Errorf("fields=%v", fields)
	}
}

func TestMatchMetaStmtBindsBracedBody(t *testing.T) {
	// a statement metavariable as a loop body must keep the braces in its
	// binding text (the Kokkos lambda requirement)
	m, _ := compile(t, `@r@
statement fb;
expression n;
identifier c = {i,j};
@@
for (...;c<n;...) fb
`, "void f(int n){ for (int i=0;i<n;++i) { s += i; } }")
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d", len(ms))
	}
	fb := ms[0].Env["fb"].Text
	if !strings.HasPrefix(fb, "{") || !strings.HasSuffix(fb, "}") {
		t.Errorf("braces lost: %q", fb)
	}
}

func TestMatchDeclPatternAtStmtLevel(t *testing.T) {
	// a declaration pattern matches declarations inside function bodies too
	m, _ := compile(t, `@r@
type c_t;
identifier i;
@@
c_t i;
`, "float g1;\nvoid f(void){ double local; int k; }")
	ms := m.FindAll()
	if len(ms) != 3 {
		t.Fatalf("matches=%d want 3 (one global + two locals)", len(ms))
	}
}

func TestMatchBodyBraceIso(t *testing.T) {
	// `if (e) f();` pattern matches both braced and unbraced code bodies
	m, _ := compile(t, `@r@
expression e;
@@
if (e) probe();
`, "void f(int x){ if (x) probe(); if (x+1) { probe(); } if (x) other(); }")
	ms := m.FindAll()
	if len(ms) != 2 {
		t.Fatalf("matches=%d want 2", len(ms))
	}
}

func TestMatchEmptyCompoundPattern(t *testing.T) {
	m, _ := compile(t, `@r@
type T;
identifier f;
parameter list PL;
@@
T f(PL) { }
`, "void empty(void) { }\nvoid full(void) { x(); }")
	ms := m.FindAll()
	if len(ms) != 1 || ms[0].Env["f"].Norm != "empty" {
		t.Fatalf("matches=%v", ms)
	}
}

func TestMatchStmtListEmptyBind(t *testing.T) {
	m, _ := compile(t, `@r@
type T;
identifier f;
parameter list PL;
statement list SL;
@@
T f(PL) { SL }
`, "void empty(void) { }")
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d", len(ms))
	}
	if ms[0].Env["SL"].Text != "" {
		t.Errorf("empty body SL=%q", ms[0].Env["SL"].Text)
	}
}

func TestMatchInheritedPositionConstrains(t *testing.T) {
	src := "void f(void){ target(1); target(2); }"
	m, _ := compile(t, `@r@
identifier fn;
position p;
@@
fn@p(...)
`, src)
	all := m.FindAll()
	var want Match
	found := false
	for _, mt := range all {
		if mt.Env["fn"].Norm == "target" && strings.Contains(m.Code.Toks.Slice(mt.First, mt.Last), "2") {
			want = mt
			found = true
		}
	}
	if !found {
		t.Fatal("second call not matched")
	}
	// Re-match with inherited position: only the second call survives.
	m2, _ := compile(t, `@r@
identifier fn;
position p;
@@
fn@p(...)
`, src)
	m2.Inherited = Env{"p": want.Env["p"], "fn": want.Env["fn"]}
	ms := m2.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1 under inherited position", len(ms))
	}
	if !strings.Contains(m2.Code.Toks.Slice(ms[0].First, ms[0].Last), "2") {
		t.Errorf("wrong call matched: %q", m2.Code.Toks.Slice(ms[0].First, ms[0].Last))
	}
}

func TestMatchTypePointerStructure(t *testing.T) {
	// `T *x` with meta type T: stars outside the metavariable must agree
	m, _ := compile(t, `@r@
type T;
identifier x;
@@
T *x;
`, "void f(void){ double *p; int q; }")
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1 (pointer decls only)", len(ms))
	}
	if ms[0].Env["T"].Norm != "double" {
		t.Errorf("T=%q", ms[0].Env["T"].Norm)
	}
}

func TestBindingKinds(t *testing.T) {
	b := NewValueBinding(cast.MetaIdentKind, "x")
	if b.First >= 0 { // synthesized: no code token range
		t.Error("value binding should be synthesized")
	}
}
