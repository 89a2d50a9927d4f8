package aossoa

import (
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/cparse"
)

const sample = `struct particle { double px, py, pz; double mass; };
struct particle P[1024];

void kick(int n, double dt) {
	for (int i = 0; i < n; ++i) {
		P[i].px = P[i].px + dt * P[i].mass;
		P[i].py = P[i].py + dt;
	}
}
`

func TestAnalyze(t *testing.T) {
	l, err := Analyze(sample, "particle", "P")
	if err != nil {
		t.Fatal(err)
	}
	if l.Length != "1024" {
		t.Errorf("length=%q", l.Length)
	}
	if len(l.Fields) != 4 {
		t.Fatalf("fields=%v", l.Fields)
	}
	if l.Fields[0].Name != "px" || l.Fields[3].Name != "mass" {
		t.Errorf("field order: %v", l.Fields)
	}
	if l.Fields[0].Type != "double" {
		t.Errorf("field type: %v", l.Fields[0])
	}
	if l.SoAName() != "P_soa" {
		t.Errorf("soa name: %q", l.SoAName())
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze("int x;", "particle", "P"); err == nil {
		t.Error("expected error for missing struct")
	}
	if _, err := Analyze("struct particle { double x; };", "particle", "P"); err == nil {
		t.Error("expected error for missing array")
	}
}

func TestSoADecl(t *testing.T) {
	l, err := Analyze(sample, "particle", "P")
	if err != nil {
		t.Fatal(err)
	}
	decl := l.SoADecl()
	for _, w := range []string{
		"struct particle_soa {",
		"double px[1024];",
		"double mass[1024];",
		"struct particle_soa P_soa;",
	} {
		if !strings.Contains(decl, w) {
			t.Errorf("SoADecl missing %q:\n%s", w, decl)
		}
	}
}

func TestAccessPatchRestrictsFields(t *testing.T) {
	l, err := Analyze(sample, "particle", "P")
	if err != nil {
		t.Fatal(err)
	}
	patch := l.AccessPatch()
	if !strings.Contains(patch, "identifier fld = {px,py,pz,mass};") {
		t.Errorf("field set missing:\n%s", patch)
	}
}

func TestTransform(t *testing.T) {
	out, n, err := Transform(sample, "particle", "P")
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("rewritten accesses=%d want 5", n)
	}
	for _, w := range []string{
		"struct particle_soa P_soa;",
		"P_soa.px[i] = P_soa.px[i] + dt * P_soa.mass[i];",
		"P_soa.py[i] = P_soa.py[i] + dt;",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("missing %q:\n%s", w, out)
		}
	}
	if strings.Contains(out, "P[i]") {
		t.Errorf("AoS accesses remain:\n%s", out)
	}
	if strings.Contains(out, "struct particle P[1024];") {
		t.Errorf("AoS array declaration remains:\n%s", out)
	}
	// The result must still parse.
	if _, err := cparse.Parse("soa.c", out, cparse.Options{}); err != nil {
		t.Errorf("transformed source does not parse: %v\n%s", err, out)
	}
}

// The generated particle codes are the densest token shape (about 1.8
// bytes per token); the conversion must succeed at every size.
func TestTransformGeneratedWorkload(t *testing.T) {
	for _, cfg := range []codegen.Config{
		{Funcs: 4, StmtsPerFunc: 4, Seed: 9},
		{Funcs: 2, StmtsPerFunc: 4, Seed: 10},
		{Funcs: 8, StmtsPerFunc: 4, Seed: 10},
		{Funcs: 32, StmtsPerFunc: 4, Seed: 10},
	} {
		src := codegen.AoS(cfg)
		out, n, err := Transform(src, "particle", "P")
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if n == 0 {
			t.Fatalf("%+v: no accesses rewritten", cfg)
		}
		if strings.Contains(out, "P[i].") {
			t.Errorf("%+v: AoS accesses remain:\n%s", cfg, out)
		}
		if _, err := cparse.Parse("soa.c", out, cparse.Options{}); err != nil {
			t.Errorf("%+v: output does not parse: %v", cfg, err)
		}
	}
}

// Fields outside the struct stay untouched: a different array's member
// accesses survive.
func TestTransformSelectivity(t *testing.T) {
	src := sample + `
struct other { double px; };
struct other Q[8];
void peek(void) { Q[0].px = 1; }
`
	out, _, err := Transform(src, "particle", "P")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Q[0].px = 1;") {
		t.Errorf("unrelated array rewritten:\n%s", out)
	}
}

func TestTransformIdempotentDecl(t *testing.T) {
	out, _, err := Transform(sample, "particle", "P")
	if err != nil {
		t.Fatal(err)
	}
	// Re-running on already-converted code must fail cleanly (struct gone),
	// not corrupt it.
	if _, _, err := Transform(out, "particle", "P"); err == nil {
		t.Error("expected error on already-converted source")
	}
}
