package match

import (
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/smpl"
)

// compile builds a matcher for a one-rule patch against the given source.
func compile(t *testing.T, patch, src string) (*Matcher, *smpl.Rule) {
	t.Helper()
	p, err := smpl.ParsePatch("t.cocci", patch)
	if err != nil {
		t.Fatalf("ParsePatch: %v", err)
	}
	r := p.Rules[0]
	f, err := cparse.Parse("t.c", src, cparse.Options{CPlusPlus: true, Std: 23, CUDA: true})
	if err != nil {
		t.Fatalf("parse C: %v", err)
	}
	return &Matcher{
		Pat:   r.Pattern,
		Metas: smpl.NewMetaTable(r.Metas),
		Code:  f,
	}, r
}

func TestMatchExprPattern(t *testing.T) {
	m, _ := compile(t, `@r@
symbol a;
expression x,y,z;
@@
a[x][y][z]
`, `void f(double ***a, int i, int j, int k){ a[i][j+1][k*2] = 0; b[i][j][k] = 1; }`)
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1 (only array named a)", len(ms))
	}
	env := ms[0].Env
	if env["x"].Norm != "i" || env["y"].Norm != "j + 1" || env["z"].Norm != "k * 2" {
		t.Errorf("env: x=%q y=%q z=%q", env["x"].Norm, env["y"].Norm, env["z"].Norm)
	}
}

func TestMatchMetavarConsistency(t *testing.T) {
	m, _ := compile(t, `@r@
expression e;
@@
e + e
`, `void f(int a, int b){ x = a + a; y = a + b; }`)
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1 (a+a only)", len(ms))
	}
	if ms[0].Env["e"].Norm != "a" {
		t.Errorf("e=%q", ms[0].Env["e"].Norm)
	}
}

func TestMatchStmtPatternWithDots(t *testing.T) {
	m, _ := compile(t, `@r@
expression e;
@@
lock();
...
unlock();
`, `void f(int x){
	lock();
	work(x);
	more(x);
	unlock();
	other();
}`)
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1", len(ms))
	}
}

func TestMatchDotsWhenNot(t *testing.T) {
	src := `void f(int x){
	lock();
	work(x);
	unlock();
}
void g(int x){
	lock();
	unlock2();
	unlock();
}`
	patch := `@r@
@@
lock();
... when != unlock2()
unlock();
`
	m, _ := compile(t, patch, src)
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1 (g blocked by when)", len(ms))
	}
}

func TestMatchFunctionPattern(t *testing.T) {
	m, _ := compile(t, `@r@
type T;
identifier f =~ "kernel";
parameter list PL;
statement list SL;
@@
T f (PL) { SL }
`, `
int helper(int a) { return a; }
double kernel_axpy(int n, double *x) { double s = 0; return s; }
void my_kernel(void) { run(); }
`)
	ms := m.FindAll()
	if len(ms) != 2 {
		t.Fatalf("matches=%d want 2 (regex selects kernels)", len(ms))
	}
	names := []string{ms[0].Env["f"].Norm, ms[1].Env["f"].Norm}
	got := strings.Join(names, ",")
	if got != "kernel_axpy,my_kernel" {
		t.Errorf("names=%q", got)
	}
	if !strings.Contains(ms[0].Env["PL"].Text, "double *x") {
		t.Errorf("PL=%q", ms[0].Env["PL"].Text)
	}
	if !strings.Contains(ms[0].Env["SL"].Text, "double s = 0") {
		t.Errorf("SL=%q", ms[0].Env["SL"].Text)
	}
}

func TestMatchIdentifierValueSet(t *testing.T) {
	m, _ := compile(t, `@r@
identifier c = {i,j};
expression n;
statement fb;
@@
for (...;c<n;...) fb
`, `void f(int n){
	for (int i=0;i<n;++i) body(i);
	for (int q=0;q<n;++q) body(q);
}`)
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1 (only loop variable i allowed)", len(ms))
	}
	if ms[0].Env["c"].Norm != "i" {
		t.Errorf("c=%q", ms[0].Env["c"].Norm)
	}
}

func TestMatchConstantValueSet(t *testing.T) {
	m, _ := compile(t, `@r@
constant k={4};
expression e;
@@
e + k
`, `void f(int a){ x = a + 4; y = a + 8; }`)
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1", len(ms))
	}
	if ms[0].Env["k"].Norm != "4" {
		t.Errorf("k=%q", ms[0].Env["k"].Norm)
	}
}

func TestMatchEscapedDisjunction(t *testing.T) {
	m, _ := compile(t, `@r@
identifier elem;
constant k;
@@
\( elem == k \| k == elem \)
`, `void f(int v){ if (v == 3) {} if (5 == v) {} if (v == w) {} }`)
	ms := m.FindAll()
	if len(ms) != 2 {
		t.Fatalf("matches=%d want 2", len(ms))
	}
}

func TestMatchConjunctionContains(t *testing.T) {
	// A statement metavariable conjoined with an expression: statement must
	// contain the expression.
	m, _ := compile(t, `@r@
identifier i;
statement A;
@@
\( A \& i+0 \)
`, `void f(int i, double *s, double *q){
	s[i+0] = q[i+0];
	s[i+1] = q[i+1];
}`)
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1 (only the i+0 statement)", len(ms))
	}
	// both occurrences of i+0 recorded: resolver must see 2 ranges for the
	// pattern token of "0"
	res := NewResolver(&ms[0])
	zeroTok := -1
	for i := range m.Pat.Toks.Tokens {
		if m.Pat.Toks.Text(i) == "0" {
			zeroTok = i
		}
	}
	if zeroTok < 0 {
		t.Fatal("no 0 token in pattern")
	}
	if got := len(res.Ranges(zeroTok)); got != 2 {
		t.Errorf("occurrences of i+0 recorded: %d want 2", got)
	}
}

func TestMatchPragmaPattern(t *testing.T) {
	m, _ := compile(t, `@r@
@@
#pragma omp ...
{
...
}
`, `void f(int n, double *a){
#pragma omp parallel for
{
	for (int i=0;i<n;++i) a[i]=0;
}
}`)
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1", len(ms))
	}
}

func TestMatchPragmaInfoMeta(t *testing.T) {
	m, _ := compile(t, `@moa@
pragmainfo pi;
@@
#pragma acc pi
`, "void f(void){\n#pragma acc kernels copy(a)\nwork();\n}")
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1", len(ms))
	}
	if ms[0].Env["pi"].Text != "kernels copy(a)" {
		t.Errorf("pi=%q", ms[0].Env["pi"].Text)
	}
}

func TestMatchIncludePattern(t *testing.T) {
	m, _ := compile(t, "@r@\n@@\n#include <omp.h>\n", "#include <stdio.h>\n#include <omp.h>\nint x;\n")
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1", len(ms))
	}
}

func TestMatchKernelLaunch(t *testing.T) {
	m, _ := compile(t, `@r@
identifier k;
expression b,t,x,y;
expression list el;
@@
k<<<b,t,x,y>>>(el)
`, "void f(void){ saxpy<<<grid, block, 0, stream>>>(n, a, x, y); }")
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1", len(ms))
	}
	env := ms[0].Env
	if env["k"].Norm != "saxpy" || env["b"].Norm != "grid" {
		t.Errorf("k=%q b=%q", env["k"].Norm, env["b"].Norm)
	}
	if !strings.Contains(env["el"].Text, "n, a, x, y") {
		t.Errorf("el=%q", env["el"].Text)
	}
}

func TestMatchAttributeDots(t *testing.T) {
	m, _ := compile(t, `@r@
identifier f;
type T;
@@
__attribute__((target(...,"avx512",...)))
T f(...)
{
...
}
`, `
__attribute__((target("avx2"))) void fa(double *a) { a[0]=0; }
__attribute__((target("arch=x86-64","avx512"))) void fb(double *a) { a[0]=0; }
`)
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1", len(ms))
	}
	if ms[0].Env["f"].Norm != "fb" {
		t.Errorf("f=%q", ms[0].Env["f"].Norm)
	}
}

func TestMatchColumnZeroDisjunction(t *testing.T) {
	patch := "@c@\ntype T;\nfunction f;\nparameter list PL;\n@@\n" +
		"- __attribute__((target(\n(\n- \"avx512\"\n|\n- \"avx2\"\n)\n- )))\n- T f(PL) { ... }\n"
	src := `
__attribute__((target("avx512"))) void fa(double *a) { a[0]=0; }
__attribute__((target("avx2"))) void fb(double *a) { a[1]=0; }
__attribute__((target("sse4"))) void fc(double *a) { a[2]=0; }
`
	m, _ := compile(t, patch, src)
	ms := m.FindAll()
	if len(ms) != 2 {
		t.Fatalf("matches=%d want 2", len(ms))
	}
}

func TestMatchInheritedBinding(t *testing.T) {
	m, _ := compile(t, `@r@
identifier f;
@@
f(...)
`, "void g(void){ alpha(1); beta(2); }")
	m.Inherited = Env{"f": NewValueBinding(cast.MetaIdentKind, "beta")}
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1 (inherited f=beta)", len(ms))
	}
	if ms[0].Env["f"].Norm != "beta" {
		t.Errorf("f=%q", ms[0].Env["f"].Norm)
	}
}

func TestMatchRangeForPattern(t *testing.T) {
	m, _ := compile(t, `@rl@
type T;
constant k;
identifier elem,result,arrid;
@@
- bool result = false;
...
- for ( T &elem : arrid )
-   if ( \( elem == k \| k == elem \) )
-   {
-     ...
-     result = true;
-     break;
-   }
`, `bool search(float *data) {
	bool found = false;
	prep();
	for ( float &e : vals )
		if ( e == 42 )
		{
			log_hit();
			found = true;
			break;
		}
	return found;
}`)
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1", len(ms))
	}
	env := ms[0].Env
	if env["result"].Norm != "found" || env["arrid"].Norm != "vals" || env["k"].Norm != "42" {
		t.Errorf("env: result=%q arrid=%q k=%q", env["result"].Norm, env["arrid"].Norm, env["k"].Norm)
	}
}

func TestMatchPositionBinding(t *testing.T) {
	m, _ := compile(t, `@cfe@
identifier fn;
expression list el;
position p;
@@
fn@p(el)
`, "void f(void){ curand_uniform_double(gen); }")
	ms := m.FindAll()
	if len(ms) == 0 {
		t.Fatal("no matches")
	}
	found := false
	for _, mt := range ms {
		if mt.Env["fn"].Norm == "curand_uniform_double" {
			found = true
			if mt.Env["p"].Kind != cast.MetaPosKind {
				t.Errorf("p kind=%v", mt.Env["p"].Kind)
			}
		}
	}
	if !found {
		t.Error("curand call not matched")
	}
}

func TestResolverGapAlignment(t *testing.T) {
	// for (T i=0; i +k-1 < l; i+=k) — deleting "+k-1" must resolve to the
	// code tokens of "+4-1".
	m, _ := compile(t, `@p0@
type T;
identifier i,l;
constant k={4};
@@
for (T i=0; i+k-1 < l ; i+=k) { ... }
`, "void f(int n){ for (int v=0; v+4-1 < n; v+=4) { w(v); } }")
	ms := m.FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1", len(ms))
	}
	res := NewResolver(&ms[0])
	// find the pattern token "+" right after "i" in the cond
	pt := -1
	toks := m.Pat.Toks
	for i := 0; i < len(toks.Tokens)-1; i++ {
		if toks.Text(i) == "i" && toks.Text(i+1) == "+" && toks.Text(i+2) == "k" {
			pt = i + 1
			break
		}
	}
	if pt < 0 {
		t.Fatal("pattern + token not found")
	}
	rngs := res.Ranges(pt)
	if len(rngs) != 1 {
		t.Fatalf("ranges=%v", rngs)
	}
	if codeTok := m.Code.Toks.Text(rngs[0][0]); codeTok != "+" {
		t.Errorf("resolved token %q want +", codeTok)
	}
}

func TestMatchMaxMatches(t *testing.T) {
	m, _ := compile(t, "@r@\nexpression e;\n@@\nf(e)\n", "void g(void){ f(1); f(2); f(3); }")
	m.MaxMatches = 2
	if got := len(m.FindAll()); got != 2 {
		t.Errorf("matches=%d want 2 (capped)", got)
	}
}
