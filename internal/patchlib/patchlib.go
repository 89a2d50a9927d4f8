// Package patchlib embeds the paper's fourteen semantic-patch use cases
// (Section 3, "Enabled HPC Refactorings") as executable experiments. Each
// experiment couples the semantic patch text with a representative input
// workload and a checker for the transformation's expected shape. The
// multiversion and unroll examples and the package's own tests run them.
package patchlib

import (
	"fmt"
	"strings"

	"repro/internal/accomp"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/smpl"
)

// Experiment is one reproducible use case.
type Experiment struct {
	// ID is the experiment identifier used throughout the repo (L1..L14 for
	// the paper's listings, S* for cross-cutting studies).
	ID string
	// Title is the paper's use-case heading.
	Title string
	// Patch is the semantic patch text.
	Patch string
	// Input produces the workload source.
	Input func() string
	// InputName is the file name handed to the engine.
	InputName string
	// Opts are the engine options (language dialect).
	Opts core.Options
	// Setup optionally configures the engine (e.g. native script rules).
	Setup func(*core.Engine)
	// Check verifies the transformed output's shape.
	Check func(out string, res *core.Result) error
	// Fidelity documents deviations from the paper's listing.
	Fidelity string
}

// Run executes the experiment once and checks the result.
func (e Experiment) Run() (*core.Result, string, error) {
	res, out, err := e.apply(e.Input())
	if err != nil {
		return nil, "", err
	}
	if e.Check != nil {
		if cerr := e.Check(out, res); cerr != nil {
			return res, out, fmt.Errorf("experiment %s check failed: %w", e.ID, cerr)
		}
	}
	return res, out, nil
}

// RunOn executes the experiment's patch over a caller-provided source, such
// as a generated workload of another size.
func (e Experiment) RunOn(src string) (*core.Result, string, error) {
	return e.apply(src)
}

func (e Experiment) apply(src string) (*core.Result, string, error) {
	p, err := smpl.ParsePatch(e.ID+".cocci", e.Patch)
	if err != nil {
		return nil, "", fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	eng := core.New(p, e.Opts)
	if e.Setup != nil {
		e.Setup(eng)
	}
	name := e.InputName
	if name == "" {
		name = e.ID + ".c"
	}
	res, err := eng.Run([]core.SourceFile{{Name: name, Src: src}})
	if err != nil {
		return nil, "", fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	return res, res.Outputs[name], nil
}

// want returns an error when any needle is missing from out.
func want(out string, needles ...string) error {
	for _, n := range needles {
		if !strings.Contains(out, n) {
			return fmt.Errorf("missing %q in output:\n%s", n, out)
		}
	}
	return nil
}

// wantNot returns an error when any needle is still present.
func wantNot(out string, needles ...string) error {
	for _, n := range needles {
		if strings.Contains(out, n) {
			return fmt.Errorf("unexpected %q in output:\n%s", n, out)
		}
	}
	return nil
}

func gen(f func(codegen.Config) string, funcs, stmts int) func() string {
	return func() string { return f(codegen.Config{Funcs: funcs, StmtsPerFunc: stmts, Seed: 20250326}) }
}

// Experiments returns the full index in paper order.
func Experiments() []Experiment {
	return []Experiment{
		l1(), l2(), l3(), l4(), l5(), l6(), l7(),
		l8(), l9(), l10(), l11(), l12(), l13(), l14(),
		s6(),
	}
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------

func l1() Experiment {
	return Experiment{
		ID:    "L1",
		Title: "Interfacing with an instrumentation API (LIKWID markers)",
		Patch: `@@ @@
#include <omp.h>
+ #include <likwid-marker.h>

@@ @@
#pragma omp ...
{
+ LIKWID_MARKER_START(__func__);
...
+ LIKWID_MARKER_STOP(__func__);
}
`,
		Input: gen(codegen.OpenMP, 4, 2),
		Check: func(out string, res *core.Result) error {
			if err := want(out, "#include <likwid-marker.h>",
				"LIKWID_MARKER_START(__func__);", "LIKWID_MARKER_STOP(__func__);"); err != nil {
				return err
			}
			if n := strings.Count(out, "MARKER_START"); n != 4 {
				return fmt.Errorf("want 4 instrumented regions, got %d", n)
			}
			return nil
		},
	}
}

func l2() Experiment {
	return Experiment{
		ID:    "L2",
		Title: "OpenMP declare variant: function cloning with fresh identifiers",
		Patch: `@@
type T;
identifier f =~ "kernel";
parameter list PL;
statement list SL;
fresh identifier f512 = "avx512_" ## f;
fresh identifier f10 = "avx10_" ## f;
@@
+ T f512 (PL) { SL }
+ T f10 (PL) { SL }
+ #pragma omp declare variant(f512) match(device={isa("core-avx512")})
+ #pragma omp declare variant(f10) match(device={isa("core-avx10")})
T f (PL) { SL }
`,
		Input: gen(codegen.Kernels, 3, 2),
		Fidelity: "The paper's listing references v512_f/v10_f in the pragma " +
			"lines while declaring f512/f10; we use the declared names consistently.",
		Check: func(out string, res *core.Result) error {
			if err := want(out,
				"avx512_kernel_fma_0", "avx10_kernel_fma_0",
				"#pragma omp declare variant(avx512_kernel_fma_0)",
				"avx512_kernel_fma_2"); err != nil {
				return err
			}
			// helpers must not be cloned
			return wantNot(out, "avx512_helper")
		},
	}
}

func l3() Experiment {
	return Experiment{
		ID:    "L3",
		Title: "Function multiversioning: matching target attributes",
		Patch: `@@
identifier f;
type T;
@@
__attribute__((target(...,"avx512",...)))
T f(...)
{
+ // add and modify avx512-specific code only
...
}
`,
		Input: gen(codegen.Multiversion, 3, 2),
		Check: func(out string, res *core.Result) error {
			if n := strings.Count(out, "// add and modify avx512-specific code only"); n != 3 {
				return fmt.Errorf("want the marker in exactly the 3 avx512 clones, got %d", n)
			}
			return nil
		},
	}
}

func l4() Experiment {
	return Experiment{
		ID:    "L4",
		Title: "Bloat and clone removal (avx512/avx2 specializations)",
		Patch: `@c@
type T;
function f;
parameter list PL;
@@
- __attribute__((target(
(
- "avx512"
|
- "avx2"
)
- )))
- T f(PL) { ... }

@d@
type c.T;
function c.f;
parameter list c.PL;
@@
- __attribute__((target("default")))
T f(PL) { ... }
`,
		Input: gen(codegen.Multiversion, 3, 2),
		Check: func(out string, res *core.Result) error {
			if err := wantNot(out, "avx512", "avx2", "__attribute__"); err != nil {
				return err
			}
			// the default bodies survive, one per family
			if n := strings.Count(out, "void spmv_"); n != 3 {
				return fmt.Errorf("want 3 surviving functions, got %d:\n%s", n, out)
			}
			return nil
		},
	}
}

func l5() Experiment {
	return Experiment{
		ID:    "L5",
		Title: "Removal of explicit loop unrolling, rule p0",
		Patch: `@p0@
type T;
identifier i,l;
constant k={4};
statement A,B,C,D;
@@
+ #pragma omp unroll partial(4)
for (T i=0; i
- +k-1
 < l ;
- i+=k
+ ++i
)
{
\( A \& i+0 \) \(
- B \& i+1
\) \(
- C \& i+2
\) \(
- D \& i+3
\)
}
`,
		Input: gen(codegen.Unrolled, 3, 1),
		Check: func(out string, res *core.Result) error {
			if n := strings.Count(out, "#pragma omp unroll partial(4)"); n != 3 {
				return fmt.Errorf("want 3 re-rolled loops, got %d:\n%s", n, out)
			}
			return wantNot(out, "+4-1", "v0+1", "v0+2", "v0+3")
		},
	}
}

func l6() Experiment {
	return Experiment{
		ID:    "L6",
		Title: "Removal of explicit loop unrolling, rules p1+r1 (safe variant)",
		Patch: `@p1@
type T;
identifier i,l;
constant k={4};
statement A,B,C,D;
@@
for (T i=0; i+k-1 < l; i+=k)
{
\( A \& i+0 \) \( B \&
- i+1
+ i+0
\) \( C \&
- i+2
+ i+0
\) \( D \&
- i+3
+ i+0
\)
}

@r1@
type T;
identifier i,l;
constant k={4};
statement p1.A;
@@
+ #pragma omp unroll partial(4)
for (T i=0; i
- +k-1
 < l ;
- i+=k
+ ++i
)
{
A
- A A A
}
`,
		Input: gen(codegen.Unrolled, 2, 1),
		Check: func(out string, res *core.Result) error {
			if !res.Matched["r1"] {
				return fmt.Errorf("r1 did not match after p1 normalisation:\n%s", out)
			}
			if n := strings.Count(out, "#pragma omp unroll partial(4)"); n != 2 {
				return fmt.Errorf("want 2 re-rolled loops, got %d:\n%s", n, out)
			}
			// exactly one body statement per loop remains
			if n := strings.Count(out, "s[v0+0] = q[v0+0]"); n != 1 {
				return fmt.Errorf("body not collapsed to one statement:\n%s", out)
			}
			return wantNot(out, "v0+1", "v1+1", "v0+=4")
		},
	}
}

func l7() Experiment {
	return Experiment{
		ID:    "L7",
		Title: "Advanced expression modification: a[x][y][z] to C++23 a[x, y, z]",
		Patch: `@tomultiindex@
symbol a;
expression x,y,z;
@@
- a[x][y][z]
+ a[x, y, z]
`,
		Opts:  core.Options{CPlusPlus: true, Std: 23},
		Input: gen(codegen.NestedIndex, 3, 2),
		Check: func(out string, res *core.Result) error {
			if strings.Contains(out, "[i][j][k]") {
				return fmt.Errorf("nested subscripts remain:\n%s", out)
			}
			return want(out, "a[i, j, k] =")
		},
	}
}

func l8() Experiment {
	return Experiment{
		ID:    "L8",
		Title: "CUDA to HIP: function dictionary via script rules",
		Patch: `@initialize:python@ @@
C2HF = { "curand_uniform_double":
 "rocrand_uniform_double" }

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
coccinelle.nf =
 cocci.make_ident(C2HF[fn]);

@hfe@
identifier cfe.fn;
identifier cf2hf.nf;
position cfe.p;
@@
- fn@p
+ nf
(...)
`,
		Input: gen(codegen.Curand, 3, 2),
		Check: func(out string, res *core.Result) error {
			if err := wantNot(out, "curand_uniform_double"); err != nil {
				return err
			}
			return want(out, "rocrand_uniform_double(gen)")
		},
	}
}

func l9() Experiment {
	return Experiment{
		ID:    "L9",
		Title: "CUDA to HIP: type dictionary via script rules",
		Patch: `@initialize:python@ @@
C2HT = { "__half": "rocblas_half" }

@cte@
type c_t;
identifier i;
@@
c_t i;

@script:python ct2hf@
c_t << cte.c_t;
h_t;
@@
coccinelle.h_t = cocci.make_type(C2HT[c_t])

@hte@
type ct2hf.h_t;
type cte.c_t;
identifier cte.i;
@@
- c_t i;
+ h_t i;
`,
		Input: gen(codegen.Curand, 3, 1),
		Check: func(out string, res *core.Result) error {
			if err := wantNot(out, "__half h;"); err != nil {
				return err
			}
			return want(out, "rocblas_half h;")
		},
	}
}

func l10() Experiment {
	return Experiment{
		ID:    "L10",
		Title: "CUDA to HIP: triple-chevron kernel launch",
		Patch: `@@
identifier k;
expression b,t,x,y;
expression list el;
@@
- k<<<b,t,x,y>>>(el)
+ hipLaunchKernelGGL(k,b,t,x,y,el)
`,
		Opts:  core.Options{CUDA: true},
		Input: gen(codegen.CUDA, 2, 2),
		Check: func(out string, res *core.Result) error {
			if err := wantNot(out, "<<<"); err != nil {
				return err
			}
			return want(out, "hipLaunchKernelGGL(dev_kernel_0,gridOf(n),")
		},
	}
}

func l11() Experiment {
	return Experiment{
		ID:    "L11",
		Title: "Translation of directive-based APIs: OpenACC to OpenMP",
		Patch: `@moa@
pragmainfo pi;
@@
#pragma acc pi

@script:go o2o@
pi << moa.pi;
po;
@@
(translated by internal/accomp)

@@
pragmainfo moa.pi;
pragmainfo o2o.po;
@@
- #pragma acc pi
+ #pragma omp po
`,
		Input: gen(codegen.OpenACC, 3, 1),
		Setup: func(eng *core.Engine) {
			eng.RegisterScript("o2o", func(in map[string]string) (map[string]string, error) {
				omp, _, err := accomp.Translate(in["pi"], accomp.Host)
				if err != nil {
					return nil, err
				}
				return map[string]string{"po": omp}, nil
			})
		},
		Fidelity: "The paper's o2o rule returns a hardcoded clause for brevity; " +
			"ours calls the real directive translator (internal/accomp) through " +
			"the Go script host, which is the 'small parser and translator' the " +
			"listing alludes to.",
		Check: func(out string, res *core.Result) error {
			if err := wantNot(out, "#pragma acc"); err != nil {
				return err
			}
			return want(out, "#pragma omp parallel for")
		},
	}
}

func l12() Experiment {
	return Experiment{
		ID:    "L12",
		Title: "Modern C++ STL constructs: raw search loop to std::find",
		Patch: `@rl@
type T;
constant k;
identifier elem,result,arrid;
@@
- bool result = false;
...
- for ( T &elem : arrid )
- if ( \( elem == k \| k == elem \) )
- {
- ...
- result = true;
- break;
- }
+ const bool result =
+ (find(begin(arrid),end(arrid),k) !=
+ end(arrid));

@ah depends on rl@
@@
#include <iostream>
+ #include <algorithm>
+ #include <functional>
`,
		Opts:  core.Options{CPlusPlus: true, Std: 17},
		Input: gen(codegen.SearchLoops, 3, 1),
		Check: func(out string, res *core.Result) error {
			if !res.Matched["rl"] || !res.Matched["ah"] {
				return fmt.Errorf("rules did not chain: %+v", res.Matched)
			}
			if err := want(out, "#include <algorithm>", "#include <functional>",
				"const bool found ="); err != nil {
				return err
			}
			return wantNot(out, "found = true;", "bool found = false;")
		},
	}
}

func l13() Experiment {
	return Experiment{
		ID:    "L13",
		Title: "Introduction of APIs enclosing lambdas (Kokkos)",
		Patch: `@r0@ @@
+ #include <Kokkos_Core.hpp>
#include <cmath>

@r1@
statement fb, fc;
expression n;
identifier c = {i,j};
position p;
@@
(
fc@p
&
for (...;c<n;...) fb
)

@script:python r2@
fb << r1.fb;
lb;
rp;
@@
coccinelle.lb = "KOKKOS_LAMBDA(const int i)" + fb;
coccinelle.rp = "RangePolicy<HostExecutionSpace>(0,n)";

@r3@
statement r1.fc;
position r1.p;
identifier r2.lb;
identifier r2.rp;
@@
(
fc@p
&
(
- for (...;...;...) { ... result += ...; }
+ parallel_reduce(rp, lb);
|
- for (...;...;...) { ... }
+ parallel_for(rp, lb);
)
)
`,
		Opts: core.Options{CPlusPlus: true, Std: 17},
		Input: func() string {
			return `#include <cmath>
void axpy(int n, double *x, double *y, double a) {
	for (int i = 0; i < n; ++i) { y[i] = a * x[i] + y[i]; }
	for (int q = 0; q < m; ++q) { other(q); }
}
double dot(int n, double *x, double *y) {
	double result = 0;
	for (int i = 0; i < n; ++i) { result += x[i] * y[i]; }
	return result;
}
`
		},
		Fidelity: "Exercises the paper's 'string as identifier' loophole: the " +
			"lambda body flows through an identifier metavariable as plain text.",
		Check: func(out string, res *core.Result) error {
			if err := want(out, "#include <Kokkos_Core.hpp>",
				"parallel_for(RangePolicy<HostExecutionSpace>(0,n), KOKKOS_LAMBDA(const int i){ y[i] = a * x[i] + y[i]; });",
				"parallel_reduce(RangePolicy<HostExecutionSpace>(0,n), KOKKOS_LAMBDA(const int i){ result += x[i] * y[i]; });"); err != nil {
				return err
			}
			// the loop with index q is not in the {i,j} set and must survive
			return want(out, "for (int q = 0; q < m; ++q) { other(q); }")
		},
	}
}

func l14() Experiment {
	return Experiment{
		ID:    "L14",
		Title: "Workarounds for occasional compiler bugs (librsb pragma injection)",
		Patch: `@pragma_inject@
identifier i =~ "rsb__BCSR_spmv_sasa_double_complex_[CH]__t[NTC]_r1_c1_uu_s[HS]_dE_uG";
type T;
@@
+ #pragma GCC push_options
+ #pragma GCC optimize "-O3", "-fno-tree-loop-vectorize"
T i(...)
{
...
}
+ #pragma GCC pop_options
`,
		Input: gen(codegen.Librsb, 9, 2),
		Check: func(out string, res *core.Result) error {
			// 3 of 9 functions are affected (every third)
			if n := strings.Count(out, "#pragma GCC push_options"); n != 3 {
				return fmt.Errorf("want 3 protected functions, got %d:\n%s", n, out)
			}
			if n := strings.Count(out, "#pragma GCC pop_options"); n != 3 {
				return fmt.Errorf("push/pop mismatch:\n%s", out)
			}
			return nil
		},
	}
}

// s6 is the [ML21] companion case study: AoS-to-SoA access rewriting.
func s6() Experiment {
	return Experiment{
		ID:    "S6",
		Title: "AoS to SoA access rewriting (the [ML21] GADGET case study)",
		Patch: `@soa@
identifier fld;
expression idx;
symbol P;
@@
- P[idx].fld
+ P_soa.fld[idx]
`,
		Input: gen(codegen.AoS, 3, 3),
		Fidelity: "The GADGET sources are not redistributable; the workload " +
			"generator emits particle AoS loops with the same access shapes " +
			"([ML21] reports tens of accesses per loop over thousands of loops).",
		Check: func(out string, res *core.Result) error {
			if strings.Contains(out, "P[i].") {
				return fmt.Errorf("AoS accesses remain:\n%s", out)
			}
			return want(out, "P_soa.px[i]", "P_soa.vx[i]")
		},
	}
}
