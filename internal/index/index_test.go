package index

import (
	"strings"
	"testing"

	"repro/internal/smpl"
)

func build(t *testing.T, patchText string) *Index {
	t.Helper()
	p, err := smpl.ParsePatch("t.cocci", patchText)
	if err != nil {
		t.Fatal(err)
	}
	return Build(p)
}

func may(t *testing.T, ix *Index, src string, defines ...string) bool {
	t.Helper()
	return ix.ForDefines(defines).MayMatch(src)
}

func TestContainsWord(t *testing.T) {
	cases := []struct {
		src, w string
		want   bool
	}{
		{"foo(x);", "foo", true},
		{"int foo;", "foo", true},
		{"foo", "foo", true},
		{"foobar(x);", "foo", false},
		{"myfoo(x);", "foo", false},
		{"my_foo(x);", "foo", false},
		{"foo_2(x);", "foo", false},
		{"a foo b foo2", "foo", true},
		{"xfoo foo", "foo", true}, // second occurrence is word-bounded
		{"", "foo", false},
		{"foo", "", true},
		{"#pragma omp parallel", "omp", true},
		{"#include <omp.h>", "omp", true},
	}
	for _, c := range cases {
		if got := ContainsWord(c.src, c.w); got != c.want {
			t.Errorf("ContainsWord(%q, %q) = %v, want %v", c.src, c.w, got, c.want)
		}
	}
}

func TestIdentWords(t *testing.T) {
	got := identWords("num_threads(4) + a->b [x1, 2y]")
	want := []string{"num_threads", "a", "b", "x1"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("identWords = %v, want %v", got, want)
	}
}

// MayMatchWords must agree with MayMatch on every source, since the scan
// cache substitutes one for the other.
func TestMayMatchWordsParity(t *testing.T) {
	patches := []string{
		"@r@\nexpression list el;\n@@\n- old_api(el)\n+ new_api(el)\n",
		"@a@\n@@\nsetup();\n\n@b depends on a@\nexpression e;\n@@\n- use(e)\n+ use2(e)\n",
		"virtual fix;\n@v depends on fix@\n@@\n- bad()\n+ good()\n",
		"@d@\nexpression e;\n@@\n(\n- alpha(e)\n+ a2(e)\n|\n- beta(e)\n+ b2(e)\n)\n",
	}
	sources := []string{
		"void f(void)\n{\n\told_api(1);\n}\n",
		"void f(void)\n{\n\tsetup();\n\tuse(2);\n}\n",
		"void f(void)\n{\n\tuse(2);\n}\n",
		"void f(void)\n{\n\tbad();\n}\n",
		"void f(void)\n{\n\tbeta(9);\n}\n",
		"void f(void)\n{\n\tnothing();\n}\n",
		"/* old_api in a comment still counts as present */\nvoid g(void) {}\n",
		"",
	}
	for _, pt := range patches {
		ix := build(t, pt)
		for _, defines := range [][]string{nil, {"fix"}} {
			if len(defines) > 0 && !strings.Contains(pt, "virtual fix") {
				continue
			}
			f := ix.ForDefines(defines)
			for _, src := range sources {
				bySrc := f.MayMatch(src)
				bySet := f.MayMatchWords(ScanWords(src))
				if bySrc != bySet {
					t.Errorf("patch %q src %q: MayMatch=%v MayMatchWords=%v", pt, src, bySrc, bySet)
				}
			}
		}
	}
}

// ruleAtoms exposes extraction results for assertions.
func ruleAtoms(t *testing.T, patchText string) []string {
	t.Helper()
	ix := build(t, patchText)
	for _, r := range ix.rules {
		if r.kind == smpl.MatchRule {
			return r.atoms
		}
	}
	t.Fatal("no match rule in patch")
	return nil
}

func hasAtom(atoms []string, w string) bool {
	for _, a := range atoms {
		if a == w {
			return true
		}
	}
	return false
}

func TestAtomsSimpleRename(t *testing.T) {
	atoms := ruleAtoms(t, "@r@\nexpression list el;\n@@\n- old_api(el)\n+ new_api(el)\n")
	if !hasAtom(atoms, "old_api") {
		t.Errorf("atoms = %v, want old_api", atoms)
	}
	if hasAtom(atoms, "new_api") {
		t.Errorf("atoms = %v: plus-line identifier must not be required", atoms)
	}
	if hasAtom(atoms, "el") {
		t.Errorf("atoms = %v: metavariable must not be required", atoms)
	}
}

// A type pattern compares the declared typedef name, so the name is the
// rule's required atom.
func TestAtomsTypedef(t *testing.T) {
	atoms := ruleAtoms(t, "@r@\ntypedef cudaStream_t;\n@@\n- cudaStream_t\n+ hipStream_t\n")
	if !hasAtom(atoms, "cudaStream_t") || hasAtom(atoms, "hipStream_t") {
		t.Errorf("atoms = %v, want cudaStream_t only", atoms)
	}
}

func TestAtomsExcludeMetavariablesAndKeywords(t *testing.T) {
	atoms := ruleAtoms(t, `@r@
expression E;
identifier f;
@@
for (...; E; ...)
  f(E);
`)
	for _, w := range []string{"E", "f", "for"} {
		if hasAtom(atoms, w) {
			t.Errorf("atoms = %v: %q must not be required", atoms, w)
		}
	}
}

func TestAtomsWhenConstraintNotRequired(t *testing.T) {
	atoms := ruleAtoms(t, `@r@
expression E;
@@
lock_acquire();
... when != forbidden_call(E)
lock_release();
`)
	if !hasAtom(atoms, "lock_acquire") || !hasAtom(atoms, "lock_release") {
		t.Errorf("atoms = %v, want lock_acquire and lock_release", atoms)
	}
	if hasAtom(atoms, "forbidden_call") {
		t.Errorf("atoms = %v: when-constraint content must not be required", atoms)
	}
}

// The full `when` family stays out of the required atoms: `when == e`
// content may be absent (the gap can be empty), and the quantifier
// keywords are not code words at all. The path engine widening dots to CFG
// traversals does not change what a file must contain to match.
func TestAtomsWhenFamilyNotRequired(t *testing.T) {
	atoms := ruleAtoms(t, `@r@
expression E;
@@
lock_acquire();
... when strict when != forbidden_call(E) when == permitted_call(E)
lock_release();
`)
	if !hasAtom(atoms, "lock_acquire") || !hasAtom(atoms, "lock_release") {
		t.Errorf("atoms = %v, want lock_acquire and lock_release", atoms)
	}
	for _, w := range []string{"forbidden_call", "permitted_call", "when", "strict"} {
		if hasAtom(atoms, w) {
			t.Errorf("atoms = %v: %q must not be required", atoms, w)
		}
	}
}

func TestAtomsDisjunctionIntersection(t *testing.T) {
	atoms := ruleAtoms(t, `@r@
expression E;
@@
- \( first_variant(E, shared_arg) \| second_variant(E, shared_arg) \)
+ unified(E)
`)
	if hasAtom(atoms, "first_variant") || hasAtom(atoms, "second_variant") {
		t.Errorf("atoms = %v: disjunction branches are alternatives, not all required", atoms)
	}
	if !hasAtom(atoms, "shared_arg") {
		t.Errorf("atoms = %v: word common to every branch is required", atoms)
	}

	ix := build(t, `@r@
expression E;
@@
- \( first_variant(E) \| second_variant(E) \)
+ unified(E)
`)
	if !may(t, ix, "void f(void) { second_variant(1); }\n") {
		t.Error("file matching only the second branch must not be skipped")
	}
	if may(t, ix, "void f(void) { unrelated(1); }\n") {
		t.Error("file matching no branch should be skipped")
	}
}

// TestRuleMayMatch pins the per-rule query the engine gates each match rule
// on: required atoms and disjunction groups against the given words only,
// with dependencies and earlier rules' insertions left to the caller.
func TestRuleMayMatch(t *testing.T) {
	ix := build(t, `@r1@
@@
- foo();
+ bar();

@r2 depends on r1@
@@
- bar();

@r3@
expression E;
@@
- \( first_variant(E) \| second_variant(E) \)
+ unified(E)
`)
	cases := []struct {
		rule int
		src  string
		want bool
	}{
		{0, "void f(void) { foo(); }\n", true},
		{0, "void f(void) { food(); }\n", false},
		// r2's dependency on r1 is not consulted ...
		{1, "void f(void) { bar(); }\n", true},
		// ... and neither are the words r1 would insert.
		{1, "void f(void) { foo(); }\n", false},
		{2, "void f(void) { second_variant(1); }\n", true},
		{2, "void f(void) { unrelated(1); }\n", false},
	}
	for _, tc := range cases {
		has := func(w string) bool { return ContainsWord(tc.src, w) }
		if got := ix.RuleMayMatch(tc.rule, has); got != tc.want {
			t.Errorf("RuleMayMatch(%d, %q) = %v, want %v", tc.rule, tc.src, got, tc.want)
		}
	}
}

func TestAtomsSymbolIsRequired(t *testing.T) {
	atoms := ruleAtoms(t, "@r@\nsymbol stride;\n@@\n- use(stride)\n+ use2(stride)\n")
	if !hasAtom(atoms, "stride") {
		t.Errorf("atoms = %v: symbol metavariables match by name and are required", atoms)
	}
}

func TestAtomsPragma(t *testing.T) {
	atoms := ruleAtoms(t, `@r@
@@
- #pragma acc parallel loop
+ #pragma omp target teams loop
`)
	for _, w := range []string{"pragma", "acc"} {
		if !hasAtom(atoms, w) {
			t.Errorf("atoms = %v, want %q", atoms, w)
		}
	}
	if hasAtom(atoms, "omp") || hasAtom(atoms, "teams") {
		t.Errorf("atoms = %v: replacement pragma words must not be required", atoms)
	}
}

func TestMayMatchSimple(t *testing.T) {
	ix := build(t, "@r@\nexpression list el;\n@@\n- old_api(el)\n+ new_api(el)\n")
	if !may(t, ix, "void f(void) { old_api(1, 2); }\n") {
		t.Error("matching file must not be skipped")
	}
	if may(t, ix, "void f(void) { other_api(1, 2); }\n") {
		t.Error("non-matching file should be skipped")
	}
	if may(t, ix, "void f(void) { my_old_api(1); }\n") {
		t.Error("substring occurrence is not a word; file should be skipped")
	}
	if !may(t, ix, "// old_api mentioned in a comment only\nint x;\n") {
		t.Error("comment occurrences count as present (conservative)")
	}
}

func TestMayMatchDependencyChain(t *testing.T) {
	patch := `@first@
@@
- alpha_call()
+ alpha_new()

@second depends on first@
@@
- beta_call()
+ beta_new()
`
	ix := build(t, patch)
	// beta_call present but alpha_call absent: first cannot fire, so second
	// (depends on first) cannot either.
	if may(t, ix, "void f(void) { beta_call(); }\n") {
		t.Error("dependent rule without its root must be skipped")
	}
	if !may(t, ix, "void f(void) { alpha_call(); }\n") {
		t.Error("root rule's atoms present: file must be processed")
	}

	// With `depends on !first`, the second rule can fire exactly when the
	// first does not — so beta_call alone must keep the file.
	notPatch := strings.Replace(patch, "depends on first", "depends on !first", 1)
	ix = build(t, notPatch)
	if !may(t, ix, "void f(void) { beta_call(); }\n") {
		t.Error("negated dependency can hold when the root rule cannot fire")
	}
	if may(t, ix, "void f(void) { gamma_call(); }\n") {
		t.Error("neither rule's atoms present: skip")
	}
}

func TestMayMatchVirtualRules(t *testing.T) {
	patch := `virtual with_omp;

@r depends on with_omp@
expression list el;
@@
- old_api(el)
+ omp_api(el)
`
	ix := build(t, patch)
	src := "void f(void) { old_api(1); }\n"
	if may(t, ix, src) {
		t.Error("undefined virtual disables the rule: skip even with atoms present")
	}
	if !may(t, ix, src, "with_omp") {
		t.Error("defined virtual enables the rule: atoms present, keep")
	}
	if may(t, ix, "void f(void) { other(); }\n", "with_omp") {
		t.Error("defined virtual but atoms absent: skip")
	}
}

func TestMayMatchInsertedAtomsWiden(t *testing.T) {
	// Rule two's atom (bridge_helper) is inserted by rule one's plus lines:
	// a file containing only start_call must stay in.
	patch := `@one@
expression E;
@@
- start_call(E)
+ bridge_helper(E)

@two@
expression E;
@@
- bridge_helper(E)
+ final_call(E)
`
	ix := build(t, patch)
	if !may(t, ix, "void f(void) { start_call(1); }\n") {
		t.Error("atom inserted by an earlier firable rule must satisfy later rules")
	}
	if may(t, ix, "void f(void) { neither(1); }\n") {
		t.Error("no rule's atoms present: skip")
	}
}

func TestMayMatchFreshIdentifierDisablesLaterPruning(t *testing.T) {
	// Rule one inserts a *fresh* identifier; anything at all might appear
	// in the file afterwards, so later rules cannot be pruned by atoms.
	patch := `@one@
expression E;
fresh identifier tmp = "t";
@@
- seed_call(E)
+ seed_call(tmp)

@two@
expression E;
@@
- unrelated_call(E)
+ other(E)
`
	ix := build(t, patch)
	if !may(t, ix, "void f(void) { seed_call(1); }\n") {
		t.Error("after an unknown insertion, later rules must stay possible")
	}
	if may(t, ix, "void f(void) { nothing_here(1); }\n") {
		t.Error("rule one cannot fire, so its insertions never happen: skip")
	}
}

func TestMayMatchScriptRules(t *testing.T) {
	// A script rule whose inputs come from an unfirable match rule never
	// executes, so the file is still skippable.
	patch := `@r@
identifier f;
@@
- probe_call(f)
+ probe2(f)

@script:python s@
f << r.f;
g;
@@
g = f + "_x"
`
	ix := build(t, patch)
	if may(t, ix, "void f(void) { other(); }\n") {
		t.Error("script inputs depend on an unfirable rule: skip")
	}
	if !may(t, ix, "void f(void) { probe_call(x); }\n") {
		t.Error("root rule possible: keep")
	}

	// A script rule with no inputs executes on every file (it counts as a
	// match), so nothing is ever skippable.
	noInput := `@r@
identifier f;
@@
- probe_call(f)
+ probe2(f)

@script:python s@
g;
@@
g = "fixed"
`
	ix = build(t, noInput)
	if !may(t, ix, "void f(void) { other(); }\n") {
		t.Error("input-less script rule always runs: never skip")
	}
}

func TestMayMatchEmptyAtomRule(t *testing.T) {
	// A rule made only of metavariables has no atoms; nothing can be
	// skipped.
	ix := build(t, "@r@\nexpression E;\nidentifier f;\n@@\n- f(E)\n+ f(E, 0)\n")
	if !may(t, ix, "int x;\n") {
		t.Error("atom-free rule can match anything: never skip")
	}
}

func TestMayMatchInitializeFinalize(t *testing.T) {
	// Initialize bodies execute whenever the patch runs on a file, and a
	// failing body must surface as that file's error — so their presence
	// keeps every file in.
	ix := build(t, `@initialize:python@ @@
X = 0

@r@
expression list el;
@@
- old_api(el)
+ new_api(el)
`)
	if !may(t, ix, "void f(void) { other(); }\n") {
		t.Error("an unconditional initialize rule must disable skipping")
	}

	// Finalizers run unconditionally (their dependency is not consulted),
	// same conclusion.
	ix = build(t, `@r@
expression list el;
@@
- old_api(el)
+ new_api(el)

@finalize:python@ @@
X = 1
`)
	if !may(t, ix, "void f(void) { other(); }\n") {
		t.Error("a finalize rule must disable skipping")
	}
}
