package lint

import (
	"strings"
	"testing"

	"repro/internal/hpc"
	"repro/internal/patchlib"
	"repro/internal/smpl"
)

func parse(t *testing.T, text string) *smpl.Patch {
	t.Helper()
	p, err := smpl.ParsePatch("test.cocci", text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// codes extracts the issue codes for easy assertions.
func codes(issues []Issue) []string {
	out := make([]string, len(issues))
	for i, is := range issues {
		out[i] = is.Code
	}
	return out
}

func hasCode(issues []Issue, code string) bool {
	for _, is := range issues {
		if is.Code == code {
			return true
		}
	}
	return false
}

func TestUnusedMetavar(t *testing.T) {
	p := parse(t, `@r@
expression E;
expression Dead;
@@
- f(E);
+ g(E);
`)
	issues := Check(p)
	if !hasCode(issues, CodeUnusedMetavar) {
		t.Fatalf("want unused-metavar, got %v", codes(issues))
	}
	for _, is := range issues {
		if is.Code == CodeUnusedMetavar && !strings.Contains(is.Msg, "Dead") {
			t.Fatalf("unused-metavar names the wrong metavariable: %s", is.Msg)
		}
	}
}

func TestUnboundMetavar(t *testing.T) {
	p := parse(t, `@r@
expression E;
expression Ghost;
@@
- f(E);
+ g(E, Ghost);
`)
	issues := Check(p)
	if !hasCode(issues, CodeUnboundMetavar) {
		t.Fatalf("want unbound-metavar, got %v", codes(issues))
	}
}

// A metavariable referenced only by a check message still needs a binding.
func TestUnboundMetavarInCheckMsg(t *testing.T) {
	p := parse(t, `// gocci:check id=c severity=warning msg="saw Ghost here"
@r@
expression E;
expression Ghost;
@@
* f(E);
`)
	if !hasCode(Check(p), CodeUnboundMetavar) {
		t.Fatal("check-msg-only metavariable not reported as unbindable")
	}
}

// Inherited and position metavariables are bindable by other means and must
// not be reported; a used one produces no metavar issues at all.
func TestMetavarCleanCases(t *testing.T) {
	p := parse(t, `@a@
expression E;
identifier fn = {f};
position p;
@@
* fn@p(E);

@b@
expression a.E;
@@
- g(E);
+ h(E);
`)
	for _, is := range Check(p) {
		if is.Code == CodeUnusedMetavar || is.Code == CodeUnboundMetavar {
			t.Fatalf("clean patch reported %v", is)
		}
	}
}

// A typedef rule declares a type name, not a metavariable, and its name is
// the rule's prefilter atom: vet has nothing to say about it.
func TestTypedefRuleClean(t *testing.T) {
	p := parse(t, "@@\ntypedef cudaStream_t;\n@@\n- cudaStream_t\n+ hipStream_t\n")
	if issues := Check(p); len(issues) != 0 {
		t.Errorf("typedef rule reported %v", issues)
	}
}

func TestUnreachableRule(t *testing.T) {
	p := parse(t, `@a depends on nosuchrule@
expression E;
@@
- f(E);
+ g(E);

@b depends on a@
expression E;
@@
- h(E);
+ k(E);
`)
	issues := Check(p)
	n := 0
	for _, is := range issues {
		if is.Code == CodeUnreachableRule {
			n++
		}
	}
	// a is unreachable (unknown name), and the chain kills b too.
	if n != 2 {
		t.Fatalf("want 2 unreachable rules, got %d in %v", n, issues)
	}
}

func TestReachableViaVirtual(t *testing.T) {
	p := parse(t, `virtual patch;

@a depends on patch@
expression E;
@@
- f(E);
+ g(E);
`)
	if hasCode(Check(p), CodeUnreachableRule) {
		t.Fatal("virtual-gated rule reported unreachable")
	}
}

func TestShadowedBranch(t *testing.T) {
	p := parse(t, `@r@
expression E;
@@
(
- f(E);
|
- f(x);
)
+ g();
`)
	if !hasCode(Check(p), CodeShadowedBranch) {
		t.Fatalf("f(E) | f(x): second branch not reported shadowed; got %v", codes(Check(p)))
	}
	// The reverse order is fine: the specific branch is tried first.
	q := parse(t, `@r@
expression E;
@@
(
- f(x);
|
- f(E);
)
+ g();
`)
	if hasCode(Check(q), CodeShadowedBranch) {
		t.Fatal("f(x) | f(E) wrongly reported shadowed")
	}
}

func TestUnprunableRule(t *testing.T) {
	// A bare metavariable assignment has no literal atoms at all.
	p := parse(t, `@r@
expression E1, E2;
@@
- E1 = E2;
+ E2 = E1;
`)
	if !hasCode(Check(p), CodeUnprunableRule) {
		t.Fatalf("atom-free rule not reported unprunable; got %v", codes(Check(p)))
	}
	q := parse(t, `@r@
expression E;
@@
- f(E);
+ g(E);
`)
	if hasCode(Check(q), CodeUnprunableRule) {
		t.Fatal("rule with literal f reported unprunable")
	}
}

// TestShippedPatchesVet runs the linter over every patch the repo ships —
// the patchlib experiments and all HPC campaign members. Shipped patches
// must parse and stay free of dead-rule classes (unreachable rules,
// shadowed branches, unusable metavariables); prefilter-unprunable rules
// are tolerated (some shipped rules legitimately match atom-free shapes)
// but everything else is a regression.
func TestShippedPatchesVet(t *testing.T) {
	type shipped struct{ name, text string }
	var all []shipped
	for _, e := range patchlib.Experiments() {
		all = append(all, shipped{e.ID + ".cocci", e.Patch})
	}
	for _, c := range hpc.Campaigns() {
		for _, n := range c.PatchNames() {
			all = append(all, shipped{c.Name + "/" + n, c.PatchText(n)})
		}
	}
	if len(all) < 10 {
		t.Fatalf("expected the shipped patch set, found only %d patches", len(all))
	}
	for _, s := range all {
		p, err := smpl.ParsePatch(s.name, s.text)
		if err != nil {
			t.Errorf("%s: does not parse: %v", s.name, err)
			continue
		}
		for _, is := range Check(p) {
			if is.Code == CodeUnprunableRule {
				t.Logf("note: %s", is)
				continue
			}
			t.Errorf("shipped patch has vet issue: %s", is)
		}
	}
}
