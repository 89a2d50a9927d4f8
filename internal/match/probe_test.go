package match

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/cfg"
)

// A `when` probe runs on the match's own bindings and must leave them as it
// found them, whether it succeeds or fails partway. Both dots engines are
// checked.
const probePatch = `@r@
expression X;
@@
begin();
... when != h(X, X)
end();
`

// A probe that binds X to a, then fails on the second argument, must not
// leave X bound: the next probe, on h(b, b), has to see X free and match,
// which rules the path out.
func TestWhenProbeFailureLeavesNoBinding(t *testing.T) {
	src := `void f(void){
	begin();
	h(a, b);
	h(b, b);
	end();
}
`
	for _, engine := range []string{"seq", "cfg"} {
		m, _ := compile(t, probePatch, src)
		if engine == "cfg" {
			withCFG(m)
		}
		if n := len(m.FindAll()); n != 0 {
			t.Errorf("%s: matches=%d want 0 (h(b, b) is forbidden)", engine, n)
		}
	}
}

// A probe that succeeds on an arm the path search reaches vetoes that arm
// only; the match through the other arm must not inherit the probe's
// binding of X.
func TestWhenProbeSuccessLeavesNoBinding(t *testing.T) {
	src := `void f(int c){
	begin();
	if (c) { h(a, a); } else { g(); }
	end();
}
`
	m, _ := compile(t, probePatch, src)
	ms := withCFG(m).FindAll()
	if len(ms) != 1 {
		t.Fatalf("CFG matches=%d want 1 (through the else arm)", len(ms))
	}
	if b, ok := ms[0].Env["X"]; ok {
		t.Errorf("match env binds X=%q; a probe's binding leaked", b.Norm)
	}
}

// diamonds is one function with n if/else diamonds between the anchors.
func diamonds(n int) string {
	var sb strings.Builder
	sb.WriteString("void k(int x){\n\tprepare(x);\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "\tif (x > %d) { work_%d(x, %d); } else { idle_%d(x); }\n", i, i, i*7, i)
	}
	sb.WriteString("\tcommit(x);\n}\n")
	return sb.String()
}

// whenPatch builds a dots patch with one `when !=` line per forbidden call.
func whenPatch(forbidden ...string) string {
	var sb strings.Builder
	sb.WriteString("@r@\nexpression E;\n@@\nprepare(E);\n...")
	for i, f := range forbidden {
		if i > 0 {
			sb.WriteString("\n   ")
		}
		sb.WriteString(" when != " + f)
	}
	sb.WriteString("\ncommit(E);\n")
	return sb.String()
}

// The path search checks every constraint on each node it reaches without
// copying the bindings, so the matcher allocates no more with five `when !=`
// constraints than with one. The comparison is relative, so it holds under
// the race detector too.
func TestWhenConstraintsAllocationScaling(t *testing.T) {
	src := diamonds(8)
	allocs := func(patch string) float64 {
		m, _ := compile(t, patch, src)
		g := cfg.Build(m.Code.Funcs()[0])
		m.CFGs = func(*cast.FuncDef) *cfg.Graph { return g }
		if n := len(m.FindAll()); n != 1 {
			t.Fatalf("matches=%d want 1", n)
		}
		return testing.AllocsPerRun(20, func() { m.FindAll() })
	}
	one := allocs(whenPatch("giveup(E)"))
	five := allocs(whenPatch("giveup(E)", "reset(E)", "retry(E)", "checkpoint(E)", "abort_run()"))
	t.Logf("allocs per FindAll: %.0f with one constraint, %.0f with five", one, five)
	if five > one {
		t.Errorf("FindAll allocates %.0f with five when != constraints, %.0f with one; want no growth", five, one)
	}
}
