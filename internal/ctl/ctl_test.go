package ctl

import (
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/cparse"
)

func graphOf(t *testing.T, src string) (*cast.File, *cfg.Graph) {
	t.Helper()
	f, err := cparse.Parse("t.c", src, cparse.Options{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f, cfg.Build(f.Funcs()[0])
}

// pred matches Stmt-kind nodes only: a Branch node's AST spans the whole
// conditional, so a plain text search would match it spuriously.
func pred(f *cast.File, sub string) Pred {
	return Pred{Name: sub, Fn: func(n *cfg.Node) bool {
		return n.Kind == cfg.Stmt && n.AST != nil && strings.Contains(f.Text(n.AST), sub)
	}}
}

func nodeWith(f *cast.File, g *cfg.Graph, sub string) int {
	for _, n := range g.Nodes {
		if n.AST != nil && strings.Contains(f.Text(n.AST), sub) && n.Kind == cfg.Stmt {
			return n.ID
		}
	}
	return -1
}

func TestEFReachability(t *testing.T) {
	f, g := graphOf(t, "void f(int x){ a(); if (x) b(); c(); }")
	r := Check(g, EF{pred(f, "c()")})
	if !r.Holds(nodeWith(f, g, "a()")) {
		t.Error("EF c should hold at a")
	}
	if !r.Holds(g.EntryID) {
		t.Error("EF c should hold at entry")
	}
	r2 := Check(g, EF{pred(f, "a()")})
	if r2.Holds(nodeWith(f, g, "c()")) {
		t.Error("EF a should not hold at c (no back edge)")
	}
}

func TestAFvsEF(t *testing.T) {
	// b() happens only on one branch: EF b at entry, but not AF b.
	f, g := graphOf(t, "void f(int x){ if (x) b(); c(); }")
	if !Check(g, EF{pred(f, "b()")}).Holds(g.EntryID) {
		t.Error("EF b should hold at entry")
	}
	if Check(g, AF{pred(f, "b()")}).Holds(g.EntryID) {
		t.Error("AF b must not hold at entry (else-path avoids b)")
	}
	// c() happens on all paths.
	if !Check(g, AF{pred(f, "c()")}).Holds(g.EntryID) {
		t.Error("AF c should hold at entry")
	}
}

func TestAFThroughLoop(t *testing.T) {
	// Standard CTL over the CFG: the cycle head->body->head is an infinite
	// path that never reaches after(), so AF after must NOT hold at entry,
	// while EF after does. This mirrors why Coccinelle needs `when strict`
	// to force matching around loops.
	f, g := graphOf(t, "void f(int n){ while (n) { n--; } after(); }")
	if Check(g, AF{pred(f, "after()")}).Holds(g.EntryID) {
		t.Error("AF after must fail at entry: the loop may spin forever")
	}
	if !Check(g, EF{pred(f, "after()")}).Holds(g.EntryID) {
		t.Error("EF after should hold at entry")
	}
	// EG !after: an infinite path staying in the loop exists.
	if !Check(g, EG{Not{pred(f, "after()")}}).Holds(g.EntryID) {
		t.Error("EG !after should hold: the loop can spin forever")
	}
}

func TestEUAndAU(t *testing.T) {
	f, g := graphOf(t, "void f(int x){ lock(); if (x) { use(); } unlock(); }")
	lockID := nodeWith(f, g, "lock()")
	// From lock, there is a path where nothing is unlock-before... E[!unlock U use]
	r := Check(g, EU{Not{pred(f, "unlock()")}, pred(f, "use()")})
	if !r.Holds(lockID) {
		t.Error("E[!unlock U use] should hold at lock()")
	}
	// A[!use U unlock] does NOT hold at lock (the then-branch hits use first).
	r2 := Check(g, AU{Not{pred(f, "use()")}, pred(f, "unlock()")})
	if r2.Holds(lockID) {
		t.Error("A[!use U unlock] must fail at lock(): then-branch sees use() first")
	}
}

func TestAGInvariant(t *testing.T) {
	f, g := graphOf(t, "void f(){ a(); b(); }")
	// AG (!bad) holds everywhere since bad() never occurs.
	if !Check(g, AG{Not{pred(f, "bad()")}}).Holds(g.EntryID) {
		t.Error("AG !bad should hold")
	}
	if Check(g, AG{Not{pred(f, "b()")}}).Holds(g.EntryID) {
		t.Error("AG !b must fail: b() is reachable")
	}
}

func TestEXAndAX(t *testing.T) {
	f, g := graphOf(t, "void f(){ a(); b(); }")
	aID := nodeWith(f, g, "a()")
	if !Check(g, EX{pred(f, "b()")}).Holds(aID) {
		t.Error("EX b should hold at a")
	}
	if !Check(g, AX{pred(f, "b()")}).Holds(aID) {
		t.Error("AX b should hold at a (single successor)")
	}
}

func TestAllPathsReach(t *testing.T) {
	f, g := graphOf(t, "void f(int x){ a(); if (x) return; b(); }")
	aID := nodeWith(f, g, "a()")
	if AllPathsReach(g, aID, func(n *cfg.Node) bool {
		return n.AST != nil && strings.Contains(f.Text(n.AST), "b()")
	}) {
		t.Error("the return path avoids b()")
	}
	// exit is reached on all paths
	if !AllPathsReach(g, aID, func(n *cfg.Node) bool { return n.Kind == cfg.Exit }) {
		t.Error("all paths must reach exit")
	}
}

func TestBooleanCombinators(t *testing.T) {
	f, g := graphOf(t, "void f(){ a(); b(); }")
	aID := nodeWith(f, g, "a()")
	isA := pred(f, "a()")
	isB := pred(f, "b()")
	if !Check(g, And{isA, Not{isB}}).Holds(aID) {
		t.Error("a && !b should hold at a")
	}
	if !Check(g, Or{isB, isA}).Holds(aID) {
		t.Error("b || a should hold at a")
	}
	if !Check(g, True{}).Holds(aID) {
		t.Error("true should hold")
	}
}
