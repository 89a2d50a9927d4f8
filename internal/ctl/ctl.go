// Package ctl implements a computation tree logic (CTL) model checker over
// control-flow graphs. Coccinelle's matching semantics for statement dots is
// defined in terms of CTL with variables and witnesses (CTL-VW); this package
// provides the temporal core used to decide path constraints such as
// "between these two match points, no path may contain statement S"
// (`when != S`) and reachability along all/any paths.
package ctl

import "repro/internal/cfg"

// Formula is a CTL formula over CFG nodes.
type Formula interface{ isFormula() }

// Pred holds a node predicate with a human-readable name.
type Pred struct {
	Name string
	Fn   func(*cfg.Node) bool
}

// True matches every node.
type True struct{}

// Not negates a formula.
type Not struct{ F Formula }

// And is conjunction.
type And struct{ L, R Formula }

// Or is disjunction.
type Or struct{ L, R Formula }

// EX: some successor satisfies F.
type EX struct{ F Formula }

// AX: all successors satisfy F (and at least one exists).
type AX struct{ F Formula }

// EF: some path eventually reaches F.
type EF struct{ F Formula }

// AF: all paths eventually reach F.
type AF struct{ F Formula }

// EG: some path where F holds globally.
type EG struct{ F Formula }

// AG: F holds on all reachable nodes.
type AG struct{ F Formula }

// EU: E[L U R] — some path where L holds until R.
type EU struct{ L, R Formula }

// AU: A[L U R] — on all paths L holds until R (and R is reached).
type AU struct{ L, R Formula }

func (Pred) isFormula() {}
func (True) isFormula() {}
func (Not) isFormula()  {}
func (And) isFormula()  {}
func (Or) isFormula()   {}
func (EX) isFormula()   {}
func (AX) isFormula()   {}
func (EF) isFormula()   {}
func (AF) isFormula()   {}
func (EG) isFormula()   {}
func (AG) isFormula()   {}
func (EU) isFormula()   {}
func (AU) isFormula()   {}

// Result is the satisfying set of a formula over a graph's nodes.
type Result struct {
	g   *cfg.Graph
	set []bool
}

// Holds reports whether node id satisfies the checked formula.
func (r *Result) Holds(id int) bool { return id >= 0 && id < len(r.set) && r.set[id] }

// Nodes returns the ids of satisfying nodes in order.
func (r *Result) Nodes() []int {
	var out []int
	for i, b := range r.set {
		if b {
			out = append(out, i)
		}
	}
	return out
}

// Check evaluates the formula on every node of the graph using the standard
// fixpoint characterisations of the CTL operators.
func Check(g *cfg.Graph, f Formula) *Result {
	return &Result{g: g, set: eval(g, f)}
}

func eval(g *cfg.Graph, f Formula) []bool {
	n := len(g.Nodes)
	set := make([]bool, n)
	switch x := f.(type) {
	case True:
		for i := range set {
			set[i] = true
		}
	case Pred:
		for i, node := range g.Nodes {
			set[i] = x.Fn(node)
		}
	case Not:
		inner := eval(g, x.F)
		for i := range set {
			set[i] = !inner[i]
		}
	case And:
		l, r := eval(g, x.L), eval(g, x.R)
		for i := range set {
			set[i] = l[i] && r[i]
		}
	case Or:
		l, r := eval(g, x.L), eval(g, x.R)
		for i := range set {
			set[i] = l[i] || r[i]
		}
	case EX:
		inner := eval(g, x.F)
		for i, node := range g.Nodes {
			for _, s := range node.Succs {
				if inner[s] {
					set[i] = true
					break
				}
			}
		}
	case AX:
		inner := eval(g, x.F)
		for i, node := range g.Nodes {
			if len(node.Succs) == 0 {
				continue
			}
			ok := true
			for _, s := range node.Succs {
				if !inner[s] {
					ok = false
					break
				}
			}
			set[i] = ok
		}
	case EF:
		// EF f = mu Z. f \/ EX Z : backward reachability from f-nodes.
		inner := eval(g, x.F)
		copy(set, inner)
		work := queueOf(set)
		for len(work) > 0 {
			id := work[len(work)-1]
			work = work[:len(work)-1]
			for _, p := range g.Nodes[id].Preds {
				if !set[p] {
					set[p] = true
					work = append(work, p)
				}
			}
		}
	case AF:
		// AF f = mu Z. f \/ (AX Z and some successor): count-down algorithm.
		inner := eval(g, x.F)
		copy(set, inner)
		remaining := make([]int, n)
		for i, node := range g.Nodes {
			remaining[i] = len(node.Succs)
		}
		work := queueOf(set)
		for len(work) > 0 {
			id := work[len(work)-1]
			work = work[:len(work)-1]
			for _, p := range g.Nodes[id].Preds {
				if set[p] {
					continue
				}
				remaining[p]--
				if remaining[p] == 0 {
					set[p] = true
					work = append(work, p)
				}
			}
		}
	case EG:
		// EG f = nu Z. f /\ (EX Z or no successor): greatest fixpoint by
		// iterative pruning.
		inner := eval(g, x.F)
		copy(set, inner)
		for changed := true; changed; {
			changed = false
			for i, node := range g.Nodes {
				if !set[i] {
					continue
				}
				if len(node.Succs) == 0 {
					continue
				}
				ok := false
				for _, s := range node.Succs {
					if set[s] {
						ok = true
						break
					}
				}
				if !ok {
					set[i] = false
					changed = true
				}
			}
		}
	case AG:
		// AG f = not EF not f
		return eval(g, Not{EF{Not{x.F}}})
	case EU:
		l, r := eval(g, x.L), eval(g, x.R)
		copy(set, r)
		work := queueOf(set)
		for len(work) > 0 {
			id := work[len(work)-1]
			work = work[:len(work)-1]
			for _, p := range g.Nodes[id].Preds {
				if !set[p] && l[p] {
					set[p] = true
					work = append(work, p)
				}
			}
		}
	case AU:
		// A[l U r] = mu Z. r \/ (l /\ AX Z /\ some successor)
		l, r := eval(g, x.L), eval(g, x.R)
		copy(set, r)
		remaining := make([]int, n)
		for i, node := range g.Nodes {
			remaining[i] = len(node.Succs)
		}
		work := queueOf(set)
		for len(work) > 0 {
			id := work[len(work)-1]
			work = work[:len(work)-1]
			for _, p := range g.Nodes[id].Preds {
				if set[p] || !l[p] {
					continue
				}
				remaining[p]--
				if remaining[p] == 0 {
					set[p] = true
					work = append(work, p)
				}
			}
		}
	}
	return set
}

func queueOf(set []bool) []int {
	var q []int
	for i, b := range set {
		if b {
			q = append(q, i)
		}
	}
	return q
}

// AllPathsReach reports whether every path from `from` eventually reaches a
// node satisfying `to` (AF at from).
func AllPathsReach(g *cfg.Graph, from int, to func(*cfg.Node) bool) bool {
	return Check(g, AF{Pred{Name: "to", Fn: to}}).Holds(from)
}
