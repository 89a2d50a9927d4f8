package cfg

// Reachable reports whether `to` is reachable from `from` following edges,
// optionally excluding a node predicate (for "when != S" path constraints).
func (g *Graph) Reachable(from, to int, excluded func(*Node) bool) bool {
	if from == to {
		return true
	}
	seen := make([]bool, len(g.Nodes))
	stack := []int{from}
	seen[from] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Nodes[n].Succs {
			if s == to {
				return true
			}
			if seen[s] {
				continue
			}
			if excluded != nil && excluded(g.Nodes[s]) {
				continue
			}
			seen[s] = true
			stack = append(stack, s)
		}
	}
	return false
}

// StmtNodes returns the CFG nodes carrying real statements, in id order.
func (g *Graph) StmtNodes() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == Stmt || n.Kind == Branch {
			out = append(out, n)
		}
	}
	return out
}
