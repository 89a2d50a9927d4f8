// Package cfg builds intraprocedural control-flow graphs over function
// bodies. The graph is the model over which the path engine
// (internal/match) evaluates dots and `when` constraints: a statement-level
// wildcard in a semantic patch matches a set of paths in this graph,
// exactly as in Coccinelle's CTL-VW formalisation.
package cfg

import (
	"fmt"
	"strings"

	"repro/internal/cast"
)

// NodeKind classifies CFG nodes.
type NodeKind uint8

// CFG node kinds.
const (
	Entry NodeKind = iota
	Exit
	Stmt   // a non-compound statement
	Branch // a condition evaluation (if/while/for/switch headers)
	Join   // a no-op merge point
)

func (k NodeKind) String() string {
	switch k {
	case Entry:
		return "entry"
	case Exit:
		return "exit"
	case Stmt:
		return "stmt"
	case Branch:
		return "branch"
	case Join:
		return "join"
	}
	return "?"
}

// Node is one CFG vertex.
type Node struct {
	ID   int
	Kind NodeKind
	// AST is the statement or condition expression this node represents;
	// nil for entry/exit/join.
	AST cast.Node
	// Succs and Preds are edge lists (node IDs).
	Succs []int
	Preds []int
}

// Graph is the CFG of one function.
type Graph struct {
	Func  *cast.FuncDef
	Nodes []*Node
	// EntryID and ExitID index into Nodes.
	EntryID, ExitID int
}

// builder state for one graph.
type builder struct {
	g *Graph
	// break/continue targets, innermost last
	breaks    []int
	continues []int
	// labels
	labels map[string]int
	gotos  []struct {
		from  int
		label string
	}
}

// Build constructs the CFG for a function definition.
func Build(fd *cast.FuncDef) *Graph {
	b := &builder{g: &Graph{Func: fd}, labels: map[string]int{}}
	entry := b.node(Entry, nil)
	exit := b.node(Exit, nil)
	b.g.EntryID = entry
	b.g.ExitID = exit
	var last = entry
	if fd.Body != nil {
		last = b.stmts(fd.Body.Items, entry)
	}
	if last >= 0 {
		b.edge(last, exit)
	}
	// resolve gotos
	for _, g := range b.gotos {
		if to, ok := b.labels[g.label]; ok {
			b.edge(g.from, to)
		} else {
			b.edge(g.from, exit)
		}
	}
	return b.g
}

func (b *builder) node(k NodeKind, ast cast.Node) int {
	n := &Node{ID: len(b.g.Nodes), Kind: k, AST: ast}
	b.g.Nodes = append(b.g.Nodes, n)
	return n.ID
}

func (b *builder) edge(from, to int) {
	if from < 0 || to < 0 {
		return
	}
	f := b.g.Nodes[from]
	for _, s := range f.Succs {
		if s == to {
			return
		}
	}
	f.Succs = append(f.Succs, to)
	b.g.Nodes[to].Preds = append(b.g.Nodes[to].Preds, from)
}

// stmts wires a statement sequence after `prev`, returning the node that
// falls through to whatever follows (or -1 if control never falls through).
func (b *builder) stmts(items []cast.Stmt, prev int) int {
	cur := prev
	for _, s := range items {
		cur = b.stmt(s, cur)
		if cur < 0 {
			// unreachable code after a jump still gets nodes, linked from
			// nowhere, so matching can see it; feed a fresh join as anchor.
			cur = b.node(Join, nil)
		}
	}
	return cur
}

// stmt wires one statement after prev; returns fall-through node or -1.
func (b *builder) stmt(s cast.Stmt, prev int) int {
	switch x := s.(type) {
	case *cast.Compound:
		return b.stmts(x.Items, prev)
	case *cast.If:
		cond := b.node(Branch, x)
		b.edge(prev, cond)
		thenEnd := b.stmt(x.Then, cond)
		join := b.node(Join, nil)
		if thenEnd >= 0 {
			b.edge(thenEnd, join)
		}
		if x.Else != nil {
			elseEnd := b.stmt(x.Else, cond)
			if elseEnd >= 0 {
				b.edge(elseEnd, join)
			}
		} else {
			b.edge(cond, join)
		}
		return join
	case *cast.For:
		head := b.node(Branch, x)
		b.edge(prev, head)
		after := b.node(Join, nil)
		b.pushLoop(after, head)
		bodyEnd := b.stmt(x.Body, head)
		if bodyEnd >= 0 {
			b.edge(bodyEnd, head)
		}
		b.popLoop()
		b.edge(head, after)
		return after
	case *cast.RangeFor:
		head := b.node(Branch, x)
		b.edge(prev, head)
		after := b.node(Join, nil)
		b.pushLoop(after, head)
		bodyEnd := b.stmt(x.Body, head)
		if bodyEnd >= 0 {
			b.edge(bodyEnd, head)
		}
		b.popLoop()
		b.edge(head, after)
		return after
	case *cast.While:
		head := b.node(Branch, x)
		b.edge(prev, head)
		after := b.node(Join, nil)
		b.pushLoop(after, head)
		bodyEnd := b.stmt(x.Body, head)
		if bodyEnd >= 0 {
			b.edge(bodyEnd, head)
		}
		b.popLoop()
		b.edge(head, after)
		return after
	case *cast.DoWhile:
		bodyStart := b.node(Join, nil)
		b.edge(prev, bodyStart)
		cond := b.node(Branch, x)
		after := b.node(Join, nil)
		b.pushLoop(after, cond)
		bodyEnd := b.stmt(x.Body, bodyStart)
		if bodyEnd >= 0 {
			b.edge(bodyEnd, cond)
		}
		b.popLoop()
		b.edge(cond, bodyStart)
		b.edge(cond, after)
		return after
	case *cast.Switch:
		head := b.node(Branch, x)
		b.edge(prev, head)
		after := b.node(Join, nil)
		b.breaks = append(b.breaks, after)
		// Each case label becomes a successor of the head; fallthrough
		// between consecutive statements is preserved.
		if body, ok := x.Body.(*cast.Compound); ok {
			cur := -1
			for _, item := range body.Items {
				if c, isCase := item.(*cast.Case); isCase {
					cn := b.node(Stmt, c)
					b.edge(head, cn)
					if cur >= 0 {
						b.edge(cur, cn)
					}
					cur = cn
					continue
				}
				cur = b.stmt(item, cur)
				if cur < 0 {
					cur = -1
					// next case will re-anchor from head
					cur = -2
				}
				if cur == -2 {
					cur = -1
				}
			}
			if cur >= 0 {
				b.edge(cur, after)
			}
		} else if x.Body != nil {
			end := b.stmt(x.Body, head)
			if end >= 0 {
				b.edge(end, after)
			}
		}
		b.edge(head, after) // no matching case
		b.breaks = b.breaks[:len(b.breaks)-1]
		return after
	case *cast.Return:
		n := b.node(Stmt, x)
		b.edge(prev, n)
		b.edge(n, b.g.ExitID)
		return -1
	case *cast.Break:
		n := b.node(Stmt, x)
		b.edge(prev, n)
		if len(b.breaks) > 0 {
			b.edge(n, b.breaks[len(b.breaks)-1])
		} else {
			b.edge(n, b.g.ExitID)
		}
		return -1
	case *cast.Continue:
		n := b.node(Stmt, x)
		b.edge(prev, n)
		if len(b.continues) > 0 {
			b.edge(n, b.continues[len(b.continues)-1])
		} else {
			b.edge(n, b.g.ExitID)
		}
		return -1
	case *cast.Goto:
		n := b.node(Stmt, x)
		b.edge(prev, n)
		b.gotos = append(b.gotos, struct {
			from  int
			label string
		}{n, x.Label})
		return -1
	case *cast.Label:
		n := b.node(Join, x)
		b.edge(prev, n)
		b.labels[x.Name] = n
		return b.stmt(x.Stmt, n)
	case *cast.Empty:
		return prev
	default:
		// Plain statement: expression, declaration, pragma, nested opaque.
		n := b.node(Stmt, x)
		b.edge(prev, n)
		return n
	}
}

func (b *builder) pushLoop(brk, cont int) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// ProbeNodes returns the AST fragments a path constraint must inspect when
// a path traverses this node. For a Stmt node that is the whole statement.
// For a Branch node it is the header only — condition, loop clauses, range
// declaration — because the construct's body statements are distinct CFG
// nodes and are checked if and only if the path actually enters them. A
// path skipping over an `if` header must not be vetoed by a forbidden
// expression sitting in an arm the path never takes.
func (n *Node) ProbeNodes() []cast.Node {
	if n.AST == nil {
		return nil
	}
	if n.Kind == Stmt {
		return []cast.Node{n.AST}
	}
	if n.Kind != Branch {
		return nil
	}
	var out []cast.Node
	add := func(m cast.Node) {
		if m != nil {
			out = append(out, m)
		}
	}
	switch x := n.AST.(type) {
	case *cast.If:
		add(x.Cond)
	case *cast.While:
		add(x.Cond)
	case *cast.DoWhile:
		add(x.Cond)
	case *cast.Switch:
		add(x.Cond)
	case *cast.For:
		if x.Init != nil {
			add(x.Init)
		}
		add(x.Cond)
		add(x.Post)
	case *cast.RangeFor:
		if x.Decl != nil {
			add(x.Decl)
		}
		add(x.X)
	default:
		add(x)
	}
	return out
}

// Dot renders the graph in Graphviz dot syntax (for debugging and docs).
func (g *Graph) Dot(src *cast.File) string {
	var sb strings.Builder
	sb.WriteString("digraph cfg {\n")
	for _, n := range g.Nodes {
		label := n.Kind.String()
		if n.AST != nil && src != nil {
			t := src.Text(n.AST)
			if len(t) > 28 {
				t = t[:25] + "..."
			}
			label = strings.ReplaceAll(t, `"`, `\"`)
		}
		fmt.Fprintf(&sb, "  n%d [label=\"%s\"];\n", n.ID, label)
		for _, s := range n.Succs {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", n.ID, s)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
