package cast

import "fmt"

// ShiftDecl moves the top-level declaration d of a parse of plain C/C++
// within its token stream: it adds delta to every token index in it, node
// spans and MemberExpr.NameT. With clone, d is left as it is and the
// result is a deep copy of its nodes, which shares only strings and string
// slices (no code writes those after parsing). Without clone, the nodes of
// d are updated in place and d itself is returned. The incremental
// re-parse uses it to move a reused declaration to its place in the new
// token stream: a copy from a tree someone else still holds, in place in a
// tree nothing else holds. Pattern-only nodes never occur in a parse of
// plain code, and ShiftDecl panics on one.
func ShiftDecl(d Decl, delta int, clone bool) Decl {
	s := shifter{delta: delta, clone: clone}
	return s.decl(d)
}

type shifter struct {
	delta int
	clone bool
}

// own returns the node the shifter may write, x itself in place or a copy
// under clone, with its span shifted. A nil x stays nil.
func own[T any, P interface {
	*T
	shiftSpan(int)
}](s *shifter, x P) P {
	if x == nil {
		return nil
	}
	if s.clone {
		c := *x
		x = &c
	}
	x.shiftSpan(s.delta)
	return x
}

func (sp *span) shiftSpan(d int) { sp.first += d; sp.last += d }

// list returns the slice the shifter may write: l itself in place, a copy
// under clone. A nil list stays nil and an empty one stays empty,
// so a copy deep-equals a fresh parse.
func list[T any](s *shifter, l []T) []T {
	if !s.clone || len(l) == 0 {
		return l
	}
	return append([]T(nil), l...)
}

func (s *shifter) decl(d Decl) Decl {
	switch x := d.(type) {
	case *Include:
		return own(s, x)
	case *Pragma:
		return own(s, x)
	case *PPOther:
		return own(s, x)
	case *OpaqueDecl:
		return own(s, x)
	case *FuncDef:
		return s.funcDefNode(x)
	case *VarDecl:
		return s.varDeclNode(x)
	case nil:
		return nil
	}
	panic(fmt.Sprintf("cast: cannot shift a %T", d))
}

func (s *shifter) funcDefNode(x *FuncDef) *FuncDef {
	if x = own(s, x); x != nil {
		x.Attrs = list(s, x.Attrs)
		for i, a := range x.Attrs {
			if a = own(s, a); a != nil {
				a.Args = s.exprList(a.Args)
			}
			x.Attrs[i] = a
		}
		x.Ret = own(s, x.Ret)
		x.Name = own(s, x.Name)
		x.Params = s.paramListNode(x.Params)
		x.Body = s.compoundNode(x.Body)
	}
	return x
}

func (s *shifter) varDeclNode(x *VarDecl) *VarDecl {
	if x = own(s, x); x != nil {
		x.Type = own(s, x.Type)
		x.Items = list(s, x.Items)
		for i, it := range x.Items {
			if it = own(s, it); it != nil {
				it.Name = own(s, it.Name)
				it.Dims = s.exprList(it.Dims)
				it.Init = s.expr(it.Init)
			}
			x.Items[i] = it
		}
	}
	return x
}

func (s *shifter) paramListNode(x *ParamList) *ParamList {
	if x = own(s, x); x != nil {
		x.Params = list(s, x.Params)
		for i, p := range x.Params {
			if p = own(s, p); p != nil {
				p.Type = own(s, p.Type)
				p.Name = own(s, p.Name)
			}
			x.Params[i] = p
		}
	}
	return x
}

func (s *shifter) compoundNode(x *Compound) *Compound {
	if x = own(s, x); x != nil {
		x.Items = s.stmtList(x.Items)
	}
	return x
}

func (s *shifter) stmtList(l []Stmt) []Stmt {
	l = list(s, l)
	for i, st := range l {
		l[i] = s.stmt(st)
	}
	return l
}

func (s *shifter) exprList(l []Expr) []Expr {
	l = list(s, l)
	for i, e := range l {
		l[i] = s.expr(e)
	}
	return l
}

func (s *shifter) stmt(st Stmt) Stmt {
	switch x := st.(type) {
	case *Compound:
		return s.compoundNode(x)
	case *ExprStmt:
		if x = own(s, x); x != nil {
			x.X = s.expr(x.X)
		}
		return x
	case *DeclStmt:
		if x = own(s, x); x != nil {
			x.D = s.varDeclNode(x.D)
		}
		return x
	case *If:
		if x = own(s, x); x != nil {
			x.Cond = s.expr(x.Cond)
			x.Then = s.stmt(x.Then)
			x.Else = s.stmt(x.Else)
		}
		return x
	case *For:
		if x = own(s, x); x != nil {
			x.Init = s.stmt(x.Init)
			x.Cond = s.expr(x.Cond)
			x.Post = s.expr(x.Post)
			x.Body = s.stmt(x.Body)
		}
		return x
	case *RangeFor:
		if x = own(s, x); x != nil {
			x.Decl = s.varDeclNode(x.Decl)
			x.X = s.expr(x.X)
			x.Body = s.stmt(x.Body)
		}
		return x
	case *While:
		if x = own(s, x); x != nil {
			x.Cond = s.expr(x.Cond)
			x.Body = s.stmt(x.Body)
		}
		return x
	case *DoWhile:
		if x = own(s, x); x != nil {
			x.Body = s.stmt(x.Body)
			x.Cond = s.expr(x.Cond)
		}
		return x
	case *Return:
		if x = own(s, x); x != nil {
			x.X = s.expr(x.X)
		}
		return x
	case *Break:
		return own(s, x)
	case *Continue:
		return own(s, x)
	case *Goto:
		return own(s, x)
	case *Label:
		if x = own(s, x); x != nil {
			x.Stmt = s.stmt(x.Stmt)
		}
		return x
	case *Switch:
		if x = own(s, x); x != nil {
			x.Cond = s.expr(x.Cond)
			x.Body = s.stmt(x.Body)
		}
		return x
	case *Case:
		if x = own(s, x); x != nil {
			x.X = s.expr(x.X)
		}
		return x
	case *Empty:
		return own(s, x)
	case *PragmaStmt:
		if x = own(s, x); x != nil {
			x.P = own(s, x.P)
		}
		return x
	case nil:
		return nil
	}
	panic(fmt.Sprintf("cast: cannot shift a %T", st))
}

func (s *shifter) expr(e Expr) Expr {
	switch x := e.(type) {
	case *Ident:
		return own(s, x)
	case *BasicLit:
		return own(s, x)
	case *ParenExpr:
		if x = own(s, x); x != nil {
			x.X = s.expr(x.X)
		}
		return x
	case *UnaryExpr:
		if x = own(s, x); x != nil {
			x.X = s.expr(x.X)
		}
		return x
	case *BinaryExpr:
		if x = own(s, x); x != nil {
			x.X = s.expr(x.X)
			x.Y = s.expr(x.Y)
		}
		return x
	case *CondExpr:
		if x = own(s, x); x != nil {
			x.Cond = s.expr(x.Cond)
			x.Then = s.expr(x.Then)
			x.Else = s.expr(x.Else)
		}
		return x
	case *CallExpr:
		if x = own(s, x); x != nil {
			x.Fun = s.expr(x.Fun)
			x.Args = s.exprList(x.Args)
		}
		return x
	case *IndexExpr:
		if x = own(s, x); x != nil {
			x.X = s.expr(x.X)
			x.Indices = s.exprList(x.Indices)
		}
		return x
	case *MemberExpr:
		if x = own(s, x); x != nil {
			x.X = s.expr(x.X)
			x.NameT += s.delta
		}
		return x
	case *CastExpr:
		if x = own(s, x); x != nil {
			x.Type = own(s, x.Type)
			x.X = s.expr(x.X)
		}
		return x
	case *SizeofExpr:
		if x = own(s, x); x != nil {
			x.Type = own(s, x.Type)
			x.X = s.expr(x.X)
		}
		return x
	case *CommaExpr:
		if x = own(s, x); x != nil {
			x.List = s.exprList(x.List)
		}
		return x
	case *InitList:
		if x = own(s, x); x != nil {
			x.Elems = s.exprList(x.Elems)
		}
		return x
	case *KernelLaunch:
		if x = own(s, x); x != nil {
			x.Fun = s.expr(x.Fun)
			x.Config = s.exprList(x.Config)
			x.Args = s.exprList(x.Args)
		}
		return x
	case *LambdaExpr:
		if x = own(s, x); x != nil {
			x.Params = s.paramListNode(x.Params)
			x.Body = s.compoundNode(x.Body)
		}
		return x
	case *OpaqueExpr:
		return own(s, x)
	case *Type:
		return own(s, x)
	case nil:
		return nil
	}
	panic(fmt.Sprintf("cast: cannot shift a %T", e))
}
