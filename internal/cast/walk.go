package cast

// Visitor receives each node during a walk. Returning false stops descent
// into the node's children.
type Visitor func(Node) bool

// Walk traverses the tree rooted at n in source order, calling v for every
// node before its children.
func Walk(n Node, v Visitor) {
	if n == nil || isNilNode(n) {
		return
	}
	if !v(n) {
		return
	}
	switch x := n.(type) {
	case *File:
		for _, d := range x.Decls {
			Walk(d, v)
		}
	case *FuncDef:
		for _, a := range x.Attrs {
			Walk(a, v)
		}
		Walk(x.Ret, v)
		Walk(x.Name, v)
		Walk(x.Params, v)
		if x.Body != nil {
			Walk(x.Body, v)
		}
	case *Attr:
		for _, a := range x.Args {
			Walk(a, v)
		}
	case *VarDecl:
		Walk(x.Type, v)
		for _, it := range x.Items {
			Walk(it, v)
		}
	case *Declarator:
		Walk(x.Name, v)
		for _, d := range x.Dims {
			Walk(d, v)
		}
		Walk(x.Init, v)
	case *ParamList:
		for _, p := range x.Params {
			Walk(p, v)
		}
	case *Param:
		Walk(x.Type, v)
		Walk(x.Name, v)
	case *Compound:
		for _, s := range x.Items {
			Walk(s, v)
		}
	case *ExprStmt:
		Walk(x.X, v)
	case *DeclStmt:
		Walk(x.D, v)
	case *If:
		Walk(x.Cond, v)
		Walk(x.Then, v)
		Walk(x.Else, v)
	case *For:
		Walk(x.Init, v)
		Walk(x.Cond, v)
		Walk(x.Post, v)
		Walk(x.Body, v)
	case *RangeFor:
		Walk(x.Decl, v)
		Walk(x.X, v)
		Walk(x.Body, v)
	case *While:
		Walk(x.Cond, v)
		Walk(x.Body, v)
	case *DoWhile:
		Walk(x.Body, v)
		Walk(x.Cond, v)
	case *Return:
		Walk(x.X, v)
	case *Label:
		Walk(x.Stmt, v)
	case *Switch:
		Walk(x.Cond, v)
		Walk(x.Body, v)
	case *Case:
		Walk(x.X, v)
	case *PragmaStmt:
		Walk(x.P, v)
	case *ParenExpr:
		Walk(x.X, v)
	case *UnaryExpr:
		Walk(x.X, v)
	case *BinaryExpr:
		Walk(x.X, v)
		Walk(x.Y, v)
	case *CondExpr:
		Walk(x.Cond, v)
		Walk(x.Then, v)
		Walk(x.Else, v)
	case *CallExpr:
		Walk(x.Fun, v)
		for _, a := range x.Args {
			Walk(a, v)
		}
	case *IndexExpr:
		Walk(x.X, v)
		for _, i := range x.Indices {
			Walk(i, v)
		}
	case *MemberExpr:
		Walk(x.X, v)
	case *CastExpr:
		Walk(x.Type, v)
		Walk(x.X, v)
	case *SizeofExpr:
		Walk(x.Type, v)
		Walk(x.X, v)
	case *CommaExpr:
		for _, e := range x.List {
			Walk(e, v)
		}
	case *InitList:
		for _, e := range x.Elems {
			Walk(e, v)
		}
	case *KernelLaunch:
		Walk(x.Fun, v)
		for _, c := range x.Config {
			Walk(c, v)
		}
		for _, a := range x.Args {
			Walk(a, v)
		}
	case *LambdaExpr:
		if x.Params != nil {
			Walk(x.Params, v)
		}
		if x.Body != nil {
			Walk(x.Body, v)
		}
	case *DisjExpr:
		for _, b := range x.Branches {
			Walk(b, v)
		}
	case *ConjExpr:
		for _, o := range x.Operands {
			Walk(o, v)
		}
	case *DisjStmt:
		for _, br := range x.Branches {
			for _, s := range br {
				Walk(s, v)
			}
		}
	case *ConjStmt:
		for _, o := range x.Operands {
			Walk(o, v)
		}
	}
}

// isNilNode reports whether n is a typed nil inside the Node interface.
func isNilNode(n Node) bool {
	switch x := n.(type) {
	case *File:
		return x == nil
	case *FuncDef:
		return x == nil
	case *Attr:
		return x == nil
	case *VarDecl:
		return x == nil
	case *Declarator:
		return x == nil
	case *ParamList:
		return x == nil
	case *Param:
		return x == nil
	case *Type:
		return x == nil
	case *Ident:
		return x == nil
	case *Compound:
		return x == nil
	case *ExprStmt:
		return x == nil
	case *DeclStmt:
		return x == nil
	case *If:
		return x == nil
	case *Return:
		return x == nil
	case Expr:
		return isNilExpr(x)
	case Stmt:
		return isNilStmt(x)
	}
	return false
}

func isNilExpr(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *Ident:
		return x == nil
	case *BasicLit:
		return x == nil
	case *ParenExpr:
		return x == nil
	case *UnaryExpr:
		return x == nil
	case *BinaryExpr:
		return x == nil
	case *CondExpr:
		return x == nil
	case *CallExpr:
		return x == nil
	case *IndexExpr:
		return x == nil
	case *MemberExpr:
		return x == nil
	case *CastExpr:
		return x == nil
	case *SizeofExpr:
		return x == nil
	case *CommaExpr:
		return x == nil
	case *InitList:
		return x == nil
	case *KernelLaunch:
		return x == nil
	case *LambdaExpr:
		return x == nil
	case *MetaExpr:
		return x == nil
	case *Type:
		return x == nil
	case *DisjExpr:
		return x == nil
	case *ConjExpr:
		return x == nil
	case *Dots:
		return x == nil
	case *OpaqueExpr:
		return x == nil
	}
	return false
}

func isNilStmt(s Stmt) bool {
	switch x := s.(type) {
	case nil:
		return true
	case *Compound:
		return x == nil
	case *ExprStmt:
		return x == nil
	case *DeclStmt:
		return x == nil
	case *If:
		return x == nil
	case *For:
		return x == nil
	case *RangeFor:
		return x == nil
	case *While:
		return x == nil
	case *DoWhile:
		return x == nil
	case *Return:
		return x == nil
	case *Break:
		return x == nil
	case *Continue:
		return x == nil
	case *Goto:
		return x == nil
	case *Label:
		return x == nil
	case *Switch:
		return x == nil
	case *Case:
		return x == nil
	case *Empty:
		return x == nil
	case *PragmaStmt:
		return x == nil
	case *MetaStmt:
		return x == nil
	case *Dots:
		return x == nil
	case *DisjStmt:
		return x == nil
	case *ConjStmt:
		return x == nil
	}
	return false
}

// Exprs collects every expression node in the tree rooted at n, in source
// order.
func Exprs(n Node) []Expr {
	var out []Expr
	Walk(n, func(m Node) bool {
		if e, ok := m.(Expr); ok && !isNilExpr(e) {
			if _, isType := e.(*Type); !isType {
				out = append(out, e)
			}
		}
		return true
	})
	return out
}

// Funcs returns all function definitions with bodies in the file.
func (f *File) Funcs() []*FuncDef {
	var out []*FuncDef
	for _, d := range f.Decls {
		if fd, ok := d.(*FuncDef); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}

// Text returns the exact source text of node n in file f (without leading
// whitespace).
func (f *File) Text(n Node) string {
	if n == nil || isNilNode(n) {
		return ""
	}
	first, last := n.Span()
	return f.Toks.Slice(first, last)
}
