package cast_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/cparse"
)

func parse(t *testing.T, src string) *cast.File {
	t.Helper()
	f, err := cparse.Parse("t.c", src, cparse.Options{CPlusPlus: true, CUDA: true})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWalkVisitsAllStatements(t *testing.T) {
	f := parse(t, `void f(int n){
	int s = 0;
	for (int i=0;i<n;++i) { s += i; }
	if (s) { s--; } else { s++; }
	while (s) s--;
	do { s++; } while (s < 3);
	switch (s) { case 1: break; default: s = 0; }
	return;
}`)
	counts := map[string]int{}
	cast.Walk(f, func(n cast.Node) bool {
		counts[fmt.Sprintf("%T", n)]++
		return true
	})
	for _, ty := range []string{"*cast.For", "*cast.If", "*cast.While",
		"*cast.DoWhile", "*cast.Switch", "*cast.Return", "*cast.Break"} {
		if counts[ty] == 0 {
			t.Errorf("Walk never visited %s (counts=%v)", ty, counts)
		}
	}
}

func TestWalkStopsOnFalse(t *testing.T) {
	f := parse(t, "void f(void){ a(b(c())); }")
	var seen []string
	cast.Walk(f, func(n cast.Node) bool {
		if call, ok := n.(*cast.CallExpr); ok {
			seen = append(seen, f.Text(call.Fun))
			return false // do not descend into arguments
		}
		return true
	})
	if len(seen) != 1 || seen[0] != "a" {
		t.Errorf("descent not stopped: %v", seen)
	}
}

func TestExprsOrder(t *testing.T) {
	f := parse(t, "void f(void){ x = y + z; }")
	var texts []string
	for _, e := range cast.Exprs(f) {
		texts = append(texts, f.Text(e))
	}
	joined := strings.Join(texts, "|")
	// parent expressions come before children (pre-order); the function
	// name identifier is an expression too and precedes the body.
	if !strings.Contains(joined, "x = y + z|x|y + z|y|z") {
		t.Errorf("exprs order: %v", texts)
	}
}

// compounds collects every compound statement in the tree rooted at n.
func compounds(n cast.Node) []*cast.Compound {
	var out []*cast.Compound
	cast.Walk(n, func(m cast.Node) bool {
		if c, ok := m.(*cast.Compound); ok && c != nil {
			out = append(out, c)
		}
		return true
	})
	return out
}

func TestCompounds(t *testing.T) {
	f := parse(t, "void f(int x){ { a(); } if (x) { b(); } }")
	cs := compounds(f)
	if len(cs) != 3 { // body, inner block, if-then
		t.Errorf("compounds=%d want 3", len(cs))
	}
}

func TestFuncsSkipsPrototypes(t *testing.T) {
	f := parse(t, "int declared(int x);\nint defined(int x) { return x; }\n")
	funcs := f.Funcs()
	if len(funcs) != 1 || funcs[0].Name.Name != "defined" {
		t.Errorf("funcs: %v", funcs)
	}
}

func TestTextNilSafe(t *testing.T) {
	f := parse(t, "int x;")
	if got := f.Text(nil); got != "" {
		t.Errorf("Text(nil)=%q", got)
	}
	var e *cast.Ident
	if got := f.Text(e); got != "" {
		t.Errorf("Text(typed nil)=%q", got)
	}
}

func TestSpanNesting(t *testing.T) {
	// every child's span must be inside its parent's span
	f := parse(t, "void f(int n){ for (int i=0;i<n;++i) { s[i] = i*2 + 1; } }")
	type spanned struct {
		node  cast.Node
		f, l  int
		depth int
	}
	var stack []spanned
	ok := true
	cast.Walk(f, func(n cast.Node) bool {
		nf, nl := n.Span()
		if _, isFile := n.(*cast.File); isFile {
			return true
		}
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if nf >= top.f && nl <= top.l {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			if nf < top.f || nl > top.l {
				ok = false
			}
		}
		stack = append(stack, spanned{n, nf, nl, len(stack)})
		return true
	})
	if !ok {
		t.Error("child span escapes parent span")
	}
}

func TestMetaKindStrings(t *testing.T) {
	kinds := []cast.MetaKind{
		cast.MetaExprKind, cast.MetaIdentKind, cast.MetaTypeKind,
		cast.MetaStmtKind, cast.MetaConstKind, cast.MetaParamListKind,
		cast.MetaExprListKind, cast.MetaStmtListKind, cast.MetaPosKind,
		cast.MetaFreshIdentKind, cast.MetaSymbolKind, cast.MetaPragmaInfoKind,
		cast.MetaFuncKind,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "metavariable" {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

func TestKernelLaunchWalk(t *testing.T) {
	f := parse(t, "void f(void){ k<<<g, b>>>(x, y); }")
	var launches, idents int
	cast.Walk(f, func(n cast.Node) bool {
		switch n.(type) {
		case *cast.KernelLaunch:
			launches++
		case *cast.Ident:
			idents++
		}
		return true
	})
	if launches != 1 {
		t.Errorf("launches=%d", launches)
	}
	if idents < 5 { // k, g, b, x, y
		t.Errorf("idents=%d, config/args not walked", idents)
	}
}
