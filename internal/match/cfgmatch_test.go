package match

import (
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/cparse"
	"repro/internal/smpl"
)

// withCFG turns a sequence-matching Matcher into a CFG path matcher, the
// way the engine does (modulo the engine's per-file graph cache).
func withCFG(m *Matcher) *Matcher {
	m.CFGs = func(fd *cast.FuncDef) *cfg.Graph { return cfg.Build(fd) }
	return m
}

// Anchors on two different if/else arms are unreachable for the sequence
// matcher (they live in sibling statement lists) but are connected through
// the join node on the CFG.
func TestCFGCrossBranchMatch(t *testing.T) {
	patch := `@r@
expression E;
@@
prepare(E);
...
commit(E);
`
	src := `void f(int x, int v){
	if (x) {
		prepare(v);
		log_then();
	} else {
		log_else();
	}
	commit(v);
}
`
	m, _ := compile(t, patch, src)
	if n := len(m.FindAll()); n != 0 {
		t.Fatalf("sequence matcher found %d matches across branch arms, want 0", n)
	}
	ms := withCFG(m).FindAll()
	if len(ms) != 1 {
		t.Fatalf("CFG matches=%d want 1", len(ms))
	}
	if got := ms[0].Env["E"].Norm; got != "v" {
		t.Errorf("E bound to %q want v", got)
	}
}

// Anchors in both arms of the same if: two distinct path matches.
func TestCFGBothArmsMatch(t *testing.T) {
	patch := `@r@
identifier fn;
@@
fn();
...
done();
`
	src := `void f(int x){
	if (x) { left(); } else { right(); }
	done();
}
`
	m, _ := compile(t, patch, src)
	ms := withCFG(m).FindAll()
	names := map[string]bool{}
	for _, mt := range ms {
		names[mt.Env["fn"].Norm] = true
	}
	if !names["left"] || !names["right"] {
		t.Fatalf("want matches anchored in both arms, got %v", names)
	}
}

// A pattern whose second anchor precedes the first in source order matches
// through the loop back-edge.
func TestCFGLoopBackEdgeMatch(t *testing.T) {
	patch := `@r@
@@
step_b();
...
step_a();
`
	src := `void f(int n){
	for (int i = 0; i < n; i++) {
		step_a();
		step_b();
	}
}
`
	m, _ := compile(t, patch, src)
	if n := len(m.FindAll()); n != 0 {
		t.Fatalf("sequence matcher found %d back-edge matches, want 0", n)
	}
	if n := len(withCFG(m).FindAll()); n != 1 {
		t.Fatalf("CFG back-edge matches=%d want 1", n)
	}
}

// `when != e` must veto the back-edge path when the forbidden call sits on
// it — here the loop body's own statement between b and a (via the header).
func TestCFGBackEdgeWhenNot(t *testing.T) {
	patch := `@r@
@@
step_b();
... when != reset()
step_a();
`
	src := `void f(int n){
	for (int i = 0; i < n; i++) {
		step_a();
		step_b();
		reset();
	}
}
`
	m, _ := compile(t, patch, src)
	if n := len(withCFG(m).FindAll()); n != 0 {
		t.Fatalf("matches=%d want 0 (reset() is on every b->a path)", n)
	}
}

// A forbidden expression in a skipped if/loop *header* must veto the path:
// unlike body content, the header sits on every path through the node.
func TestCFGWhenNotInBranchHeader(t *testing.T) {
	patch := `@r@
@@
lock();
... when != touch()
unlock();
`
	src := `void f(void){
	lock();
	if (touch()) { harmless(); }
	unlock();
}
`
	m, _ := compile(t, patch, src)
	if n := len(withCFG(m).FindAll()); n != 0 {
		t.Fatalf("matches=%d want 0 (touch() is in the traversed if header)", n)
	}
}

// Regression for the nested-constraint probe: forbidden content inside a
// skipped compound statement (if body, bare block, loop body) is caught by
// both engines — the sequence matcher walks the skipped subtree, and the
// CFG engine meets the nested statement as its own path node.
func TestDotsWhenNotNestedCompound(t *testing.T) {
	patch := `@r@
@@
lock();
... when != touch()
unlock();
`
	cases := []struct {
		name, src string
		want      int
	}{
		{"direct", "void f(void){ lock(); touch(); unlock(); }", 0},
		{"nested-if", "void f(int x){ lock(); if (x) { touch(); } unlock(); }", 0},
		{"nested-block", "void f(void){ lock(); { touch(); } unlock(); }", 0},
		{"nested-while", "void f(int x){ lock(); while (x) { touch(); } unlock(); }", 0},
		{"clean", "void f(void){ lock(); work(); unlock(); }", 1},
	}
	for _, tc := range cases {
		for _, engine := range []string{"seq", "cfg"} {
			m, _ := compile(t, patch, tc.src)
			if engine == "cfg" {
				withCFG(m)
			}
			got := len(m.FindAll())
			// The CFG engine legitimately finds the branch-avoiding path in
			// the nested-if case: the then-arm is not on the matched path.
			want := tc.want
			if engine == "cfg" && (tc.name == "nested-if" || tc.name == "nested-while") {
				want = 1
			}
			if got != want {
				t.Errorf("%s/%s: matches=%d want %d", engine, tc.name, got, want)
			}
		}
	}
}

// `when == e`: the gap may only traverse statements matching e.
func TestCFGWhenOnly(t *testing.T) {
	patch := `@r@
expression E;
@@
start();
... when == log(E)
stop();
`
	okSrc := `void f(void){
	start();
	log(1);
	log(2);
	stop();
}
`
	badSrc := `void f(void){
	start();
	log(1);
	other();
	stop();
}
`
	m, _ := compile(t, patch, okSrc)
	if n := len(withCFG(m).FindAll()); n != 1 {
		t.Fatalf("when== clean gap: matches=%d want 1", n)
	}
	m, _ = compile(t, patch, badSrc)
	if n := len(withCFG(m).FindAll()); n != 0 {
		t.Fatalf("when== polluted gap: matches=%d want 0", n)
	}
	// sequence matcher agrees on straight-line code
	m, _ = compile(t, patch, okSrc)
	if n := len(m.FindAll()); n != 1 {
		t.Fatalf("seq when== clean gap: matches=%d want 1", n)
	}
	m, _ = compile(t, patch, badSrc)
	if n := len(m.FindAll()); n != 0 {
		t.Fatalf("seq when== polluted gap: matches=%d want 0", n)
	}
}

// Default quantification is existential: one clean path suffices. `when
// strict` / `when forall` require every path from the first anchor to
// reach the second through allowed nodes.
func TestCFGWhenStrictForall(t *testing.T) {
	src := `void f(int x){
	begin();
	if (x) { poison(); }
	end();
}
`
	for _, q := range []string{"strict", "forall"} {
		patch := "@r@\n@@\nbegin();\n... when " + q + " when != poison()\nend();\n"
		m, _ := compile(t, patch, src)
		if n := len(withCFG(m).FindAll()); n != 0 {
			t.Fatalf("when %s: matches=%d want 0 (some path hits poison())", q, n)
		}
	}
	// without the quantifier, the else path is a valid witness
	m, _ := compile(t, "@r@\n@@\nbegin();\n... when != poison()\nend();\n", src)
	if n := len(withCFG(m).FindAll()); n != 1 {
		t.Fatalf("exists (default): matches=%d want 1", n)
	}
	// `when exists` spells the default explicitly
	m, _ = compile(t, "@r@\n@@\nbegin();\n... when exists when != poison()\nend();\n", src)
	if n := len(withCFG(m).FindAll()); n != 1 {
		t.Fatalf("when exists: matches=%d want 1", n)
	}
	// strict on a clean diamond passes
	clean := `void f(int x){
	begin();
	if (x) { fine(); }
	end();
}
`
	m, _ = compile(t, "@r@\n@@\nbegin();\n... when strict when != poison()\nend();\n", clean)
	if n := len(withCFG(m).FindAll()); n != 1 {
		t.Fatalf("when strict clean: matches=%d want 1", n)
	}
	// strict also demands every path reaches the anchor: an arm that
	// returns first fails the obligation.
	escape := `int f(int x){
	begin();
	if (x) { return 1; }
	end();
	return 0;
}
`
	m, _ = compile(t, "@r@\n@@\nbegin();\n... when strict\nend();\n", escape)
	if n := len(withCFG(m).FindAll()); n != 0 {
		t.Fatalf("when strict early-return: matches=%d want 0", n)
	}
	m, _ = compile(t, "@r@\n@@\nbegin();\n...\nend();\n", escape)
	if n := len(withCFG(m).FindAll()); n != 1 {
		t.Fatalf("exists early-return: matches=%d want 1", n)
	}
}

// auGraph parses src and builds the CFG of its one function; stmtIs
// matches the Stmt node whose text contains sub (a Branch node's AST spans
// the whole conditional, so it never matches) and stmtID returns its id.
func auGraph(t *testing.T, src string) (*cast.File, *cfg.Graph) {
	t.Helper()
	f, err := cparse.Parse("t.c", src, cparse.Options{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f, cfg.Build(f.Funcs()[0])
}

func stmtIs(f *cast.File, sub string) func(*cfg.Node) bool {
	return func(n *cfg.Node) bool {
		return n.Kind == cfg.Stmt && n.AST != nil && strings.Contains(f.Text(n.AST), sub)
	}
}

func stmtID(f *cast.File, g *cfg.Graph, sub string) int {
	for _, n := range g.Nodes {
		if stmtIs(f, sub)(n) {
			return n.ID
		}
	}
	return -1
}

func anyNode(*cfg.Node) bool { return true }

// A[true U b]: every path reaches b. A statement on one arm only is not
// reached on all paths; the join after the conditional is.
func TestAllUntilBranch(t *testing.T) {
	f, g := auGraph(t, "void f(int x){ if (x) b(); c(); }")
	if allUntil(g, anyNode, stmtIs(f, "b()"))[g.EntryID] {
		t.Error("A[true U b] must fail at entry: the else path avoids b")
	}
	if !allUntil(g, anyNode, stmtIs(f, "c()"))[g.EntryID] {
		t.Error("A[true U c] should hold at entry")
	}
}

// The cycle head->body->head is an infinite path that never reaches
// after(), so A[true U after] must not hold at entry — the reason
// `when strict` rejects a gap that a loop may never leave.
func TestAllUntilLoop(t *testing.T) {
	f, g := auGraph(t, "void f(int n){ while (n) { n--; } after(); }")
	if allUntil(g, anyNode, stmtIs(f, "after()"))[g.EntryID] {
		t.Error("A[true U after] must fail at entry: the loop may spin forever")
	}
	if !allUntil(g, anyNode, stmtIs(f, "after()"))[stmtID(f, g, "after()")] {
		t.Error("A[true U after] should hold at after() itself")
	}
}

// A path through a node the constraint forbids fails the obligation even
// though it reaches the anchor afterwards.
func TestAllUntilForbiddenNode(t *testing.T) {
	f, g := auGraph(t, "void f(int x){ lock(); if (x) { use(); } unlock(); }")
	notUse := func(n *cfg.Node) bool { return !stmtIs(f, "use()")(n) }
	if allUntil(g, notUse, stmtIs(f, "unlock()"))[stmtID(f, g, "lock()")] {
		t.Error("A[!use U unlock] must fail at lock(): the then-branch sees use() first")
	}
	if !allUntil(g, anyNode, stmtIs(f, "unlock()"))[stmtID(f, g, "lock()")] {
		t.Error("A[true U unlock] should hold at lock()")
	}
}

// A path that ends (returns) before the anchor fails the obligation; the
// exit node is reached on every path.
func TestAllUntilEarlyReturn(t *testing.T) {
	f, g := auGraph(t, "void f(int x){ a(); if (x) return; b(); }")
	aID := stmtID(f, g, "a()")
	if allUntil(g, anyNode, stmtIs(f, "b()"))[aID] {
		t.Error("A[true U b] must fail at a(): the return path avoids b()")
	}
	if !allUntil(g, anyNode, func(n *cfg.Node) bool { return n.Kind == cfg.Exit })[aID] {
		t.Error("A[true U exit] should hold at a(): all paths reach exit")
	}
}

// Patterns the path engine cannot express fall back to the sequence
// matcher rather than silently missing matches.
func TestCFGEligibility(t *testing.T) {
	parse := func(body string, metas []*smpl.MetaDecl) *smpl.Pattern {
		t.Helper()
		stmts, _, err := cparse.ParseStmts(body, cparse.Options{Meta: smpl.NewMetaTable(metas)})
		if err != nil {
			t.Fatalf("parse %q: %v", body, err)
		}
		return &smpl.Pattern{Kind: smpl.StmtSeqPattern, Stmts: stmts}
	}
	slMeta := []*smpl.MetaDecl{{Kind: cast.MetaStmtListKind, Name: "SL"}}
	if CFGEligible(parse("a();\n...\nb();", nil), nil) != true {
		t.Error("plain dots pattern should be eligible")
	}
	if CFGEligible(parse("a();\nb();", nil), nil) != false {
		t.Error("dots-free pattern needs no path engine")
	}
	mt := smpl.NewMetaTable(slMeta)
	if CFGEligible(parse("a();\n...\nSL", slMeta), mt) != false {
		t.Error("statement-list metavariables must fall back to the sequence matcher")
	}
	// A statement-list metavariable still matches (via the fallback) when a
	// CFG provider is installed.
	m, _ := compile(t, "@r@\nstatement list SL;\n@@\nfirst();\n...\nlast();\nSL\n", `void f(void){
	first();
	mid();
	last();
	tail1();
	tail2();
}
`)
	ms := withCFG(m).FindAll()
	if len(ms) != 1 {
		t.Fatalf("fallback matches=%d want 1", len(ms))
	}
	if got := ms[0].Env["SL"].Norm; got != "tail1 ( ) ; tail2 ( ) ;" {
		t.Errorf("SL bound to %q", got)
	}
}

// The gap record of a cross-branch skip must not cover tokens of the arm
// the path never takes: skipped branch headers contribute nothing, skipped
// simple statements contribute their own spans.
func TestCFGGapRecordSkipsUntakenArm(t *testing.T) {
	patch := `@r@
@@
prepare();
...
commit();
`
	src := `void f(int x){
	prepare();
	if (x) { taken(); } else { untaken(); }
	commit();
}
`
	m, _ := compile(t, patch, src)
	ms := withCFG(m).FindAll()
	if len(ms) != 1 {
		t.Fatalf("matches=%d want 1", len(ms))
	}
	f := m.Code
	var takenTok, untakenTok int
	for i := range f.Toks.Tokens {
		switch f.Toks.Text(i) {
		case "taken":
			takenTok = i
		case "untaken":
			untakenTok = i
		}
	}
	coversTaken, coversUntaken := false, false
	for _, pr := range ms[0].Corr {
		if pr.CL < pr.CF {
			continue
		}
		if pr.CF <= takenTok && takenTok <= pr.CL {
			coversTaken = true
		}
		if pr.CF <= untakenTok && untakenTok <= pr.CL {
			coversUntaken = true
		}
	}
	if !coversTaken {
		t.Error("gap record should cover the traversed then-arm statement")
	}
	if coversUntaken {
		t.Error("gap record must not cover the untaken else-arm statement")
	}
}
