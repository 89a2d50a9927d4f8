// Package lint statically checks semantic patches: the analyses behind
// `gocci vet`. Everything here reasons about the patch alone, never about
// any source corpus, so a vet run is instant and exact. Four families:
//
//   - metavariables declared but never used, and metavariables used only in
//     added code or check messages where they can never receive a binding;
//   - rules unreachable through their `depends on` chains (a dependency
//     naming no earlier rule, a contradiction, or a chain through another
//     unreachable rule);
//   - disjunction branches shadowed by an earlier branch that matches
//     everything they do, so they can never be taken;
//   - rules with an empty required-atom set, which the batch prefilter must
//     treat as always-maybe (internal/index can never skip a file for them).
//
// Every finding is advisory: a patch with issues still runs. The point is
// to catch dead weight before a campaign ships — exactly the rules
// `gocci --stats` would later report as "never fired".
package lint

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/cast"
	"repro/internal/index"
	"repro/internal/smpl"
)

// Issue codes.
const (
	CodeUnusedMetavar   = "unused-metavar"   // declared, referenced nowhere
	CodeUnboundMetavar  = "unbound-metavar"  // used only where it cannot bind
	CodeUnreachableRule = "unreachable-rule" // depends-on can never hold
	CodeShadowedBranch  = "shadowed-branch"  // disjunction branch dead
	CodeUnprunableRule  = "unprunable-rule"  // empty required-atom set
)

// Issue is one vet finding about a patch.
type Issue struct {
	Patch string // patch name (file name as parsed)
	Rule  string // rule the issue is about
	Code  string // one of the Code* constants
	Msg   string
}

func (i Issue) String() string {
	return fmt.Sprintf("%s: rule %s: %s: %s", i.Patch, i.Rule, i.Code, i.Msg)
}

// Check runs every analysis over the patch. Issues come out grouped by
// analysis, each in rule order — deterministic for a given patch text.
func Check(p *smpl.Patch) []Issue {
	var issues []Issue
	issues = append(issues, checkMetavars(p)...)
	issues = append(issues, checkReachability(p)...)
	issues = append(issues, checkDisjunctions(p)...)
	issues = append(issues, checkPrunability(p)...)
	return issues
}

// checkMetavars flags declarations that are never referenced, and
// references that can never be bound: a non-inherited, non-fresh
// metavariable appearing only on plus lines or in a check message has no
// match-side occurrence to bind it, so its uses would emit the bare name.
func checkMetavars(p *smpl.Patch) []Issue {
	// usedRemote[rule][name]: a later rule inherits the metavariable
	// (`expression r.E;`) or a script rule reads it (`e << r.E;`).
	usedRemote := map[string]map[string]bool{}
	mark := func(rule, name string) {
		if rule == "" || name == "" {
			return
		}
		m := usedRemote[rule]
		if m == nil {
			m = map[string]bool{}
			usedRemote[rule] = m
		}
		m[name] = true
	}
	for _, r := range p.Rules {
		for _, md := range r.Metas {
			if md.FromRule != "" {
				name := md.RemoteName
				if name == "" {
					name = md.Name
				}
				mark(md.FromRule, name)
			}
		}
		for _, in := range r.Inputs {
			mark(in.Rule, in.Remote)
		}
	}

	var issues []Issue
	for _, r := range p.Rules {
		if r.Kind != smpl.MatchRule || r.Pattern == nil {
			continue
		}
		// Words on the match side (context, minus, and star lines) — any
		// occurrence there binds the metavariable. Tokens are word-scanned
		// rather than taken whole because preprocessor lines (`#pragma acc
		// pi`) lex as one token whose text embeds metavariable references.
		matchWords := map[string]bool{}
		pt := r.Pattern.Toks
		for i := range pt.Tokens {
			text := pt.Text(i)
			matchWords[text] = true
			for w := range index.ScanWords(text) {
				matchWords[w] = true
			}
		}
		// Words on the render side (plus lines) and in the check message —
		// uses that need a binding but cannot create one.
		plusWords := map[string]bool{}
		for _, blk := range r.Pattern.PlusBlocks {
			for _, line := range blk.Text {
				for w := range index.ScanWords(line) {
					plusWords[w] = true
				}
			}
		}
		msgWords := map[string]bool{}
		if r.Check != nil {
			msgWords = index.ScanWords(r.Check.Msg)
		}
		// Fresh-identifier seeds reference other metavariables of the rule.
		freshRef := map[string]bool{}
		for _, md := range r.Metas {
			for _, fp := range md.Fresh {
				if fp.Ref != "" {
					freshRef[fp.Ref] = true
				}
			}
		}
		for _, md := range r.Metas {
			name := md.Name
			// A position metavariable is used by attachment (`f@p(...)`);
			// the @ sigil keeps it out of the plain word scans.
			attached := md.Kind == cast.MetaPosKind &&
				regexp.MustCompile(`@`+regexp.QuoteMeta(name)+`\b`).MatchString(r.Body)
			usedMatch := matchWords[name] || attached
			usedRender := plusWords[name] || msgWords[name] || freshRef[name]
			usedLater := usedRemote[r.Name][name]
			switch {
			case !usedMatch && !usedRender && !usedLater:
				issues = append(issues, Issue{Patch: p.Name, Rule: r.Name, Code: CodeUnusedMetavar,
					Msg: fmt.Sprintf("%s metavariable %s is declared but never used", md.Kind, name)})
			case !usedMatch && md.FromRule == "" && md.Kind != cast.MetaFreshIdentKind &&
				md.Kind != cast.MetaPosKind:
				issues = append(issues, Issue{Patch: p.Name, Rule: r.Name, Code: CodeUnboundMetavar,
					Msg: fmt.Sprintf("%s metavariable %s is used only in added code or messages; nothing on the match side can bind it", md.Kind, name)})
			}
		}
	}
	return issues
}

// checkReachability walks the rules in engine order, tracking whether each
// could possibly fire. Virtuals are maybe (the caller picks the defines); a
// dependency on a name no earlier match or script rule carries is no, as in
// the engine's Matched map. A rule whose dependency evaluates to no can
// never run — and stays no for everything downstream, so one typo surfaces
// the whole dead chain.
func checkReachability(p *smpl.Patch) []Issue {
	fired := map[string]index.Tri{}
	for _, v := range p.Virtuals {
		fired[v] = index.TriMaybe
	}
	var issues []Issue
	for _, r := range p.Rules {
		if r.Kind != smpl.MatchRule && r.Kind != smpl.ScriptRule {
			continue
		}
		v := index.EvalDep(r.Depends, fired)
		if v != index.TriNo && r.Kind == smpl.ScriptRule {
			// A script rule additionally needs every input binding's source
			// rule to have possibly fired.
			for _, in := range r.Inputs {
				if fired[in.Rule] == index.TriNo {
					v = index.TriNo
					issues = append(issues, Issue{Patch: p.Name, Rule: r.Name, Code: CodeUnreachableRule,
						Msg: fmt.Sprintf("input %s << %s.%s reads a rule that can never fire", in.Local, in.Rule, in.Remote)})
					break
				}
			}
		} else if v == index.TriNo {
			issues = append(issues, Issue{Patch: p.Name, Rule: r.Name, Code: CodeUnreachableRule,
				Msg: "its depends-on expression can never hold (it names no reachable earlier rule or defined virtual)"})
		}
		if r.Name != "" && v > fired[r.Name] {
			fired[r.Name] = v
		}
	}
	return issues
}

// branchTok is one normalized branch token for shadow comparison: either a
// literal text or a metavariable wildcard class.
type branchTok struct {
	text  string
	class cast.MetaKind // meaningful only when meta is set
	meta  bool
}

// checkDisjunctions finds dead disjunction branches. The matcher tries
// branches in order and commits to the first that matches, so a branch an
// earlier branch fully generalizes is unreachable. Detection is
// conservative and token-shaped: equal length, and at every position the
// earlier token equals the later one or is a metavariable that matches any
// single token of the later one's class.
func checkDisjunctions(p *smpl.Patch) []Issue {
	var issues []Issue
	for _, r := range p.Rules {
		if r.Kind != smpl.MatchRule || r.Pattern == nil {
			continue
		}
		metas := smpl.NewMetaTable(r.Metas)
		pt := r.Pattern.Toks
		norm := func(first, last int) []branchTok {
			if first < 0 || last >= len(pt.Tokens) || first > last {
				return nil
			}
			out := make([]branchTok, 0, last-first+1)
			for i := first; i <= last; i++ {
				text := pt.Text(i)
				if k, ok := metas.Lookup(text); ok {
					out = append(out, branchTok{text: text, class: k, meta: true})
					continue
				}
				out = append(out, branchTok{text: text})
			}
			return out
		}
		report := func(n cast.Node, branches [][]branchTok) {
			for j := 1; j < len(branches); j++ {
				for i := 0; i < j; i++ {
					if subsumes(branches[i], branches[j]) {
						first, _ := n.Span()
						line := 0
						if first >= 0 && first < len(pt.Tokens) {
							line = int(pt.Tokens[first].Pos.Line)
						}
						issues = append(issues, Issue{Patch: p.Name, Rule: r.Name, Code: CodeShadowedBranch,
							Msg: fmt.Sprintf("disjunction at body line %d: branch %d is shadowed by branch %d and can never match", line, j+1, i+1)})
						break
					}
				}
			}
		}
		visit := func(n cast.Node) bool {
			switch x := n.(type) {
			case *cast.DisjExpr:
				var bs [][]branchTok
				for _, b := range x.Branches {
					f, l := b.Span()
					bs = append(bs, norm(f, l))
				}
				report(x, bs)
			case *cast.DisjStmt:
				var bs [][]branchTok
				for _, stmts := range x.Branches {
					if len(stmts) == 0 {
						bs = append(bs, nil)
						continue
					}
					f, _ := stmts[0].Span()
					_, l := stmts[len(stmts)-1].Span()
					bs = append(bs, norm(f, l))
				}
				report(x, bs)
			}
			return true
		}
		switch r.Pattern.Kind {
		case smpl.ExprPattern:
			cast.Walk(r.Pattern.Expr, visit)
		case smpl.StmtSeqPattern:
			for _, s := range r.Pattern.Stmts {
				cast.Walk(s, visit)
			}
		case smpl.DeclPattern:
			for _, d := range r.Pattern.Decls {
				cast.Walk(d, visit)
			}
		}
	}
	return issues
}

// subsumes reports whether branch a matches everything branch b does, token
// by token. Empty branches never participate (span extraction failed).
func subsumes(a, b []branchTok) bool {
	if len(a) == 0 || len(b) == 0 || len(a) != len(b) {
		return false
	}
	for i := range a {
		if generalizes(a[i], b[i]) {
			continue
		}
		return false
	}
	return true
}

// generalizes reports whether one normalized token of an earlier branch
// covers the corresponding token of a later branch.
func generalizes(a, b branchTok) bool {
	if !a.meta {
		return !b.meta && a.text == b.text
	}
	switch a.class {
	case cast.MetaExprKind:
		// An expression metavariable matches any single-token expression:
		// identifiers, constants, strings, and any metavariable of those
		// classes.
		if b.meta {
			switch b.class {
			case cast.MetaExprKind, cast.MetaIdentKind, cast.MetaConstKind, cast.MetaSymbolKind:
				return true
			}
			return false
		}
		return isIdentTok(b.text) || isConstTok(b.text) || strings.HasPrefix(b.text, `"`)
	case cast.MetaIdentKind:
		if b.meta {
			return b.class == cast.MetaIdentKind || b.class == cast.MetaSymbolKind
		}
		return isIdentTok(b.text)
	case cast.MetaConstKind:
		if b.meta {
			return b.class == cast.MetaConstKind
		}
		return isConstTok(b.text)
	}
	// Other metavariable classes (types, statements, lists) only cover an
	// identical metavariable token.
	return b.meta && b.class == a.class && b.text == a.text
}

// isIdentTok reports an identifier-shaped token.
func isIdentTok(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

// isConstTok reports a numeric-constant-shaped token.
func isConstTok(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	return '0' <= c && c <= '9'
}

// checkPrunability reports rules the required-atom prefilter can never use
// to skip a file, and the engine's per-rule gate can never use to skip
// matching, reusing the very index both build so the diagnosis cannot drift
// from the real filter.
func checkPrunability(p *smpl.Patch) []Issue {
	var issues []Issue
	for _, name := range index.Build(p).UnprunableRules() {
		issues = append(issues, Issue{Patch: p.Name, Rule: name, Code: CodeUnprunableRule,
			Msg: "no required literal atoms: the prefilter must parse every file for this rule, and the engine must match it on every file"})
	}
	return issues
}
