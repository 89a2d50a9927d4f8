// Package index implements the batch engine's required-atom prefilter: a
// per-patch index answering, from raw file bytes alone, "can any rule of
// this patch possibly fire on this file?". It is the role glimpse/idutils
// token indexes play for spatch — on a corpus where most files cannot
// match, skipping the parser on provably irrelevant files is the dominant
// speedup, because parsing costs orders of magnitude more than a handful
// of substring scans.
//
// For every match rule the index extracts *required atoms*: literal
// identifiers on context and minus lines that the matcher compares by
// name, so any file the rule matches must contain them as complete words.
// Per-file evaluation then walks the rules in order under three-valued
// logic (no / maybe / yes), mirroring how Engine.Run gates rules on the
// Matched set: a rule whose dependency cannot hold, or whose atoms are
// absent, can never fire; a file is skipped only when *every* rule that
// could touch the result evaluates to "no". Virtual rules resolve from the
// run's defines; rules that may run after a firing transform rule widen
// the filter with the words that transform could insert (or disable it
// when the insertions are not statically known, e.g. fresh identifiers or
// script-computed bindings).
//
// The filter is deliberately one-sided: MayMatch == true promises nothing,
// but MayMatch == false guarantees the engine would leave the file
// untouched and report no matches, so a skipped file's result can be
// synthesized without parsing.
package index

import (
	"repro/internal/cast"
	"repro/internal/smpl"
)

// Tri is the three-valued truth of "this rule fires on this file" (or, for
// the SmPL linter, "on some file").
type Tri uint8

const (
	TriNo Tri = iota
	TriMaybe
	TriYes
)

// ruleInfo is the per-rule slice of the index.
type ruleInfo struct {
	name    string
	kind    smpl.RuleKind
	depends *smpl.DepExpr
	// atoms must all be present (as words) for a match rule to possibly
	// match; empty means the rule is unconditionally "maybe".
	atoms []string
	// groups are at-least-one-of word sets from disjunctions: a matching
	// file must contain some member of every group.
	groups [][]string
	// plusAtoms are literal words the rule's plus lines insert; once the
	// rule may fire, later rules' atoms may be satisfied by them.
	plusAtoms []string
	// insertsUnknown marks plus lines whose inserted text is not statically
	// known (fresh identifiers, script- or taint-derived bindings): after
	// such a rule may fire, no later atom can be ruled absent.
	insertsUnknown bool
	// inputRules names the source rules of a script rule's inputs; if any
	// of them cannot fire, the script body never executes.
	inputRules []string
}

// Index is the compiled prefilter for one patch. It is immutable after
// Build and safe for concurrent use by any number of workers.
type Index struct {
	rules []ruleInfo
	// virtuals are the names declared `virtual`, resolved per run from the
	// defines (spatch -D).
	virtuals map[string]bool
}

// Build derives the prefilter from a parsed patch. It never fails: a rule
// the analysis cannot bound simply contributes an always-maybe entry, which
// only weakens the filter.
func Build(p *smpl.Patch) *Index {
	ix := &Index{virtuals: map[string]bool{}}
	for _, v := range p.Virtuals {
		ix.virtuals[v] = true
	}
	// tainted marks rule names whose exported bindings may hold text that
	// occurs nowhere in the source file: script outputs are computed, fresh
	// identifiers are synthesized, and match rules re-export everything
	// they inherit, so taint propagates along inheritance.
	tainted := map[string]bool{}
	for _, r := range p.Rules {
		ri := ruleInfo{name: r.Name, kind: r.Kind, depends: r.Depends}
		switch r.Kind {
		case smpl.ScriptRule:
			if len(r.Outputs) > 0 {
				tainted[r.Name] = true
			}
			for _, in := range r.Inputs {
				ri.inputRules = append(ri.inputRules, in.Rule)
			}
		case smpl.MatchRule:
			metas := smpl.NewMetaTable(r.Metas)
			if r.Pattern != nil {
				ex := newExtractor(metas)
				ex.pattern(r.Pattern)
				ri.atoms, ri.groups = ex.finish()
			}
			t := false
			for _, md := range r.Metas {
				if md.Kind == cast.MetaFreshIdentKind {
					t = true
				}
				if md.FromRule != "" && tainted[md.FromRule] {
					t = true
				}
			}
			if t {
				tainted[r.Name] = true
			}
			ri.plusAtoms, ri.insertsUnknown = plusInsertions(r, metas, tainted)
		}
		ix.rules = append(ix.rules, ri)
	}
	return ix
}

// plusInsertions classifies every identifier word of the rule's plus lines.
// A word that names one of the rule's metavariables is replaced at apply
// time: if the binding can only come from matching this same file, the
// replacement introduces no new words; fresh identifiers and taint-derived
// bindings can introduce anything. All remaining words are inserted
// verbatim.
func plusInsertions(r *smpl.Rule, metas *smpl.MetaTable, tainted map[string]bool) (atoms []string, unknown bool) {
	if r.Pattern == nil {
		return nil, false
	}
	seen := map[string]bool{}
	for _, blk := range r.Pattern.PlusBlocks {
		for _, line := range blk.Text {
			for _, w := range identWords(line) {
				if seen[w] {
					continue
				}
				seen[w] = true
				d, ok := metas.Decl(w)
				if !ok {
					atoms = append(atoms, w)
					continue
				}
				if d.Kind == cast.MetaFreshIdentKind ||
					(d.FromRule != "" && tainted[d.FromRule]) {
					unknown = true
				}
			}
		}
	}
	return atoms, unknown
}

// UnprunableRules returns the names of match rules whose required-atom set
// is empty: the prefilter must treat them as always-maybe, so no file can
// ever be skipped on their account. `gocci vet` surfaces them — one literal
// identifier on a context or minus line restores prunability.
func (ix *Index) UnprunableRules() []string {
	var out []string
	for _, r := range ix.rules {
		if r.kind == smpl.MatchRule && len(r.atoms) == 0 && len(r.groups) == 0 {
			out = append(out, r.name)
		}
	}
	return out
}

// RuleMayMatch reports whether the patch's i-th rule, a match rule, could
// match a file whose identifier words has answers. It consults the rule's
// required atoms and disjunction groups only — not its dependency, and not
// words earlier rules might insert — so it is meant for the engine, which
// evaluates dependencies itself and asks against the file's current text,
// after earlier rules' edits. False is a guarantee: the matcher finds
// nothing. Index rules line up with Patch.Rules, since Build records one
// entry per rule.
func (ix *Index) RuleMayMatch(i int, has func(string) bool) bool {
	return ix.rules[i].present(has)
}

// present reports whether every required atom, and some word of every
// disjunction group, satisfies has.
func (r *ruleInfo) present(has func(string) bool) bool {
	for _, a := range r.atoms {
		if !has(a) {
			return false
		}
	}
	for _, g := range r.groups {
		anyIn := false
		for _, a := range g {
			if has(a) {
				anyIn = true
				break
			}
		}
		if !anyIn {
			return false
		}
	}
	return true
}

// Filter is an Index specialized to one run's virtual defines. Like the
// Index it is immutable and safe for concurrent use.
type Filter struct {
	ix *Index
	// base holds the pre-run truth per name: defined virtuals are yes,
	// declared-but-undefined virtuals are no (absent names default to no
	// at evaluation time, exactly like the engine's Matched map).
	base map[string]Tri
}

// ForDefines specializes the index to a define set.
func (ix *Index) ForDefines(defines []string) *Filter {
	f := &Filter{ix: ix, base: map[string]Tri{}}
	for v := range ix.virtuals {
		f.base[v] = TriNo
	}
	for _, d := range defines {
		f.base[d] = TriYes
	}
	return f
}

// MayMatch reports whether the patch could possibly fire on src. False is a
// guarantee: running the engine on src would change nothing and count no
// matches, so the caller may skip parsing entirely and report the input
// unchanged.
func (f *Filter) MayMatch(src string) bool {
	present := make(map[string]Tri, 8)
	return f.mayMatch(func(w string) bool {
		if v, ok := present[w]; ok {
			return v == TriYes
		}
		v := TriNo
		if ContainsWord(src, w) {
			v = TriYes
		}
		present[w] = v
		return v == TriYes
	})
}

// MayMatchWords is MayMatch over a pre-scanned identifier-word set (see
// ScanWords), the form the persistent scan cache answers: one scan of the
// file serves every patch of a campaign, and cached scans serve every
// future run. The two forms agree exactly, because an atom is a valid
// identifier and ContainsWord accepts precisely the occurrences ScanWords
// extracts as maximal words.
func (f *Filter) MayMatchWords(words map[string]bool) bool {
	return f.mayMatch(func(w string) bool { return w == "" || words[w] })
}

// mayMatch walks the rules under three-valued logic with has answering
// word-presence queries against the file.
func (f *Filter) mayMatch(has func(string) bool) bool {
	// fired accumulates per-name truth in rule order, mirroring how
	// Engine.Run's Matched map evolves: dependencies see the state the
	// preceding rules left behind.
	fired := make(map[string]Tri, len(f.base)+len(f.ix.rules))
	for k, v := range f.base {
		fired[k] = v
	}
	inserted := map[string]bool{}
	insertedUnknown := false
	hasOrInserted := func(w string) bool { return has(w) || inserted[w] }
	any := false

	for _, r := range f.ix.rules {
		var v Tri
		switch r.kind {
		case smpl.FinalizeRule:
			// Finalizers run unconditionally (their dependency is not
			// consulted), so a patch with one can never skip a file.
			v = TriMaybe
		case smpl.InitializeRule:
			// Initialize bodies don't touch the result, but they execute
			// whenever their dependency holds — and execution can fail,
			// which surfaces as the file's error. Be conservative.
			if EvalDep(r.depends, fired) != TriNo {
				v = TriMaybe
			}
		case smpl.ScriptRule:
			if EvalDep(r.depends, fired) != TriNo {
				v = TriMaybe
				// Every input must be bindable; one unfirable source rule
				// means the body never runs for any environment.
				for _, in := range r.inputRules {
					if fired[in] == TriNo {
						v = TriNo
						break
					}
				}
			}
		case smpl.MatchRule:
			if EvalDep(r.depends, fired) != TriNo {
				v = TriMaybe
				if !insertedUnknown && !r.present(hasOrInserted) {
					v = TriNo
				}
			}
			if v != TriNo {
				for _, w := range r.plusAtoms {
					inserted[w] = true
				}
				if r.insertsUnknown {
					insertedUnknown = true
				}
			}
		}
		// Only match and script rules enter the engine's Matched map;
		// initialize/finalize rules never satisfy a dependency by name.
		if (r.kind == smpl.MatchRule || r.kind == smpl.ScriptRule) && v > fired[r.name] {
			fired[r.name] = v
		}
		if v != TriNo {
			any = true
		}
	}
	return any
}

// EvalDep evaluates a dependency expression in three-valued logic over the
// per-name truth accumulated so far. Names absent from fired are no, like
// names absent from the engine's Matched map.
func EvalDep(d *smpl.DepExpr, fired map[string]Tri) Tri {
	if d == nil {
		return TriYes
	}
	if len(d.And) > 0 {
		v := TriYes
		for _, c := range d.And {
			if cv := EvalDep(c, fired); cv < v {
				v = cv
			}
		}
		return v
	}
	if len(d.Or) > 0 {
		v := TriNo
		for _, c := range d.Or {
			if cv := EvalDep(c, fired); cv > v {
				v = cv
			}
		}
		return v
	}
	v := fired[d.Name]
	if d.Not {
		return TriYes - v
	}
	return v
}
