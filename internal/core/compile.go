package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/index"
	"repro/internal/smpl"
)

// ValidateDefines checks that every define names a virtual declared by at
// least one of the patches — the misconfiguration Engine.Run rejects. Callers
// that apply patches many times (the batch subsystem, CLI front ends) validate
// once up front instead of reporting the same error per file; a campaign
// passes every member, since each member sees only the names it declares.
func ValidateDefines(defines []string, patches ...*smpl.Patch) error {
	declared := map[string]bool{}
	names := make([]string, len(patches))
	for i, p := range patches {
		names[i] = p.Name
		for _, v := range p.Virtuals {
			declared[v] = true
		}
	}
	for _, d := range defines {
		if !declared[d] {
			return fmt.Errorf("define %q is not declared virtual in %s", d, strings.Join(names, " or "))
		}
	}
	return nil
}

// IntersectDefines keeps the defines a patch declares virtual, in order:
// each member of a campaign, and each patch of a cross-file run, sees only
// the run-wide names it declares.
func IntersectDefines(defines, virtuals []string) []string {
	var out []string
	for _, d := range defines {
		if slices.Contains(virtuals, d) {
			out = append(out, d)
		}
	}
	return out
}

// Compiled holds the read-only artifacts an engine derives from a parsed
// patch before matching: per-rule metavariable lookup tables and inheritance
// maps. Building them is cheap for one file but adds up over a large corpus,
// and more importantly a Compiled value is immutable after Compile returns,
// so one instance can back any number of Engines running concurrently — the
// batch subsystem compiles once and shares the result across its worker
// pool.
type Compiled struct {
	// Patch is the parsed patch the artifacts were derived from. Treated as
	// read-only from here on.
	Patch *smpl.Patch
	// Prefilter is the required-atom index derived from the patch: it
	// answers from raw bytes whether any rule could fire on a file, letting
	// the batch subsystem skip parsing files that provably cannot match, and
	// the engine skip matching a rule on a file whose current text lacks
	// that rule's required atoms.
	Prefilter *index.Index
	// Keyed by rule identity, not name: the parser does not reject
	// duplicate rule names, and conflating two rules' metavariable tables
	// would silently corrupt matching.
	rules map[*smpl.Rule]*compiledRule
}

// compiledRule caches what runMatch would otherwise rebuild per run.
type compiledRule struct {
	// idx is the rule's position in Patch.Rules, which is also its entry
	// in the Prefilter index.
	idx   int
	metas *smpl.MetaTable
	// inherits maps a local metavariable name to the qualified
	// "rule.remote" environment key it is bound from.
	inherits map[string]string
}

// Compile derives the per-rule matching artifacts from a parsed patch. The
// result is safe for concurrent use by multiple Engines.
func Compile(patch *smpl.Patch) *Compiled {
	c := &Compiled{
		Patch:     patch,
		Prefilter: index.Build(patch),
		rules:     make(map[*smpl.Rule]*compiledRule, len(patch.Rules)),
	}
	for i, rule := range patch.Rules {
		cr := &compiledRule{idx: i, metas: smpl.NewMetaTable(rule.Metas), inherits: map[string]string{}}
		for _, md := range rule.Metas {
			if md.FromRule != "" {
				cr.inherits[md.Name] = md.FromRule + "." + md.RemoteName
			}
		}
		c.rules[rule] = cr
	}
	return c
}

// rule returns the compiled artifacts for a rule.
func (c *Compiled) rule(r *smpl.Rule) *compiledRule {
	return c.rules[r]
}
