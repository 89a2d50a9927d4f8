package core_test

import (
	"testing"

	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/smpl"
)

// TestRuleGateSound checks the engine's per-rule required-atom gate against
// the matcher it skips: for every match rule of every shipped patch and
// every C/CUDA input the repository holds, a "no" from the gate implies an
// ungated FindAll on that parse finds nothing — with the CFG dots engine
// and with the sequence matcher, and with inherited metavariables left free
// (a superset of what any inherited environment admits).
func TestRuleGateSound(t *testing.T) {
	patches, corpus := shippedCorpus(t)
	type input struct {
		corpusInput
		cfgs func(*cast.FuncDef) *cfg.Graph
	}
	var inputs []input
	for _, in := range corpus {
		graphs := map[*cast.FuncDef]*cfg.Graph{}
		cfgs := func(fd *cast.FuncDef) *cfg.Graph {
			if graphs[fd] == nil {
				graphs[fd] = cfg.Build(fd)
			}
			return graphs[fd]
		}
		inputs = append(inputs, input{in, cfgs})
	}

	rejected, admitted := 0, 0
	for _, p := range patches {
		c := core.Compile(p)
		for i, r := range p.Rules {
			if r.Kind != smpl.MatchRule || r.Pattern == nil {
				continue
			}
			metas := smpl.NewMetaTable(r.Metas)
			for _, in := range inputs {
				if c.Prefilter.RuleMayMatch(i, func(w string) bool { return index.ContainsWord(in.src, w) }) {
					admitted++
					continue
				}
				rejected++
				for _, engine := range []func(*cast.FuncDef) *cfg.Graph{in.cfgs, nil} {
					m := &match.Matcher{Pat: r.Pattern, Metas: metas, Code: in.file, CFGs: engine}
					if got := m.FindAll(); len(got) > 0 {
						t.Errorf("%s rule %s on %s: gate says no, but the matcher finds %d match(es) (cfg=%v)",
							p.Name, r.Name, in.name, len(got), engine != nil)
					}
				}
			}
		}
	}
	// The sweep must exercise both answers, or it proves nothing.
	if rejected == 0 || admitted == 0 {
		t.Fatalf("gate rejected %d and admitted %d rule×input pairs; want both > 0", rejected, admitted)
	}
	t.Logf("%d patches × %d inputs: gate rejected %d rule×input pairs, admitted %d", len(patches), len(inputs), rejected, admitted)
}
