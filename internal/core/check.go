// Finding emission for match-only check rules (SmPL star-lines and
// `// gocci:check` metadata headers). A check rule goes through the ordinary
// match pipeline — same matcher, same environments, same dots engines — but
// instead of recording edits it records analysis.Findings, so the engine
// "skips render/splice" simply by having nothing to render. Positions are
// taken from a bound position metavariable when the rule declares one, else
// from the first starred token of the pattern, else from the match's first
// code token; the finding additionally carries the enclosing function's
// identity hash and the anchor's function-relative token offset, the
// position-independent pair the baseline and the per-function cache key on.
package core

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/cast"
	"repro/internal/match"
	"repro/internal/smpl"
)

// checkMeta resolves a check rule's effective metadata, defaulting star
// rules without a gocci:check header to a warning named after the rule.
func checkMeta(rule *smpl.Rule) (id, severity, msg string) {
	if rule.Check != nil {
		id, severity, msg = rule.Check.ID, rule.Check.Severity, rule.Check.Msg
	}
	if id == "" {
		id = rule.Name
	}
	if severity == "" {
		severity = analysis.SeverityWarning
	}
	return id, severity, msg
}

// findingAnchor picks the report anchor: position metavariable, first
// starred token (mapped through the match's correspondence pairs), or the
// match's first code token.
func findingAnchor(rule *smpl.Rule, mt *match.Match, env match.Env, fileName string) int {
	for _, md := range rule.Metas {
		if md.Kind != cast.MetaPosKind {
			continue
		}
		if b, ok := env[md.Name]; ok && b.Kind == cast.MetaPosKind && b.TokIdx >= 0 && b.File == fileName {
			return b.TokIdx
		}
	}
	if si := rule.Pattern.FirstStarToken(); si >= 0 {
		for _, pr := range mt.Corr {
			if pr.PF <= si && si <= pr.PL {
				ci := pr.CF + (si - pr.PF)
				if ci > pr.CL {
					ci = pr.CL
				}
				return ci
			}
		}
	}
	return mt.First
}

// makeFinding assembles the finding for one check-rule match. segs may be
// nil (a file with no function definitions); src is the file's full text,
// the identity fallback for such files.
func makeFinding(rule *smpl.Rule, mt *match.Match, env match.Env, file *cast.File, segs *cast.Segmentation, src string) analysis.Finding {
	id, severity, msg := checkMeta(rule)
	if msg == "" {
		msg = "rule " + rule.Name + " matched"
	} else {
		msg = substitute(msg, env)
	}
	anchor := findingAnchor(rule, mt, env, file.Name)
	toks := file.Toks.Tokens
	if anchor < 0 || anchor >= len(toks) {
		anchor = 0
	}
	pos := toks[anchor].Pos
	f := analysis.Finding{
		Check:    id,
		Severity: severity,
		File:     file.Name,
		Line:     int(pos.Line),
		Col:      int(pos.Col),
		Message:  msg,
		Rule:     rule.Name,
	}
	for name, b := range env {
		if strings.Contains(name, ".") || b.Kind == cast.MetaPosKind {
			continue
		}
		if f.Bindings == nil {
			f.Bindings = map[string]string{}
		}
		f.Bindings[name] = b.Text
	}
	if segs == nil {
		f.FuncHash = analysis.FuncKey(src)
		f.TokOff = anchor
		return f
	}
	for i := range segs.Funcs {
		fs := &segs.Funcs[i]
		if anchor >= fs.First && anchor <= fs.Last {
			f.Func = fs.Name
			f.FuncHash = analysis.FuncKey(fs.Identity())
			f.TokOff = anchor - fs.First
			return f
		}
	}
	f.FuncHash = analysis.FuncKey(segs.ResidueIdentity())
	f.TokOff = segs.ResidueOffset(anchor)
	return f
}
