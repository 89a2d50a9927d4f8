// Function-granular execution. A patch that is "function-local" — a single
// match rule with no inherited bindings, no fresh identifiers, no position
// metavariables, and an anchored pattern — can be run one file segment at a
// time (see cast.SegmentFile): each top-level function is matched under a
// window restricted to its token extent, and everything between functions is
// matched under the residue window. Because the windows partition the
// matcher's candidate roots and every match's tokens stay inside its root's
// segment, the per-segment runs together find exactly the matches of a
// whole-file run — which is what lets internal/batch cache and replay
// results per function instead of per file.
package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cast"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/smpl"
	"repro/internal/transform"
)

// FunctionLocalRule returns the patch's single match rule when the patch
// consists of exactly one rule and it is a match rule; nil otherwise.
func FunctionLocalRule(c *Compiled) *smpl.Rule {
	var mr *smpl.Rule
	for _, r := range c.Patch.Rules {
		if r.Kind != smpl.MatchRule || mr != nil {
			return nil
		}
		mr = r
	}
	return mr
}

// FunctionLocal reports whether the compiled patch can be executed
// function-granularly under the given options with results identical to a
// whole-file run. The conditions exclude every source of cross-segment or
// cross-run coupling:
//
//   - exactly one rule, a match rule: script/init rules and inter-rule
//     environment flow see the whole file.
//   - no inherited metavariables (implied by the single rule, checked
//     anyway) and no fresh identifiers: fresh-name counters depend on the
//     number and order of earlier matches across the file.
//   - no position metavariables: their bound text embeds absolute line
//     numbers, so a cached segment result would go stale when the segment
//     moves without changing.
//   - the pattern is anchored — a declaration pattern of exactly one
//     declaration, a statement pattern with at least one element that is
//     neither dots nor a statement-list metavariable, or a type pattern,
//     whose match is one token — so every match covers at least one code
//     token and lies inside one window.
//   - no per-rule match cap (MaxMatchesPerRule), which counts across the
//     whole file.
//   - quantified dots (`when strict`/`when forall`) the pattern's engine
//     cannot decide (match.QuantifiersDecidable) must fail at file level,
//     with runMatch's error.
func FunctionLocal(c *Compiled, opts Options) bool {
	if opts.MaxMatchesPerRule != 0 {
		return false
	}
	mr := FunctionLocalRule(c)
	if mr == nil || mr.Pattern == nil {
		return false
	}
	cr := c.rule(mr)
	if len(cr.inherits) > 0 {
		return false
	}
	for _, md := range mr.Metas {
		if md.Kind == cast.MetaFreshIdentKind {
			return false
		}
		// Position bindings embed absolute line numbers, so they are only
		// admissible when nothing position-dependent leaves the segment run.
		// A check rule qualifies: its findings store function-relative token
		// offsets and their line/col are re-derived from the live parse on
		// replay, and a single-rule patch exports no environments.
		if md.Kind == cast.MetaPosKind && !mr.IsCheck() {
			return false
		}
	}
	pat := mr.Pattern
	switch pat.Kind {
	case smpl.DeclPattern:
		if len(pat.Decls) != 1 {
			// Multi-declaration windows can span a function definition,
			// coupling a residue match to function content.
			return false
		}
	case smpl.StmtSeqPattern:
		anchored := false
		for _, s := range pat.Stmts {
			if _, isDots := s.(*cast.Dots); isDots {
				continue
			}
			if ms, ok := s.(*cast.MetaStmt); ok {
				if d, ok2 := cr.metas.Decl(ms.Name); ok2 && d.Kind == cast.MetaStmtListKind {
					continue
				}
			}
			anchored = true
		}
		if !anchored {
			return false
		}
	}
	return match.QuantifiersDecidable(pat, cr.metas)
}

// SegmentJob identifies one segment of one file to match.
type SegmentJob struct {
	Name string
	Src  string
	File *cast.File
	Segs *cast.Segmentation
	// Fn is the function index in Segs.Funcs, or -1 for the residue (the
	// gaps between functions).
	Fn int
	// Cands, when non-nil, is the file's shared candidate enumeration
	// (match.PrecomputeCands(File)). Without it every segment's matcher
	// re-walks the whole AST to enumerate candidates, making a k-segment
	// file cost k walks instead of one.
	Cands *match.Cands
	// Trace, when non-nil, receives this job's match and cfg spans. It lives
	// on the job rather than the engine because segment jobs of one file fan
	// out goroutines over one shared engine; each goroutine forks its own
	// track.
	Trace *obs.Track
}

// SegmentResult is the outcome of matching one segment.
type SegmentResult struct {
	// Matches counts applied matches of the rule inside the segment.
	Matches int
	// Changed reports the rendered segment differs from its raw text.
	Changed bool
	// Text is the rendered segment (function jobs only): the function's
	// own-line indentation plus its edited token text.
	Text string
	// Gaps are the rendered gap texts (residue jobs only; len(Funcs)+1
	// entries), each the gap's edited token text plus the head of the next
	// function's leading whitespace.
	Gaps []string
	// Escaped reports the segment's result cannot stand alone: an edit
	// landed outside the segment, a rendered piece was ambiguous at its
	// boundary, or the match count reached Options.MaxEnvs (whole-file
	// truncation semantics). The caller must fall back to a file-level run.
	Escaped bool
	// Edits holds the segment's raw edit set, for callers that verify a
	// cold run by merging per-segment edits and rendering the whole file.
	Edits *transform.EditSet
	// Findings are the check-rule reports anchored inside this segment.
	// Line/Col are absolute for the current parse; TokOff and FuncHash are
	// segment-relative, so a cached finding can be re-anchored after
	// unrelated parts of the file moved.
	Findings []analysis.Finding
}

// RunSegment matches the engine's single function-local rule inside one
// segment of a parsed file. The engine must satisfy FunctionLocal for its
// compiled patch and options; segments of one file may run on separate
// goroutines sharing one engine, because the segment path only reads engine
// state (the per-file mutable state lives in the per-call fileState).
func (e *Engine) RunSegment(job SegmentJob) (*SegmentResult, error) {
	rule := FunctionLocalRule(e.compiled)
	if rule == nil {
		return nil, fmt.Errorf("RunSegment: patch %s is not function-local", e.patch.Name)
	}
	if err := ValidateDefines(e.opts.Defines, e.patch); err != nil {
		return nil, err
	}
	sr := &SegmentResult{}
	st := &fileState{name: job.Name, src: job.Src, file: job.File, ed: transform.NewEditSet(job.File.Toks), trace: job.Trace}
	sr.Edits = st.ed

	msp := job.Trace.Start(obs.StageMatch).File(job.Name).Rule(rule.Name)
	if job.Fn >= 0 {
		msp.Func(job.Segs.Funcs[job.Fn].Name)
	}
	defer func() { msp.Matches(sr.Matches).End() }()

	matched := map[string]bool{}
	for _, d := range e.opts.Defines {
		matched[d] = true
	}
	if rule.Depends.Eval(matched) {
		cr := e.compiled.rule(rule)
		m := e.matcher(st, rule.Pattern, cr.metas)
		m.Cands = job.Cands
		if job.Fn >= 0 {
			m.Window = job.Segs.FuncWindow(job.Fn)
		} else {
			m.Window = job.Segs.ResidueWindow()
		}
		isCheck := rule.IsCheck()
		for _, mt := range m.FindAll() {
			if sr.Matches >= e.opts.MaxEnvs {
				// Whole-file runs truncate here; per-segment runs cannot
				// reproduce truncation order, so force the fallback.
				sr.Escaped = true
				break
			}
			if rule.Pattern.HasTransform {
				if !e.applyMatch(st, rule.Pattern, &mt, mt.Env) {
					continue // overlapping edit: skip this match
				}
				st.dirty = true
			}
			if isCheck {
				sr.Findings = append(sr.Findings,
					makeFinding(rule, &mt, mt.Env, job.File, job.Segs, job.Src))
			}
			sr.Matches++
		}
		if isCheck && len(sr.Findings) > 0 {
			csp := job.Trace.Start(obs.StageCheck).File(job.Name).Rule(rule.Name)
			csp.Matches(len(sr.Findings)).End()
		}
	}

	if job.Fn >= 0 {
		seg := &job.Segs.Funcs[job.Fn]
		if !st.ed.WithinRange(seg.First, seg.Last) {
			sr.Escaped = true
			return sr, nil
		}
		text, ambiguous := st.ed.ApplyRange(seg.First, seg.Last, seg.Lead)
		if st.ed.Empty() {
			text = seg.Raw()
		} else if ambiguous {
			sr.Escaped = true
			return sr, nil
		}
		sr.Text = text
		sr.Changed = text != seg.Raw()
		return sr, nil
	}

	// Residue: every edit must stay out of the function extents, and each
	// gap renders independently (the head of the next function's leading
	// whitespace belongs to the gap and carries no tokens to edit).
	for i := range job.Segs.Funcs {
		seg := &job.Segs.Funcs[i]
		if st.ed.Touches(seg.First, seg.Last) {
			sr.Escaped = true
			return sr, nil
		}
	}
	n := len(job.Segs.Funcs)
	sr.Gaps = make([]string, n+1)
	for i := 0; i <= n; i++ {
		raw := job.Segs.GapRaw(i)
		a, b := job.Segs.GapBounds(i)
		if st.ed.Empty() || b < a {
			sr.Gaps[i] = raw
		} else {
			lead := job.File.Toks.WS(a)
			text, ambiguous := st.ed.ApplyRange(a, b, lead)
			if ambiguous && i < n {
				// The emptied tail line would merge into the next function's
				// lead in a whole-file render; composition is unsafe.
				sr.Escaped = true
				return sr, nil
			}
			sr.Gaps[i] = text + job.Segs.GapHead(i)
		}
		if sr.Gaps[i] != raw {
			sr.Changed = true
		}
	}
	return sr, nil
}
