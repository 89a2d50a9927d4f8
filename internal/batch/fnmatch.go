// Function-granular incremental matching. For a function-local patch (one
// match rule, no cross-segment coupling — see core.FunctionLocal), a file is
// cut at its top-level function definitions (cast.SegmentFile) and each
// segment is matched independently under a window restricted to its token
// extent. Segment outcomes are cached by content hash (cache.FuncRecord), so
// a warm run after editing one function of a k-function file replays k-1
// segments and re-matches exactly one; fresh segments of one file are
// matched in parallel goroutines sharing one engine. The file-level answer
// is spliced from the per-segment texts; a cold run cross-checks the splice
// against a whole-file render of the merged edits before any segment record
// is persisted, and any condition the segment pipeline cannot reproduce
// byte-exactly (edits escaping a segment, ambiguous boundary rendering,
// MaxEnvs truncation, misaligned segment boundaries) falls back to the
// ordinary file-level path.
package batch

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/cast"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/transform"
)

// fnRunner drives function-granular processing for one (compiled patch,
// engine options) pair. nil when the patch is not function-local.
type fnRunner struct {
	compiled *core.Compiled
	filter   *index.Filter
	ruleName string
	maxEnvs  int
}

// newFnRunner returns a runner when the patch and options are eligible for
// function-granular execution, nil otherwise.
func newFnRunner(compiled *core.Compiled, engOpts core.Options, filter *index.Filter) *fnRunner {
	if !core.FunctionLocal(compiled, engOpts) {
		return nil
	}
	maxEnvs := engOpts.MaxEnvs
	if maxEnvs == 0 {
		maxEnvs = 4096
	}
	return &fnRunner{
		compiled: compiled,
		filter:   filter,
		ruleName: core.FunctionLocalRule(compiled).Name,
		maxEnvs:  maxEnvs,
	}
}

// fnOutcome is the file-level result assembled from per-segment outcomes.
type fnOutcome struct {
	Output     string
	MatchCount map[string]int
	Changed    bool
	Matched    int // function segments matched fresh
	Cached     int // function segments replayed from the cache
	// Findings are the check-rule reports across all segments: fresh ones
	// carry current positions, replayed ones are re-anchored to the current
	// parse from their segment-relative token offsets.
	Findings []analysis.Finding
}

// storeFnFindings strips a segment's findings to their position-independent
// cache form: everything re-derivable from the live parse at replay time
// (file, line, column, enclosing function name and hash) is dropped, keeping
// only the anchor's segment-relative token offset.
func storeFnFindings(fs []analysis.Finding) []cache.FnFinding {
	if len(fs) == 0 {
		return nil
	}
	out := make([]cache.FnFinding, len(fs))
	for i, f := range fs {
		out[i] = cache.FnFinding{
			Check: f.Check, Severity: f.Severity, Message: f.Message,
			Rule: f.Rule, Bindings: f.Bindings, TokOff: f.TokOff,
		}
	}
	return out
}

// loadFnFindings re-anchors a replayed segment's findings against the
// current parse: slot i < n is function i (anchor = segment start + offset),
// slot n is the residue (anchor = ResidueToken(offset)). Line, column,
// function name, and function hash are recomputed, so a record replayed
// after unrelated parts of the file moved — or, for the residue's token-only
// key, after whitespace between functions changed — reports exactly what a
// fresh run over the current text would.
func loadFnFindings(fs []cache.FnFinding, name string, segs *cast.Segmentation, i, n int) []analysis.Finding {
	if len(fs) == 0 {
		return nil
	}
	toks := segs.File.Toks.Tokens
	out := make([]analysis.Finding, len(fs))
	for k, f := range fs {
		af := analysis.Finding{
			Check: f.Check, Severity: f.Severity, File: name, Message: f.Message,
			Rule: f.Rule, Bindings: f.Bindings, TokOff: f.TokOff,
		}
		var anchor int
		if i < n {
			seg := &segs.Funcs[i]
			anchor = seg.First + f.TokOff
			if anchor > seg.Last {
				anchor = seg.Last
			}
			af.Func = seg.Name
			af.FuncHash = analysis.FuncKey(seg.Identity())
		} else {
			anchor = segs.ResidueToken(f.TokOff)
			af.FuncHash = analysis.FuncKey(segs.ResidueIdentity())
		}
		if anchor < 0 || anchor >= len(toks) {
			anchor = 0
		}
		pos := toks[anchor].Pos
		af.Line, af.Col = int(pos.Line), int(pos.Col)
		out[k] = af
	}
	return out
}

// fnHash keys a function segment's cache entry.
func fnHash(seg *cast.FuncSeg) string {
	return cache.HashString("fn\x00" + seg.Identity())
}

// resHash keys the residue's full-content cache entry. The function count
// is part of the key so gap boundaries cannot alias across files whose
// concatenated gaps happen to collide.
func resHash(segs *cast.Segmentation) string {
	return cache.HashString(fmt.Sprintf("res\x00%d\x00", len(segs.Funcs)) + segs.ResidueIdentity())
}

// resTokHash keys the residue's token-only cache entry: gap token texts
// with per-token and per-gap separators, ignoring whitespace and comments.
// A record is stored under this key only when the residue run applied no
// edits, so replaying it after a whitespace- or comment-only edit between
// functions is sound — matching reads only token texts, and with no edits
// the rendered gaps are the current raw gaps.
func resTokHash(segs *cast.Segmentation) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "restok\x00%d", len(segs.Funcs))
	toks := segs.File.Toks
	for i := 0; i <= len(segs.Funcs); i++ {
		sb.WriteByte('\x1e')
		a, b := segs.GapBounds(i)
		for j := a; j <= b; j++ {
			sb.WriteByte('\x1f')
			sb.WriteString(toks.Text(j))
		}
	}
	return cache.HashString(sb.String())
}

// segState tracks one segment (index < n: function i; index n: residue)
// through an apply call.
type segState struct {
	rec     *cache.FuncRecord // cached outcome, nil when fresh
	sr      *core.SegmentResult
	err     error
	skipped bool // per-segment prefilter ruled matching out
}

// matches returns the segment's applied-match count from whichever source
// resolved it.
func (s *segState) matches() int {
	if s.rec != nil {
		return s.rec.Matches
	}
	if s.sr != nil {
		return s.sr.Matches
	}
	return 0
}

// apply runs the patch function-granularly over one parsed file. ok=false
// means the caller must fall back to the ordinary file-level path; no cache
// record has been written for this file in that case (scan-cache priming
// aside, which is content-keyed and always sound).
func (r *fnRunner) apply(eng *core.Engine, tk *obs.Track, name, src string, parsed *cast.File, store cache.Store, key string) (fnOutcome, bool) {
	ssp := tk.Start(obs.StageSegment).File(name)
	segs := cast.SegmentFile(parsed)
	ssp.End()
	if segs == nil || !segs.Aligned() {
		return fnOutcome{}, false
	}
	n := len(segs.Funcs)
	states := make([]segState, n+1)

	// Replay segments whose content hash is cached. The residue tries its
	// full-content key first, then the token-only key (see resTokHash).
	cachedFns := 0
	if store != nil && key != "" {
		for i := range segs.Funcs {
			csp := tk.Start(obs.StageCacheRead).File(name).Func(segs.Funcs[i].Name)
			if rec, ok := store.FuncResult(key, fnHash(&segs.Funcs[i])); ok {
				states[i].rec = rec
				cachedFns++
				csp.Outcome(obs.OutcomeHit)
			} else {
				csp.Outcome(obs.OutcomeMiss)
			}
			csp.End()
		}
		csp := tk.Start(obs.StageCacheRead).File(name).Func("(residue)")
		if rec, ok := store.FuncResult(key, resHash(segs)); ok && (!rec.Changed || len(rec.Gaps) == n+1) {
			states[n].rec = rec
		} else if rec, ok := store.FuncResult(key, resTokHash(segs)); ok && !rec.Changed {
			states[n].rec = rec
		}
		if states[n].rec != nil {
			csp.Outcome(obs.OutcomeHit)
		} else {
			csp.Outcome(obs.OutcomeMiss)
		}
		csp.End()
	}

	// Match the remaining segments in parallel on this file, sharing the
	// engine: RunSegment only reads engine state.
	var fresh []int
	for i := range states {
		if states[i].rec == nil {
			fresh = append(fresh, i)
		}
	}
	freshFns := 0
	if len(fresh) > 0 {
		// One candidate enumeration serves every segment's matcher; without
		// it each RunSegment walks the whole AST again, costing k walks for
		// a k-segment file.
		cands := match.PrecomputeCands(parsed)
		var next atomic.Int64
		var wg sync.WaitGroup
		workers := runtime.GOMAXPROCS(0)
		if workers > len(fresh) {
			workers = len(fresh)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Fan-out goroutines share one engine but must not share a
				// track; each records on its own fork, passed via the job.
				fk := tk
				if workers > 1 {
					fk = tk.Fork(fmt.Sprintf("seg-%d", w))
				}
				for {
					k := int(next.Add(1)) - 1
					if k >= len(fresh) {
						return
					}
					i := fresh[k]
					if r.filter != nil && !r.segMayMatchTraced(fk, store, segs, i) {
						states[i].skipped = true
						states[i].sr = &core.SegmentResult{Edits: transform.NewEditSet(parsed.Toks)}
						continue
					}
					states[i].sr, states[i].err = eng.RunSegment(core.SegmentJob{
						Name: name, Src: src, File: parsed, Segs: segs, Fn: segIndex(i, n),
						Cands: cands, Trace: fk,
					})
				}
			}(w)
		}
		wg.Wait()
	}

	total := 0
	for i := range states {
		if states[i].err != nil || (states[i].sr != nil && states[i].sr.Escaped) {
			return fnOutcome{}, false
		}
		total += states[i].matches()
		if i < n && states[i].rec == nil {
			if states[i].skipped {
				continue
			}
			freshFns++
		}
	}
	if total >= r.maxEnvs {
		// A whole-file run would truncate (or sit exactly at the cap, which
		// only it can decide); its semantics are file-level.
		return fnOutcome{}, false
	}

	// Assemble per-segment texts. Unchanged segments are reconstructed from
	// the current parse, so cached entries stay position-independent.
	fnTexts := make([]string, n)
	for i := range segs.Funcs {
		switch {
		case states[i].rec != nil && states[i].rec.Changed:
			fnTexts[i] = states[i].rec.Output
		case states[i].rec != nil || states[i].skipped:
			fnTexts[i] = segs.Funcs[i].Raw()
		default:
			fnTexts[i] = states[i].sr.Text
		}
	}
	gaps := make([]string, n+1)
	for i := 0; i <= n; i++ {
		gaps[i] = segs.GapRaw(i)
	}
	switch {
	case states[n].rec != nil && states[n].rec.Changed:
		copy(gaps, states[n].rec.Gaps)
	case states[n].rec == nil && !states[n].skipped:
		copy(gaps, states[n].sr.Gaps)
	}
	rsp := tk.Start(obs.StageRender).File(name)
	spliced := segs.Splice(gaps, fnTexts)

	output := spliced
	verified := true
	if cachedFns == 0 && states[n].rec == nil {
		// Fully cold: the whole-file render of the merged per-segment edits
		// is the ground truth (it is exactly what a file-level run applies).
		// The splice must reproduce it byte-for-byte before any segment
		// record may be persisted and replayed into future splices.
		merged := transform.NewEditSet(parsed.Toks)
		for i := range states {
			if states[i].sr != nil && states[i].sr.Edits != nil {
				merged.Merge(states[i].sr.Edits)
			}
		}
		output = src
		if !merged.Empty() {
			output = merged.Apply()
		}
		verified = spliced == output
	}
	rsp.End()

	if store != nil && key != "" && verified {
		wsp := tk.Start(obs.StageCacheWrite).File(name)
		for i := range states {
			if states[i].rec != nil {
				continue
			}
			sr := states[i].sr
			rec := &cache.FuncRecord{Matches: sr.Matches, Changed: sr.Changed, Findings: storeFnFindings(sr.Findings)}
			if i < n {
				if sr.Changed {
					rec.Output = sr.Text
				}
				store.PutFuncResult(key, fnHash(&segs.Funcs[i]), rec)
			} else {
				if sr.Changed {
					rec.Gaps = sr.Gaps
				}
				store.PutFuncResult(key, resHash(segs), rec)
				if sr.Edits.Empty() {
					store.PutFuncResult(key, resTokHash(segs), &cache.FuncRecord{Matches: sr.Matches, Findings: rec.Findings})
				}
			}
		}
		wsp.End()
	}

	mc := map[string]int{}
	if total > 0 {
		mc[r.ruleName] = total
	}
	// Gather findings in segment order; replayed segments re-anchor theirs to
	// the current parse. Deduped like the file-level path (core.RunParsed), so
	// both paths report identical findings.
	var findings []analysis.Finding
	for i := range states {
		switch {
		case states[i].rec != nil:
			findings = append(findings, loadFnFindings(states[i].rec.Findings, name, segs, i, n)...)
		case states[i].sr != nil:
			findings = append(findings, states[i].sr.Findings...)
		}
	}
	findings = analysis.Dedupe(findings)
	return fnOutcome{
		Output:     output,
		MatchCount: mc,
		Changed:    output != src,
		Matched:    freshFns,
		Cached:     cachedFns,
		Findings:   findings,
	}, true
}

// segIndex maps a state slot to a SegmentJob.Fn (slot n is the residue).
func segIndex(i, n int) int {
	if i == n {
		return -1
	}
	return i
}

// segMayMatch answers the per-segment prefilter: false guarantees no match
// of the rule lies inside the segment, because every required atom occurs
// within a match's own token span. Function segments answer through the
// scan cache (one word scan per segment content hash, ever); the residue
// scans directly.
func (r *fnRunner) segMayMatchTraced(tk *obs.Track, store cache.Store, segs *cast.Segmentation, i int) bool {
	sp := tk.Start(obs.StagePrefilter)
	if i < len(segs.Funcs) {
		sp.Func(segs.Funcs[i].Name)
	} else {
		sp.Func("(residue)")
	}
	ok := r.segMayMatch(store, segs, i)
	if ok {
		sp.Outcome(obs.OutcomePass)
	} else {
		sp.Outcome(obs.OutcomeSkip)
	}
	sp.End()
	return ok
}

func (r *fnRunner) segMayMatch(store cache.Store, segs *cast.Segmentation, i int) bool {
	if i < len(segs.Funcs) {
		text := segs.Funcs[i].Text
		if store == nil {
			return r.filter.MayMatch(text)
		}
		h := cache.HashString(text)
		words, ok := store.Words(h)
		if !ok {
			words = index.ScanWords(text)
			store.PutWords(h, words)
		}
		return r.filter.MayMatchWords(words)
	}
	var sb strings.Builder
	for g := 0; g <= len(segs.Funcs); g++ {
		sb.WriteString(segs.GapRaw(g))
	}
	return r.filter.MayMatch(sb.String())
}
