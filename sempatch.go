// Package sempatch is the public API of gocci, a semantic patch engine for
// C/C++ in the spirit of Coccinelle, reproducing "Advances in Semantic
// Patching for HPC-oriented Refactorings with Coccinelle" (Martone & Lawall,
// 2025). A semantic patch is a change specification written like a unified
// diff but matched against the program's syntax tree: metavariables abstract
// over subterms, "..." abstracts over statement paths, and rules chain
// through inherited bindings and script rules.
//
// Quickstart:
//
//	p, _ := sempatch.ParsePatch("swap.cocci", `@@
//	expression list el;
//	@@
//	- old_api(el)
//	+ new_api(el)
//	`)
//	res, _ := sempatch.NewApplier(p, sempatch.Options{}).
//		Apply(sempatch.File{Name: "x.c", Src: src})
//	fmt.Print(res.Diffs["x.c"])
package sempatch

import (
	"fmt"
	"iter"
	"os"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/obs"
	"repro/internal/smpl"
	"repro/internal/verify"
)

// Finding is one report from a match-only check rule (an SmPL rule with `*`
// star-lines or a `// gocci:check` metadata header): where it fired, the
// interpolated message, its severity, the bound metavariables, and the
// position-independent function-identity pair the baseline keys on. See
// docs/check.md.
type Finding = analysis.Finding

// Diff renders the unified diff between two versions of a file with the
// conventional a/ and b/ name prefixes — the same rendering Result.Diffs
// and FileResult.Diff carry, for callers composing multiple runs (e.g. a
// net diff across sequentially applied patches).
func Diff(name, before, after string) string {
	return diff.Unified("a/"+name, "b/"+name, before, after)
}

// Options selects the accepted C/C++ dialect and engine limits.
type Options struct {
	// CPlusPlus enables C++ constructs (range-for, lambdas, ::).
	CPlusPlus bool
	// Std is the C++ standard (11, 17, 23); 23 enables multi-index
	// subscripts a[x, y, z].
	Std int
	// CUDA enables the <<< >>> kernel-launch tokens.
	CUDA bool
	// MaxEnvs caps the environment set flowing between rules (default 4096).
	MaxEnvs int
	// Defines enables virtual dependency names declared in the patch
	// (`virtual fix_gcc;` + `@r depends on fix_gcc@`), like spatch -D.
	Defines []string
	// Workers is the pool size for BatchApplier; <= 0 means GOMAXPROCS.
	// Ignored by the single-threaded Applier.
	Workers int
	// NoPrefilter disables the BatchApplier's required-atom prefilter, so
	// every file is parsed and matched even when it provably cannot be
	// touched by the patch. Outputs are identical either way; disable the
	// filter to surface parse errors in files the patch cannot match, or
	// to measure its effect. Ignored by the single-threaded Applier.
	NoPrefilter bool
	// CacheDir, when non-empty, enables the persistent corpus index rooted
	// at that directory for BatchApplier and Campaign runs: file scans and
	// per-file results are cached by content hash, so re-running a patch
	// over an unchanged corpus skips scanning, parsing, and matching.
	// Outputs are byte-identical with the cache cold, warm, or disabled;
	// invalidation is automatic — editing a file, the patch text, or any
	// result-affecting option changes the key. Ignored by the
	// single-threaded Applier. See docs/batch.md for the on-disk format.
	CacheDir string
	// NoFuncCache disables function-granular processing for BatchApplier and
	// Campaign runs: eligible single-rule patches then match whole files
	// instead of per-function segments. Outputs are byte-identical either
	// way; disable it to measure the incremental pipeline's effect or to
	// force file-level matching. Ignored by the single-threaded Applier.
	NoFuncCache bool
	// Verify runs the post-transform safety checker on every file a
	// BatchApplier or Campaign run changed: capture-avoidance and def-use
	// checks for rewritten identifiers, pragma round-trip checks for
	// directive translations, and an output re-parse. An unsafe finding
	// demotes the edit — the file's output reverts to its input and the
	// findings ride the result as Warnings. Verify mode keys the result
	// cache, so verified and unverified runs never share cached outcomes.
	// Ignored by the single-threaded Applier. See docs/hpc.md.
	Verify bool
	// Tracer, when non-nil, collects pipeline spans for the run: read, hash,
	// prefilter, parse, segment, CFG build, match (attributed per rule),
	// verify, render, and cache traffic, one track per worker. Render the
	// buffer with Tracer.WriteJSON (Chrome trace-event JSON, loadable in
	// Perfetto) or aggregate it with Tracer.Profile. Create one with
	// NewTracer per run; tracing never changes outputs and a nil Tracer
	// costs a single pointer check per instrumentation site. See
	// docs/observability.md.
	Tracer *Tracer
}

// Tracer is a per-run trace buffer for pipeline observability; see
// Options.Tracer and docs/observability.md. The zero value is not usable —
// create tracers with NewTracer.
type Tracer = obs.Tracer

// Profile is the aggregate view of one traced run: per-stage self-time,
// per-rule fire/miss/time attribution, cache hit breakdown, and prefilter
// skip counts. Obtain one with Tracer.Profile after the run completes;
// Format renders the table `gocci --profile` prints.
type Profile = obs.Profile

// NewTracer creates an enabled trace buffer for one run. Hand it to
// Options.Tracer, run, then render with WriteJSON or aggregate with
// Profile. A Tracer must not be shared by concurrent runs — each run gets
// its own.
func NewTracer() *Tracer { return obs.New() }

func (o Options) internal() core.Options {
	return core.Options{
		CPlusPlus: o.CPlusPlus, Std: o.Std, CUDA: o.CUDA,
		MaxEnvs: o.MaxEnvs, Defines: o.Defines,
	}
}

func (o Options) batch() batch.Options {
	return batch.Options{
		Engine: o.internal(), Workers: o.Workers,
		NoPrefilter: o.NoPrefilter, CacheDir: o.CacheDir, NoFuncCache: o.NoFuncCache,
		Verify: o.Verify, Tracer: o.Tracer,
	}
}

// File is one source file to patch.
type File struct {
	Name string
	Src  string
}

// Result reports a patch application.
type Result struct {
	// Outputs maps file name to (possibly transformed) source text.
	Outputs map[string]string
	// Diffs maps file name to a unified diff; empty when unchanged.
	Diffs map[string]string
	// Matched reports which rules matched at least once.
	Matched map[string]bool
	// MatchCount counts matches per rule.
	MatchCount map[string]int
	// EnvsTruncated reports that the run hit Options.MaxEnvs and dropped
	// matches: outputs are valid but possibly incomplete. Rerun with a
	// larger cap to get every match.
	EnvsTruncated bool
	// Findings are the check-rule reports (match-only star rules and
	// gocci:check rules; empty for pure transform patches).
	Findings []Finding
}

// Changed lists files whose output differs from the input.
func (r *Result) Changed() []string {
	var out []string
	for name, d := range r.Diffs {
		if d != "" {
			out = append(out, name)
		}
	}
	return out
}

// Patch is a parsed semantic patch.
type Patch struct {
	p *smpl.Patch
}

// Virtuals returns the names the patch declares `virtual` — the dependency
// atoms settable through Options.Defines.
func (p *Patch) Virtuals() []string {
	return append([]string(nil), p.p.Virtuals...)
}

// Rules returns the rule names in order (useful for tooling).
func (p *Patch) Rules() []string {
	out := make([]string, 0, len(p.p.Rules))
	for _, r := range p.p.Rules {
		out = append(out, r.Name)
	}
	return out
}

// HasChecks reports whether any rule of the patch is a match-only check
// rule (star-lines or a gocci:check header): applying such a patch emits
// Findings, and a patch of only check rules never changes its input.
func (p *Patch) HasChecks() bool { return p.p.HasChecks() }

// CheckRules returns, in order, the names of the patch's match-only check
// rules. Front ends use it to label such rules distinctly (a check rule that
// "never fired" found nothing to report — it did not fail to rewrite).
func (p *Patch) CheckRules() []string {
	var out []string
	for _, r := range p.p.Rules {
		if r.IsCheck() {
			out = append(out, r.Name)
		}
	}
	return out
}

// FireableRules returns, in order, the names of the rules that can fire —
// match and script rules, whose match counts appear in MatchCount.
// Initialize and finalize rules run unconditionally and are excluded. Front
// ends compare this list against a sweep's match counts to flag rules that
// never fired anywhere (dead weight in a campaign).
func (p *Patch) FireableRules() []string {
	out := []string{}
	for _, r := range p.p.Rules {
		if r.Kind == smpl.MatchRule || r.Kind == smpl.ScriptRule {
			out = append(out, r.Name)
		}
	}
	return out
}

// ParsePatch parses semantic patch text.
func ParsePatch(name, text string) (*Patch, error) {
	sp, err := smpl.ParsePatch(name, text)
	if err != nil {
		return nil, err
	}
	return &Patch{p: sp}, nil
}

// ParsePatchFile reads and parses a .cocci file.
func ParsePatchFile(path string) (*Patch, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sempatch: %w", err)
	}
	return ParsePatch(path, string(b))
}

// ScriptFunc is a native Go implementation of a script rule: it maps the
// rule's input bindings to its declared outputs.
type ScriptFunc func(inputs map[string]string) (map[string]string, error)

// Warning is one finding of the post-transform verifier (Options.Verify).
type Warning struct {
	// Code identifies the check: "capture", "def-use", "pragma-roundtrip",
	// "pragma-clause", or "parse".
	Code string
	// Func is the enclosing function's name, "" for file-scope findings.
	Func string
	// Message describes the finding.
	Message string
	// Unsafe marks findings that demote the edit; advisory findings ride
	// along without demoting.
	Unsafe bool
}

func (w Warning) String() string {
	return verify.Warning{Code: w.Code, Func: w.Func, Message: w.Message, Unsafe: w.Unsafe}.String()
}

func publicWarnings(warns []verify.Warning) []Warning {
	if len(warns) == 0 {
		return nil
	}
	out := make([]Warning, len(warns))
	for i, w := range warns {
		out[i] = Warning{Code: w.Code, Func: w.Func, Message: w.Message, Unsafe: w.Unsafe}
	}
	return out
}

// Applier runs one patch over source files.
type Applier struct {
	eng *core.Engine
}

// NewApplier builds an engine for the patch.
func NewApplier(p *Patch, opts Options) *Applier {
	a := &Applier{eng: core.New(p.p, opts.internal())}
	if opts.Tracer != nil {
		a.eng.SetTrace(opts.Tracer.Track("applier"))
	}
	return a
}

// RegisterScript installs a Go handler for the named script rule (instead of
// the built-in restricted Python interpreter).
func (a *Applier) RegisterScript(rule string, fn ScriptFunc) *Applier {
	a.eng.RegisterScript(rule, core.ScriptFunc(fn))
	return a
}

// Apply runs the patch over the files.
func (a *Applier) Apply(files ...File) (*Result, error) {
	res, err := a.eng.Run(toSource(files))
	if err != nil {
		return nil, err
	}
	return &Result{
		Outputs:       res.Outputs,
		Diffs:         res.Diffs,
		Matched:       res.Matched,
		MatchCount:    res.MatchCount,
		EnvsTruncated: res.EnvsTruncated,
		Findings:      res.Findings,
	}, nil
}

// Apply is the one-shot convenience: parse and run.
func Apply(patchName, patchText string, opts Options, files ...File) (*Result, error) {
	p, err := ParsePatch(patchName, patchText)
	if err != nil {
		return nil, err
	}
	return NewApplier(p, opts).Apply(files...)
}

// FileResult is one file's outcome in a batch run.
type FileResult struct {
	// Name is the input file name.
	Name string
	// Output is the (possibly transformed) source; empty when Err is set.
	Output string
	// Diff is the unified diff; empty when the file is unchanged.
	Diff string
	// MatchCount counts matches per rule in this file.
	MatchCount map[string]int
	// Skipped reports that the required-atom prefilter proved no rule
	// could fire on this file, so it was never parsed; Output equals the
	// input and Diff is empty, exactly as a full run would have produced.
	Skipped bool
	// Cached reports that the whole result — output, diff, match counts —
	// was replayed from the persistent result cache (Options.CacheDir)
	// without scanning, parsing, or matching the file this run. Cached and
	// Skipped are mutually exclusive.
	Cached bool
	// EnvsTruncated reports that this file's run hit Options.MaxEnvs and
	// dropped matches (see Result.EnvsTruncated).
	EnvsTruncated bool
	// FuncsMatched and FuncsCached count this file's function segments
	// matched fresh vs replayed from the function-granular cache; both 0
	// when the patch or file took the file-level path.
	FuncsMatched int
	FuncsCached  int
	// Warnings are the post-transform verifier's findings for this file
	// (only ever set under Options.Verify).
	Warnings []Warning
	// Demoted reports that an unsafe finding reverted the edit: MatchCount
	// still records what matched, but Output equals the input and Diff is
	// empty.
	Demoted bool
	// Findings are the check-rule reports for this file.
	Findings []Finding
	// Parsed reports that this run actually parsed the file (false for
	// prefilter skips and cache replays).
	Parsed bool
	// Err is this file's failure; other files in the batch still complete.
	Err error
}

// Changed reports whether the patch modified the file.
func (r FileResult) Changed() bool { return r.Diff != "" }

// BatchStats aggregates a completed batch run.
type BatchStats struct {
	Files   int // files processed
	Matched int // files where at least one rule matched
	Changed int // files whose output differs from the input
	Errors  int // files that failed (parse or script error)
	Matches int // total rule matches across all files
	Skipped int // files the prefilter rejected without parsing
	Cached  int // files replayed from the persistent result cache
	// FuncsMatched and FuncsCached total the function-granular counters:
	// function segments matched fresh vs replayed across all files.
	FuncsMatched int
	FuncsCached  int
	// Demoted counts files whose edit the verifier reverted; Warnings
	// totals the verifier findings across all files (Options.Verify).
	Demoted  int
	Warnings int
	// Findings totals the check-rule reports across all files.
	Findings int
	// Parsed counts files this run actually parsed (vs skipped/replayed).
	Parsed int
}

// BatchApplier applies one patch across many files concurrently with a
// worker pool of Options.Workers engines. The patch is compiled once and
// shared; each file is patched independently (environments do not flow
// between files), and results stream back in input order regardless of
// which worker finishes first, so output is deterministic for any worker
// count. It is a one-member Campaign viewed through single-patch result
// types. See docs/batch.md.
type BatchApplier struct {
	c *Campaign
}

// NewBatchApplier compiles the patch for concurrent application.
func NewBatchApplier(p *Patch, opts Options) *BatchApplier {
	return &BatchApplier{c: NewCampaign([]*Patch{p}, opts)}
}

// RegisterScript installs a Go handler for the named script rule on every
// worker. Call before ApplyAll; the handler runs concurrently and must be
// safe for that. Registering any Go handler disables the persistent result
// cache for this applier (the handler's behaviour is not captured by the
// patch hash the cache keys on); the scan cache stays active.
func (b *BatchApplier) RegisterScript(rule string, fn ScriptFunc) *BatchApplier {
	b.c.RegisterScript(rule, fn)
	return b
}

// RegisterScriptVersioned is RegisterScript for handlers that declare a
// version string covering everything their behaviour depends on (code
// revision, embedded tables, modes). The version joins the result-cache
// fingerprint, so the persistent result cache stays enabled: bumping the
// version invalidates every cached outcome the handler helped produce.
func (b *BatchApplier) RegisterScriptVersioned(rule, version string, fn ScriptFunc) *BatchApplier {
	b.c.RegisterScriptVersioned(rule, version, fn)
	return b
}

// CacheStatus reports the persistent cache's state for an applier or
// campaign: whether one is open, where, whether Open had to wipe and
// rebuild an incompatible cache, and how many corrupt entries were dropped
// (and transparently re-derived) so far. Front ends surface the last two so
// cache trouble is never silent.
type CacheStatus struct {
	// Enabled reports that Options.CacheDir named a usable cache.
	Enabled bool
	// Dir is the cache directory.
	Dir string
	// Rebuilt explains why an existing cache was wiped and rebuilt at open
	// ("" when it was not).
	Rebuilt string
	// CorruptEntries counts entries that failed validation on read and
	// were dropped and re-derived. Nonzero means the directory saw outside
	// interference; results are still exact, only the speedup was lost.
	CorruptEntries int64
}

// CacheStatus reports the state of this applier's persistent cache.
func (b *BatchApplier) CacheStatus() CacheStatus { return b.c.CacheStatus() }

func cacheStatus(c *cache.Cache) CacheStatus {
	if c == nil {
		return CacheStatus{}
	}
	return CacheStatus{
		Enabled: true, Dir: c.Dir(),
		Rebuilt: c.Rebuilt(), CorruptEntries: c.CorruptEntries(),
	}
}

// ApplyAll streams one FileResult per input file, in input order. Breaking
// out of the loop stops the batch early; memory stays bounded by the worker
// window, not the corpus size. A configuration error (e.g. an
// Options.Defines name not declared virtual in the patch) is delivered
// once, as a single FileResult with an empty Name, instead of once per
// file; ApplyAllFunc returns it as the run error.
func (b *BatchApplier) ApplyAll(files []File) iter.Seq[FileResult] {
	return soleResults(b.c.ApplyAll(files))
}

// ApplyAllPaths is ApplyAll over on-disk files: each worker reads its file
// from disk just before patching, so only the in-flight window of the
// corpus is ever resident in memory. Unreadable files report the error in
// their FileResult like any other per-file failure.
func (b *BatchApplier) ApplyAllPaths(paths []string) iter.Seq[FileResult] {
	return soleResults(b.c.ApplyAllPaths(paths))
}

// ApplyAllFunc is the callback form of ApplyAll: fn runs once per file in
// input order, and the aggregate statistics are returned. A non-nil error
// from fn stops the batch and is returned; per-file failures only count in
// BatchStats.Errors.
func (b *BatchApplier) ApplyAllFunc(files []File, fn func(FileResult) error) (BatchStats, error) {
	st, err := b.c.ApplyAllFunc(files, soleCallback(fn))
	return soleStats(st), err
}

// ApplyAllPathsFunc is the callback form of ApplyAllPaths.
func (b *BatchApplier) ApplyAllPathsFunc(paths []string, fn func(FileResult) error) (BatchStats, error) {
	st, err := b.c.ApplyAllPathsFunc(paths, soleCallback(fn))
	return soleStats(st), err
}

// soleResult views a one-member campaign's file result as a FileResult: the
// file-level fields plus the member's outcome (absent on a per-file error).
func soleResult(fr CampaignFileResult) FileResult {
	out := FileResult{Name: fr.Name, Output: fr.Output, Diff: fr.Diff, Parsed: fr.Parsed, Err: fr.Err}
	if len(fr.Patches) == 1 {
		o := fr.Patches[0]
		out.MatchCount = o.MatchCount
		out.Skipped = o.Skipped
		out.Cached = o.Cached
		out.EnvsTruncated = o.EnvsTruncated
		out.FuncsMatched = o.FuncsMatched
		out.FuncsCached = o.FuncsCached
		out.Warnings = o.Warnings
		out.Demoted = o.Demoted
		out.Findings = o.Findings
	}
	return out
}

// soleStats views a one-member campaign's statistics as BatchStats.
func soleStats(st CampaignStats) BatchStats {
	out := BatchStats{Files: st.Files, Changed: st.Changed, Errors: st.Errors, Parsed: st.Parsed}
	if len(st.PerPatch) == 1 { // empty when a configuration error aborted the run
		ps := st.PerPatch[0]
		out.Matched = ps.Matched
		out.Matches = ps.Matches
		out.Skipped = ps.Skipped
		out.Cached = ps.Cached
		out.FuncsMatched = ps.FuncsMatched
		out.FuncsCached = ps.FuncsCached
		out.Demoted = ps.Demoted
		out.Warnings = ps.Warnings
		out.Findings = ps.Findings
	}
	return out
}

func soleResults(seq iter.Seq[CampaignFileResult]) iter.Seq[FileResult] {
	return func(yield func(FileResult) bool) {
		for fr := range seq {
			if !yield(soleResult(fr)) {
				return
			}
		}
	}
}

func soleCallback(fn func(FileResult) error) func(CampaignFileResult) error {
	if fn == nil {
		return nil
	}
	return func(fr CampaignFileResult) error { return fn(soleResult(fr)) }
}

// PatchOutcome is one campaign member's effect on one file.
type PatchOutcome struct {
	// Patch is the member patch's name (its .cocci path).
	Patch string
	// MatchCount counts matches per rule of this patch in this file.
	MatchCount map[string]int
	// Changed reports this patch modified the file (relative to the text
	// the preceding members left).
	Changed bool
	// Skipped reports the prefilter proved this patch cannot fire here.
	Skipped bool
	// Cached reports this patch's outcome was replayed from the result
	// cache.
	Cached bool
	// EnvsTruncated reports this patch's run hit Options.MaxEnvs.
	EnvsTruncated bool
	// FuncsMatched and FuncsCached count this file's function segments
	// matched fresh vs replayed by this patch's function-granular pipeline.
	FuncsMatched int
	FuncsCached  int
	// Warnings are the post-transform verifier's findings for this patch on
	// this file (only ever set under Options.Verify).
	Warnings []Warning
	// Demoted reports that an unsafe finding reverted this patch's edit:
	// later members saw the text this patch received.
	Demoted bool
	// Findings are this patch's check-rule reports for this file.
	Findings []Finding
}

// CampaignFileResult is one file's outcome across every patch of a
// campaign.
type CampaignFileResult struct {
	// Name is the input file name.
	Name string
	// Output is the file after every patch, in order; empty when Err is
	// set.
	Output string
	// OutputElided reports that a resident run (Session) proved the file
	// unchanged without ever reading it: Output is "" and the file's
	// on-disk content is its own output. Never set by Campaign.
	OutputElided bool
	// Diff is the unified diff from the original input to Output.
	Diff string
	// Patches holds one outcome per member patch, in campaign order.
	Patches []PatchOutcome
	// Parsed reports that the sweep actually parsed the file's text.
	Parsed bool
	// Err is this file's failure; other files in the sweep still complete.
	Err error
}

// Changed reports whether any patch modified the file.
func (r CampaignFileResult) Changed() bool { return r.Diff != "" }

// Findings gathers every member patch's check-rule reports for the file, in
// campaign order.
func (r CampaignFileResult) Findings() []Finding {
	var out []Finding
	for _, o := range r.Patches {
		out = append(out, o.Findings...)
	}
	return out
}

// PatchStats aggregates one campaign member over a completed run.
type PatchStats struct {
	Patch   string // patch name
	Matched int    // files where at least one of its rules matched
	Changed int    // files it modified
	Matches int    // total rule matches
	Skipped int    // files its prefilter rejected
	Cached  int    // files replayed from the result cache
	// FuncsMatched and FuncsCached total the member's function-granular
	// counters across the run.
	FuncsMatched int
	FuncsCached  int
	// Demoted counts files where the verifier reverted this patch's edit;
	// Warnings totals its verifier findings (Options.Verify).
	Demoted  int
	Warnings int
	// Findings totals this patch's check-rule reports across all files.
	Findings int
}

// CampaignStats aggregates a completed campaign run.
type CampaignStats struct {
	Files    int // files processed
	Changed  int // files whose final output differs from the input
	Errors   int // files that failed
	Parsed   int // files the sweep actually parsed (vs replayed/skipped)
	PerPatch []PatchStats
}

// Campaign applies an ordered collection of patches across many files in
// one sweep — the recurring-maintenance workload where a library of
// refactorings is re-run over a slowly-changing tree. Semantics are
// sequential composition per file: patch i+1 sees each file as patch i
// left it, exactly as if the patches had been applied by separate runs in
// order, but each file is parsed at most once and the tree is shared by
// every patch until one actually changes the file. Files are independent,
// so the worker pool, deterministic ordering, and memory bounds of
// BatchApplier carry over; with Options.CacheDir set, per-patch per-file
// results replay from the persistent cache. See docs/batch.md.
type Campaign struct {
	c       *batch.Campaign
	patches []*Patch
}

// NewCampaign compiles the patches for one-sweep application. Each name in
// Options.Defines must be declared `virtual` by at least one member patch;
// members that do not declare it simply do not see it.
func NewCampaign(patches []*Patch, opts Options) *Campaign {
	sp := make([]*smpl.Patch, len(patches))
	for i, p := range patches {
		sp[i] = p.p
	}
	return &Campaign{c: batch.NewCampaign(sp, opts.batch()), patches: patches}
}

// Patches returns the member patches in application order.
func (c *Campaign) Patches() []*Patch { return c.patches }

// RegisterScript installs a Go handler for the named script rule on every
// worker engine of every member patch. Call before ApplyAll; the handler
// runs concurrently and must be safe for that. Like
// BatchApplier.RegisterScript, registering any Go handler disables the
// persistent result cache.
func (c *Campaign) RegisterScript(rule string, fn ScriptFunc) *Campaign {
	c.c.RegisterScript(rule, core.ScriptFunc(fn))
	return c
}

// RegisterScriptVersioned is RegisterScript for handlers that declare a
// version; the version joins every member's result-cache key, keeping the
// persistent result cache enabled (see BatchApplier.RegisterScriptVersioned).
func (c *Campaign) RegisterScriptVersioned(rule, version string, fn ScriptFunc) *Campaign {
	c.c.RegisterScriptVersioned(rule, version, core.ScriptFunc(fn))
	return c
}

// CacheStatus reports the state of this campaign's persistent cache.
func (c *Campaign) CacheStatus() CacheStatus { return cacheStatus(c.c.Cache()) }

// ApplyAll streams one CampaignFileResult per input file, in input order;
// breaking out of the loop stops the sweep early. A configuration error is
// delivered once as a single result with an empty Name.
func (c *Campaign) ApplyAll(files []File) iter.Seq[CampaignFileResult] {
	return func(yield func(CampaignFileResult) bool) {
		c.c.Run(toSource(files), func(fr batch.CampaignFileResult) bool {
			return yield(publicCampaignResult(fr))
		})
	}
}

// ApplyAllPaths is ApplyAll over on-disk files, read lazily inside the
// worker pool.
func (c *Campaign) ApplyAllPaths(paths []string) iter.Seq[CampaignFileResult] {
	return func(yield func(CampaignFileResult) bool) {
		c.c.RunPaths(paths, func(fr batch.CampaignFileResult) bool {
			return yield(publicCampaignResult(fr))
		})
	}
}

// ApplyAllFunc is the callback form of ApplyAll with aggregate and
// per-patch statistics; a non-nil error from fn stops the sweep.
func (c *Campaign) ApplyAllFunc(files []File, fn func(CampaignFileResult) error) (CampaignStats, error) {
	st, err := c.c.Collect(toSource(files), wrapCampaignCallback(fn))
	return publicCampaignStats(st), err
}

// ApplyAllPathsFunc is the callback form of ApplyAllPaths.
func (c *Campaign) ApplyAllPathsFunc(paths []string, fn func(CampaignFileResult) error) (CampaignStats, error) {
	st, err := c.c.CollectPaths(paths, wrapCampaignCallback(fn))
	return publicCampaignStats(st), err
}

func publicCampaignResult(fr batch.CampaignFileResult) CampaignFileResult {
	out := CampaignFileResult{
		Name:         fr.Name,
		Output:       fr.Output,
		OutputElided: fr.OutputElided,
		Diff:         fr.Diff,
		Parsed:       fr.Parsed,
		Err:          fr.Err,
	}
	for _, o := range fr.Patches {
		out.Patches = append(out.Patches, PatchOutcome{
			Patch:         o.Patch,
			MatchCount:    o.MatchCount,
			Changed:       o.Changed,
			Skipped:       o.Skipped,
			Cached:        o.Cached,
			EnvsTruncated: o.EnvsTruncated,
			FuncsMatched:  o.FuncsMatched,
			FuncsCached:   o.FuncsCached,
			Warnings:      publicWarnings(o.Warnings),
			Demoted:       o.Demoted,
			Findings:      o.Findings,
		})
	}
	return out
}

func publicCampaignStats(st batch.CampaignStats) CampaignStats {
	out := CampaignStats{Files: st.Files, Changed: st.Changed, Errors: st.Errors, Parsed: st.Parsed}
	for _, ps := range st.PerPatch {
		out.PerPatch = append(out.PerPatch, PatchStats{
			Patch:        ps.Patch,
			Matched:      ps.Matched,
			Changed:      ps.Changed,
			Matches:      ps.Matches,
			Skipped:      ps.Skipped,
			Cached:       ps.Cached,
			FuncsMatched: ps.FuncsMatched,
			FuncsCached:  ps.FuncsCached,
			Demoted:      ps.Demoted,
			Warnings:     ps.Warnings,
			Findings:     ps.Findings,
		})
	}
	return out
}

func wrapCampaignCallback(fn func(CampaignFileResult) error) func(batch.CampaignFileResult) error {
	if fn == nil {
		return nil
	}
	return func(fr batch.CampaignFileResult) error { return fn(publicCampaignResult(fr)) }
}

func toSource(files []File) []core.SourceFile {
	in := make([]core.SourceFile, len(files))
	for i, f := range files {
		in[i] = core.SourceFile{Name: f.Name, Src: f.Src}
	}
	return in
}
