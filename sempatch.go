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
// and CampaignFileResult.Diff carry, for callers composing multiple runs (e.g. a
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
	// Workers is the pool size for Campaign runs; <= 0 means GOMAXPROCS.
	// Ignored by the single-threaded Applier.
	Workers int
	// NoPrefilter disables the Campaign's required-atom prefilter, so
	// every file is parsed and matched even when it provably cannot be
	// touched by the patch. Outputs are identical either way; disable the
	// filter to surface parse errors in files the patch cannot match, or
	// to measure its effect. Ignored by the single-threaded Applier.
	NoPrefilter bool
	// CacheDir, when non-empty, enables the persistent corpus index rooted
	// at that directory for Campaign runs: file scans and per-file results
	// are cached by content hash, so re-running a patch over an unchanged
	// corpus skips scanning, parsing, and matching.
	// Outputs are byte-identical with the cache cold, warm, or disabled;
	// invalidation is automatic — editing a file, the patch text, or any
	// result-affecting option changes the key. Ignored by the
	// single-threaded Applier. See docs/batch.md for the on-disk format.
	CacheDir string
	// Verify runs the post-transform safety checker on every file a
	// Campaign run changed: capture-avoidance and def-use checks for
	// rewritten identifiers, pragma round-trip checks for directive
	// translations, and an output re-parse. An unsafe finding demotes the
	// edit — the file's output reverts to its input and the findings ride
	// the result as Warnings. Verify mode keys the result
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
		NoPrefilter: o.NoPrefilter, CacheDir: o.CacheDir,
		Verify: o.Verify, Tracer: o.Tracer,
	}
}

// File is one source file to patch: its name and text.
type File = core.SourceFile

// Result reports a patch application: Outputs maps each file name to its
// (possibly transformed) text, Diffs to a unified diff ("" when
// unchanged), Matched and MatchCount record which rules matched and how
// often, and Findings carries the check-rule reports (empty for pure
// transform patches). EnvsTruncated reports that the run hit
// Options.MaxEnvs and dropped matches: outputs are valid but possibly
// incomplete, so rerun with a larger cap to get every match. Changed lists
// the changed file names in sorted order.
type Result = core.Result

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
type ScriptFunc = core.ScriptFunc

// Warning is one finding of the post-transform verifier (Options.Verify):
// Code identifies the check ("capture", "def-use", "pragma-roundtrip",
// "pragma-clause", or "parse"), Func names the enclosing function ("" for
// file-scope findings), Message describes it, and Unsafe marks findings
// that demote the edit — advisory findings ride along without demoting.
type Warning = verify.Warning

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
	a.eng.RegisterScript(rule, fn)
	return a
}

// Apply runs the patch over the files.
func (a *Applier) Apply(files ...File) (*Result, error) {
	return a.eng.Run(files)
}

// Apply is the one-shot convenience: parse and run.
func Apply(patchName, patchText string, opts Options, files ...File) (*Result, error) {
	p, err := ParsePatch(patchName, patchText)
	if err != nil {
		return nil, err
	}
	return NewApplier(p, opts).Apply(files...)
}

// CacheStatus reports a campaign's persistent cache state: whether one is open, where, whether Open had to wipe and
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

func cacheStatus(c *cache.Cache) CacheStatus {
	if c == nil {
		return CacheStatus{}
	}
	return CacheStatus{
		Enabled: true, Dir: c.Dir(),
		Rebuilt: c.Rebuilt(), CorruptEntries: c.CorruptEntries(),
	}
}

// PatchOutcome is one campaign member's effect on one file: its rule match
// counts (Matches totals them), whether it changed the file relative to the
// text the preceding members left, whether the prefilter skipped it or the
// result cache replayed it, its function-granular counters, and — under
// Options.Verify — the verifier's Warnings and whether an unsafe one
// Demoted the edit (later members then saw the text this patch received).
// Findings are its check-rule reports for the file.
type PatchOutcome = batch.PatchOutcome

// CampaignFileResult is one file's outcome across every patch of a
// campaign: the output after every member in order (empty when Err is
// set), the unified Diff from the input, one PatchOutcome per member, and
// whether the sweep parsed the file. Index is the file's position in the
// input. OutputElided reports that a resident run (Session) proved the file
// unchanged without reading it: Output is "" and the on-disk content is
// its own output; Campaign never sets it. Err is this file's failure;
// other files in the sweep still complete.
type CampaignFileResult = batch.CampaignFileResult

// PatchStats aggregates one campaign member over a completed run: files
// matched, changed, skipped by the prefilter, replayed from the cache,
// demoted by the verifier, and its totals of matches, function segments
// matched and cached, verifier warnings, and check findings.
type PatchStats = batch.PatchStats

// CampaignStats aggregates a completed campaign run: files processed,
// changed, failed, and parsed, plus one PatchStats per member.
type CampaignStats = batch.CampaignStats

// Campaign applies an ordered collection of patches across many files in
// one sweep — the recurring-maintenance workload where a library of
// refactorings is re-run over a slowly-changing tree. Semantics are
// sequential composition per file: patch i+1 sees each file as patch i
// left it, exactly as if the patches had been applied by separate runs in
// order, but each file is parsed at most once and the tree is shared by
// every patch until one actually changes the file. Files are independent:
// a pool of Options.Workers engines per member patch patches them
// concurrently (environments do not flow between files), and results
// stream back in input order whichever worker finishes first, so output is
// deterministic for any worker count. A single-patch batch run is a
// campaign of one: NewCampaign([]*Patch{p}, opts), whose outcome is
// CampaignFileResult.Patches[0] and CampaignStats.PerPatch[0]. With
// Options.CacheDir set, per-patch per-file results replay from the
// persistent cache. See docs/batch.md.
type Campaign struct {
	c       *batch.Campaign
	patches []*Patch
}

// NewCampaign compiles the patches for one-sweep application. Each name in
// Options.Defines must be declared `virtual` by at least one member patch;
// members that do not declare it simply do not see it.
func NewCampaign(patches []*Patch, opts Options) *Campaign {
	return &Campaign{c: batch.NewCampaign(smplPatches(patches), opts.batch()), patches: patches}
}

// smplPatches unwraps the public patches to their parsed trees.
func smplPatches(patches []*Patch) []*smpl.Patch {
	sp := make([]*smpl.Patch, len(patches))
	for i, p := range patches {
		sp[i] = p.p
	}
	return sp
}

// Patches returns the member patches in application order.
func (c *Campaign) Patches() []*Patch { return c.patches }

// RegisterScript installs a Go handler for the named script rule on every
// worker engine of every member patch. Call before ApplyAll; the handler
// runs concurrently and must be safe for that. Registering any Go handler
// disables the persistent result cache for this campaign (the handler's
// behaviour is not captured by the patch hash the cache keys on); the scan
// cache stays active.
func (c *Campaign) RegisterScript(rule string, fn ScriptFunc) *Campaign {
	c.c.RegisterScript(rule, fn)
	return c
}

// RegisterScriptVersioned is RegisterScript for handlers that declare a
// version string covering everything their behaviour depends on (code
// revision, embedded tables, modes). The version joins every member's
// result-cache fingerprint, so the persistent result cache stays enabled:
// bumping the version invalidates every cached outcome the handler helped
// produce.
func (c *Campaign) RegisterScriptVersioned(rule, version string, fn ScriptFunc) *Campaign {
	c.c.RegisterScriptVersioned(rule, version, fn)
	return c
}

// CacheStatus reports the state of this campaign's persistent cache.
func (c *Campaign) CacheStatus() CacheStatus { return cacheStatus(c.c.Cache()) }

// ApplyAll streams one CampaignFileResult per input file, in input order.
// Breaking out of the loop stops the sweep early; memory stays bounded by
// the worker window, not the corpus size. A configuration error (e.g. an
// Options.Defines name no member declares virtual) is delivered once, as a
// single result with Index -1 and an empty Name, instead of once per file;
// ApplyAllFunc returns it as the run error.
func (c *Campaign) ApplyAll(files []File) iter.Seq[CampaignFileResult] {
	return func(yield func(CampaignFileResult) bool) { c.c.Run(files, yield) }
}

// ApplyAllPaths is ApplyAll over on-disk files: each worker reads its file
// from disk just before patching, so only the in-flight window of the
// corpus is ever resident in memory. Unreadable files report the error in
// their result like any other per-file failure.
func (c *Campaign) ApplyAllPaths(paths []string) iter.Seq[CampaignFileResult] {
	return func(yield func(CampaignFileResult) bool) { c.c.RunPaths(paths, yield) }
}

// ApplyAllFunc is the callback form of ApplyAll: fn (which may be nil)
// runs once per file in input order, and the aggregate and per-patch
// statistics are returned. A non-nil error from fn stops the sweep and is
// returned; per-file failures only count in CampaignStats.Errors.
func (c *Campaign) ApplyAllFunc(files []File, fn func(CampaignFileResult) error) (CampaignStats, error) {
	return c.c.Collect(files, fn)
}

// ApplyAllPathsFunc is the callback form of ApplyAllPaths.
func (c *Campaign) ApplyAllPathsFunc(paths []string, fn func(CampaignFileResult) error) (CampaignStats, error) {
	return c.c.CollectPaths(paths, fn)
}
