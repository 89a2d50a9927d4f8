// Campaign mode: apply a whole collection of semantic patches across a
// corpus in one sweep. The HPC maintenance workload the paper targets is
// rarely one patch — it is a library of coexisting refactorings (insert
// instrumentation, migrate an API, translate directives) re-run over a
// slowly-changing tree. Running gocci once per patch parses every file once
// per patch; a campaign parses each file at most once and evaluates every
// patch against the shared tree, falling back to a re-parse only when an
// earlier patch actually changed the file.
//
// Semantics are sequential composition per file: patch i+1 sees the file as
// patch i left it, exactly as if the patches had been applied by separate
// runs in order. Files remain independent of each other. A one-member
// campaign is the single-patch run.

package batch

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/cast"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/smpl"
	"repro/internal/verify"
)

// campaignPatch is one compiled member of a campaign.
type campaignPatch struct {
	patch    *smpl.Patch
	compiled *core.Compiled
	filter   *index.Filter
	// engOpts is the engine configuration with Defines narrowed to the
	// names this patch declares virtual: a campaign-wide -D set may mix
	// names for different member patches.
	engOpts core.Options
	// key is this (patch, options, scripts) tuple's result-cache key,
	// filled lazily at run start (Campaign.keys) so script handlers
	// registered after construction are reflected in it.
	key string
	// fn drives function-granular processing for this member when it
	// qualifies (core.FunctionLocal); nil otherwise.
	fn *fnRunner
}

// Campaign applies an ordered list of compiled patches across file sets.
type Campaign struct {
	patches []*campaignPatch
	opts    Options
	scripts map[string]core.ScriptFunc
	// scriptVers holds the declared version of each handler registered
	// through RegisterScriptVersioned, keyed into every member's result-cache
	// key. Handlers registered without a version never appear here, which is
	// what disables the result cache (see resultCacheable).
	scriptVers map[string]string
	keyOnce    sync.Once
	// key is the whole campaign's result-cache key (cache.CampaignKey over
	// the ordered member keys), filled with them when the campaign has
	// several members: the record of a file that several members change
	// carries the composed diff hunks under it (processState).
	key string
	// store is the cache the run reads and writes through (nil when caching
	// is disabled); disk is the *cache.Cache opened from Options.CacheDir,
	// kept separately for status reporting (nil when the store was supplied
	// by the caller via Options.Store).
	store cache.Store
	disk  *cache.Cache
	// probeAtoms selects the prefilter form. A file's word set pays for
	// itself only when something shares it — the store, or later members —
	// so a lone member without a store probes its required atoms on the raw
	// text instead (index.Filter.MayMatch), which is far cheaper than one
	// full word scan.
	probeAtoms bool
	// cfgErr is a patch/options mismatch caught at construction; it is
	// reported once per run instead of once per file.
	cfgErr error
}

// NewCampaign compiles every patch once and returns a Campaign. Each define
// in Options.Engine.Defines must be declared `virtual` by at least one
// member patch; a patch that does not declare a name simply does not see it
// (running the members as separate per-patch invocations would require
// per-patch -D sets — the campaign derives them).
func NewCampaign(patches []*smpl.Patch, opts Options) *Campaign {
	c := &Campaign{opts: opts, scripts: map[string]core.ScriptFunc{}, scriptVers: map[string]string{}}
	if len(patches) == 0 {
		c.cfgErr = fmt.Errorf("campaign: no patches given")
		return c
	}
	if c.cfgErr = core.ValidateDefines(opts.Engine.Defines, patches...); c.cfgErr != nil {
		return c
	}
	switch {
	case opts.Store != nil:
		c.store = opts.Store
	case opts.CacheDir != "":
		pc, err := cache.Open(opts.CacheDir)
		if err != nil {
			c.cfgErr = err
			return c
		}
		c.disk, c.store = pc, pc
	}
	for _, p := range patches {
		cp := &campaignPatch{patch: p, compiled: core.Compile(p), engOpts: opts.Engine}
		cp.engOpts.Defines = core.IntersectDefines(opts.Engine.Defines, p.Virtuals)
		if !opts.NoPrefilter {
			cp.filter = cp.compiled.Prefilter.ForDefines(cp.engOpts.Defines)
		}
		if !opts.NoFuncCache {
			cp.fn = newFnRunner(cp.compiled, cp.engOpts, cp.filter)
		}
		c.patches = append(c.patches, cp)
	}
	c.probeAtoms = c.store == nil && len(c.patches) == 1
	return c
}

// Cache returns the disk cache opened from Options.CacheDir, or nil when
// caching is disabled or the store was supplied via Options.Store (such a
// caller reports its own cache status).
func (c *Campaign) Cache() *cache.Cache { return c.disk }

// RegisterScript installs a native Go handler for the named script rule on
// every worker engine of every member patch whose rules include it. Must be
// called before Run; the handler may be called from multiple goroutines and
// must be safe for that.
//
// Registering any Go handler disables the persistent result cache: a native
// function's behaviour is not captured by the patch text the cache keys on,
// so replaying results across handler versions would be unsound. (Script
// rules written in the patch itself cache fine — their code is part of the
// patch hash.) The scan cache stays active.
func (c *Campaign) RegisterScript(rule string, fn core.ScriptFunc) *Campaign {
	c.scripts[rule] = fn
	return c
}

// RegisterScriptVersioned is RegisterScript for handlers that declare a
// version string covering everything their behaviour depends on (code
// revision, embedded tables, modes). The version joins every member's
// result-cache key, so the persistent result cache stays enabled: bumping
// the version invalidates every cached outcome the handler helped produce.
func (c *Campaign) RegisterScriptVersioned(rule, version string, fn core.ScriptFunc) *Campaign {
	c.scripts[rule] = fn
	c.scriptVers[rule] = version
	return c
}

// resultCacheable reports whether outcomes may be persisted and replayed: a
// store must be open and every registered Go handler must have declared a
// version.
func (c *Campaign) resultCacheable() bool {
	return c.store != nil && len(c.scripts) == len(c.scriptVers)
}

// keys fills every member's result-cache key on first use (run start),
// folding in verify mode and registered script versions. Callers must not
// register further scripts once a run has started.
func (c *Campaign) keys() {
	c.keyOnce.Do(func() {
		if c.store == nil {
			return
		}
		members := make([]string, len(c.patches))
		for i, cp := range c.patches {
			cp.key = cache.ResultKey(cp.patch.Src,
				keyFingerprint(cp.engOpts, c.opts.Verify, cp.patch.HasChecks(), c.scriptVers))
			members[i] = cp.key
		}
		if len(members) > 1 {
			c.key = cache.CampaignKey(members)
		}
	})
}

// PatchOutcome is one member patch's effect on one file.
type PatchOutcome struct {
	// Patch is the member patch's name (its .cocci path).
	Patch string
	// MatchCount counts matches per rule of this patch in this file.
	MatchCount map[string]int
	// Changed reports that this patch modified the file (relative to the
	// text the preceding members left).
	Changed bool
	// Skipped reports the prefilter proved this patch cannot fire here.
	Skipped bool
	// Cached reports this patch's outcome was replayed from the result
	// cache without scanning, parsing, or matching.
	Cached bool
	// EnvsTruncated reports this patch's run hit the MaxEnvs cap.
	EnvsTruncated bool
	// FuncsMatched and FuncsCached count this file's function segments
	// matched fresh vs replayed by this patch's function-granular pipeline
	// (both 0 on the file-level path).
	FuncsMatched int
	FuncsCached  int
	// Warnings are the post-transform verifier's findings for this patch on
	// this file (only ever set under Options.Verify).
	Warnings []verify.Warning
	// Demoted reports that an unsafe finding reverted this patch's edit:
	// MatchCount still records what matched, but Changed is false and later
	// members saw the text this patch received.
	Demoted bool
	// Findings are this patch's check-rule reports for this file. Positions
	// refer to the text this member received (the input for check-only
	// campaigns, which never transform).
	Findings []analysis.Finding
}

// Matches is the total number of rule matches by this patch in the file.
func (o PatchOutcome) Matches() int {
	n := 0
	for _, c := range o.MatchCount {
		n += c
	}
	return n
}

// CampaignFileResult is the outcome for one input file across all patches.
type CampaignFileResult struct {
	// Index is the file's position in the input; results are delivered in
	// increasing Index order. A configuration error is delivered once as a
	// single result with Index -1.
	Index int
	// Name is the input file name.
	Name string
	// Output is the file after every patch, in order; empty when Err is
	// set.
	Output string
	// OutputElided reports that the run proved the file unchanged without
	// ever reading its text (RunStates over an unloaded FileState replayed
	// everything from the cache): Output is "" and the file's on-disk
	// content is its own output. Never set by Run or RunPaths.
	OutputElided bool
	// Diff is the unified diff from the original input to Output.
	Diff string
	// Patches holds one outcome per member patch, in campaign order. On a
	// per-file error it covers the members up to the failing one.
	Patches []PatchOutcome
	// Parsed reports that the sweep actually parsed the file's text (at
	// least once; transforms can force re-parses). False when every member
	// replayed, skipped, or was ruled out without parsing.
	Parsed bool
	// Err is the per-file failure; other files still complete. A parse
	// failure aborts the file's remaining patches (they could not parse it
	// either).
	Err error
}

// Changed reports whether any patch modified the file.
func (r CampaignFileResult) Changed() bool { return r.Diff != "" }

// Findings gathers every member patch's check-rule reports for the file, in
// campaign order.
func (r CampaignFileResult) Findings() []analysis.Finding {
	var out []analysis.Finding
	for _, o := range r.Patches {
		out = append(out, o.Findings...)
	}
	return out
}

// PatchStats aggregates one member patch over a completed run.
type PatchStats struct {
	Patch   string // patch name
	Matched int    // files where at least one of its rules matched
	Changed int    // files it modified
	Matches int    // total rule matches
	Skipped int    // files its prefilter rejected
	Cached  int    // files replayed from the result cache
	// FuncsMatched and FuncsCached count function segments matched fresh
	// vs replayed from the function-granular cache across all files.
	FuncsMatched int
	FuncsCached  int
	// Demoted counts files where the verifier reverted this patch's edit;
	// Warnings totals its verifier findings across all files.
	Demoted  int
	Warnings int
	// Findings totals this patch's check-rule reports across all files.
	Findings int
}

// CampaignStats aggregates a completed campaign run.
type CampaignStats struct {
	Files    int // files processed
	Changed  int // files where the final output differs from the input
	Errors   int // files that failed
	Parsed   int // files the sweep actually parsed (vs replayed/skipped)
	PerPatch []PatchStats
}

// Run streams per-file campaign results to yield in input order, stopping
// early if yield returns false. It blocks until delivery finishes and all
// workers have exited; memory use is bounded by the window size, not the
// corpus. The Campaign may be used for any number of runs, concurrently if
// desired.
func (c *Campaign) Run(files []core.SourceFile, yield func(CampaignFileResult) bool) {
	c.run(len(files), c.opts.Tracer, func(i int) *FileState {
		return &FileState{Name: files[i].Name, Src: files[i].Src, Loaded: true, private: true}
	}, yield)
}

// RunPaths is Run over on-disk files: each worker reads its file just
// before patching it, so only the in-flight window of the corpus is ever
// resident. A file that cannot be read reports the error in its result like
// any other per-file failure.
func (c *Campaign) RunPaths(paths []string, yield func(CampaignFileResult) bool) {
	c.run(len(paths), c.opts.Tracer, func(i int) *FileState {
		path := paths[i]
		return &FileState{Name: path, Read: func() (string, error) {
			b, err := os.ReadFile(path)
			return string(b), err
		}, private: true}
	}, yield)
}

// run drives the pool over n states. tr is the run's trace sink — usually
// Options.Tracer, but the *T run variants substitute a per-call tracer so a
// resident server can trace each request separately against one long-lived
// Campaign (which cannot be copied per request: it embeds a sync.Once).
func (c *Campaign) run(n int, tr *obs.Tracer, get func(int) *FileState, yield func(CampaignFileResult) bool) {
	if c.cfgErr != nil {
		yield(CampaignFileResult{Index: -1, Err: c.cfgErr})
		return
	}
	if n == 0 {
		return
	}
	c.keys()
	workers := c.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	popts := cparse.Options{
		CPlusPlus: c.opts.Engine.CPlusPlus, Std: c.opts.Engine.Std, CUDA: c.opts.Engine.CUDA,
	}
	var wid atomic.Int32
	runPool(n, workers, func() (func(int) CampaignFileResult, func()) {
		tk := tr.Track(fmt.Sprintf("worker-%d", wid.Add(1)))
		engines := make([]*core.Engine, len(c.patches))
		for i, cp := range c.patches {
			engines[i] = core.NewCompiled(cp.compiled, cp.engOpts)
			engines[i].SetTrace(tk)
			for rule, fn := range c.scripts {
				engines[i].RegisterScript(rule, fn)
			}
		}
		wsp := tk.Start(obs.StageWorker)
		return func(idx int) CampaignFileResult {
			return c.processState(engines, popts, tk, get(idx), idx)
		}, wsp.End
	}, yield)
}

// put persists one outcome under a member's (or the whole campaign's) key
// when result caching is on.
func (c *Campaign) put(tk *obs.Track, key, fileHash string, rec *cache.Record) {
	if !c.resultCacheable() || fileHash == "" {
		return
	}
	sp := tk.Start(obs.StageCacheWrite)
	c.store.PutResult(key, fileHash, rec)
	sp.End()
}

// verifyOutcome runs the post-transform checker over one member's edit
// (before → after, fb being before's tree), recording the findings on both
// the live outcome and its cache record. An unsafe finding demotes the edit
// — the member's Changed is cleared on both, and the returned text (what
// later members see) reverts to before. The returned tree is the checker's
// parse of the returned text, nil when it made none that later members can
// use. Only called when the member actually changed the text.
func (c *Campaign) verifyOutcome(tk *obs.Track, name, before, after string, fb *cast.File, o *PatchOutcome, rec *cache.Record) (string, *cast.File) {
	if !c.opts.Verify {
		return after, nil
	}
	sp := tk.Start(obs.StageVerify).File(name)
	warns, fa := verify.CheckTrees(name, before, after, fb, verifyOptions(c.opts.Engine))
	sp.End()
	o.Warnings = warns
	rec.Warnings = storeWarnings(warns)
	if verify.Unsafe(warns) {
		o.Demoted, o.Changed = true, false
		rec.Demoted, rec.Changed, rec.Output = true, false, ""
		return before, nil
	}
	return after, fa
}

// Collect runs the campaign and accumulates aggregate and per-patch
// statistics, forwarding each result to fn (which may be nil). A non-nil
// error from fn stops the run and is returned; per-file errors only count
// in CampaignStats.Errors.
func (c *Campaign) Collect(files []core.SourceFile, fn func(CampaignFileResult) error) (CampaignStats, error) {
	return c.collectC(func(yield func(CampaignFileResult) bool) { c.Run(files, yield) }, fn)
}

// CollectPaths is Collect over on-disk files (see RunPaths).
func (c *Campaign) CollectPaths(paths []string, fn func(CampaignFileResult) error) (CampaignStats, error) {
	return c.collectC(func(yield func(CampaignFileResult) bool) { c.RunPaths(paths, yield) }, fn)
}

func (c *Campaign) collectC(run func(func(CampaignFileResult) bool), fn func(CampaignFileResult) error) (CampaignStats, error) {
	st := CampaignStats{PerPatch: make([]PatchStats, len(c.patches))}
	for i, cp := range c.patches {
		st.PerPatch[i].Patch = cp.patch.Name
	}
	var cbErr error
	run(func(fr CampaignFileResult) bool {
		if fr.Index < 0 { // configuration error: abort, don't count files
			cbErr = fr.Err
			return false
		}
		st.Files++
		if fr.Parsed {
			st.Parsed++
		}
		switch {
		case fr.Err != nil:
			st.Errors++
		default:
			if fr.Changed() {
				st.Changed++
			}
		}
		for i, o := range fr.Patches {
			ps := &st.PerPatch[i]
			if m := o.Matches(); m > 0 {
				ps.Matched++
				ps.Matches += m
			}
			if o.Changed {
				ps.Changed++
			}
			if o.Skipped {
				ps.Skipped++
			}
			if o.Cached {
				ps.Cached++
			}
			ps.FuncsMatched += o.FuncsMatched
			ps.FuncsCached += o.FuncsCached
			if o.Demoted {
				ps.Demoted++
			}
			ps.Warnings += len(o.Warnings)
			ps.Findings += len(o.Findings)
		}
		if fn != nil {
			if err := fn(fr); err != nil {
				cbErr = err
				return false
			}
		}
		return true
	})
	return st, cbErr
}
