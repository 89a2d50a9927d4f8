// Request-scoped campaign runs over caller-managed file state. A resident
// server (internal/serve) keeps content hashes, word sets, and parse trees
// warm between requests; FileState is how it hands those artifacts to one
// campaign sweep and harvests what the sweep had to derive. Everything is
// lazy: a file whose outcome replays entirely from the result cache is
// never even read, one whose words rule out every patch is read but never
// parsed, and only files a patch actually runs on cost a parse.

package batch

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cast"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/diff"
	"repro/internal/index"
	"repro/internal/obs"
)

// FileState is one corpus file presented to a campaign run, carrying
// whatever input-text artifacts the caller already holds. The run fills in
// (and reports, via ReadInput/ParsedInput) the artifacts it had to derive,
// so a resident caller can keep them warm for the next request. A FileState
// belongs to one run; the pool touches each state from exactly one worker,
// and the caller must not read it until the run returns.
type FileState struct {
	// Name is the file's name, used in results and diffs.
	Name string
	// Src is the input text, valid only when Loaded is set. Callers that
	// already hold the text set both and may omit Read.
	Src    string
	Loaded bool
	// Read fetches the input text on demand. It is called at most once, and
	// only when processing needs the bytes — a fully cache-replayed or
	// prefilter-skipped file may need none.
	Read func() (string, error)
	// Hash is the content hash (cache.HashString) of the input text, "" when
	// unknown. Supplying it lets cache lookups run without reading the file.
	Hash string
	// Parsed is the input text's parse tree, nil when absent. It must have
	// been produced by parsing the text Hash names under the same dialect
	// options as this campaign; the run only reads it.
	Parsed *cast.File

	// ReadInput reports that the run called Read; Src and Loaded now hold
	// the text.
	ReadInput bool
	// ParsedInput reports that the run parsed the input text; Parsed now
	// holds the fresh tree. Re-parses of transformed intermediate text are
	// internal to the engine and not reported here.
	ParsedInput bool

	// private marks a state the campaign built itself (Run, RunPaths): no
	// caller sees its Parsed after the run.
	private bool
}

// load ensures the input text is resident, fetching it via Read at most
// once.
func (st *FileState) load() error {
	if st.Loaded {
		return nil
	}
	if st.Read == nil {
		st.Loaded = true // no source of text: treat as empty input
		return nil
	}
	src, err := st.Read()
	if err != nil {
		return err
	}
	st.Src, st.Loaded, st.ReadInput = src, true, true
	return nil
}

// RunStates is Run over caller-prepared file states: artifacts present in a
// state are reused instead of re-derived, and each state is updated with
// the input-text artifacts processing produced. Results stream to yield in
// input order exactly as with Run; a state whose outcome is fully replayed
// from the result cache and unchanged is reported with OutputElided set
// instead of paying a read.
func (c *Campaign) RunStates(states []*FileState, yield func(CampaignFileResult) bool) {
	c.run(len(states), c.opts.Tracer, func(i int) *FileState { return states[i] }, yield)
}

// RunStatesT is RunStates tracing into tr instead of Options.Tracer. A
// resident server holds one Campaign for many requests; this is how each
// request gets its own trace without copying the Campaign (it embeds a
// sync.Once) or racing concurrent runs on a shared tracer field. A nil tr
// disables tracing for the run regardless of Options.Tracer.
func (c *Campaign) RunStatesT(states []*FileState, tr *obs.Tracer, yield func(CampaignFileResult) bool) {
	c.run(len(states), tr, func(i int) *FileState { return states[i] }, yield)
}

// CollectStates is Collect over RunStates.
func (c *Campaign) CollectStates(states []*FileState, fn func(CampaignFileResult) error) (CampaignStats, error) {
	return c.collectC(func(yield func(CampaignFileResult) bool) { c.RunStates(states, yield) }, fn)
}

// CollectStatesT is Collect over RunStatesT (per-run tracer).
func (c *Campaign) CollectStatesT(states []*FileState, tr *obs.Tracer, fn func(CampaignFileResult) error) (CampaignStats, error) {
	return c.collectC(func(yield func(CampaignFileResult) bool) { c.RunStatesT(states, tr, yield) }, fn)
}

// processState threads one file through every member patch in order. The
// expensive artifacts — the content hash, the identifier-word set, and the
// parse tree — are derived from the *current* text at most once each,
// seeded from the FileState while the current text is still the input, and
// invalidated together when a member actually changes the text.
func (c *Campaign) processState(engines []*core.Engine, popts cparse.Options, tk *obs.Track, st *FileState, idx int) CampaignFileResult {
	fsp := tk.Start(obs.StageFile).File(st.Name)
	defer fsp.End()
	fr := CampaignFileResult{Index: idx, Name: st.Name}

	// cur* track the file's current text as members transform it. Until the
	// first change they alias the input state; after it, artifacts no
	// longer flow back into st.
	cur := st.Src
	curLoaded := st.Loaded
	curIsInput := true
	curHash := st.Hash
	parsed := st.Parsed
	var words map[string]bool
	// changers counts the members that changed the text; hunks is the diff
	// body a change's record carries, if any. With a single changer, that
	// is the whole file's diff body.
	changers := 0
	hunks := ""

	fail := func(err error) CampaignFileResult {
		fr.Err = err
		return fr
	}
	loadInput := func() error {
		if st.Loaded {
			return nil
		}
		sp := tk.Start(obs.StageRead).File(st.Name)
		err := st.load()
		sp.End()
		return err
	}
	ensureCur := func() error {
		if curLoaded {
			return nil
		}
		// Only reachable while cur is the input: transformed text is always
		// resident.
		if err := loadInput(); err != nil {
			return err
		}
		cur, curLoaded = st.Src, true
		return nil
	}
	ensureHash := func() error {
		if curHash != "" {
			return nil
		}
		if err := ensureCur(); err != nil {
			return err
		}
		sp := tk.Start(obs.StageHash).File(st.Name)
		curHash = cache.HashString(cur)
		sp.End()
		if curIsInput {
			st.Hash = curHash
		}
		return nil
	}
	// ensureWords answers the prefilter, from the cache store when one is
	// open (priming it when not).
	ensureWords := func() error {
		if words != nil {
			return nil
		}
		if c.store != nil {
			if err := ensureHash(); err != nil {
				return err
			}
			if w, ok := c.store.Words(curHash); ok {
				words = w
				return nil
			}
		}
		if err := ensureCur(); err != nil {
			return err
		}
		// Decision-free scan span: the per-patch skip/pass decision spans
		// follow, but the word-set derivation is paid once per content.
		sp := tk.Start(obs.StagePrefilter).File(st.Name)
		words = index.ScanWords(cur)
		if c.store != nil {
			c.store.PutWords(curHash, words)
		}
		sp.End()
		return nil
	}

	for i, cp := range c.patches {
		o := PatchOutcome{Patch: cp.patch.Name}
		if c.resultCacheable() {
			if err := ensureHash(); err != nil {
				return fail(err)
			}
			csp := tk.Start(obs.StageCacheRead).File(st.Name)
			rec, hit := c.store.Result(cp.key, curHash)
			if hit {
				csp.Outcome(obs.OutcomeHit)
			} else {
				csp.Outcome(obs.OutcomeMiss)
			}
			csp.End()
			if hit {
				o.Cached = true
				// Normalize the JSON omitempty round trip: cold runs always
				// produce a non-nil map, so replays must too.
				o.MatchCount = rec.MatchCount
				if o.MatchCount == nil {
					o.MatchCount = map[string]int{}
				}
				o.EnvsTruncated = rec.EnvsTruncated
				o.Warnings = loadWarnings(rec.Warnings)
				o.Demoted = rec.Demoted
				o.Findings = loadFindings(rec.Findings)
				if rec.Changed {
					o.Changed = true
					changers++
					hunks = rec.Diff
					cur, curLoaded, curIsInput = rec.Output, true, false
					curHash, words, parsed = "", nil, nil
				}
				fr.Patches = append(fr.Patches, o)
				continue
			}
		}
		if cp.filter != nil {
			ensure := ensureWords
			if c.probeAtoms {
				ensure = ensureCur
			}
			if err := ensure(); err != nil {
				return fail(err)
			}
			psp := tk.Start(obs.StagePrefilter).File(st.Name)
			var pass bool
			if c.probeAtoms {
				pass = cp.filter.MayMatch(cur)
			} else {
				pass = cp.filter.MayMatchWords(words)
			}
			if pass {
				psp.Outcome(obs.OutcomePass)
			} else {
				psp.Outcome(obs.OutcomeSkip)
			}
			psp.End()
			if !pass {
				o.Skipped = true
				o.MatchCount = map[string]int{}
				c.put(tk, cp.key, curHash, &cache.Record{Skipped: true})
				fr.Patches = append(fr.Patches, o)
				continue
			}
		}
		if err := ensureCur(); err != nil {
			return fail(err)
		}
		if parsed == nil {
			sp := tk.Start(obs.StageParse).File(st.Name).Outcome(obs.OutcomeFull)
			cf, err := cparse.Parse(st.Name, cur, popts)
			sp.End()
			fr.Parsed = true
			if err != nil {
				// No later patch could parse the file either; report once.
				return fail(fmt.Errorf("parsing %s: %w", st.Name, err))
			}
			parsed = cf
			if curIsInput {
				st.Parsed, st.ParsedInput = cf, true
			}
		} else if parsed != st.Parsed {
			// A tree of transformed text that this loop did not parse is
			// the checker's, and stands in for the parse it saved.
			fr.Parsed = true
		}
		if cp.fn != nil {
			var fnStore cache.Store
			fnKey := ""
			if c.resultCacheable() {
				fnStore, fnKey = c.store, cp.key
			}
			if out, ok := cp.fn.apply(engines[i], tk, st.Name, cur, parsed, fnStore, fnKey); ok {
				o.MatchCount = out.MatchCount
				o.Changed = out.Changed
				o.FuncsMatched = out.Matched
				o.FuncsCached = out.Cached
				o.Findings = out.Findings
				rec := &cache.Record{MatchCount: out.MatchCount, Findings: storeFindings(out.Findings)}
				next := out.Output
				var nextTree *cast.File
				if out.Changed {
					rec.Changed = true
					rec.Output = out.Output
					next, nextTree = c.verifyOutcome(tk, st.Name, cur, out.Output, parsed, &o, rec)
					if o.Changed && curIsInput {
						hunks = c.recordHunks(tk, st.Name, cur, next, rec)
					}
				}
				c.put(tk, cp.key, curHash, rec)
				if o.Changed {
					changers++
					cur, curLoaded, curIsInput = next, true, false
					curHash, words, parsed = "", nil, nextTree
				}
				fr.Patches = append(fr.Patches, o)
				continue
			}
		}
		eng := engines[i]
		eng.Reset()
		// The last member may have the tree when no one else will look at
		// it again: no verifier compares against it, no later member runs
		// on it, and no caller keeps it. Its re-parses then shift the
		// tree's declarations in place instead of copying them.
		handOver := st.private && !c.opts.Verify && i == len(c.patches)-1
		res, err := eng.RunParsed([]core.ParsedFile{{Name: st.Name, Src: cur, File: parsed, Owned: handOver}})
		if err != nil {
			return fail(err)
		}
		out := res.Outputs[st.Name]
		o.MatchCount = res.MatchCount
		o.EnvsTruncated = res.EnvsTruncated
		o.Changed = out != cur
		o.Findings = res.Findings
		rec := &cache.Record{MatchCount: res.MatchCount, EnvsTruncated: res.EnvsTruncated, Findings: storeFindings(res.Findings)}
		var outTree *cast.File
		if o.Changed {
			rec.Changed = true
			rec.Output = out
			out, outTree = c.verifyOutcome(tk, st.Name, cur, out, parsed, &o, rec)
			if o.Changed && curIsInput {
				hunks = c.recordHunks(tk, st.Name, cur, out, rec)
			}
		}
		c.put(tk, cp.key, curHash, rec)
		if o.Changed {
			changers++
			cur, curLoaded, curIsInput = out, true, false
			curHash, words, parsed = "", nil, outTree
		}
		fr.Patches = append(fr.Patches, o)
	}
	if curIsInput && !curLoaded {
		// Every member replayed or skipped without needing the bytes: the
		// file is unchanged and was never read.
		fr.OutputElided = true
		return fr
	}
	if curIsInput {
		fr.Output = cur // no member changed the text: nothing to diff
		return fr
	}
	fr.Output = cur
	if changers == 1 && hunks != "" {
		// The one change's hunks are the whole file's: no read, no diff.
		fr.Diff = labelHunks(st.Name, hunks)
		return fr
	}
	// Several members changed the file: the campaign record, keyed by the
	// input hash and the whole campaign, carries the composed hunks.
	composed := changers > 1 && c.resultCacheable() && st.Hash != ""
	if composed {
		csp := tk.Start(obs.StageCacheRead).File(st.Name)
		rec, hit := c.store.Result(c.key, st.Hash)
		if hit {
			csp.Outcome(obs.OutcomeHit).End()
			fr.Diff = labelHunks(st.Name, rec.Diff)
			return fr
		}
		csp.Outcome(obs.OutcomeMiss).End()
	}
	if err := loadInput(); err != nil { // the diff needs the original input
		return fail(err)
	}
	dsp := tk.Start(obs.StageRender).File(st.Name)
	hunks = diff.Hunks(st.Src, cur)
	fr.Diff = labelHunks(st.Name, hunks)
	dsp.End()
	if composed {
		c.put(tk, c.key, st.Hash, &cache.Record{Changed: true, Diff: hunks})
	}
	return fr
}

// labelHunks is diff.Unified for stored hunks: the header with the file's
// own name, or "" when the hunks are empty (the input and output are the
// same text).
func labelHunks(name, hunks string) string {
	if hunks == "" {
		return ""
	}
	return diff.Header("a/"+name, "b/"+name) + hunks
}

// recordHunks stores in rec, and returns, the diff hunks of the first
// member change to a file (input → after), so a replay of rec needs neither
// the input nor a diff. It computes nothing when rec will not be cached: a
// run without a store diffs the file once at the end. A file several
// members change replays its diff from the campaign record instead, which
// the end of processState reads and writes.
func (c *Campaign) recordHunks(tk *obs.Track, name, before, after string, rec *cache.Record) string {
	if !c.resultCacheable() {
		return ""
	}
	sp := tk.Start(obs.StageRender).File(name)
	rec.Diff = diff.Hunks(before, after)
	sp.End()
	return rec.Diff
}
