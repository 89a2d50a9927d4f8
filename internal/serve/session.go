// Package serve is gocci's resident patch-serving daemon: it keeps the
// expensive artifacts of semantic patching — compiled patch campaigns, the
// scan-word index, content hashes, and recently-used parse trees — warm in
// memory across requests, so that re-applying a patch library over a
// slowly-changing tree costs only what actually changed. A Session binds
// one corpus root to one campaign of compiled patches plus a cache stack
// (in-memory LRU over an optional disk cache); the Server exposes sessions
// over an HTTP/JSON API (see docs/serve.md) and is equally usable as a
// library through the public sempatch.Server/sempatch.Session wrappers.
//
// Invalidation is stat-driven: every run revalidates each corpus file by
// mtime+size before trusting resident artifacts, and an optional poll
// watcher (watch.go) drops state for files that changed or vanished
// between requests. A content change that preserves both mtime and size is
// invisible to stat — POST /v1/sessions/{id}/invalidate (or
// Session.Invalidate) forces a full re-derivation.
package serve

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/cache"
	"repro/internal/cast"
	"repro/internal/obs"
	"repro/internal/smpl"
)

// collectSources walks root gathering C/C++/CUDA files in sorted path
// order (skipping .git), so sweep order is reproducible run to run.
func collectSources(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if d == nil {
				// The root itself is unreadable (deleted out from under a
				// running daemon): the sweep must fail loudly, not report a
				// healthy empty corpus.
				return err
			}
			// One unreadable subtree must not take the session down; the
			// file simply drops out of this sweep.
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if batch.IsSource(path) {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// Config configures one corpus session.
type Config struct {
	// ID names the session in URLs ("default" when empty).
	ID string
	// Root is the corpus directory the session serves.
	Root string
	// Patches is the campaign applied by sweeps and session-scoped applies,
	// in order.
	Patches []*smpl.Patch
	// Options carries the engine configuration and worker-pool sizing.
	// Options.CacheDir, when set, becomes the disk layer behind the
	// session's in-memory cache, so a restarted daemon comes back warm;
	// Options.Store is ignored (the session builds its own stack).
	Options batch.Options
	// ASTCacheSize bounds the resident parse-tree LRU (default 256 trees).
	ASTCacheSize int
	// MemCacheEntries bounds the in-memory scan/result cache (default
	// cache.DefaultMemoryEntries).
	MemCacheEntries int
	// WatchInterval is the poll watcher's period; 0 disables the watcher
	// (runs still revalidate by stat, so results are never stale — the
	// watcher only reclaims resident state earlier).
	WatchInterval time.Duration
}

// Session is one resident corpus: compiled campaign, cache stack, and the
// per-file validation table. All methods are safe for concurrent use;
// concurrent sweeps share the worker-pool bound of Config.Options.Workers
// per request.
type Session struct {
	id       string
	root     string
	opts     batch.Options
	patches  []*smpl.Patch
	campaign *batch.Campaign
	mem      *cache.Memory
	disk     *cache.Cache
	asts     *cache.LRU[*cast.File]

	mu    sync.Mutex
	files map[string]*fileEntry // corpus path -> last validated stat + hash

	// Counters behind /metrics and Stats (see SessionStats for meanings).
	runs          atomic.Int64
	applies       atomic.Int64
	processed     atomic.Int64
	changed       atomic.Int64
	errors        atomic.Int64
	patchCached   atomic.Int64
	patchSkipped  atomic.Int64
	fnMatchedC    atomic.Int64
	fnCachedC     atomic.Int64
	demoted       atomic.Int64
	warningsC     atomic.Int64
	findingsErr   atomic.Int64
	findingsWarn  atomic.Int64
	findingsInfo  atomic.Int64
	parsed        atomic.Int64
	read          atomic.Int64
	invalidations atomic.Int64
	watchScans    atomic.Int64
	lastScanNano  atomic.Int64

	watchStop chan struct{}
	watchDone chan struct{}
	stopOnce  sync.Once

	// Observability: every request runs under a fresh per-request tracer
	// (CollectStatesT), whose profile folds into per-stage latency
	// histograms and cumulative self-time totals; the most recent full
	// sweep's trace is kept for GET /v1/sessions/{id}/trace.
	obsMu     sync.Mutex
	lastTrace *obs.Tracer
	stageHist map[string]*obs.Histogram
	stageSelf map[string]float64
}

// fileEntry is the resident validation record for one corpus file: the
// stat under which hash was derived. A run whose fresh stat matches trusts
// hash (and, through it, the word and AST caches) without reading.
type fileEntry struct {
	mtime time.Time
	size  int64
	hash  string
}

// NewSession builds the resident state for cfg and, when cfg.WatchInterval
// is positive, starts the poll watcher. Configuration errors — a missing
// root, no patches, an undeclared define, an unusable cache dir — are
// returned here, not deferred to the first request.
func NewSession(cfg Config) (*Session, error) {
	id := cfg.ID
	if id == "" {
		id = "default"
	}
	info, err := os.Stat(cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("serve: session %s: %w", id, err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("serve: session %s: root %s is not a directory", id, cfg.Root)
	}
	s := &Session{
		id:        id,
		root:      cfg.Root,
		patches:   cfg.Patches,
		files:     map[string]*fileEntry{},
		asts:      cache.NewLRU[*cast.File](cfg.ASTCacheSize, 256),
		stageHist: map[string]*obs.Histogram{},
		stageSelf: map[string]float64{},
	}
	opts := cfg.Options
	if opts.CacheDir != "" {
		disk, err := cache.Open(opts.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("serve: session %s: %w", id, err)
		}
		s.disk = disk
	}
	s.mem = cache.NewMemory(s.disk, cfg.MemCacheEntries)
	opts.CacheDir = ""
	opts.Store = s.mem
	s.opts = opts
	s.campaign = batch.NewCampaign(cfg.Patches, opts)
	// A zero-state run surfaces the campaign's construction error (no
	// patches, undeclared defines) now instead of on the first request.
	if _, err := s.campaign.CollectStates(nil, nil); err != nil {
		return nil, fmt.Errorf("serve: session %s: %w", id, err)
	}
	if cfg.WatchInterval > 0 {
		s.watchStop = make(chan struct{})
		s.watchDone = make(chan struct{})
		go s.watch(cfg.WatchInterval)
	}
	return s, nil
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Root returns the corpus directory.
func (s *Session) Root() string { return s.root }

// PatchNames lists the campaign members in order.
func (s *Session) PatchNames() []string {
	out := make([]string, len(s.patches))
	for i, p := range s.patches {
		out[i] = p.Name
	}
	return out
}

// Close stops the watcher (if running); it is idempotent and safe to call
// concurrently. The session remains usable for requests; only the
// background invalidation stops.
func (s *Session) Close() {
	if s.watchStop != nil {
		s.stopOnce.Do(func() { close(s.watchStop) })
		<-s.watchDone
	}
}

// Invalidate drops every resident artifact — validation table, parse-tree
// LRU, and the in-memory cache layer. The disk cache (content-addressed,
// never stale) is untouched, so the next sweep re-derives hashes but still
// replays unchanged results from disk.
func (s *Session) Invalidate() {
	s.mu.Lock()
	s.files = map[string]*fileEntry{}
	s.mu.Unlock()
	s.asts.Clear()
	s.mem.Invalidate()
	s.invalidations.Add(1)
}

// state builds the FileState for one corpus file: resident artifacts are
// seeded only when the file's fresh stat matches the validation table.
func (s *Session) state(path string, info fs.FileInfo) *batch.FileState {
	st := &batch.FileState{Name: path, Read: func() (string, error) {
		b, err := os.ReadFile(path)
		return string(b), err
	}}
	if info == nil {
		return st
	}
	s.mu.Lock()
	e := s.files[path]
	s.mu.Unlock()
	if e != nil && e.mtime.Equal(info.ModTime()) && e.size == info.Size() {
		st.Hash = e.hash
		if cf, ok := s.asts.Get(e.hash); ok {
			st.Parsed = cf
		}
	}
	return st
}

// harvest folds one processed state back into the resident tables.
func (s *Session) harvest(path string, info fs.FileInfo, st *batch.FileState) {
	if st.ReadInput {
		s.read.Add(1)
	}
	if st.ParsedInput {
		s.parsed.Add(1)
		s.asts.Add(st.Hash, st.Parsed)
	}
	if info == nil || st.Hash == "" {
		return
	}
	s.mu.Lock()
	s.files[path] = &fileEntry{mtime: info.ModTime(), size: info.Size(), hash: st.Hash}
	s.mu.Unlock()
}

// RunStats aggregates one sweep: the campaign's own statistics plus the
// resident-state accounting a daemon lives by.
type RunStats struct {
	batch.CampaignStats
	// Cached and Skipped total the per-patch counters across the campaign.
	Cached  int
	Skipped int
	// FuncsMatched and FuncsCached total the function-granular counters
	// across the campaign: function segments matched fresh vs replayed from
	// the segment cache. A warm sweep after editing one function of one file
	// shows FuncsMatched == 1 (per function-local patch).
	FuncsMatched int
	FuncsCached  int
	// Parsed counts files whose input text was parsed this sweep — after a
	// warm sweep that edited k files, exactly k. Read counts files whose
	// bytes had to be read at all.
	Parsed int
	Read   int
	// Demoted and Warnings total the post-transform verifier's demotions
	// and findings across the campaign (Options.Verify runs only).
	Demoted  int
	Warnings int
	// StageSeconds is this sweep's per-stage self-time in seconds (worker
	// and file umbrella time is pool glue and scheduling).
	StageSeconds map[string]float64
}

// Run sweeps the whole corpus through the campaign, streaming per-file
// results to fn (which may be nil) in sorted path order. Resident
// artifacts are revalidated by stat, reused where valid, and re-derived
// (then kept) where not. A non-nil error from fn stops the sweep.
func (s *Session) Run(fn func(batch.CampaignFileResult) error) (RunStats, error) {
	s.runs.Add(1)
	paths, err := collectSources(s.root)
	if err != nil {
		return RunStats{}, fmt.Errorf("serve: scanning %s: %w", s.root, err)
	}
	infos := make([]fs.FileInfo, len(paths))
	states := make([]*batch.FileState, len(paths))
	for i, path := range paths {
		info, err := os.Stat(path)
		if err == nil {
			infos[i] = info
		}
		// A stat failure (racing delete) leaves info nil: the state carries
		// no resident seed and the read reports the per-file error.
		states[i] = s.state(path, infos[i])
	}
	tr := obs.New()
	st, err := s.campaign.CollectStatesT(states, tr, func(fr batch.CampaignFileResult) error {
		s.countFindings(fr.Findings())
		if fn == nil {
			return nil
		}
		return fn(fr)
	})
	for i := range states {
		s.harvest(paths[i], infos[i], states[i])
	}
	out := s.account(st, states)
	out.StageSeconds = s.observe(tr, true)
	return out, err
}

// countFindings folds one file's check-rule findings into the per-severity
// counters behind /metrics.
func (s *Session) countFindings(fs []analysis.Finding) {
	for _, f := range fs {
		switch f.Severity {
		case analysis.SeverityError:
			s.findingsErr.Add(1)
		case analysis.SeverityWarning:
			s.findingsWarn.Add(1)
		default:
			s.findingsInfo.Add(1)
		}
	}
}

// observe folds one request's trace into the session's stage histograms and
// cumulative totals, returning the request's per-stage self-seconds. keep
// retains the trace as the session's most recent (full sweeps only, so a
// stream of tiny applies never evicts the interesting trace).
func (s *Session) observe(tr *obs.Tracer, keep bool) map[string]float64 {
	stages := tr.Profile().StageSeconds()
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	for stage, sec := range stages {
		h := s.stageHist[stage]
		if h == nil {
			h = obs.NewHistogram()
			s.stageHist[stage] = h
		}
		h.Observe(sec)
		s.stageSelf[stage] += sec
	}
	if keep {
		s.lastTrace = tr
	}
	return stages
}

// WriteTrace writes the most recent full sweep's Chrome trace-event JSON to
// w, reporting false when no sweep has run yet.
func (s *Session) WriteTrace(w io.Writer) (bool, error) {
	s.obsMu.Lock()
	tr := s.lastTrace
	s.obsMu.Unlock()
	if tr == nil {
		return false, nil
	}
	return true, tr.WriteJSON(w)
}

// stageMetric pairs one stage with its latency-histogram snapshot.
type stageMetric struct {
	stage string
	snap  obs.HistSnapshot
}

// stageMetrics snapshots the per-stage histograms in sorted stage order,
// the shape /metrics renders.
func (s *Session) stageMetrics() []stageMetric {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	out := make([]stageMetric, 0, len(s.stageHist))
	for stage, h := range s.stageHist {
		out = append(out, stageMetric{stage: stage, snap: h.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].stage < out[j].stage })
	return out
}

// account folds a completed sweep or single-file apply into the session
// counters and returns its totals (Parsed and Read count the given states).
func (s *Session) account(st batch.CampaignStats, states []*batch.FileState) RunStats {
	out := RunStats{CampaignStats: st}
	for _, ps := range st.PerPatch {
		out.Cached += ps.Cached
		out.Skipped += ps.Skipped
		out.FuncsMatched += ps.FuncsMatched
		out.FuncsCached += ps.FuncsCached
		out.Demoted += ps.Demoted
		out.Warnings += ps.Warnings
	}
	for _, fst := range states {
		if fst.ParsedInput {
			out.Parsed++
		}
		if fst.ReadInput {
			out.Read++
		}
	}
	s.processed.Add(int64(st.Files))
	s.changed.Add(int64(st.Changed))
	s.errors.Add(int64(st.Errors))
	s.patchCached.Add(int64(out.Cached))
	s.patchSkipped.Add(int64(out.Skipped))
	s.fnMatchedC.Add(int64(out.FuncsMatched))
	s.fnCachedC.Add(int64(out.FuncsCached))
	s.demoted.Add(int64(out.Demoted))
	s.warningsC.Add(int64(out.Warnings))
	return out
}

// ApplyPath applies the session's campaign to one corpus file named
// relative to the root, using (and refreshing) resident artifacts. The
// path must stay inside the root.
func (s *Session) ApplyPath(rel string) (batch.CampaignFileResult, error) {
	return s.applyPathWith(s.campaign, rel)
}

// applyPathWith is ApplyPath under a caller-supplied campaign (an inline
// patch from /v1/apply): resident artifacts still seed and harvest, since
// they are keyed by content, not by patch.
func (s *Session) applyPathWith(camp *batch.Campaign, rel string) (batch.CampaignFileResult, error) {
	s.applies.Add(1)
	if !filepath.IsLocal(rel) {
		return batch.CampaignFileResult{}, fmt.Errorf("serve: path %q escapes the session root", rel)
	}
	path := filepath.Join(s.root, rel)
	info, err := os.Stat(path)
	if err != nil {
		return batch.CampaignFileResult{}, fmt.Errorf("serve: %w", err)
	}
	st := s.state(path, info)
	fr, err := s.runOneWith(camp, st)
	s.harvest(path, info, st)
	return fr, err
}

// ApplySnippet applies the session's campaign to an in-memory source
// snippet. The snippet shares the session's cache stack (a repeated
// snippet replays from the result cache) but never enters the corpus
// tables.
func (s *Session) ApplySnippet(name, src string) (batch.CampaignFileResult, error) {
	s.applies.Add(1)
	if name == "" {
		name = "snippet.c"
	}
	st := &batch.FileState{Name: name, Src: src, Loaded: true}
	fr, err := s.runOne(st)
	if st.ParsedInput {
		s.parsed.Add(1)
	}
	return fr, err
}

// runOne sweeps a single state through the session's campaign.
func (s *Session) runOne(st *batch.FileState) (batch.CampaignFileResult, error) {
	return s.runOneWith(s.campaign, st)
}

// runOneWith sweeps a single state through camp, accounting the outcome.
func (s *Session) runOneWith(camp *batch.Campaign, st *batch.FileState) (batch.CampaignFileResult, error) {
	var out batch.CampaignFileResult
	tr := obs.New()
	stats, err := camp.CollectStatesT([]*batch.FileState{st}, tr, func(fr batch.CampaignFileResult) error {
		out = fr
		return nil
	})
	s.observe(tr, false)
	if err != nil {
		return batch.CampaignFileResult{}, err
	}
	s.countFindings(out.Findings())
	s.account(stats, nil)
	return out, nil
}

// SessionStats is a point-in-time snapshot for /v1/sessions/{id}/stats.
type SessionStats struct {
	ID      string   `json:"id"`
	Root    string   `json:"root"`
	Patches []string `json:"patches"`
	Workers int      `json:"workers"`

	// TrackedFiles is the validation table's size — corpus files whose
	// stat+hash are resident.
	TrackedFiles int `json:"tracked_files"`

	// Cumulative request counters.
	Runs    int64 `json:"runs"`
	Applies int64 `json:"applies"`

	// Cumulative per-file accounting across all requests.
	FilesProcessed int64 `json:"files_processed"`
	FilesChanged   int64 `json:"files_changed"`
	FileErrors     int64 `json:"file_errors"`
	PatchCached    int64 `json:"patch_results_cached"`
	PatchSkipped   int64 `json:"patch_results_skipped"`
	FuncsMatched   int64 `json:"functions_matched"`
	FuncsCached    int64 `json:"functions_cached"`
	Demoted        int64 `json:"edits_demoted"`
	Warnings       int64 `json:"verify_warnings"`
	FilesParsed    int64 `json:"files_parsed"`
	FilesRead      int64 `json:"files_read"`

	// Check-rule findings reported across all requests, by severity.
	FindingsError   int64 `json:"findings_error"`
	FindingsWarning int64 `json:"findings_warning"`
	FindingsInfo    int64 `json:"findings_info"`

	// StageSeconds is cumulative per-stage self-time across all requests,
	// in seconds (pipeline stages plus the worker/file umbrella glue).
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`

	// Resident cache state.
	ASTEntries int    `json:"ast_entries"`
	ASTHits    int64  `json:"ast_hits"`
	ASTMisses  int64  `json:"ast_misses"`
	ASTEvicted int64  `json:"ast_evictions"` // trees dropped to stay within ASTCacheSize
	MemEntries int    `json:"mem_entries"`
	MemHits    int64  `json:"mem_hits"`
	MemMisses  int64  `json:"mem_misses"`
	DiskCache  string `json:"disk_cache,omitempty"`

	// Watcher state.
	Invalidations int64  `json:"invalidations"`
	WatchScans    int64  `json:"watch_scans"`
	LastWatchScan string `json:"last_watch_scan,omitempty"`
}

// Stats snapshots the session.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	tracked := len(s.files)
	s.mu.Unlock()
	astHits, astMisses := s.asts.HitsMisses()
	memHits, memMisses := s.mem.HitsMisses()
	st := SessionStats{
		ID:              s.id,
		Root:            s.root,
		Patches:         s.PatchNames(),
		Workers:         s.opts.Workers,
		TrackedFiles:    tracked,
		Runs:            s.runs.Load(),
		Applies:         s.applies.Load(),
		FilesProcessed:  s.processed.Load(),
		FilesChanged:    s.changed.Load(),
		FileErrors:      s.errors.Load(),
		PatchCached:     s.patchCached.Load(),
		PatchSkipped:    s.patchSkipped.Load(),
		FuncsMatched:    s.fnMatchedC.Load(),
		FuncsCached:     s.fnCachedC.Load(),
		Demoted:         s.demoted.Load(),
		Warnings:        s.warningsC.Load(),
		FilesParsed:     s.parsed.Load(),
		FilesRead:       s.read.Load(),
		FindingsError:   s.findingsErr.Load(),
		FindingsWarning: s.findingsWarn.Load(),
		FindingsInfo:    s.findingsInfo.Load(),
		ASTEntries:      s.asts.Len(),
		ASTHits:         astHits,
		ASTMisses:       astMisses,
		ASTEvicted:      s.asts.Evictions(),
		MemEntries:      s.mem.Len(),
		MemHits:         memHits,
		MemMisses:       memMisses,
		Invalidations:   s.invalidations.Load(),
		WatchScans:      s.watchScans.Load(),
	}
	s.obsMu.Lock()
	if len(s.stageSelf) > 0 {
		st.StageSeconds = make(map[string]float64, len(s.stageSelf))
		for k, v := range s.stageSelf {
			st.StageSeconds[k] = v
		}
	}
	s.obsMu.Unlock()
	if s.disk != nil {
		st.DiskCache = s.disk.Dir()
	}
	if n := s.lastScanNano.Load(); n != 0 {
		st.LastWatchScan = time.Unix(0, n).UTC().Format(time.RFC3339)
	}
	return st
}
