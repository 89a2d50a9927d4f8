// The HTTP face of the daemon. JSON in, JSON (or NDJSON for streamed
// sweeps, or Prometheus text for /metrics) out; every handler is safe for
// concurrent use and the heavy lifting stays in Session. See docs/serve.md
// for the API reference.

package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/smpl"
)

// maxRequestBody bounds /v1/apply request bodies (patch + source) so a
// misbehaving client cannot balloon the daemon. 16 MiB comfortably holds
// any real source file.
const maxRequestBody = 16 << 20

// Server routes the HTTP API over a set of sessions. One Server typically
// lives for the process; sessions may be added at startup (CLI) or over
// the program's lifetime (library use).
type Server struct {
	mu       sync.RWMutex
	sessions map[string]*Session

	// defaults configures session-less /v1/apply requests (inline patch +
	// inline source); scratch is their cache stack and compiled their
	// compiled-campaign LRU, shared with session-scoped inline patches
	// (keyed per session, since options differ).
	defaults batch.Options
	scratch  *cache.Memory
	compiled *cache.LRU[*batch.Campaign]

	requests httpCounters

	// latency holds per-endpoint request-latency histograms for the
	// endpoints that do engine work. The map is fixed at construction;
	// Histogram is internally synchronized.
	latency map[string]*obs.Histogram
}

// httpCounters counts requests per endpoint plus error responses.
type httpCounters struct {
	healthz, metrics, sessions, stats, run, check, invalidate, apply, trace atomic.Int64
	errors                                                                  atomic.Int64
}

// NewServer returns a Server with no sessions. defaults configures
// session-less applies (dialect, limits, workers); its CacheDir/Store are
// ignored — scratch applies cache in memory only.
func NewServer(defaults batch.Options) *Server {
	defaults.CacheDir = ""
	defaults.Store = nil
	srv := &Server{
		sessions: map[string]*Session{},
		defaults: defaults,
		scratch:  cache.NewMemory(nil, 4096),
		compiled: cache.NewLRU[*batch.Campaign](64, 64),
		latency: map[string]*obs.Histogram{
			"run":        obs.NewHistogram(),
			"check":      obs.NewHistogram(),
			"apply":      obs.NewHistogram(),
			"invalidate": obs.NewHistogram(),
		},
	}
	return srv
}

// AddSession builds the session for cfg and registers it.
func (srv *Server) AddSession(cfg Config) (*Session, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if _, dup := srv.sessions[s.ID()]; dup {
		s.Close()
		return nil, fmt.Errorf("serve: duplicate session id %q", s.ID())
	}
	srv.sessions[s.ID()] = s
	return s, nil
}

// Session returns a registered session.
func (srv *Server) Session(id string) (*Session, bool) {
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	s, ok := srv.sessions[id]
	return s, ok
}

// Close stops every session's watcher.
func (srv *Server) Close() {
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	for _, s := range srv.sessions {
		s.Close()
	}
}

// sessionList returns the sessions sorted by id.
func (srv *Server) sessionList() []*Session {
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	out := make([]*Session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Handler returns the daemon's HTTP handler.
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", srv.handleHealthz)
	mux.HandleFunc("GET /metrics", srv.handleMetrics)
	mux.HandleFunc("GET /v1/sessions", srv.handleSessions)
	mux.HandleFunc("GET /v1/sessions/{id}/stats", srv.handleStats)
	mux.HandleFunc("GET /v1/sessions/{id}/trace", srv.handleTrace)
	mux.HandleFunc("POST /v1/sessions/{id}/run", srv.handleRun)
	mux.HandleFunc("POST /v1/sessions/{id}/check", srv.handleCheck)
	mux.HandleFunc("POST /v1/sessions/{id}/invalidate", srv.handleInvalidate)
	mux.HandleFunc("POST /v1/apply", srv.handleApply)
	return mux
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func (srv *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	srv.requests.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (srv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	srv.requests.healthz.Add(1)
	writeJSON(w, map[string]any{"status": "ok", "sessions": len(srv.sessionList())})
}

func (srv *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	srv.requests.sessions.Add(1)
	out := []SessionStats{}
	for _, s := range srv.sessionList() {
		out = append(out, s.Stats())
	}
	writeJSON(w, out)
}

func (srv *Server) session(w http.ResponseWriter, r *http.Request) *Session {
	id := r.PathValue("id")
	s, ok := srv.Session(id)
	if !ok {
		srv.fail(w, http.StatusNotFound, "unknown session %q", id)
		return nil
	}
	return s
}

func (srv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	srv.requests.stats.Add(1)
	if s := srv.session(w, r); s != nil {
		writeJSON(w, s.Stats())
	}
}

// observeLatency records one request's wall time in the endpoint's
// histogram.
func (srv *Server) observeLatency(endpoint string, start time.Time) {
	srv.latency[endpoint].Observe(time.Since(start).Seconds())
}

func (srv *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	srv.requests.invalidate.Add(1)
	defer srv.observeLatency("invalidate", time.Now())
	s := srv.session(w, r)
	if s == nil {
		return
	}
	s.Invalidate()
	writeJSON(w, map[string]string{"status": "invalidated"})
}

// handleTrace serves the most recent full sweep's Chrome trace-event JSON;
// 404 until the session has run a sweep.
func (srv *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	srv.requests.trace.Add(1)
	s := srv.session(w, r)
	if s == nil {
		return
	}
	var buf strings.Builder
	ok, err := s.WriteTrace(&buf)
	if err != nil {
		srv.fail(w, http.StatusInternalServerError, "rendering trace: %v", err)
		return
	}
	if !ok {
		srv.fail(w, http.StatusNotFound, "session %q has no sweep trace yet; POST /v1/sessions/%s/run first", s.ID(), s.ID())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, buf.String())
}

// RunLine is one NDJSON line of a streamed sweep: per-file lines first, in
// sorted path order, then exactly one summary line.
type RunLine struct {
	// Per-file fields.
	Name    string      `json:"name,omitempty"`
	Changed bool        `json:"changed,omitempty"`
	Diff    string      `json:"diff,omitempty"`
	Output  *string     `json:"output,omitempty"`
	Error   string      `json:"error,omitempty"`
	Patches []PatchLine `json:"patches,omitempty"`

	// Summary is set only on the final line.
	Summary *RunSummary `json:"summary,omitempty"`
}

// PatchLine is one campaign member's outcome on one file.
type PatchLine struct {
	Patch   string `json:"patch"`
	Matches int    `json:"matches"`
	Changed bool   `json:"changed,omitempty"`
	Skipped bool   `json:"skipped,omitempty"`
	Cached  bool   `json:"cached,omitempty"`
	// FuncsMatched and FuncsCached count this file's function segments
	// matched fresh vs replayed when the member ran function-granularly.
	FuncsMatched int `json:"functions_matched,omitempty"`
	FuncsCached  int `json:"functions_cached,omitempty"`
	// Warnings are the post-transform verifier's findings (rendered); set
	// only when the session runs with Options.Verify. Demoted reports that
	// an unsafe finding reverted this member's edit.
	Warnings []string `json:"warnings,omitempty"`
	Demoted  bool     `json:"demoted,omitempty"`
}

// RunSummary is the trailing NDJSON line of a sweep.
type RunSummary struct {
	Files        int            `json:"files"`
	Changed      int            `json:"changed"`
	Errors       int            `json:"errors"`
	Cached       int            `json:"cached"`
	Skipped      int            `json:"skipped"`
	FuncsMatched int            `json:"functions_matched"`
	FuncsCached  int            `json:"functions_cached"`
	Parsed       int            `json:"parsed"`
	Read         int            `json:"read"`
	Demoted      int            `json:"demoted,omitempty"`
	Warnings     int            `json:"warnings,omitempty"`
	ElapsedMS    int64          `json:"elapsed_ms"`
	PerPatch     []PatchSummary `json:"per_patch,omitempty"`
	// StageSeconds is the sweep's per-stage self-time in seconds, from the
	// run's trace (worker/file entries are pool glue and scheduling).
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`
}

// PatchSummary is one campaign member's aggregate over a sweep — the wire
// mirror of batch.PatchStats, so the HTTP contract is decoupled from
// internal struct layout.
type PatchSummary struct {
	Patch   string `json:"patch"`
	Matched int    `json:"matched"`
	Changed int    `json:"changed"`
	Matches int    `json:"matches"`
	Skipped int    `json:"skipped"`
	Cached  int    `json:"cached"`
	// FuncsMatched and FuncsCached aggregate the member's function-granular
	// counters across the sweep.
	FuncsMatched int `json:"functions_matched"`
	FuncsCached  int `json:"functions_cached"`
	// Demoted counts files where the verifier reverted this member's edit;
	// Warnings totals its verifier findings (Options.Verify runs only).
	Demoted  int `json:"demoted,omitempty"`
	Warnings int `json:"warnings,omitempty"`
}

func patchSummaries(per []batch.PatchStats) []PatchSummary {
	out := make([]PatchSummary, len(per))
	for i, ps := range per {
		out[i] = PatchSummary{
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
		}
	}
	return out
}

// fileLine renders one campaign result; includeOutput additionally carries
// the full post-patch text (on-disk content when elided).
func fileLine(fr batch.CampaignFileResult, includeOutput bool) RunLine {
	line := RunLine{Name: fr.Name, Changed: fr.Changed(), Diff: fr.Diff}
	if fr.Err != nil {
		line.Error = fr.Err.Error()
	}
	if includeOutput && fr.Err == nil && !fr.OutputElided {
		out := fr.Output
		line.Output = &out
	}
	for _, o := range fr.Patches {
		pl := PatchLine{
			Patch:        o.Patch,
			Matches:      o.Matches(),
			Changed:      o.Changed,
			Skipped:      o.Skipped,
			Cached:       o.Cached,
			FuncsMatched: o.FuncsMatched,
			FuncsCached:  o.FuncsCached,
			Demoted:      o.Demoted,
		}
		for _, w := range o.Warnings {
			pl.Warnings = append(pl.Warnings, w.String())
		}
		line.Patches = append(line.Patches, pl)
	}
	return line
}

// handleRun streams a full-corpus sweep as NDJSON. ?output=1 includes each
// file's post-patch text (files proven unchanged without a read omit it —
// their on-disk content is the output).
func (srv *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	srv.requests.run.Add(1)
	defer srv.observeLatency("run", time.Now())
	s := srv.session(w, r)
	if s == nil {
		return
	}
	includeOutput := r.URL.Query().Get("output") == "1"
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := newStream(w)
	defer out.flush()
	enc := json.NewEncoder(out)
	start := time.Now()
	stats, err := s.Run(func(fr batch.CampaignFileResult) error {
		if err := enc.Encode(fileLine(fr, includeOutput)); err != nil {
			return err
		}
		return out.fileDone()
	})
	if err != nil {
		// The stream may have begun; the error becomes the final line.
		srv.requests.errors.Add(1)
		enc.Encode(RunLine{Error: err.Error()})
		return
	}
	enc.Encode(RunLine{Summary: &RunSummary{
		Files:        stats.Files,
		Changed:      stats.Changed,
		Errors:       stats.Errors,
		Cached:       stats.Cached,
		Skipped:      stats.Skipped,
		FuncsMatched: stats.FuncsMatched,
		FuncsCached:  stats.FuncsCached,
		Parsed:       stats.Parsed,
		Read:         stats.Read,
		Demoted:      stats.Demoted,
		Warnings:     stats.Warnings,
		ElapsedMS:    time.Since(start).Milliseconds(),
		PerPatch:     patchSummaries(stats.PerPatch),
		StageSeconds: stats.StageSeconds,
	}})
}

// CheckLine is one non-finding NDJSON line of a streamed check sweep: a
// per-file error, or the trailing summary. Every other line is one
// analysis.Finding encoded exactly as the CLI's `--check --format json`
// prints it, so the two streams are byte-identical up to the summary line.
type CheckLine struct {
	Error   string        `json:"error,omitempty"`
	Summary *CheckSummary `json:"summary,omitempty"`
}

// CheckSummary is the trailing NDJSON line of a check sweep.
type CheckSummary struct {
	Files    int `json:"files"`
	Parsed   int `json:"parsed"`
	Findings int `json:"findings"`
	// Errors counts per-file processing failures (reported as Error lines).
	Errors int `json:"errors"`
	// BySeverity breaks the findings down ("error", "warning", "info").
	BySeverity map[string]int `json:"by_severity,omitempty"`
	ElapsedMS  int64          `json:"elapsed_ms"`
}

// handleCheck streams the session campaign's check-rule findings as NDJSON:
// per-file findings first (files in sorted path order, findings sorted
// within each file, which is the CLI's global sort order), then exactly one
// summary line. The sweep is the same resident-artifact sweep as /run —
// rewrites are computed but never written anywhere — so a warm check over
// an unchanged corpus replays every finding with Parsed == 0 and reads no
// file: the diffs it does not stream replay from the stored records (the
// campaign record for a file several members change), never from a diff.
func (srv *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	srv.requests.check.Add(1)
	defer srv.observeLatency("check", time.Now())
	s := srv.session(w, r)
	if s == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := newStream(w)
	defer out.flush()
	enc := json.NewEncoder(out)
	start := time.Now()
	total := 0
	bySev := map[string]int{}
	stats, err := s.Run(func(fr batch.CampaignFileResult) error {
		if fr.Err != nil {
			if err := enc.Encode(CheckLine{Error: fr.Err.Error()}); err != nil {
				return err
			}
			return out.fileDone()
		}
		fs := fr.Findings()
		analysis.Sort(fs)
		if err := analysis.WriteNDJSON(out, fs); err != nil {
			return err
		}
		total += len(fs)
		for sev, n := range analysis.CountBySeverity(fs) {
			bySev[sev] += n
		}
		return out.fileDone()
	})
	if err != nil {
		srv.requests.errors.Add(1)
		enc.Encode(CheckLine{Error: err.Error()})
		return
	}
	enc.Encode(CheckLine{Summary: &CheckSummary{
		Files:      stats.Files,
		Parsed:     stats.Parsed,
		Findings:   total,
		Errors:     stats.Errors,
		BySeverity: bySev,
		ElapsedMS:  time.Since(start).Milliseconds(),
	}})
}

// ApplyRequest is the body of POST /v1/apply. Exactly one of Source/File
// selects the input; Session and Patch select what to apply:
//
//   - Session set, Patch empty: the session's campaign.
//   - Patch set: that inline patch alone — compiled once and kept in an
//     LRU — under the session's options and cache stack when Session is
//     set, the server defaults otherwise.
//   - File requires Session (it names a corpus file relative to the root).
type ApplyRequest struct {
	Session string  `json:"session,omitempty"`
	Patch   string  `json:"patch,omitempty"`
	Name    string  `json:"name,omitempty"`
	Source  *string `json:"source,omitempty"`
	File    string  `json:"file,omitempty"`
}

// ApplyResponse is the body of a successful /v1/apply.
type ApplyResponse struct {
	Name    string      `json:"name"`
	Changed bool        `json:"changed"`
	Diff    string      `json:"diff,omitempty"`
	Output  *string     `json:"output,omitempty"`
	Patches []PatchLine `json:"patches,omitempty"`
}

func (srv *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	srv.requests.apply.Add(1)
	defer srv.observeLatency("apply", time.Now())
	var req ApplyRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		srv.fail(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxRequestBody {
		srv.fail(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxRequestBody)
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		srv.fail(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if (req.Source == nil) == (req.File == "") {
		srv.fail(w, http.StatusBadRequest, "exactly one of source and file must be given")
		return
	}
	if req.File != "" && req.Session == "" {
		srv.fail(w, http.StatusBadRequest, "file requires a session")
		return
	}

	var session *Session
	if req.Session != "" {
		s, ok := srv.Session(req.Session)
		if !ok {
			srv.fail(w, http.StatusNotFound, "unknown session %q", req.Session)
			return
		}
		session = s
	}

	var fr batch.CampaignFileResult
	if req.Patch != "" {
		fr, err = srv.applyInline(session, req)
	} else if session == nil {
		srv.fail(w, http.StatusBadRequest, "either a session or an inline patch is required")
		return
	} else if req.File != "" {
		fr, err = session.ApplyPath(req.File)
	} else {
		fr, err = session.ApplySnippet(req.Name, *req.Source)
	}
	if err != nil {
		srv.fail(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if fr.Err != nil {
		srv.fail(w, http.StatusUnprocessableEntity, "%v", fr.Err)
		return
	}
	resp := ApplyResponse{Name: fr.Name, Changed: fr.Changed(), Diff: fr.Diff}
	if !fr.OutputElided {
		out := fr.Output
		resp.Output = &out
	}
	line := fileLine(fr, false)
	resp.Patches = line.Patches
	writeJSON(w, resp)
}

// applyInline parses (or recalls) an inline patch and applies it to the
// requested input. With a session, the one-patch campaign shares the
// session's options and cache stack, so resident hashes, word sets, and
// parse trees accelerate it exactly like the session's own campaign; the
// compiled campaign itself is kept in the server's LRU keyed by patch text
// and scope.
func (srv *Server) applyInline(session *Session, req ApplyRequest) (batch.CampaignFileResult, error) {
	scope := ""
	opts := srv.defaults
	store := cache.Store(srv.scratch)
	if session != nil {
		scope = session.ID()
		opts = session.opts
		store = session.mem
	}
	key := scope + "\x00" + req.Patch
	camp, ok := srv.compiled.Get(key)
	if !ok {
		p, err := smpl.ParsePatch("inline.cocci", req.Patch)
		if err != nil {
			return batch.CampaignFileResult{}, err
		}
		opts.Store = store
		opts.CacheDir = ""
		camp = batch.NewCampaign([]*smpl.Patch{p}, opts)
		srv.compiled.Add(key, camp)
	}

	var st *batch.FileState
	switch {
	case req.File != "":
		// Resident artifacts are keyed by content hash, so they serve any
		// patch: seed the state exactly like a session sweep would.
		rel := req.File
		fr, err := session.applyPathWith(camp, rel)
		return fr, err
	default:
		name := req.Name
		if name == "" {
			name = "snippet.c"
		}
		st = &batch.FileState{Name: name, Src: *req.Source, Loaded: true}
	}
	var out batch.CampaignFileResult
	if _, err := camp.CollectStates([]*batch.FileState{st}, func(fr batch.CampaignFileResult) error {
		out = fr
		return nil
	}); err != nil {
		return batch.CampaignFileResult{}, err
	}
	return out, nil
}

// handleMetrics renders the Prometheus exposition. Families are emitted
// family-major (all of a family's series contiguous, one HELP and one TYPE
// line each) through obs.PromWriter, which panics on any violation of the
// text-format invariants — the strict-parser test keeps this honest.
func (srv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	srv.requests.metrics.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c := &srv.requests
	p := obs.NewPromWriter(w)

	p.Family("gocci_serve_http_requests_total", "counter", "HTTP requests received, by endpoint.")
	for _, m := range []struct {
		endpoint string
		n        int64
	}{
		{"healthz", c.healthz.Load()},
		{"metrics", c.metrics.Load()},
		{"sessions", c.sessions.Load()},
		{"stats", c.stats.Load()},
		{"run", c.run.Load()},
		{"check", c.check.Load()},
		{"invalidate", c.invalidate.Load()},
		{"apply", c.apply.Load()},
		{"trace", c.trace.Load()},
	} {
		p.Sample("", [][2]string{{"endpoint", m.endpoint}}, float64(m.n))
	}
	p.Counter("gocci_serve_http_errors_total", "HTTP error responses sent.", nil, float64(c.errors.Load()))

	sessions := srv.sessionList()
	p.Gauge("gocci_serve_sessions", "Registered sessions.", nil, float64(len(sessions)))

	p.Family("gocci_serve_http_request_seconds", "histogram", "Request latency by endpoint, for the endpoints that do engine work.")
	for _, endpoint := range []string{"apply", "check", "invalidate", "run"} {
		p.HistogramSeries([][2]string{{"endpoint", endpoint}}, srv.latency[endpoint].Snapshot())
	}

	stats := make([]SessionStats, len(sessions))
	for i, s := range sessions {
		stats[i] = s.Stats()
	}
	// Family-major over the per-session counters: the outer loop is the
	// family, the inner the sessions, so a family's series stay contiguous.
	for _, fam := range []struct {
		name, typ, help string
		value           func(st SessionStats) float64
	}{
		{"tracked_files", "gauge", "Corpus files with resident stat and hash.", func(st SessionStats) float64 { return float64(st.TrackedFiles) }},
		{"runs_total", "counter", "Full corpus sweeps served.", func(st SessionStats) float64 { return float64(st.Runs) }},
		{"applies_total", "counter", "Single-file applies served.", func(st SessionStats) float64 { return float64(st.Applies) }},
		{"files_processed_total", "counter", "Files processed across all requests.", func(st SessionStats) float64 { return float64(st.FilesProcessed) }},
		{"files_changed_total", "counter", "Files changed across all requests.", func(st SessionStats) float64 { return float64(st.FilesChanged) }},
		{"file_errors_total", "counter", "Per-file errors across all requests.", func(st SessionStats) float64 { return float64(st.FileErrors) }},
		{"patch_results_cached_total", "counter", "Per-patch outcomes replayed from the result cache.", func(st SessionStats) float64 { return float64(st.PatchCached) }},
		{"patch_results_skipped_total", "counter", "Per-patch outcomes skipped by the prefilter.", func(st SessionStats) float64 { return float64(st.PatchSkipped) }},
		{"functions_matched_total", "counter", "Function segments matched fresh.", func(st SessionStats) float64 { return float64(st.FuncsMatched) }},
		{"functions_cached_total", "counter", "Function segments replayed from the segment cache.", func(st SessionStats) float64 { return float64(st.FuncsCached) }},
		{"files_parsed_total", "counter", "Input files parsed.", func(st SessionStats) float64 { return float64(st.FilesParsed) }},
		{"files_read_total", "counter", "Input files read.", func(st SessionStats) float64 { return float64(st.FilesRead) }},
		{"edits_demoted_total", "counter", "Unsafe edits demoted by the verifier.", func(st SessionStats) float64 { return float64(st.Demoted) }},
		{"verify_warnings_total", "counter", "Verifier findings reported.", func(st SessionStats) float64 { return float64(st.Warnings) }},
		{"ast_cache_entries", "gauge", "Resident parse trees.", func(st SessionStats) float64 { return float64(st.ASTEntries) }},
		{"ast_cache_hits_total", "counter", "Parse-tree cache hits.", func(st SessionStats) float64 { return float64(st.ASTHits) }},
		{"ast_cache_misses_total", "counter", "Parse-tree cache misses.", func(st SessionStats) float64 { return float64(st.ASTMisses) }},
		{"ast_cache_evictions_total", "counter", "Parse trees evicted to keep the cache within its bound.", func(st SessionStats) float64 { return float64(st.ASTEvicted) }},
		{"mem_cache_entries", "gauge", "In-memory scan/result cache entries.", func(st SessionStats) float64 { return float64(st.MemEntries) }},
		{"mem_cache_hits_total", "counter", "In-memory cache hits.", func(st SessionStats) float64 { return float64(st.MemHits) }},
		{"mem_cache_misses_total", "counter", "In-memory cache misses.", func(st SessionStats) float64 { return float64(st.MemMisses) }},
		{"invalidations_total", "counter", "Explicit invalidations.", func(st SessionStats) float64 { return float64(st.Invalidations) }},
		{"watch_scans_total", "counter", "Poll-watcher scans completed.", func(st SessionStats) float64 { return float64(st.WatchScans) }},
	} {
		p.Family("gocci_serve_session_"+fam.name, fam.typ, fam.help)
		for _, st := range stats {
			p.Sample("", [][2]string{{"session", st.ID}}, fam.value(st))
		}
	}

	p.Family("gocci_serve_session_findings_total", "counter", "Check-rule findings reported across all requests, by severity.")
	for _, st := range stats {
		for _, sev := range []struct {
			name string
			n    int64
		}{
			{"error", st.FindingsError},
			{"warning", st.FindingsWarning},
			{"info", st.FindingsInfo},
		} {
			p.Sample("", [][2]string{{"session", st.ID}, {"severity", sev.name}}, float64(sev.n))
		}
	}

	p.Family("gocci_serve_session_stage_seconds", "histogram", "Per-request pipeline stage self-time, by session and stage.")
	for i, s := range sessions {
		for _, sm := range s.stageMetrics() {
			p.HistogramSeries([][2]string{{"session", stats[i].ID}, {"stage", sm.stage}}, sm.snap)
		}
	}
}
