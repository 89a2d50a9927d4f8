package sempatch

// The resident serving layer: a Server keeps corpus sessions — compiled
// patch campaigns, the scan-word index, content hashes, and an LRU of
// parsed trees — warm in memory across requests, so repeated patch runs
// over a slowly-changing tree cost only what changed. The same state is
// reachable as a library (Session methods) and over HTTP
// (Server.Handler, the API cmd/gocci-serve exposes); see docs/serve.md.

import (
	"net/http"
	"time"

	"repro/internal/serve"
)

// Server hosts resident corpus sessions and the HTTP/JSON API over them.
type Server struct {
	s *serve.Server
}

// NewServer returns a server with no sessions. defaults configures
// session-less one-shot applies (inline patch + inline source over HTTP):
// dialect, limits, and worker count; its CacheDir is ignored — such
// applies cache in memory only.
func NewServer(defaults Options) *Server {
	return &Server{s: serve.NewServer(defaults.batch())}
}

// Handler returns the HTTP handler serving the API documented in
// docs/serve.md: GET /healthz, GET /metrics, GET /v1/sessions,
// GET /v1/sessions/{id}/stats, GET /v1/sessions/{id}/trace,
// POST /v1/sessions/{id}/run (NDJSON stream),
// POST /v1/sessions/{id}/invalidate, and POST /v1/apply.
func (s *Server) Handler() http.Handler { return s.s.Handler() }

// AddSession builds and registers the resident session for cfg.
// Configuration errors — a missing root, no patches, an undeclared define,
// an unusable cache directory, a duplicate id — are returned here, never
// deferred to the first request.
func (s *Server) AddSession(cfg SessionConfig) (*Session, error) {
	return s.s.AddSession(serve.Config{
		ID:              cfg.ID,
		Root:            cfg.Root,
		Patches:         smplPatches(cfg.Patches),
		Options:         cfg.Options.batch(),
		ASTCacheSize:    cfg.ASTCacheSize,
		MemCacheEntries: cfg.MemCacheEntries,
		WatchInterval:   cfg.WatchInterval,
	})
}

// Session returns a registered session by id.
func (s *Server) Session(id string) (*Session, bool) { return s.s.Session(id) }

// Close stops every session's watcher goroutine. Sessions stay usable;
// only background invalidation stops.
func (s *Server) Close() { s.s.Close() }

// SessionConfig configures one resident corpus session.
type SessionConfig struct {
	// ID names the session in URLs and lookups ("default" when empty).
	ID string
	// Root is the corpus directory the session serves.
	Root string
	// Patches is the campaign applied by sweeps and session-scoped
	// applies, in order.
	Patches []*Patch
	// Options is the engine and pool configuration. Options.CacheDir,
	// when set, becomes the disk layer behind the session's in-memory
	// cache, so a restarted daemon comes back warm.
	Options Options
	// ASTCacheSize bounds the resident parse-tree LRU (default 256 trees).
	ASTCacheSize int
	// MemCacheEntries bounds the in-memory scan/result cache entry count
	// (default 65536).
	MemCacheEntries int
	// WatchInterval enables the poll watcher at that period; 0 disables
	// it. Runs revalidate files by stat either way — the watcher only
	// reclaims resident state for edited or deleted files sooner.
	WatchInterval time.Duration
}

// Session is one resident corpus: compiled campaign, cache stack, and
// per-file validation state. All methods are safe for concurrent use.
//
// Run sweeps the whole corpus through the campaign, streaming per-file
// results in sorted path order; resident artifacts are revalidated by
// stat, reused where valid, re-derived and kept where not, and outputs are
// byte-identical to a cold batch run over the same tree. ApplyPath applies
// the campaign to one corpus file named relative to the root (the path
// must stay inside it); ApplySnippet applies it to an in-memory snippet
// that never enters the corpus state. WriteTrace writes the most recent
// sweep's trace as Chrome trace-event JSON, the payload GET
// /v1/sessions/{id}/trace serves. Invalidate drops every resident artifact
// (the content-addressed disk cache, never stale, is untouched), and Close
// stops the session's watcher.
type Session = serve.Session

// ServeRunStats aggregates one resident sweep: the campaign statistics
// plus the resident-state accounting that distinguishes a warm daemon from
// a cold batch run — totals of the per-patch Cached, Skipped,
// FuncsMatched, FuncsCached, Demoted and Warnings counters, the files Read
// and Parsed this sweep (after editing k of N corpus files, a warm sweep
// parses exactly k), and the sweep's per-stage self-time in StageSeconds.
type ServeRunStats = serve.RunStats

// SessionStats is a point-in-time snapshot of a session's resident state
// and cumulative counters — the same data GET /v1/sessions/{id}/stats
// serves.
type SessionStats = serve.SessionStats
