// Package obs is the pipeline tracing and profiling layer. A Tracer owns a
// run's trace buffer; each worker goroutine records spans into its own Track
// so recording is lock-free on the hot path (the tracer mutex is only taken
// when a track is created). Every entry point is nil-safe: with tracing
// disabled the batch pipeline carries nil *Track receivers and the cost of
// each instrumentation site is a single pointer check, which is what lets
// the spans live permanently inside the match/cache/prefilter hot paths.
//
// The buffer renders two ways: WriteJSON emits Chrome trace-event JSON (one
// Perfetto track per worker, spans nested file → function → stage, args
// carrying the rule name and cache outcome), and Profile aggregates
// self-time per stage plus per-rule attribution for the `--profile` table
// and the gocci-serve per-stage histograms.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Stage names. These are the span vocabulary shared by the trace JSON, the
// profile table, and the gocci-serve stage histograms; docs/observability.md
// documents each one.
const (
	StageWorker     = "worker"      // per-worker umbrella; self-time is pool glue and idle wait
	StageFile       = "file"        // per-file umbrella; self-time is pipeline glue
	StageRead       = "read"        // reading source bytes
	StageHash       = "hash"        // content hashing for cache keys
	StagePrefilter  = "prefilter"   // required-atom scan + decision
	StageParse      = "parse"       // C/C++ parsing (including engine reparses)
	StageSegment    = "segment"     // splitting a file into function segments
	StageCFG        = "cfg"         // control-flow graph construction
	StageMatch      = "match"       // rule matching (attributed per rule)
	StageCheck      = "check"       // finding emission from match-only check rules (Matches = findings)
	StageVerify     = "verify"      // post-transform safety checking
	StageRender     = "render"      // applying edits, splicing, diffing
	StageCacheRead  = "cache-read"  // result/function cache lookups
	StageCacheWrite = "cache-write" // result/function cache persists
)

// Outcome values recorded on prefilter, cache and parse spans.
const (
	OutcomeHit         = "hit"         // cache lookup replayed a stored result
	OutcomeMiss        = "miss"        // cache lookup found nothing usable
	OutcomeSkip        = "skip"        // prefilter proved no rule can fire
	OutcomePass        = "pass"        // prefilter let the file through
	OutcomeFull        = "full"        // parse built every declaration
	OutcomeIncremental = "incremental" // re-parse reused untouched declarations
)

// Tracer collects one run's spans. Create per run with New; hand each worker
// goroutine its own Track. A nil *Tracer is a valid disabled sink.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	tracks []*Track
}

// New creates an enabled tracer; the zero time origin of every span is now.
func New() *Tracer {
	return &Tracer{start: time.Now()}
}

// Track registers a new named track (one Perfetto thread row). Safe to call
// concurrently. Returns nil on a nil tracer, so callers thread the result
// through unconditionally.
func (t *Tracer) Track(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tk := &Track{t: t, tid: len(t.tracks) + 1, name: name}
	t.tracks = append(t.tracks, tk)
	return tk
}

// Track is a single goroutine's span sequence. It must not be shared across
// goroutines — fan-out code forks a child track per goroutine instead. A nil
// *Track is a valid disabled sink: Start returns an inert Span.
type Track struct {
	t     *Tracer
	tid   int
	name  string
	spans []spanRec
	open  []int32 // stack of indices into spans
}

// Fork creates a sibling track for a goroutine fanning out under this one,
// named after its parent so related rows sort together in the viewer.
func (tk *Track) Fork(name string) *Track {
	if tk == nil {
		return nil
	}
	return tk.t.Track(tk.name + "/" + name)
}

// spanRec is one recorded span. Start/End are offsets from the tracer start;
// parent indexes the enclosing span on the same track (-1 at top level),
// which is what Profile's self-time subtraction walks.
type spanRec struct {
	stage   string
	file    string
	fn      string
	rule    string
	outcome string
	matches int
	start   time.Duration
	end     time.Duration
	parent  int32
}

// Span is a handle to an open span; its setters are chainable and, like
// everything here, no-ops on the zero Span a nil track hands out.
type Span struct {
	tk  *Track
	idx int32
}

// Start opens a span nested under the track's innermost open span.
func (tk *Track) Start(stage string) Span {
	if tk == nil {
		return Span{}
	}
	parent := int32(-1)
	if n := len(tk.open); n > 0 {
		parent = tk.open[n-1]
	}
	idx := int32(len(tk.spans))
	tk.spans = append(tk.spans, spanRec{
		stage:  stage,
		start:  time.Since(tk.t.start),
		end:    -1,
		parent: parent,
	})
	tk.open = append(tk.open, idx)
	return Span{tk: tk, idx: idx}
}

// File records the file the span worked on.
func (s Span) File(name string) Span {
	if s.tk != nil {
		s.tk.spans[s.idx].file = name
	}
	return s
}

// Func records the function segment the span worked on.
func (s Span) Func(name string) Span {
	if s.tk != nil {
		s.tk.spans[s.idx].fn = name
	}
	return s
}

// Rule attributes the span to a patch rule.
func (s Span) Rule(name string) Span {
	if s.tk != nil {
		s.tk.spans[s.idx].rule = name
	}
	return s
}

// Outcome records a cache, prefilter or parse decision (Outcome* constants).
func (s Span) Outcome(o string) Span {
	if s.tk != nil {
		s.tk.spans[s.idx].outcome = o
	}
	return s
}

// Matches records how many matches the span produced.
func (s Span) Matches(n int) Span {
	if s.tk != nil {
		s.tk.spans[s.idx].matches = n
	}
	return s
}

// End closes the span. Closing a span force-closes any children left open on
// the stack (they keep their recorded end if they had one), so an early
// return that skips a child End cannot corrupt nesting.
func (s Span) End() {
	if s.tk == nil {
		return
	}
	tk := s.tk
	now := time.Since(tk.t.start)
	tk.spans[s.idx].end = now
	for n := len(tk.open); n > 0; n-- {
		top := tk.open[n-1]
		tk.open = tk.open[:n-1]
		if top == s.idx {
			break
		}
		if tk.spans[top].end < 0 {
			tk.spans[top].end = now
		}
	}
}

// traceEvent is one Chrome trace-event object. The subset emitted here (ph
// "X" complete events plus ph "M" thread_name metadata) is what Perfetto and
// chrome://tracing load directly.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteJSON renders the trace as Chrome trace-event JSON. Call only after
// the traced run has completed: tracks are owned by their worker goroutines
// until then. Safe on a nil tracer (writes an empty trace).
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := []traceEvent{}
	if t != nil {
		t.mu.Lock()
		tracks := append([]*Track(nil), t.tracks...)
		t.mu.Unlock()
		for _, tk := range tracks {
			events = append(events, traceEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tk.tid,
				Args: map[string]any{"name": tk.name},
			})
			for _, sp := range tk.spans {
				end := sp.end
				if end < sp.start {
					end = sp.start // never closed: render zero-duration
				}
				args := map[string]any{}
				if sp.file != "" {
					args["file"] = sp.file
				}
				if sp.fn != "" {
					args["func"] = sp.fn
				}
				if sp.rule != "" {
					args["rule"] = sp.rule
				}
				if sp.outcome != "" {
					args["outcome"] = sp.outcome
				}
				if sp.matches != 0 {
					args["matches"] = sp.matches
				}
				events = append(events, traceEvent{
					Name: sp.stage, Ph: "X", Pid: 1, Tid: tk.tid,
					Ts:  float64(sp.start) / float64(time.Microsecond),
					Dur: float64(end-sp.start) / float64(time.Microsecond),
					Cat: "stage",
					Args: func() map[string]any {
						if len(args) == 0 {
							return nil
						}
						return args
					}(),
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}{DisplayTimeUnit: "ms", TraceEvents: events})
}

// String implements fmt.Stringer for debugging ("3 tracks, 120 spans").
func (t *Tracer) String() string {
	if t == nil {
		return "obs: disabled"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, tk := range t.tracks {
		n += len(tk.spans)
	}
	return fmt.Sprintf("obs: %d tracks, %d spans", len(t.tracks), n)
}
