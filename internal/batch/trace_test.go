// Integrity tests for the tracing thread through the batch pipeline: spans
// must nest cleanly per track, per-stage self-times must account for the
// sweep's wall time, and the rendered Chrome trace JSON must keep its
// schema. The cost of tracing is measured end to end by the benchmark
// module (bench/, obs.trace_overhead_ratio).

package batch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/smpl"
)

// traceDotsPatch anchors two statements across dots — matched per function
// by the CFG path engine, the paper's expensive-match shape.
const traceDotsPatch = `@r@
expression E;
@@
- prepare(E);
+ prepare_v2(E);
... when != giveup(E)
    when != reset(E)
    when != retry(E)
    when != checkpoint(E)
    when != abort_run()
- commit(E);
+ commit_v2(E);
`

// traceKernel renders a kernel file of nFns functions; edit selects the
// per-run constant of one function so consecutive runs differ in exactly
// one function's content.
func traceKernel(nFns, stmts, edit int) string {
	var sb strings.Builder
	sb.WriteString("#include <hpc.h>\n\n")
	for f := 0; f < nFns; f++ {
		c := f
		if f == nFns/2 {
			c = 1000 + edit
		}
		fmt.Fprintf(&sb, "void stage_%d(int x)\n{\n\tprepare(x);\n", f)
		for s := 0; s < stmts; s++ {
			// Branchy bodies: the dots constraint is verified across every
			// prepare-to-commit path, so match cost grows with the CFG, the
			// shape the per-function cache pays off on.
			fmt.Fprintf(&sb, "\tif (x > %d) { work_%d(x, %d); } else { idle_%d(x); }\n", s, s, c*10+s, s)
		}
		sb.WriteString("\tcommit(x);\n}\n\n")
	}
	return sb.String()
}

// traceFixture is a small mixed corpus: half the files match the dots
// patch, half are prefilter-skippable, so a traced sweep exercises read,
// hash, prefilter (both outcomes), parse, match, render, and cache spans.
func traceFixture(n int) []core.SourceFile {
	files := make([]core.SourceFile, n)
	for i := range files {
		if i%2 == 0 {
			files[i] = core.SourceFile{Name: fmt.Sprintf("m%d.c", i), Src: traceKernel(4, 6, i)}
		} else {
			files[i] = core.SourceFile{Name: fmt.Sprintf("s%d.c", i),
				Src: fmt.Sprintf("void idle_%d(int x)\n{\n\tspin(x, %d);\n}\n", i, i)}
		}
	}
	return files
}

func tracePatch(t testing.TB) *smpl.Patch {
	t.Helper()
	p, err := smpl.ParsePatch("bench.cocci", traceDotsPatch)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTraceSelfTimeCoversWall runs a strictly single-threaded sweep
// (Workers=1, no segment fan-out) and requires the per-stage self-times to
// sum to the traced wall time within 5%: the worker umbrella span makes
// pool glue and idle time attributable, so nothing the sweep spent is
// missing from the profile.
func TestTraceSelfTimeCoversWall(t *testing.T) {
	tr := obs.New()
	r := single(tracePatch(t), Options{Workers: 1, NoFuncCache: true, Tracer: tr,
		Store: cache.NewMemory(nil, 256)})
	r.Run(traceFixture(8), func(fr CampaignFileResult) bool {
		if fr.Err != nil {
			t.Fatal(fr.Err)
		}
		return true
	})
	prof := tr.Profile()
	if prof.Spans == 0 || prof.Wall <= 0 {
		t.Fatalf("empty profile: %+v", prof)
	}
	var self time.Duration
	for _, ss := range prof.Stages {
		if ss.Self < 0 {
			t.Errorf("stage %s has negative self-time %v", ss.Stage, ss.Self)
		}
		self += ss.Self
	}
	ratio := float64(self) / float64(prof.Wall)
	if ratio < 0.95 || ratio > 1.0001 {
		t.Errorf("sum of stage self-times is %.1f%% of wall (%v of %v), want within [95%%, 100%%]",
			100*ratio, self, prof.Wall)
	}
	if prof.PrefilterSkips == 0 {
		t.Errorf("fixture has unmatched files but no prefilter skips: %+v", prof)
	}
	var matchTotal time.Duration
	for _, rs := range prof.Rules {
		matchTotal += rs.Total
	}
	if matchTotal == 0 {
		t.Error("no match time attributed to any rule")
	}
}

// chromeTraceFile mirrors the trace-event JSON container; unknown fields
// are schema drift and fail the decode.
type chromeTraceFile struct {
	DisplayTimeUnit string             `json:"displayTimeUnit"`
	TraceEvents     []chromeTraceEvent `json:"traceEvents"`
}

type chromeTraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// decodeTrace renders tr and decodes it strictly.
func decodeTrace(t *testing.T, tr *obs.Tracer) chromeTraceFile {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	var out chromeTraceFile
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("trace JSON schema drift: %v\n%s", err, buf.String())
	}
	return out
}

// TestTraceSpansNestPerTrack sweeps with the function-granular fan-out
// enabled (forked seg tracks) and checks the trace-event invariants: every
// track's complete events either nest or are disjoint — a partial overlap
// would render as garbage in Perfetto — and every track carries exactly one
// thread_name metadata event.
func TestTraceSpansNestPerTrack(t *testing.T) {
	tr := obs.New()
	r := single(tracePatch(t), Options{Workers: 2, Tracer: tr, Store: cache.NewMemory(nil, 256)})
	r.Run(traceFixture(8), func(fr CampaignFileResult) bool {
		if fr.Err != nil {
			t.Fatal(fr.Err)
		}
		return true
	})
	trace := decodeTrace(t, tr)
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}
	byTid := map[int][]chromeTraceEvent{}
	names := map[int]int{}
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" {
				t.Errorf("unexpected metadata event %q", ev.Name)
			}
			names[ev.Tid]++
		case "X":
			if ev.Cat != "stage" || ev.Dur < 0 {
				t.Errorf("bad complete event: %+v", ev)
			}
			byTid[ev.Tid] = append(byTid[ev.Tid], ev)
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	for tid, evs := range byTid {
		if names[tid] != 1 {
			t.Errorf("track %d has %d thread_name events, want 1", tid, names[tid])
		}
		// Events sorted by start (longer first on ties) must form a proper
		// nesting: each event either starts after the enclosing one ends or
		// ends within it. Timestamps are µs with sub-µs fractions; allow a
		// rounding hair.
		const eps = 0.002
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		var stack []chromeTraceEvent
		for _, ev := range evs {
			for len(stack) > 0 && stack[len(stack)-1].Ts+stack[len(stack)-1].Dur <= ev.Ts+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if ev.Ts+ev.Dur > top.Ts+top.Dur+eps {
					t.Errorf("track %d: span %s [%.3f,%.3f] partially overlaps %s [%.3f,%.3f]",
						tid, ev.Name, ev.Ts, ev.Ts+ev.Dur, top.Name, top.Ts, top.Ts+top.Dur)
				}
			}
			stack = append(stack, ev)
		}
	}
	// Rule attribution must survive the render: at least one match span
	// carries the rule name from the patch.
	ruleSeen := false
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" && ev.Name == string(obs.StageMatch) {
			if r, ok := ev.Args["rule"].(string); ok && r != "" {
				ruleSeen = true
			}
		}
	}
	if !ruleSeen {
		t.Error("no match span carries a rule arg")
	}
}

// TestTraceCampaignStates traces a campaign over caller-managed states via
// the per-request tracer entry point and checks the request is attributed:
// both member patches appear as spans, and a second traced run on a fresh
// tracer replays from the cache with cache-read hits in its profile.
func TestTraceCampaignStates(t *testing.T) {
	other, err := smpl.ParsePatch("other.cocci", "@s@\nexpression E;\n@@\n- spin(E)\n+ spin_v2(E)\n")
	if err != nil {
		t.Fatal(err)
	}
	camp := NewCampaign([]*smpl.Patch{tracePatch(t), other},
		Options{Workers: 1, Store: cache.NewMemory(nil, 256)})
	states := func() []*FileState {
		files := traceFixture(4)
		sts := make([]*FileState, len(files))
		for i, f := range files {
			sts[i] = &FileState{Name: f.Name, Src: f.Src, Loaded: true}
		}
		return sts
	}

	tr := obs.New()
	if _, err := camp.CollectStatesT(states(), tr, nil); err != nil {
		t.Fatal(err)
	}
	cold := tr.Profile()
	if cold.Spans == 0 {
		t.Fatal("cold campaign run produced no spans")
	}

	warm := obs.New()
	if _, err := camp.CollectStatesT(states(), warm, nil); err != nil {
		t.Fatal(err)
	}
	wp := warm.Profile()
	if wp.FileCacheHits == 0 {
		t.Errorf("warm campaign run shows no file-cache hits: %+v", wp)
	}
}
