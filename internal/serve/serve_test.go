package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/smpl"
)

const renamePatch = `@r@
expression list el;
@@
- legacy_halo_exchange(el)
+ halo_exchange_v2(el)
`

// writeCorpus fabricates a small tree: every third file calls the legacy
// API (and so is patched), the rest cannot match.
func writeCorpus(t *testing.T, n int) string {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("void work_%d(int n)\n{\n\tcompute_%d(n);\n}\n", i, i)
		if i%3 == 0 {
			src += fmt.Sprintf("\nvoid migrate_%d(int n)\n{\n\tlegacy_halo_exchange(n, %d);\n}\n", i, i)
		}
		name := fmt.Sprintf("src%02d.c", i)
		if i%2 == 0 {
			name = filepath.Join("sub", name)
		}
		path := filepath.Join(root, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		// Deterministic mtimes well in the past, so test edits that bump
		// them are always visible to stat-based revalidation.
		if err := os.Chtimes(path, base, base); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func parsePatch(t *testing.T, name, text string) *smpl.Patch {
	t.Helper()
	p, err := smpl.ParsePatch(name, text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestSession(t *testing.T, root string, watch time.Duration) *Session {
	t.Helper()
	s, err := NewSession(Config{
		Root:          root,
		Patches:       []*smpl.Patch{parsePatch(t, "rename.cocci", renamePatch)},
		Options:       batch.Options{Workers: 4},
		WatchInterval: watch,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestSessionWarmSweep pins the resident contract: a cold sweep derives
// everything, a warm sweep over an unchanged corpus replays every result
// without reading or parsing a single file, and an edit re-derives exactly
// the edited file.
func TestSessionWarmSweep(t *testing.T) {
	const n = 9
	root := writeCorpus(t, n)
	s := newTestSession(t, root, 0)

	cold, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Files != n || cold.Errors != 0 {
		t.Fatalf("cold sweep: %+v", cold)
	}
	if cold.Cached != 0 || cold.Read != n {
		t.Errorf("cold sweep should read everything and cache nothing: %+v", cold)
	}
	if cold.Changed != 3 {
		t.Errorf("cold sweep changed %d files, want 3", cold.Changed)
	}

	warm, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cached != n {
		t.Errorf("warm sweep cached %d of %d", warm.Cached, n)
	}
	// A warm sweep parses and reads nothing: the 3 files the patch changes
	// replay both their outputs and their diff hunks from the cache.
	if warm.Parsed != 0 || warm.Read != 0 {
		t.Errorf("warm sweep: parsed=%d read=%d, want parsed=0 read=0", warm.Parsed, warm.Read)
	}

	// Edit one file (content + mtime): the next sweep re-derives it alone.
	edited := filepath.Join(root, "src01.c")
	src, err := os.ReadFile(edited)
	if err != nil {
		t.Fatal(err)
	}
	src = append(src, []byte("\nvoid extra(int n)\n{\n\tlegacy_halo_exchange(n, 99);\n}\n")...)
	if err := os.WriteFile(edited, src, 0o644); err != nil {
		t.Fatal(err)
	}
	third, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the edited file is read and parsed.
	if third.Parsed != 1 || third.Read != 1 {
		t.Errorf("after one edit: parsed=%d read=%d, want parsed=1 read=1", third.Parsed, third.Read)
	}
	if third.Cached != n-1 {
		t.Errorf("after one edit: cached=%d, want %d", third.Cached, n-1)
	}
}

// TestSessionSweepMatchesBatch pins output parity: a resident sweep (cold
// and warm) produces the same per-file diffs and outputs as a fresh
// cache-less campaign over the same paths.
func TestSessionSweepMatchesBatch(t *testing.T) {
	root := writeCorpus(t, 8)
	s := newTestSession(t, root, 0)

	collect := func() map[string]batch.CampaignFileResult {
		out := map[string]batch.CampaignFileResult{}
		if _, err := s.Run(func(fr batch.CampaignFileResult) error {
			out[fr.Name] = fr
			return fr.Err
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	cold := collect()
	warm := collect()

	paths, err := collectSources(root)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]batch.CampaignFileResult{}
	camp := batch.NewCampaign([]*smpl.Patch{parsePatch(t, "rename.cocci", renamePatch)}, batch.Options{Workers: 2})
	if _, err := camp.CollectPaths(paths, func(fr batch.CampaignFileResult) error {
		ref[fr.Name] = fr
		return fr.Err
	}); err != nil {
		t.Fatal(err)
	}

	for name, want := range ref {
		for mode, got := range map[string]batch.CampaignFileResult{"cold": cold[name], "warm": warm[name]} {
			if got.Diff != want.Diff {
				t.Errorf("%s %s: diff diverges from batch run", mode, name)
			}
			if got.OutputElided {
				if want.Changed() {
					t.Errorf("%s %s: output elided for a changed file", mode, name)
				}
				continue
			}
			if got.Output != want.Output {
				t.Errorf("%s %s: output diverges from batch run", mode, name)
			}
		}
	}
}

// TestSessionApply covers the one-shot paths: a corpus-relative file, a
// snippet, and the traversal guard.
func TestSessionApply(t *testing.T) {
	root := writeCorpus(t, 4)
	s := newTestSession(t, root, 0)

	fr, err := s.ApplyPath(filepath.Join("sub", "src00.c"))
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Changed() || !strings.Contains(fr.Output, "halo_exchange_v2") {
		t.Errorf("ApplyPath did not patch: %+v", fr)
	}

	// Repeating the apply replays from the resident cache.
	again, err := s.ApplyPath(filepath.Join("sub", "src00.c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Patches) == 0 || !again.Patches[0].Cached {
		t.Errorf("second ApplyPath not cached: %+v", again.Patches)
	}
	if again.Diff != fr.Diff {
		t.Error("cached ApplyPath diff diverges")
	}

	if _, err := s.ApplyPath(filepath.Join("..", "escape.c")); err == nil {
		t.Error("ApplyPath must reject paths escaping the root")
	}

	snip, err := s.ApplySnippet("s.c", "void f(int n)\n{\n\tlegacy_halo_exchange(n, 1);\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if !snip.Changed() || !strings.Contains(snip.Output, "halo_exchange_v2(n, 1)") {
		t.Errorf("ApplySnippet did not patch:\n%s", snip.Output)
	}
}

// TestWatcherInvalidates exercises the poll watcher: an edited file's
// resident entry is dropped between requests, and the stats see the scan.
func TestWatcherInvalidates(t *testing.T) {
	root := writeCorpus(t, 4)
	s := newTestSession(t, root, 10*time.Millisecond)

	if _, err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TrackedFiles != 4 {
		t.Fatalf("tracked %d files after a sweep, want 4", st.TrackedFiles)
	}

	edited := filepath.Join(root, "src01.c")
	if err := os.WriteFile(edited, []byte("void other(void)\n{\n\tidle();\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st = s.Stats()
		if st.Invalidations > 0 && st.TrackedFiles == 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Invalidations == 0 || st.TrackedFiles != 3 {
		t.Errorf("watcher did not drop the edited file: %+v", st)
	}
	if st.WatchScans == 0 || st.LastWatchScan == "" {
		t.Errorf("watcher scans not accounted: %+v", st)
	}
}

// TestSessionConcurrent hammers one session from many goroutines — sweeps,
// applies, invalidations — and relies on -race (CI runs this package with
// it) to certify the resident state is race-clean.
func TestSessionConcurrent(t *testing.T) {
	root := writeCorpus(t, 6)
	s := newTestSession(t, root, 5*time.Millisecond)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				switch g % 3 {
				case 0:
					if _, err := s.Run(nil); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := s.ApplySnippet("c.c", fmt.Sprintf("void f(int n)\n{\n\tlegacy_halo_exchange(n, %d);\n}\n", i)); err != nil {
						t.Error(err)
					}
				default:
					s.Invalidate()
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func newTestServer(t *testing.T, root string) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(batch.Options{Workers: 2})
	if _, err := srv.AddSession(Config{
		ID:      "hpc",
		Root:    root,
		Patches: []*smpl.Patch{parsePatch(t, "rename.cocci", renamePatch)},
		Options: batch.Options{Workers: 2},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data := new(bytes.Buffer)
	data.ReadFrom(resp.Body)
	return resp, data.Bytes()
}

// TestHTTPEndpoints walks the whole API surface once.
func TestHTTPEndpoints(t *testing.T) {
	root := writeCorpus(t, 6)
	_, ts := newTestServer(t, root)

	var health struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != 200 || health.Status != "ok" || health.Sessions != 1 {
		t.Errorf("healthz: %+v", health)
	}

	var list []SessionStats
	getJSON(t, ts.URL+"/v1/sessions", &list)
	if len(list) != 1 || list[0].ID != "hpc" {
		t.Errorf("sessions list: %+v", list)
	}

	// Streamed sweep: one NDJSON line per file plus a summary line.
	resp, err := http.Post(ts.URL+"/v1/sessions/hpc/run", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("run content type %q", ct)
	}
	var lines []RunLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line RunLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if len(lines) != 7 {
		t.Fatalf("got %d NDJSON lines, want 6 files + summary", len(lines))
	}
	sum := lines[len(lines)-1].Summary
	if sum == nil || sum.Files != 6 || sum.Changed != 2 || sum.Errors != 0 {
		t.Errorf("run summary: %+v", sum)
	}

	// Warm sweep over HTTP: everything cached, nothing parsed.
	resp2, err := http.Post(ts.URL+"/v1/sessions/hpc/run", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var warmSum *RunSummary
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		var line RunLine
		if err := json.Unmarshal(sc2.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Summary != nil {
			warmSum = line.Summary
		}
	}
	resp2.Body.Close()
	if warmSum == nil || warmSum.Cached != 6 || warmSum.Parsed != 0 {
		t.Errorf("warm summary: %+v", warmSum)
	}

	var stats SessionStats
	getJSON(t, ts.URL+"/v1/sessions/hpc/stats", &stats)
	if stats.Runs != 2 || stats.TrackedFiles != 6 {
		t.Errorf("stats: %+v", stats)
	}

	// Metrics carry the counters in Prometheus text format.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := new(bytes.Buffer)
	mb.ReadFrom(mresp.Body)
	mresp.Body.Close()
	metrics := mb.String()
	for _, want := range []string{
		"gocci_serve_sessions 1",
		`gocci_serve_http_requests_total{endpoint="run"} 2`,
		`gocci_serve_session_runs_total{session="hpc"} 2`,
		`gocci_serve_session_patch_results_cached_total{session="hpc"} 6`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Unknown session: 404 with a JSON error.
	if resp := getJSON(t, ts.URL+"/v1/sessions/nope/stats", nil); resp.StatusCode != 404 {
		t.Errorf("unknown session status %d", resp.StatusCode)
	}

	// Invalidate drops resident state.
	iresp, _ := postJSON(t, ts.URL+"/v1/sessions/hpc/invalidate", nil)
	if iresp.StatusCode != 200 {
		t.Errorf("invalidate status %d", iresp.StatusCode)
	}
	getJSON(t, ts.URL+"/v1/sessions/hpc/stats", &stats)
	if stats.TrackedFiles != 0 {
		t.Errorf("invalidate left %d tracked files", stats.TrackedFiles)
	}
}

// TestHTTPApply covers /v1/apply's request shapes and error contract.
func TestHTTPApply(t *testing.T) {
	root := writeCorpus(t, 4)
	_, ts := newTestServer(t, root)
	url := ts.URL + "/v1/apply"
	src := "void f(int n)\n{\n\tlegacy_halo_exchange(n, 7);\n}\n"

	// Session campaign over an inline snippet.
	resp, body := postJSON(t, url, ApplyRequest{Session: "hpc", Name: "s.c", Source: &src})
	if resp.StatusCode != 200 {
		t.Fatalf("apply snippet: %d %s", resp.StatusCode, body)
	}
	var ar ApplyResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Changed || ar.Output == nil || !strings.Contains(*ar.Output, "halo_exchange_v2(n, 7)") {
		t.Errorf("apply snippet response: %s", body)
	}

	// Session campaign over a corpus file.
	resp, body = postJSON(t, url, ApplyRequest{Session: "hpc", File: "src03.c"})
	if resp.StatusCode != 200 {
		t.Fatalf("apply file: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &ar)
	if !ar.Changed || !strings.Contains(ar.Diff, "halo_exchange_v2") {
		t.Errorf("apply file response: %s", body)
	}

	// Inline patch, no session: stateless one-shot.
	inline := "@i@\nexpression list el;\n@@\n- compute_1(el)\n+ compute_one(el)\n"
	osrc := "void g(int n)\n{\n\tcompute_1(n);\n}\n"
	resp, body = postJSON(t, url, ApplyRequest{Patch: inline, Name: "g.c", Source: &osrc})
	if resp.StatusCode != 200 {
		t.Fatalf("apply inline: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &ar)
	if !ar.Changed || ar.Output == nil || !strings.Contains(*ar.Output, "compute_one(n)") {
		t.Errorf("apply inline response: %s", body)
	}

	// Inline patch over a session corpus file: resident artifacts serve any
	// patch.
	resp, body = postJSON(t, url, ApplyRequest{Session: "hpc", Patch: inline, File: "src01.c"})
	if resp.StatusCode != 200 {
		t.Fatalf("apply inline+file: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &ar)
	if !ar.Changed {
		t.Errorf("inline patch over corpus file did not fire: %s", body)
	}

	// Error contract.
	for _, bad := range []struct {
		req  ApplyRequest
		code int
	}{
		{ApplyRequest{Session: "hpc"}, 400},                                  // neither source nor file
		{ApplyRequest{Session: "hpc", Source: &src, File: "x.c"}, 400},       // both
		{ApplyRequest{File: "src01.c"}, 400},                                 // file without session
		{ApplyRequest{Source: &src}, 400},                                    // no session, no patch
		{ApplyRequest{Session: "nope", Source: &src}, 404},                   // unknown session
		{ApplyRequest{Session: "hpc", File: "../escape.c"}, 422},             // traversal
		{ApplyRequest{Session: "hpc", File: "missing.c"}, 422},               // no such corpus file
		{ApplyRequest{Patch: "not a patch", Name: "x.c", Source: &src}, 422}, // bad inline patch
		// Unparsable source that still carries the patch's required atom, so
		// the prefilter cannot skip it and the parse error surfaces.
		{ApplyRequest{Session: "hpc", Name: "bad.c", Source: strptr("legacy_halo_exchange(\n")}, 422},
	} {
		resp, body := postJSON(t, url, bad.req)
		if resp.StatusCode != bad.code {
			t.Errorf("%+v: status %d, want %d (%s)", bad.req, resp.StatusCode, bad.code, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%+v: error body not JSON: %s", bad.req, body)
		}
	}
}

func strptr(s string) *string { return &s }

// The AST LRU reports the trees it evicts: a cold sweep that parses three
// files into a two-tree cache evicts one.
func TestSessionReportsASTEvictions(t *testing.T) {
	root := writeCorpus(t, 9) // src00, src03 and src06 call the API
	s, err := NewSession(Config{
		Root:         root,
		Patches:      []*smpl.Patch{parsePatch(t, "rename.cocci", renamePatch)},
		Options:      batch.Options{Workers: 2},
		ASTCacheSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	sum, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Parsed != 3 {
		t.Fatalf("cold sweep parsed %d files, want 3", sum.Parsed)
	}
	st := s.Stats()
	if st.ASTEntries != 2 || st.ASTEvicted != 1 {
		t.Errorf("ast_entries=%d ast_evictions=%d, want 2 and 1", st.ASTEntries, st.ASTEvicted)
	}
}
