// Tests for function-granular incrementality through the resident layer: a
// warm apply after a one-function edit re-matches exactly that function, the
// counters surface through stats, and the intra-file parallel matcher is
// race-clean under concurrent HTTP applies (CI runs this package with -race).

package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/smpl"
)

// fnKernelFile renders a k-function translation unit where every function
// calls the legacy API; consts holds the per-function constants so a test
// can edit exactly one function between applies.
func fnKernelFile(consts []int) string {
	var sb strings.Builder
	sb.WriteString("#include <hpc.h>\n\n")
	for i, c := range consts {
		fmt.Fprintf(&sb, "void stage_%d(int n)\n{\n\tlegacy_halo_exchange(n, %d);\n}\n\n", i, c)
	}
	sb.WriteString("/* end */\n")
	return sb.String()
}

func writeKernel(t *testing.T, root string, consts []int, old bool) {
	t.Helper()
	path := filepath.Join(root, "ker.c")
	if err := os.WriteFile(path, []byte(fnKernelFile(consts)), 0o644); err != nil {
		t.Fatal(err)
	}
	if old {
		base := time.Now().Add(-time.Hour)
		if err := os.Chtimes(path, base, base); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionFunctionGranularApply pins the resident warm-apply contract: a
// warm /v1/apply-equivalent after editing one of k functions re-matches
// exactly that function, replays the rest, stays byte-identical to a fresh
// file-granular run, and the session counters account for all of it.
func TestSessionFunctionGranularApply(t *testing.T) {
	const k = 5
	root := t.TempDir()
	consts := []int{0, 1, 2, 3, 4}
	writeKernel(t, root, consts, true)
	s := newTestSession(t, root, 0)

	scratch := func(consts []int) batch.CampaignFileResult {
		c := batch.NewCampaign([]*smpl.Patch{parsePatch(t, "rename.cocci", renamePatch)},
			batch.Options{Workers: 1, NoFuncCache: true})
		var out batch.CampaignFileResult
		// The session names corpus files by absolute path; mirror that so
		// the diffs compare byte-for-byte.
		c.Run([]core.SourceFile{{Name: filepath.Join(root, "ker.c"), Src: fnKernelFile(consts)}},
			func(fr batch.CampaignFileResult) bool { out = fr; return true })
		return out
	}

	cold, err := s.ApplyPath("ker.c")
	if err != nil {
		t.Fatal(err)
	}
	want := scratch(consts)
	if cold.Output != want.Output || cold.Diff != want.Diff {
		t.Fatalf("cold apply diverges from file-granular run:\n%s", cold.Diff)
	}
	if po := cold.Patches[0]; po.FuncsMatched != k || po.FuncsCached != 0 {
		t.Fatalf("cold apply: matched=%d cached=%d, want %d/0", po.FuncsMatched, po.FuncsCached, k)
	}

	// Edit exactly one function (content and mtime both change).
	consts[2] = 99
	writeKernel(t, root, consts, false)

	warm, err := s.ApplyPath("ker.c")
	if err != nil {
		t.Fatal(err)
	}
	want = scratch(consts)
	if warm.Output != want.Output || warm.Diff != want.Diff {
		t.Fatalf("warm apply diverges from file-granular run:\n%s", warm.Diff)
	}
	if po := warm.Patches[0]; po.FuncsMatched != 1 || po.FuncsCached != k-1 {
		t.Fatalf("warm apply after one-function edit: matched=%d cached=%d, want 1/%d",
			po.FuncsMatched, po.FuncsCached, k-1)
	}

	st := s.Stats()
	if st.FuncsMatched != k+1 || st.FuncsCached != k-1 {
		t.Errorf("session counters: matched=%d cached=%d, want %d/%d",
			st.FuncsMatched, st.FuncsCached, k+1, k-1)
	}

	// A sweep after another one-function edit shows the same granularity
	// through the Run path and its RunStats.
	consts[4] = 77
	writeKernel(t, root, consts, false)
	rs, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.FuncsMatched != 1 || rs.FuncsCached != k-1 {
		t.Errorf("warm sweep after one-function edit: matched=%d cached=%d, want 1/%d",
			rs.FuncsMatched, rs.FuncsCached, k-1)
	}
}

// TestHTTPApplyConcurrentFunctions hammers /v1/apply and /run from many
// goroutines over multi-function inputs, so the intra-file parallel matcher,
// the segment cache, and the counter atomics all run concurrently under
// -race. Responses must stay 200 and deterministic.
func TestHTTPApplyConcurrentFunctions(t *testing.T) {
	root := t.TempDir()
	writeKernel(t, root, []int{0, 1, 2, 3}, true)
	_, ts := newTestServer(t, root)
	applyURL := ts.URL + "/v1/apply"

	wantOut := func(consts []int) string {
		return strings.ReplaceAll(fnKernelFile(consts), "legacy_halo_exchange", "halo_exchange_v2")
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch g % 3 {
				case 0: // corpus-file applies
					resp, body := postJSON(t, applyURL, ApplyRequest{Session: "hpc", File: "ker.c"})
					if resp.StatusCode != 200 {
						t.Errorf("apply file: %d %s", resp.StatusCode, body)
						continue
					}
					var ar ApplyResponse
					if err := json.Unmarshal(body, &ar); err != nil {
						t.Error(err)
						continue
					}
					if ar.Output == nil || *ar.Output != wantOut([]int{0, 1, 2, 3}) {
						t.Error("concurrent corpus apply produced a divergent output")
					}
				case 1: // distinct multi-function snippets per iteration
					consts := []int{g*100 + i, g*100 + i + 1, g*100 + i + 2}
					src := fnKernelFile(consts)
					resp, body := postJSON(t, applyURL, ApplyRequest{Session: "hpc", Name: "s.c", Source: &src})
					if resp.StatusCode != 200 {
						t.Errorf("apply snippet: %d %s", resp.StatusCode, body)
						continue
					}
					var ar ApplyResponse
					if err := json.Unmarshal(body, &ar); err != nil {
						t.Error(err)
						continue
					}
					if ar.Output == nil || *ar.Output != wantOut(consts) {
						t.Error("concurrent snippet apply produced a divergent output")
					}
				default: // full sweeps interleaved with the applies
					resp, err := http.Post(ts.URL+"/v1/sessions/hpc/run", "application/json", nil)
					if err != nil {
						t.Error(err)
						continue
					}
					if resp.StatusCode != 200 {
						t.Errorf("run: %d", resp.StatusCode)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	var stats SessionStats
	getJSON(t, ts.URL+"/v1/sessions/hpc/stats", &stats)
	if stats.FuncsMatched == 0 {
		t.Error("no function segments matched across the hammer run")
	}
	if stats.FuncsMatched+stats.FuncsCached < 4 {
		t.Errorf("function counters too low: %+v", stats)
	}
}
