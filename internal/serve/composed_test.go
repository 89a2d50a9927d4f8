package serve

// A session whose campaign changes some files with several members: once
// warm, /run, /check and /v1/apply replay those files' diffs from the
// campaign record and read no file, with the same output as a cold sweep.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/batch"
	"repro/internal/smpl"
)

// upgradePatch rewrites what renamePatch leaves, so every file that calls
// the legacy API is changed by both members.
const upgradePatch = `@u@
expression list el;
@@
- halo_exchange_v2(el)
+ halo_exchange_v3(el)
`

func composedPatches(t *testing.T) []*smpl.Patch {
	return []*smpl.Patch{
		parsePatch(t, "check.cocci", checkPatch),
		parsePatch(t, "rename.cocci", renamePatch),
		parsePatch(t, "upgrade.cocci", upgradePatch),
	}
}

func newComposedServer(t *testing.T, root string) *httptest.Server {
	t.Helper()
	srv := NewServer(batch.Options{Workers: 2})
	if _, err := srv.AddSession(Config{ID: "two", Root: root, Patches: composedPatches(t),
		Options: batch.Options{Workers: 2}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return ts
}

// postRun runs one /run sweep and returns its per-file lines and summary.
func postRun(t *testing.T, url string) ([]RunLine, RunSummary) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var files []RunLine
	var sum *RunSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line RunLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("run line %q: %v", sc.Text(), err)
		}
		if line.Summary != nil {
			sum = line.Summary
			continue
		}
		files = append(files, line)
	}
	if sum == nil {
		t.Fatal("run stream has no summary")
	}
	return files, *sum
}

func filesRead(t *testing.T, url string) int64 {
	t.Helper()
	var st SessionStats
	getJSON(t, url+"/v1/sessions/two/stats", &st)
	return st.FilesRead
}

func TestComposedReplayReadsNothing(t *testing.T) {
	const n = 9
	root := writeCorpus(t, n)
	ts := newComposedServer(t, root)

	// The same campaign with no store: the diffs every sweep must print.
	paths, err := collectSources(root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	batch.NewCampaign(composedPatches(t), batch.Options{Workers: 2}).RunPaths(paths, func(fr batch.CampaignFileResult) bool {
		want[fr.Name] = fr.Diff
		return true
	})

	cold, coldSum := postRun(t, ts.URL+"/v1/sessions/two/run")
	if coldSum.Read != n {
		t.Errorf("cold /run read %d files, want %d", coldSum.Read, n)
	}
	warm, warmSum := postRun(t, ts.URL+"/v1/sessions/two/run")
	if warmSum.Read != 0 || warmSum.Parsed != 0 {
		t.Errorf("warm /run read=%d parsed=%d, want 0 and 0", warmSum.Read, warmSum.Parsed)
	}
	if len(warm) != len(cold) || len(cold) != n {
		t.Fatalf("/run streamed %d then %d file lines, want %d", len(cold), len(warm), n)
	}
	twoChangers := ""
	for i, w := range warm {
		c := cold[i]
		if w.Name != c.Name || w.Changed != c.Changed || w.Diff != c.Diff || w.Error != c.Error {
			t.Errorf("%s: warm line differs from cold\nwarm: %+v\ncold: %+v", c.Name, w, c)
		}
		if w.Diff != want[w.Name] {
			t.Errorf("%s: sweep diff differs from a run without a store\ngot:\n%s\nwant:\n%s", w.Name, w.Diff, want[w.Name])
		}
		changers := 0
		for _, p := range w.Patches {
			if p.Changed {
				changers++
			}
		}
		if changers == 2 && twoChangers == "" {
			twoChangers = w.Name
		}
	}
	if twoChangers == "" {
		t.Fatal("no file was changed by both members: the test exercises nothing")
	}

	// Check sweeps over the warm session read nothing and stream what a
	// cold session's check sweep streams.
	before := filesRead(t, ts.URL)
	_, _, first := postCheck(t, ts.URL+"/v1/sessions/two/check")
	_, sum, second := postCheck(t, ts.URL+"/v1/sessions/two/check")
	if got := filesRead(t, ts.URL) - before; got != 0 {
		t.Errorf("warm check sweeps read %d files, want 0", got)
	}
	if sum.Findings == 0 {
		t.Error("check sweep reported no findings: the test exercises nothing")
	}
	_, _, fresh := postCheck(t, newComposedServer(t, root).URL+"/v1/sessions/two/check")
	for _, lines := range [][]string{second, fresh} {
		if len(lines) != len(first) {
			t.Fatalf("check streams have %d and %d lines", len(first), len(lines))
		}
		for i := range first[:len(first)-1] { // the summary carries timings
			if lines[i] != first[i] {
				t.Errorf("check line %d differs:\n%s\n%s", i, lines[i], first[i])
			}
		}
	}

	// A repeated apply of a file both members change reads nothing either.
	rel, err := filepath.Rel(root, twoChangers)
	if err != nil {
		t.Fatal(err)
	}
	before = filesRead(t, ts.URL)
	for round := 0; round < 2; round++ {
		var resp ApplyResponse
		r, body := postJSON(t, ts.URL+"/v1/apply", ApplyRequest{Session: "two", File: rel})
		if r.StatusCode != 200 {
			t.Fatalf("apply: status %d: %s", r.StatusCode, body)
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Diff != want[twoChangers] {
			t.Errorf("apply round %d: diff differs from a run without a store\ngot:\n%s\nwant:\n%s", round, resp.Diff, want[twoChangers])
		}
	}
	if got := filesRead(t, ts.URL) - before; got != 0 {
		t.Errorf("warm applies read %d files, want 0", got)
	}
}
