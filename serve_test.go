package sempatch

// Public-API and acceptance tests for the resident serving daemon: a warm
// sweep after editing k of N corpus files must parse exactly k files
// (pinned via cparse.Parses(), like TestCampaignParsesOnce), and its
// outputs must be byte-identical to a cold batch run over the same tree.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/cparse"
	"repro/internal/patchlib"
	"repro/internal/serve"
)

// writeServeCorpus materialises a parity-style corpus on disk: every
// fourth file calls the legacy API. Mtimes land an hour in the past so
// test edits are always visible to stat-based revalidation.
func writeServeCorpus(t *testing.T, n int) string {
	t.Helper()
	root := t.TempDir()
	past := time.Now().Add(-time.Hour)
	for i := 0; i < n; i++ {
		src := codegen.Mixed(codegen.Config{Funcs: 3 + i%3, StmtsPerFunc: 2, Seed: int64(i + 1)})
		if i%4 == 0 {
			src += fmt.Sprintf("\nvoid migrate_%d(int n)\n{\n\tlegacy_halo_exchange(n, %d);\n}\n", i, i)
		}
		path := filepath.Join(root, fmt.Sprintf("src%02d.c", i))
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, past, past); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func corpusPaths(t *testing.T, root string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".c" {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// sweep POSTs one /v1/sessions/{id}/run and decodes the NDJSON stream.
func sweep(t *testing.T, url string) (map[string]serve.RunLine, *serve.RunSummary) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	files := map[string]serve.RunLine{}
	var summary *serve.RunSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line serve.RunLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Error != "" && line.Name == "" {
			t.Fatalf("run failed: %s", line.Error)
		}
		if line.Summary != nil {
			summary = line.Summary
			continue
		}
		files[line.Name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if summary == nil {
		t.Fatal("no summary line")
	}
	return files, summary
}

// TestServeParity is the acceptance pin for the resident daemon: a warm
// POST /v1/sessions/{id}/run after editing k of N corpus files parses
// exactly k files, and its outputs are byte-identical to a cold batch run
// over the same tree.
func TestServeParity(t *testing.T) {
	const n, k = 12, 3
	root := writeServeCorpus(t, n)
	patch, err := ParsePatch("parity.cocci", parityPatch)
	if err != nil {
		t.Fatal(err)
	}

	server := NewServer(Options{Workers: 4})
	defer server.Close()
	if _, err := server.AddSession(SessionConfig{
		ID:      "par",
		Root:    root,
		Patches: []*Patch{patch},
		Options: Options{Workers: 4},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	runURL := ts.URL + "/v1/sessions/par/run"

	// Cold sweep warms the session; the next unchanged sweep replays all
	// results and parses nothing.
	if _, cold := sweep(t, runURL); cold.Files != n || cold.Errors != 0 {
		t.Fatalf("cold sweep: %+v", cold)
	}
	_, warm := sweep(t, runURL)
	if warm.Parsed != 0 || warm.Cached != n {
		t.Fatalf("warm sweep parsed=%d cached=%d, want 0/%d", warm.Parsed, warm.Cached, n)
	}

	// Edit k files — each gains a call the patch rewrites, so each must be
	// re-parsed; N-k stay untouched.
	for i, idx := range []int{1, 4, 7} {
		path := filepath.Join(root, fmt.Sprintf("src%02d.c", idx))
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src = append(src, []byte(fmt.Sprintf("\nvoid edited_%d(int n)\n{\n\tlegacy_halo_exchange(n, %d);\n}\n", i, 100+i))...)
		if err := os.WriteFile(path, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	before := cparse.Parses()
	edited, sum := sweep(t, runURL+"?output=1")
	if got := cparse.Parses() - before; got != k {
		t.Errorf("warm sweep after editing %d files parsed %d files, want exactly %d", k, got, k)
	}
	if sum.Parsed != k {
		t.Errorf("summary reports parsed=%d, want %d", sum.Parsed, k)
	}

	// Byte parity with a cold batch run over the same tree: diffs always,
	// outputs where the stream carries them; an elided output asserts the
	// file is unchanged, i.e. its on-disk content is the batch output.
	paths := corpusPaths(t, root)
	if len(paths) != n {
		t.Fatalf("corpus has %d files, want %d", len(paths), n)
	}
	_, err = NewCampaign([]*Patch{patch}, Options{Workers: 1}).ApplyAllPathsFunc(paths, func(fr CampaignFileResult) error {
		if fr.Err != nil {
			return fr.Err
		}
		line, ok := edited[fr.Name]
		if !ok {
			t.Errorf("%s missing from the streamed sweep", fr.Name)
			return nil
		}
		if line.Diff != fr.Diff {
			t.Errorf("%s: warm daemon diff differs from cold batch run", fr.Name)
		}
		if line.Output != nil {
			if *line.Output != fr.Output {
				t.Errorf("%s: warm daemon output differs from cold batch run", fr.Name)
			}
			return nil
		}
		// Elided output: the daemon proved the file unchanged without
		// reading it, so the on-disk text must be the batch output.
		if fr.Changed() {
			t.Errorf("%s: output elided but the batch run changed the file", fr.Name)
			return nil
		}
		disk, err := os.ReadFile(fr.Name)
		if err != nil {
			return err
		}
		if string(disk) != fr.Output {
			t.Errorf("%s: on-disk content is not the batch output", fr.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServeLibrary exercises the daemon as a plain library — no HTTP — the
// way an editor integration or build system would embed it.
func TestServeLibrary(t *testing.T) {
	root := writeServeCorpus(t, 8)
	patch, err := ParsePatch("parity.cocci", parityPatch)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(Options{})
	defer server.Close()
	sess, err := server.AddSession(SessionConfig{
		Root:    root,
		Patches: []*Patch{patch},
		Options: Options{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := server.Session("default"); !ok || got.ID() != "default" {
		t.Fatalf("default session lookup failed: %v %v", got, ok)
	}

	st, err := sess.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 8 || st.Changed != 2 {
		t.Fatalf("sweep stats: %+v", st)
	}
	warm, err := sess.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Parsed != 0 || warm.Cached != 8 {
		t.Errorf("warm library sweep parsed=%d cached=%d", warm.Parsed, warm.Cached)
	}

	fr, err := sess.ApplySnippet("s.c", "void f(int n)\n{\n\tlegacy_halo_exchange(n, 5);\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Changed() || !strings.Contains(fr.Output, "halo_exchange_v2(n, 5)") {
		t.Errorf("snippet apply: %+v", fr)
	}

	stats := sess.Stats()
	if stats.Runs != 2 || stats.Applies != 1 || stats.TrackedFiles != 8 {
		t.Errorf("session stats: %+v", stats)
	}
	sess.Invalidate()
	if sess.Stats().TrackedFiles != 0 {
		t.Error("invalidate did not clear the validation table")
	}

	// The second session id collides; the error is immediate.
	if _, err := server.AddSession(SessionConfig{Root: root, Patches: []*Patch{patch}}); err == nil {
		t.Error("duplicate session id must be rejected")
	}
}

// TestServeWarmL1Sweep pins a warm session over an L1 corpus where every
// file changes: at one worker and at one per CPU, a warm sweep replays
// every file's result, diff hunks included, so it changes all 48 files
// while it parses and reads none of them, and a warm single-file apply
// changes its file.
func TestServeWarmL1Sweep(t *testing.T) {
	e, ok := patchlib.ByID("L1")
	if !ok {
		t.Fatal("experiment L1 missing")
	}
	p, err := ParsePatch("l1.cocci", e.Patch)
	if err != nil {
		t.Fatal(err)
	}
	const nfiles = 48
	root := t.TempDir()
	for i := 0; i < nfiles; i++ {
		src := codegen.OpenMP(codegen.Config{Funcs: 8 + i%5, StmtsPerFunc: 3, Seed: int64(i + 1)})
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("src%02d.c", i)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []int{1, runtime.NumCPU()} {
		server := NewServer(Options{Workers: w})
		defer server.Close()
		sess, err := server.AddSession(SessionConfig{Root: root, Patches: []*Patch{p}, Options: Options{Workers: w}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(nil); err != nil {
			t.Fatal(err)
		}
		st, err := sess.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Files != nfiles || st.Changed != nfiles || st.Parsed != 0 || st.Read != 0 {
			t.Errorf("workers=%d: warm sweep changed %d of %d files, parsed %d, read %d; want %d, 0, 0",
				w, st.Changed, st.Files, st.Parsed, st.Read, nfiles)
		}
		fr, err := sess.ApplyPath("src00.c")
		if err != nil {
			t.Fatal(err)
		}
		if !fr.Changed() {
			t.Errorf("workers=%d: a warm apply did not change its file", w)
		}
	}
}

// TestServeCheckCLIParity is the check-mode acceptance pin: the NDJSON
// finding lines streamed by POST /v1/sessions/{id}/check must be
// byte-identical to what `gocci --check --format json` prints over the
// same tree with the same patch, also when the stream is larger than the
// daemon's write buffer and so reaches the client in several blocks.
func TestServeCheckCLIParity(t *testing.T) {
	const checkParityPatch = `// gocci:check id=legacy-call severity=warning msg="legacy call with n"
@legacycall@
expression n, tag;
@@
* legacy_halo_exchange(n, tag);
`
	patchPath := filepath.Join(t.TempDir(), "check.cocci")
	if err := os.WriteFile(patchPath, []byte(checkParityPatch), 0o644); err != nil {
		t.Fatal(err)
	}
	patch, err := ParsePatch("check.cocci", checkParityPatch)
	if err != nil {
		t.Fatal(err)
	}
	bin := buildTool(t, "gocci")

	for _, tc := range []struct {
		name    string
		root    string
		minSize int // the least size of the finding lines
	}{
		{"small", writeServeCorpus(t, 8), 1},
		{"past the stream buffer", writeCallCorpus(t, 48, 8), 64 << 10},
	} {
		cmd := exec.Command(bin, "--check", "--format", "json", "-r", tc.root, "--sp-file", patchPath)
		cliOut, err := cmd.Output()
		// Findings at warning severity with the default --fail-on error
		// keep the exit status 0; any other failure is real.
		if err != nil {
			t.Fatalf("%s: cli check: %v", tc.name, err)
		}
		if len(cliOut) < tc.minSize {
			t.Fatalf("%s: cli check printed %d bytes of findings, want %d or more", tc.name, len(cliOut), tc.minSize)
		}

		server := NewServer(Options{Workers: 2})
		defer server.Close()
		if _, err := server.AddSession(SessionConfig{
			ID:      "chk",
			Root:    tc.root,
			Patches: []*Patch{patch},
			Options: Options{Workers: 2},
		}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.Handler())
		defer ts.Close()

		resp, err := http.Post(ts.URL+"/v1/sessions/chk/check", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: check: status %d: %s", tc.name, resp.StatusCode, body)
		}
		// Drop the trailing summary line; everything before it must match
		// the CLI stream byte for byte.
		idx := strings.LastIndexByte(strings.TrimSuffix(string(body), "\n"), '\n')
		if idx < 0 {
			t.Fatalf("%s: check stream has no finding lines: %s", tc.name, body)
		}
		serveFindings := string(body)[:idx+1]
		if serveFindings != string(cliOut) {
			t.Errorf("%s: serve findings diverge from CLI findings:\n--- cli\n%s--- serve\n%s", tc.name, cliOut, serveFindings)
		}
	}
}

// writeCallCorpus writes n files that each call the legacy API calls
// times, so every file holds calls check findings.
func writeCallCorpus(t *testing.T, n, calls int) string {
	t.Helper()
	root := t.TempDir()
	for i := 0; i < n; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, "void migrate_%d(int n)\n{\n", i)
		for c := 0; c < calls; c++ {
			fmt.Fprintf(&b, "\tlegacy_halo_exchange(n, %d);\n", c)
		}
		b.WriteString("}\n")
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("src%02d.c", i)), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}
