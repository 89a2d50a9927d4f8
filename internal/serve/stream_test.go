package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// flushRecorder counts the flushes a stream asks of its ResponseWriter.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// failingWriter is a client that has gone away: every write fails.
type failingWriter struct {
	header http.Header
	writes int
}

var errGone = errors.New("client gone")

func (f *failingWriter) Header() http.Header { return f.header }
func (f *failingWriter) WriteHeader(int)     {}
func (f *failingWriter) Write([]byte) (int, error) {
	f.writes++
	return 0, errGone
}

func TestStreamFlushesByInterval(t *testing.T) {
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	s := newStream(rec)
	line := func(i int) {
		t.Helper()
		if _, err := fmt.Fprintf(s, "{\"n\":%d}\n", i); err != nil {
			t.Fatal(err)
		}
		if err := s.fileDone(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		line(i)
	}
	if rec.Body.Len() != 0 || rec.flushes != 0 {
		t.Fatalf("lines inside the interval reached the client: %d bytes, %d flushes", rec.Body.Len(), rec.flushes)
	}
	// The next file is done an interval after the last flush.
	s.last = s.last.Add(-streamInterval)
	line(3)
	if got := strings.Count(rec.Body.String(), "\n"); got != 4 || rec.flushes != 1 {
		t.Fatalf("a line after the interval: %d lines out, %d flushes; want 4 and 1", got, rec.flushes)
	}
	line(4)
	if rec.flushes != 1 {
		t.Fatalf("a line inside the new interval flushed (%d flushes)", rec.flushes)
	}
	if err := s.flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(rec.Body.String(), "\n"); got != 5 || rec.flushes != 2 {
		t.Fatalf("end of stream: %d lines out, %d flushes; want 5 and 2", got, rec.flushes)
	}

	// A full buffer goes out without a flush.
	rec = &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	s = newStream(rec)
	big := strings.Repeat("x", streamBuffer/4) + "\n"
	for i := 0; i < 5; i++ {
		s.Write([]byte(big))
	}
	if rec.Body.Len() != streamBuffer || rec.flushes != 0 {
		t.Fatalf("a full buffer: %d bytes out, %d flushes; want %d and 0", rec.Body.Len(), rec.flushes, streamBuffer)
	}
}

func TestStreamReturnsWriteErrors(t *testing.T) {
	fw := &failingWriter{header: http.Header{}}
	s := newStream(fw)
	if _, err := s.Write([]byte("{}\n")); err != nil {
		t.Fatalf("a buffered write failed: %v", err)
	}
	if err := s.fileDone(); err != nil {
		t.Fatalf("a line inside the interval touched the client: %v", err)
	}
	s.last = s.last.Add(-streamInterval)
	if err := s.fileDone(); !errors.Is(err, errGone) {
		t.Fatalf("flush to a failing client returned %v", err)
	}
	if _, err := s.Write([]byte("{}\n")); !errors.Is(err, errGone) {
		t.Fatalf("a write after the failure returned %v", err)
	}
}

// A client that has gone away stops the sweep at the stream's next write
// to it, here the first full buffer.
func TestRunStopsOnWriteError(t *testing.T) {
	const n = 60
	root := t.TempDir()
	body := strings.Repeat("\tcompute(n);\n", 400) // 5 KiB per file
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("void work_%d(int n)\n{\n%s}\n", i, body)
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("f%02d.c", i)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, _ := newTestServer(t, root)
	s, _ := srv.Session("hpc")
	fw := &failingWriter{header: http.Header{}}
	req := httptest.NewRequest("POST", "/v1/sessions/hpc/run?output=1", nil)
	srv.Handler().ServeHTTP(fw, req)
	if fw.writes == 0 {
		t.Fatal("the sweep never wrote to the client")
	}
	if got := s.Stats().FilesProcessed; got >= n {
		t.Errorf("the sweep processed %d of %d files after its client failed", got, n)
	}
}

// The stream's block boundaries fall anywhere, mid-line included; a client
// reading lines sees the same stream as before.
func TestRunStreamPastBuffer(t *testing.T) {
	const n = 300
	root := writeCorpus(t, n)
	_, ts := newTestServer(t, root)
	for _, round := range []string{"cold", "warm"} {
		resp, err := http.Post(ts.URL+"/v1/sessions/hpc/run", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		lines, size := readRunLines(t, resp)
		if size <= streamBuffer {
			t.Fatalf("%s: the stream is %d bytes, not past the %d-byte buffer", round, size, streamBuffer)
		}
		if len(lines) != n+1 {
			t.Fatalf("%s: %d lines, want %d files + summary", round, len(lines), n)
		}
		for i, line := range lines[:n] {
			if line.Summary != nil || line.Name == "" {
				t.Fatalf("%s: line %d is not a file line: %+v", round, i, line)
			}
			if i > 0 && lines[i-1].Name >= line.Name {
				t.Errorf("%s: %s streamed after %s", round, line.Name, lines[i-1].Name)
			}
		}
		sum := lines[n].Summary
		if sum == nil || sum.Files != n || sum.Changed != (n+2)/3 {
			t.Errorf("%s: summary %+v", round, sum)
		}
	}
}

// readRunLines reads a /run response whole and decodes every line of it,
// returning the lines and the stream's size in bytes.
func readRunLines(t *testing.T, resp *http.Response) ([]RunLine, int) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !bytes.HasSuffix(body, []byte("\n")) {
		t.Fatalf("run: status %d, body ends %q", resp.StatusCode, body[max(0, len(body)-40):])
	}
	var lines []RunLine
	for _, raw := range bytes.SplitAfter(body[:len(body)-1], []byte("\n")) {
		var line RunLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", raw, err)
		}
		lines = append(lines, line)
	}
	return lines, len(body)
}
