package serve

import (
	"bufio"
	"errors"
	"net/http"
	"time"
)

const (
	// streamBuffer is how many bytes of a sweep's NDJSON a stream holds
	// before it writes them to the client.
	streamBuffer = 64 << 10
	// streamInterval bounds how long finished lines wait in the buffer
	// while the sweep goes on: the first file done this long or longer
	// after the last flush flushes.
	streamInterval = 100 * time.Millisecond
)

// stream writes a sweep's NDJSON response in blocks instead of one flush
// per file. Lines go out when streamBuffer bytes are buffered, after a file
// done streamInterval or more after the last flush, and at the end. A write
// or flush error is returned to the sweep's callback, so a client that has
// gone away stops the sweep at the next flush.
type stream struct {
	buf  *bufio.Writer
	rc   *http.ResponseController
	last time.Time // the last flush, or the stream's start
}

func newStream(w http.ResponseWriter) *stream {
	return &stream{buf: bufio.NewWriterSize(w, streamBuffer), rc: http.NewResponseController(w), last: time.Now()}
}

// Write buffers p; a full buffer goes to the ResponseWriter.
func (s *stream) Write(p []byte) (int, error) { return s.buf.Write(p) }

// fileDone ends one file's lines, flushing if the last flush was
// streamInterval or more ago.
func (s *stream) fileDone() error {
	if time.Since(s.last) < streamInterval {
		return nil
	}
	return s.flush()
}

// flush writes the buffer to the ResponseWriter, then flushes the
// response. A ResponseWriter that cannot flush delivers at its own pace.
// Handlers defer the last flush and drop its error: the sweep is over by
// then, and a failure only means the client has gone.
func (s *stream) flush() error {
	if err := s.buf.Flush(); err != nil {
		return err
	}
	s.last = time.Now()
	if err := s.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	return nil
}
