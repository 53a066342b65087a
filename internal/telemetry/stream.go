package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
)

// Stream is the counted append-only output under every recording: the
// decision log, the lifecycle trace, the serving daemon's
// decisions.jsonl and the WAL are encoders over it. It owns the writer,
// the (records, bytes) position and the first error. A record is one
// line: an encoder builds it between Begin and End, or hands EndJSON a
// value for encoding/json to write.
// Sync makes the position durable before a snapshot records it, Offset
// reads it, and TruncateTo cuts the output back to a recorded position —
// file and counters in one call — so a restored daemon re-emits
// precisely the records the crash cut off.
//
// A preamble (format header) is written before the first record of a
// stream at offset (0,0) and never otherwise: a stream cut to a later
// offset keeps the one on disk, one cut to zero writes it again.
//
// A file (*os.File) is buffered here, fsynced by Sync and cut by
// TruncateTo; any other writer only has its counters moved and stays
// the caller's to position and flush.
// Callers own the writer's lifetime: Flush before closing a file.
//
// Every method but Begin, End and EndJSON — the encoders' half, behind
// their own nil checks — does nothing on a nil *Stream.
type Stream struct {
	mu       sync.Mutex
	w        io.Writer     // where records go; bw when file-backed
	f        streamFile    // the writer, when it is a file
	bw       *bufio.Writer // buffers f
	preamble []byte
	preRecs  uint64        // records the preamble counts as
	buf      []byte        // scratch the encoders build records in
	enc      *json.Encoder // EndJSON's encoder, writing into buf
	records  uint64
	bytes    int64
	err      error
}

// streamFile is what a Stream needs of a file: *os.File, or a test's
// wrapper recording the order of writes and fsyncs.
type streamFile interface {
	io.Writer
	io.Seeker
	Stat() (os.FileInfo, error)
	Sync() error
	Truncate(size int64) error
}

// NewStream counts records appended to w. preamble, when non-empty, is
// the format header and counts as preambleRecords records.
func NewStream(w io.Writer, preamble []byte, preambleRecords uint64) *Stream {
	s := &Stream{w: w, preamble: preamble, preRecs: preambleRecords}
	if f, ok := w.(streamFile); ok {
		s.f, s.bw = f, bufio.NewWriter(f)
		s.w = s.bw
	}
	return s
}

// Begin locks the stream for one record and returns the scratch buffer,
// emptied, and the number of records so far (a stream at (0,0) writes
// its preamble first). The caller builds the record in the buffer and
// must hand it to End, or to EndJSON to encode a value after it.
func (s *Stream) Begin() (b []byte, records uint64) {
	s.mu.Lock()
	if s.records == 0 && s.bytes == 0 && len(s.preamble) > 0 {
		s.write(s.preamble)
		s.records = s.preRecs
	}
	return s.buf[:0], s.records
}

// End appends the record, counts it and unlocks the stream. Write errors
// are kept for Err and Sync, not returned: recording never fails the
// recorded operation.
func (s *Stream) End(b []byte) {
	s.buf = b // retain grown capacity for the next record
	s.records++
	s.write(b)
	s.mu.Unlock()
}

// EndJSON ends the record Begin opened with v as encoding/json encodes
// it, HTML characters unescaped, followed by term. A value encoding/json
// refuses — a NaN or an infinite float — writes nothing: its error,
// naming the record, becomes the stream's first error and the record
// is not counted.
func (s *Stream) EndJSON(b []byte, v any, term string) {
	if s.enc == nil {
		s.enc = json.NewEncoder((*lineWriter)(&s.buf))
		s.enc.SetEscapeHTML(false)
	}
	s.buf = b
	if err := s.enc.Encode(v); err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("telemetry: record %d (%T) not written: %w", s.records, v, err)
		}
		s.mu.Unlock()
		return
	}
	s.End(append(s.buf[:len(s.buf)-1], term...)) // Encode ends its value with '\n'
}

// lineWriter appends what an encoder writes to the record being built.
type lineWriter []byte

func (w *lineWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// write appends b, tracking bytes. Callers hold s.mu.
func (s *Stream) write(b []byte) {
	s.bytes += int64(len(b))
	if _, err := s.w.Write(b); err != nil && s.err == nil {
		s.err = err
	}
}

// flush hands buffered bytes to the file and returns the stream's first
// error. Callers hold s.mu.
func (s *Stream) flush() error {
	if s.bw != nil {
		if err := s.bw.Flush(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// Flush writes buffered records through to the file, so its readers see
// every record appended so far.
func (s *Stream) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flush()
}

// Sync makes every record appended so far durable: flush, then fsync —
// outside the lock, so appends continue meanwhile. After a nil return
// the Offset read before the call is on disk.
func (s *Stream) Sync() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	err := s.flush()
	s.mu.Unlock()
	if err != nil || s.f == nil {
		return err
	}
	// EINVAL is fsync's answer for a pipe or device (-decision-log
	// /dev/stdout): nothing there can be made durable, or lost.
	if err := s.f.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}

// Records returns the number of records appended so far.
func (s *Stream) Records() uint64 {
	records, _ := s.Offset()
	return records
}

// Offset returns the position, records and bytes, for a checkpoint to
// record (after Sync) and TruncateTo to return to.
func (s *Stream) Offset() (records uint64, bytes int64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records, s.bytes
}

// Err returns the first error, if any: a write error, or a record
// EndJSON could not encode.
func (s *Stream) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// TruncateTo cuts a file back to a checkpointed Offset and moves the
// counters there. A file shorter than the offset is refused and left
// as it is: extending it would zero-fill the gap instead of continuing
// the recording.
func (s *Stream) TruncateTo(records uint64, bytes int64) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if err := s.flush(); err != nil {
			return err
		}
		st, err := s.f.Stat()
		if err != nil {
			return err
		}
		if st.Size() < bytes {
			return fmt.Errorf("telemetry: %s has %d bytes, shorter than the resume offset %d", st.Name(), st.Size(), bytes)
		}
		if err := s.f.Truncate(bytes); err != nil {
			return err
		}
		if _, err := s.f.Seek(bytes, io.SeekStart); err != nil {
			return err
		}
	}
	s.records, s.bytes = records, bytes
	return nil
}
