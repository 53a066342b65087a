package telemetry

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
)

// Stream is the counted append-only output under every checkpoint-aware
// recording: the decision log, the lifecycle trace, the flight recording
// and the serving daemon's decisions.jsonl are encoders over it. It owns
// the writer, the (records, bytes) position and the first write error.
// Sync makes the position durable before a snapshot records it, Offset
// reads it, and TruncateTo cuts the output back to a recorded position —
// file and counters in one call — so a resumed run re-emits precisely
// the records the crash cut off.
//
// A preamble (format header) is written before the first record of a
// stream at offset (0,0) and never otherwise: a stream cut to a later
// offset keeps the one on disk, one cut to zero writes it again.
//
// A file (*os.File) is buffered here, fsynced by Sync and cut by
// TruncateTo; a *bytes.Buffer is cut in memory; any other writer only
// has its counters moved and stays the caller's to position and flush.
// Callers own the writer's lifetime: Flush before closing a file.
//
// Every method but Begin and End — the encoders' half, behind their own
// nil checks — does nothing on a nil *Stream.
type Stream struct {
	mu       sync.Mutex
	w        io.Writer     // where records go; bw when file-backed
	f        streamFile    // the writer, when it is a file
	bw       *bufio.Writer // buffers f
	preamble []byte
	preRecs  uint64 // records the preamble counts as
	buf      []byte // scratch the encoders build records in
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

// memWriter is an in-memory writer that can be cut (*bytes.Buffer).
type memWriter interface {
	Len() int
	Truncate(n int)
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
// must hand it to End.
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

// Err returns the first write error, if any.
func (s *Stream) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// TruncateTo cuts the output back to a checkpointed Offset and moves the
// counters there. An output shorter than the offset is refused and left
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
	} else if m, ok := s.w.(memWriter); ok {
		if int64(m.Len()) < bytes {
			return fmt.Errorf("telemetry: stream holds %d bytes, shorter than the resume offset %d", m.Len(), bytes)
		}
		m.Truncate(int(bytes))
	}
	s.records, s.bytes = records, bytes
	return nil
}
