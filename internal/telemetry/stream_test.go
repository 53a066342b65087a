package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestStreamModel drives a Stream through seeded sequences of append,
// Sync, Offset, TruncateTo and close-and-reopen against a plain
// byte-slice model, over an *os.File and over an in-memory memFile.
// After every step the counters equal the model's and the output is a
// prefix of the model's bytes while records sit in the buffer, all of
// them after anything that flushes; the preamble is in the output exactly
// once whenever there is output, however often the stream was cut to a
// non-zero offset or to zero; and a cut past the end is refused with the
// output untouched.
func TestStreamModel(t *testing.T) {
	preamble := []byte("#header\n")
	const preambleRecords = 2
	type mark struct {
		records uint64
		bytes   int64
	}
	for _, backing := range []string{"file", "memory"} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", backing, seed), func(t *testing.T) {
				rnd := rand.New(rand.NewSource(seed))
				path := filepath.Join(t.TempDir(), "out")
				var (
					mem  memFile
					file *os.File
					s    *Stream
				)
				// open (re)builds the stream over what the last one left,
				// positioned by TruncateTo like a resumed run's.
				open := func(at mark) {
					if s != nil {
						if err := s.Flush(); err != nil {
							t.Fatal(err)
						}
					}
					var w io.Writer = &mem
					mem.off = 0
					if backing == "file" {
						if file != nil {
							file.Close()
						}
						var err error
						if file, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
							t.Fatal(err)
						}
						w = file
					}
					s = NewStream(w, preamble, preambleRecords)
					if err := s.TruncateTo(at.records, at.bytes); err != nil {
						t.Fatal(err)
					}
				}
				output := func() []byte {
					if backing == "memory" {
						return mem.data
					}
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					return data
				}

				var (
					model   []byte
					records uint64
					marks   = []mark{{}} // offsets a checkpoint recorded; zero always is one
					next    int
				)
				open(mark{})
				defer func() { file.Close() }()
				for step := 0; step < 300; step++ {
					flushed := false
					switch op := rnd.Intn(10); {
					case op < 5: // append
						if records == 0 && len(model) == 0 {
							model = append(model, preamble...)
							records = preambleRecords
						}
						b, n := s.Begin()
						if n != records {
							t.Fatalf("step %d: Begin reports %d records, model has %d", step, n, records)
						}
						rec := fmt.Sprintf("record %d %s\n", next, bytes.Repeat([]byte{'x'}, rnd.Intn(200)))
						next++
						s.End(append(b, rec...))
						model = append(model, rec...)
						records++
					case op == 5: // sync
						if err := s.Sync(); err != nil {
							t.Fatal(err)
						}
						flushed = true
					case op == 6: // checkpoint: sync, then record the offset
						if err := s.Sync(); err != nil {
							t.Fatal(err)
						}
						r, b := s.Offset()
						marks = append(marks, mark{r, b})
						flushed = true
					case op < 9: // cut back to a recorded offset, in place or across a reopen
						at := marks[rnd.Intn(len(marks))]
						if op == 7 {
							open(at)
						} else if err := s.TruncateTo(at.records, at.bytes); err != nil {
							t.Fatal(err)
						}
						model, records = model[:at.bytes], at.records
						kept := marks[:0]
						for _, m := range marks {
							if m.bytes <= at.bytes {
								kept = append(kept, m)
							}
						}
						marks = kept
						flushed = true
					default: // a cut past the end is refused, nothing moves
						if err := s.Flush(); err != nil {
							t.Fatal(err)
						}
						if err := s.TruncateTo(records+1, int64(len(model))+1); err == nil {
							t.Fatalf("step %d: cut to %d bytes of a %d-byte output accepted", step, len(model)+1, len(model))
						}
						flushed = true
					}
					if r, b := s.Offset(); r != records || b != int64(len(model)) || r != s.Records() {
						t.Fatalf("step %d: offset (%d, %d), model (%d, %d)", step, r, b, records, len(model))
					}
					out := output()
					if flushed && !bytes.Equal(out, model) {
						t.Fatalf("step %d: output has %d bytes, model %d", step, len(out), len(model))
					}
					if !bytes.HasPrefix(model, out) {
						t.Fatalf("step %d: output is not a prefix of the model", step)
					}
					if want := min(len(out), 1); bytes.Count(out, preamble) != want {
						t.Fatalf("step %d: preamble appears %d times in %d bytes of output", step, bytes.Count(out, preamble), len(out))
					}
				}
				if err := s.Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// memFile is an in-memory streamFile, cut and positioned through the
// same path as an *os.File.
type memFile struct {
	data []byte
	off  int64
}

func (m *memFile) Write(p []byte) (int, error) {
	m.data = append(m.data, make([]byte, max(0, m.off+int64(len(p))-int64(len(m.data))))...)
	m.off += int64(copy(m.data[m.off:], p))
	return len(p), nil
}

func (m *memFile) Seek(off int64, whence int) (int64, error) {
	if whence != io.SeekStart {
		return 0, fmt.Errorf("memFile: whence %d", whence)
	}
	m.off = off
	return off, nil
}

func (m *memFile) Stat() (os.FileInfo, error) { return memInfo{size: int64(len(m.data))}, nil }
func (m *memFile) Sync() error                { return nil }
func (m *memFile) Truncate(n int64) error     { m.data = m.data[:n]; return nil }

// memInfo answers the two questions TruncateTo asks of a file.
type memInfo struct {
	os.FileInfo
	size int64
}

func (i memInfo) Name() string { return "memFile" }
func (i memInfo) Size() int64  { return i.size }

// TestStreamPlainWriterAndNil: a writer that can be neither synced nor
// cut only has its counters moved, and a nil stream absorbs everything.
func TestStreamPlainWriterAndNil(t *testing.T) {
	s := NewStream(io.Discard, []byte("h"), 0)
	b, _ := s.Begin()
	s.End(append(b, "abc"...))
	if r, n := s.Offset(); r != 1 || n != 4 {
		t.Fatalf("offset = (%d, %d), want (1, 4)", r, n)
	}
	if err := s.TruncateTo(7, 70); err != nil {
		t.Fatal(err)
	}
	if r, n := s.Offset(); r != 7 || n != 70 {
		t.Fatalf("offset after TruncateTo = (%d, %d), want (7, 70)", r, n)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	var nilStream *Stream
	if err := nilStream.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := nilStream.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := nilStream.TruncateTo(1, 1); err != nil {
		t.Fatal(err)
	}
	if r, n := nilStream.Offset(); r != 0 || n != 0 || nilStream.Records() != 0 || nilStream.Err() != nil {
		t.Fatal("nil stream is not inert")
	}
}

// failingWriter fails every write after the first n bytes.
type failingWriter struct{ room int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.room -= len(p); w.room < 0 {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

// TestStreamKeepsFirstError: appends never fail the caller; the first
// write error is kept and Sync reports it, so a checkpoint cannot record
// an offset the output does not hold.
func TestStreamKeepsFirstError(t *testing.T) {
	s := NewStream(&failingWriter{room: 8}, nil, 0)
	for i := 0; i < 4; i++ {
		b, _ := s.Begin()
		s.End(append(b, "12345"...))
	}
	if err := s.Err(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Err() = %v, want disk full", err)
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync after a failed write returned nil")
	}
	if r, n := s.Offset(); r != 4 || n != 20 {
		t.Fatalf("offset = (%d, %d), want (4, 20): counting continues past an error", r, n)
	}
}

// TestStreamSyncOnDevice: a stream over a device file (-decision-log
// /dev/null) syncs without error — there is nothing to make durable.
func TestStreamSyncOnDevice(t *testing.T) {
	f, err := os.OpenFile(os.DevNull, os.O_RDWR, 0)
	if err != nil {
		t.Skip(err)
	}
	defer f.Close()
	s := NewStream(f, nil, 0)
	b, _ := s.Begin()
	s.End(append(b, "record\n"...))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}
