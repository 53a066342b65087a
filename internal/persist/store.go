package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
)

// Store is the generation manager the serving daemon checkpoints through:
// one directory of rolling generations, each a WAL of the records after
// a boundary and — once published — the snapshot taken at it (layout in
// checkpoint.go, protocol in DESIGN.md §12). It also owns the one
// recovery rule: the caller restores the snapshot and re-executes what
// came after it, and every record the re-execution appends is verified
// byte for byte against the recovered chain until the chain drains.
// Only then do appends reach the live WAL.
//
// A boundary is crossed in two steps, in either order: Rotate starts the
// next generation's WAL, Publish writes a generation's snapshot and
// prunes behind it. A crash between the two leaves a WAL without a
// snapshot or a snapshot without a WAL, and Recover reads both the same
// way: newest valid snapshot N, then every record in wal-N, wal-(N+1),
// … — the chain.
//
// Rotate, AppendBatch and Recover belong to the one goroutine that
// appends; Publish touches only the directory, so it may run on another
// while records keep landing in the rotated WAL.
type Store struct {
	dir  string
	keep int
	gen  uint64 // generation of the live WAL; 0 before the first Rotate
	wal  *WAL

	// replay is the part of the recovered chain not yet re-executed,
	// one list per file; its head file is generation replayGen, of which
	// replayPos records are already verified.
	replay    [][][]byte
	replayGen uint64
	replayPos int
}

// ErrDiverged reports a re-executed record that differs from the one the
// recovered WAL holds at its position.
var ErrDiverged = errors.New("persist: re-execution diverged from the recovered WAL")

// OpenStore prepares dir (created if missing) to hold generations, of
// which Publish retains the newest keep.
func OpenStore(dir string, keep int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: store %s: %w", dir, err)
	}
	return &Store{dir: dir, keep: keep}, nil
}

// Recovered is what a directory held: the newest valid snapshot and the
// WAL chain after it.
type Recovered struct {
	Payload []byte // snapshot Gen's payload
	Gen     uint64
	// Chain holds the valid records of wal-Gen, wal-(Gen+1), … in
	// order, one list per file: more than one after a death between
	// Rotate and Publish, or a fallback over a corrupt newest snapshot.
	Chain [][][]byte
}

// Recover loads the newest valid snapshot (LatestSnapshot's rules),
// reads the WAL chain after it, and reopens the chain's last file as the
// live WAL after its valid prefix: a torn tail is cut, and the file's
// directory entry is fsynced before Recover returns, so a record
// acknowledged into it cannot outlive its file. The chain becomes the
// replay queue Append and AppendBatch verify against. ErrNoSnapshot
// means there is nothing to recover from; like every error of the
// snapshot walk it comes back before any WAL is opened.
func (s *Store) Recover() (*Recovered, error) {
	payload, gen, err := LatestSnapshot(s.dir)
	if err != nil {
		return nil, err
	}
	rec := &Recovered{Payload: payload, Gen: gen}
	var validLen int64
	for g := gen; ; g++ {
		path := WALPath(s.dir, g)
		if g > gen {
			if _, err := os.Stat(path); os.IsNotExist(err) {
				break
			} else if err != nil {
				return nil, fmt.Errorf("persist: wal chain: %w", err)
			}
		}
		records, n, err := ReplayWAL(path)
		if err != nil {
			return nil, err
		}
		rec.Chain = append(rec.Chain, records)
		s.gen, validLen = g, n
	}
	if s.wal, err = OpenWALAppend(WALPath(s.dir, s.gen), validLen); err != nil {
		return nil, err
	}
	s.replay, s.replayGen, s.replayPos = rec.Chain, gen, 0
	return rec, nil
}

// Replaying reports whether recovered records remain to be re-executed.
func (s *Store) Replaying() bool {
	for len(s.replay) > 0 && s.replayPos == len(s.replay[0]) {
		s.replay, s.replayGen, s.replayPos = s.replay[1:], s.replayGen+1, 0
	}
	return len(s.replay) > 0
}

// verify consumes the leading payloads the replay queue still covers,
// each of which must equal the queue's head, and returns how many. A
// mismatch is ErrDiverged, naming the generation, the position and both
// records, and consumes nothing.
func (s *Store) verify(payloads [][]byte) (int, error) {
	replay, gen, pos := s.replay, s.replayGen, s.replayPos
	for n, p := range payloads {
		if !s.Replaying() {
			return n, nil
		}
		if logged := s.replay[0][s.replayPos]; !bytes.Equal(logged, p) {
			err := fmt.Errorf("%w: record %d of %s\n  logged:      %s\n  re-executed: %s",
				ErrDiverged, s.replayPos+1, WALPath(s.dir, s.replayGen), logged, p)
			s.replay, s.replayGen, s.replayPos = replay, gen, pos
			return 0, err
		}
		s.replayPos++
	}
	return len(payloads), nil
}

// AppendBatch verifies the records the replay queue still covers and
// appends the rest to the live WAL under one fsync (WAL.AppendBatch).
// On a mismatch nothing is written.
func (s *Store) AppendBatch(payloads [][]byte) error {
	n, err := s.verify(payloads)
	if err != nil || (n > 0 && n == len(payloads)) {
		return err
	}
	return s.wal.AppendBatch(payloads[n:])
}

// Gen is the live WAL's generation: the last Rotate's, or after Recover
// the end of the chain.
func (s *Store) Gen() uint64 { return s.gen }

// Rotate closes the live WAL (flushed and fsynced) and creates the next
// generation's, its directory entry durable before Rotate returns. That
// WAL holds exactly the records after this boundary, whether or not the
// boundary's snapshot is ever published. It refuses while recovered
// records remain to be re-executed: the chain would not describe the
// boundary.
func (s *Store) Rotate() (gen uint64, err error) {
	if s.Replaying() {
		return 0, errors.New("persist: rotate before the recovered WAL chain was re-executed")
	}
	if err := s.Close(); err != nil {
		return 0, err
	}
	if s.wal, err = CreateWAL(WALPath(s.dir, s.gen+1)); err != nil {
		return 0, err
	}
	s.gen++
	return s.gen, nil
}

// Publish makes generation gen's snapshot durable (WriteSnapshot) and
// then deletes the generations older than the newest keep.
func (s *Store) Publish(gen uint64, payload []byte) error {
	if _, err := WriteSnapshot(s.dir, gen, payload); err != nil {
		return err
	}
	if keep := uint64(s.keep); gen > keep {
		return PruneCheckpoints(s.dir, gen-keep+1)
	}
	return nil
}

// Close flushes, fsyncs and closes the live WAL, if there is one.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	if err != nil {
		return fmt.Errorf("persist: wal close: %w", err)
	}
	return nil
}
