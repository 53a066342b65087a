package persist

import (
	"fmt"
	"os"
)

// Store is the generation manager both controllers checkpoint through:
// one directory of rolling generations, each a WAL of the records after
// a boundary and — once published — the snapshot taken at it (layout in
// checkpoint.go, protocol in DESIGN.md §12). It knows one recovery
// procedure and leaves to its caller what a recovered record means: the
// simulator verifies it against re-execution, the daemon re-commits it.
//
// A boundary is crossed in two steps, in either order: Rotate starts the
// next generation's WAL, Publish writes a generation's snapshot and
// prunes behind it. A crash between the two leaves a WAL without a
// snapshot or a snapshot without a WAL, and Recover reads both the same
// way: newest valid snapshot N, then every record in wal-N, wal-(N+1),
// … — the chain.
//
// Rotate, Live and Recover belong to the one goroutine that appends;
// Publish touches only the directory, so it may run on another while
// records keep landing in the rotated WAL.
type Store struct {
	dir  string
	keep int
	gen  uint64 // generation of the live WAL; 0 before the first Rotate
	wal  *WAL
}

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
// acknowledged into it cannot outlive its file. ErrNoSnapshot means
// there is nothing to recover from; like every error of the snapshot
// walk it comes back before any WAL is opened.
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
	return rec, nil
}

// Gen is the live WAL's generation: the last Rotate's, or after Recover
// the end of the chain.
func (s *Store) Gen() uint64 { return s.gen }

// Live is the WAL records are appended to, nil before the first Rotate
// of a fresh directory.
func (s *Store) Live() *WAL { return s.wal }

// Rotate closes the live WAL (flushed and fsynced) and creates the next
// generation's, its directory entry durable before Rotate returns. That
// WAL holds exactly the records after this boundary, whether or not the
// boundary's snapshot is ever published.
func (s *Store) Rotate() (gen uint64, err error) {
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
