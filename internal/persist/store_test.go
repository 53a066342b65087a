package persist

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// appendAll appends records to the store's live WAL under one fsync.
func appendAll(t *testing.T, s *Store, records ...string) {
	t.Helper()
	batch := make([][]byte, len(records))
	for i, r := range records {
		batch[i] = []byte(r)
	}
	if err := s.wal.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
}

// chainStrings flattens a recovered chain for comparison.
func chainStrings(chain [][][]byte) string {
	var files []string
	for _, records := range chain {
		var recs []string
		for _, r := range records {
			recs = append(recs, string(r))
		}
		files = append(files, strings.Join(recs, ","))
	}
	return strings.Join(files, " | ")
}

// TestStoreRecoversChain walks the generation protocol through every
// state a crash can leave it in — boundary crossed completely, WAL
// rotated but snapshot never published, snapshot published but its WAL
// never created, newest snapshot corrupt — and requires Recover to
// return the newest valid snapshot, every record after it in order, and
// a live WAL that continues the chain's last file.
func TestStoreRecoversChain(t *testing.T) {
	// build leaves: snap-1 | wal-1: a,b | snap-2 | wal-2: c,d | wal-3: e
	// (generation 3 rotated, not published).
	build := func(t *testing.T) string {
		dir := t.TempDir()
		s, err := OpenStore(dir, 3)
		if err != nil {
			t.Fatal(err)
		}
		if s.wal != nil || s.Gen() != 0 {
			t.Fatal("a fresh store has a live WAL")
		}
		for gen, records := range [][]string{{"a", "b"}, {"c", "d"}, {"e"}} {
			got, err := s.Rotate()
			if err != nil || got != uint64(gen+1) || s.Gen() != got {
				t.Fatalf("Rotate = %d, %v; want generation %d", got, err, gen+1)
			}
			if gen < 2 {
				if err := s.Publish(got, []byte(fmt.Sprintf("state-%d", got))); err != nil {
					t.Fatal(err)
				}
			}
			appendAll(t, s, records...)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, tc := range []struct {
		name      string
		damage    func(t *testing.T, dir string)
		wantGen   uint64
		wantChain string
		wantLive  uint64
	}{
		{"rotated, not published", func(*testing.T, string) {}, 2, "c,d | e", 3},
		{"newest snapshot corrupt", func(t *testing.T, dir string) {
			data, err := os.ReadFile(SnapshotPath(dir, 2))
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 1
			if err := os.WriteFile(SnapshotPath(dir, 2), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 1, "a,b | c,d | e", 3},
		{"published, WAL never created", func(t *testing.T, dir string) {
			if _, err := WriteSnapshot(dir, 3, []byte("state-3")); err != nil {
				t.Fatal(err)
			}
			os.Remove(WALPath(dir, 3))
		}, 3, "", 3},
		{"torn tail in the last file", func(t *testing.T, dir string) {
			f, err := os.OpenFile(WALPath(dir, 3), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString("deadbeef half a rec")
			f.Close()
		}, 2, "c,d | e", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t)
			tc.damage(t, dir)
			s, err := OpenStore(dir, 3)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := s.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rec.Gen != tc.wantGen || string(rec.Payload) != fmt.Sprintf("state-%d", tc.wantGen) {
				t.Fatalf("recovered generation %d payload %q, want %d", rec.Gen, rec.Payload, tc.wantGen)
			}
			if got := chainStrings(rec.Chain); got != tc.wantChain {
				t.Fatalf("chain = %q, want %q", got, tc.wantChain)
			}
			if s.Gen() != tc.wantLive {
				t.Fatalf("live generation %d, want %d", s.Gen(), tc.wantLive)
			}
			// The live WAL continues the last file after its valid prefix.
			appendAll(t, s, "f")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			records, _, err := ReplayWAL(WALPath(dir, tc.wantLive))
			if err != nil || len(records) == 0 || string(records[len(records)-1]) != "f" {
				t.Fatalf("live WAL after recovery: %q, %v", records, err)
			}
			if want := len(rec.Chain[len(rec.Chain)-1]) + 1; len(records) != want {
				t.Fatalf("live WAL holds %d records, want the %d recovered ones and the new one", len(records), want-1)
			}
		})
	}
}

// TestStoreVerifiesReplayedRecords: after Recover, Append and AppendBatch
// compare each record with the recovered chain, across its files, and
// write nothing until the chain has drained; a mismatch names the file,
// the position and both records, and consumes and writes nothing.
func TestStoreVerifiesReplayedRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for gen, records := range [][]string{{"a", "b"}, {"c"}} {
		if _, err := s.Rotate(); err != nil {
			t.Fatal(err)
		}
		if gen == 0 {
			if err := s.Publish(1, []byte("state-1")); err != nil {
				t.Fatal(err)
			}
		}
		appendAll(t, s, records...)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal2 := func() string {
		t.Helper()
		records, _, err := ReplayWAL(WALPath(dir, 2))
		if err != nil {
			t.Fatal(err)
		}
		return chainStrings([][][]byte{records})
	}

	if s, err = OpenStore(dir, 3); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch([][]byte{[]byte("a")}); err != nil || !s.Replaying() {
		t.Fatalf("verifying the first record: %v, replaying %v", err, s.Replaying())
	}
	if _, err := s.Rotate(); err == nil {
		t.Fatal("Rotate with recovered records left")
	}
	err = s.AppendBatch([][]byte{[]byte("b"), []byte("x")})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("a batch diverging at its second record: %v", err)
	}
	for _, want := range []string{WALPath(dir, 2), "record 1 ", "logged:      c", "re-executed: x"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("divergence error %q does not name %q", err, want)
		}
	}
	// Nothing was consumed: the batch verifies once it matches, and the
	// records past the chain's end are appended.
	if err := s.AppendBatch([][]byte{[]byte("b"), []byte("c"), []byte("d")}); err != nil || s.Replaying() {
		t.Fatalf("a batch spanning the chain's end: %v, replaying %v", err, s.Replaying())
	}
	if err := s.AppendBatch([][]byte{[]byte("e")}); err != nil {
		t.Fatal(err)
	}
	if err := s.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := wal2(); got != "c,d,e" {
		t.Fatalf("wal-2 after replay = %q, want the recovered record and the two appended", got)
	}
}

// TestStoreRecoverTouchesNothingItCannotUse: with no snapshot, or one in
// another format version, Recover reports it and leaves every file as it
// was — no WAL truncated, created or reopened.
func TestStoreRecoverTouchesNothingItCannotUse(t *testing.T) {
	dir := t.TempDir()
	wal := WALPath(dir, 1)
	if err := os.WriteFile(wal, []byte("not a wal line"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("no snapshot: got %v", err)
	}
	if err := os.WriteFile(SnapshotPath(dir, 1), []byte(`{"version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("other format: got %v", err)
	}
	if got, err := os.ReadFile(wal); err != nil || string(got) != "not a wal line" {
		t.Fatalf("wal changed: %q, %v", got, err)
	}
	if s.wal != nil {
		t.Fatal("a failed Recover left a live WAL")
	}
}

// TestStorePublishPrunes: Publish keeps the newest keep generations,
// snapshots and WALs alike.
func TestStorePublishPrunes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		gen, err := s.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Publish(gen, []byte("state")); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := "snap-000000003.ckpt snap-000000004.ckpt wal-000000003.jsonl wal-000000004.jsonl"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("directory after four generations at keep 2: %s", got)
	}
}

// TestStoreDurabilityOrder records every directory fsync and pins the
// two orderings recovery depends on: a WAL file's directory entry is
// durable before the store hands the file out for appends — the one
// Rotate creates and the one Recover reopens or creates alike — and a
// snapshot's entry is durable before Publish returns and before anything
// is pruned behind it.
func TestStoreDurabilityOrder(t *testing.T) {
	dir := t.TempDir()
	var events []string
	syncDir = func(d string) error {
		ents, _ := os.ReadDir(d)
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		events = append(events, strings.Join(names, " "))
		return fsyncDir(d)
	}
	defer func() { syncDir = fsyncDir }()
	expect := func(what string, want ...string) {
		t.Helper()
		if len(events) != len(want) {
			t.Fatalf("%s: %d directory fsyncs %q, want %d", what, len(events), events, len(want))
		}
		for i := range want {
			if events[i] != want[i] {
				t.Fatalf("%s: directory at fsync %d held %q, want %q", what, i, events[i], want[i])
			}
		}
		events = nil
	}

	s, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	expect("Rotate", "wal-000000001.jsonl")
	if err := s.Publish(gen, []byte("state-1")); err != nil {
		t.Fatal(err)
	}
	expect("Publish", "snap-000000001.ckpt wal-000000001.jsonl")
	appendAll(t, s, "a")
	if gen, err = s.Rotate(); err != nil {
		t.Fatal(err)
	}
	expect("second Rotate", "snap-000000001.ckpt wal-000000001.jsonl wal-000000002.jsonl")
	if err := s.Publish(gen, []byte("state-2")); err != nil {
		t.Fatal(err)
	}
	// Generation 1 is still there when snapshot 2's entry is fsynced:
	// pruning comes after.
	expect("second Publish", "snap-000000001.ckpt snap-000000002.ckpt wal-000000001.jsonl wal-000000002.jsonl")
	if _, err := os.Stat(SnapshotPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatal("generation 1 survived a publish at keep 1")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover over a snapshot whose WAL was never created makes the file
	// and its entry durable before returning it as the live WAL.
	os.Remove(WALPath(dir, 2))
	if s, err = OpenStore(dir, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	expect("Recover", "snap-000000002.ckpt wal-000000002.jsonl")
	if s.Gen() != 2 {
		t.Fatalf("live WAL after Recover is generation %d", s.Gen())
	}
}
