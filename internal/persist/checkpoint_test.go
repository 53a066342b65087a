package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomicReplacesWholeFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("first version, longer"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("got %q, want %q", got, "second")
	}
	// No temp debris left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}

func TestSnapshotEnvelopeRoundTrip(t *testing.T) {
	payload := []byte(`{"hello":"world","n":42}`)
	data, err := EncodeSnapshot(7, payload)
	if err != nil {
		t.Fatal(err)
	}
	seq, got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: seq=%d payload=%s", seq, got)
	}
}

func TestDecodeSnapshotDetectsCorruption(t *testing.T) {
	data, err := EncodeSnapshot(1, []byte(`{"a":1}`))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit anywhere — magic, length, checksum, payload: it must
	// be caught as corruption, in the version word as skew. The checksum
	// covers the payload only; a flipped seq decodes as another seq,
	// which no longer matches the file's name (LatestSnapshot checks).
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x04
		seq, _, err := DecodeSnapshot(bad)
		var ok bool
		switch {
		case i < len(snapMagic):
			ok = errors.Is(err, ErrSnapshotCorrupt)
		case i < len(snapMagic)+4:
			ok = errors.Is(err, ErrSnapshotVersion)
		case i < len(snapMagic)+4+8:
			ok = err == nil && seq != 1
		default:
			ok = errors.Is(err, ErrSnapshotCorrupt)
		}
		if !ok {
			t.Fatalf("bit flip in byte %d: got seq %d, %v", i, seq, err)
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(SnapshotPath(dir, 5), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LatestSnapshot(dir); !errors.Is(err, ErrNoSnapshot) || !strings.Contains(err.Error(), "does not match file name") {
		t.Fatalf("snapshot 1 under generation 5's name: got %v", err)
	}
	for n := 0; n < len(data); n++ {
		if _, _, err := DecodeSnapshot(data[:n]); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncated to %d bytes: got %v", n, err)
		}
	}
	if _, _, err := DecodeSnapshot(append(append([]byte(nil), data...), 0)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("trailing byte: got %v", err)
	}
}

// TestEncodeSnapshotRejectsInvalidPayload: the envelope no longer reads
// its payload, so the one payload it can call invalid is the empty one;
// bytes that are not JSON travel like any others.
func TestEncodeSnapshotRejectsInvalidPayload(t *testing.T) {
	if _, err := EncodeSnapshot(1, nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := WriteSnapshot(t.TempDir(), 1, nil); err == nil {
		t.Error("empty payload written")
	}
	for _, payload := range []string{"not json", "\x00\xff{", `{"a":`} {
		data, err := EncodeSnapshot(1, []byte(payload))
		if err != nil {
			t.Fatalf("opaque payload %q rejected: %v", payload, err)
		}
		if _, got, err := DecodeSnapshot(data); err != nil || string(got) != payload {
			t.Errorf("opaque payload %q came back as %q, %v", payload, got, err)
		}
	}
}

func TestFramePayloadRoundTrip(t *testing.T) {
	for _, c := range []struct{ ctl, blob string }{
		{`{"seed":7}`, "GSPC\x02\x00\x00\x00rest"},
		{`{"seed":7}`, ""},
		{"", "blob only"},
	} {
		ctl, blob, err := SplitPayload(FramePayload([]byte(c.ctl), []byte(c.blob)))
		if err != nil || string(ctl) != c.ctl || string(blob) != c.blob {
			t.Errorf("frame(%q, %q) split into %q, %q, %v", c.ctl, c.blob, ctl, blob, err)
		}
	}
	for _, bad := range [][]byte{nil, {1, 0}, {5, 0, 0, 0, 'a', 'b'}, {0xff, 0xff, 0xff, 0xff}} {
		if _, _, err := SplitPayload(bad); err == nil {
			t.Errorf("payload %v split without error", bad)
		}
	}
}

// format1Snapshot is a snapshot file as builds before the binary
// envelope wrote it.
const format1Snapshot = `{"version":1,"seq":2,"sha256":"015abd7f5cc57a2dd94b7590f04ad8084273905ee33ec5cebeae62276a97f862","payload":{"a":1}}`

// TestLatestSnapshotRefusesOtherFormatVersions: a snapshot in a format
// this build does not read is not corruption. Nothing is deleted — not
// the snapshot, not older generations, not a corrupt file passed on the
// way — and the error names both versions.
func TestLatestSnapshotRefusesOtherFormatVersions(t *testing.T) {
	newer, err := EncodeSnapshot(2, []byte(`{"a":1}`))
	if err != nil {
		t.Fatal(err)
	}
	newer[len(snapMagic)] = 9
	for _, c := range []struct {
		name string
		file []byte
		want string
	}{
		{"older", []byte(format1Snapshot), "file is format 1 (JSON envelope), this build reads format 2"},
		{"newer", newer, "file is format 9, this build reads format 2"},
	} {
		dir := t.TempDir()
		files := map[string][]byte{
			SnapshotPath(dir, 1): []byte(format1Snapshot),
			SnapshotPath(dir, 2): c.file,
			SnapshotPath(dir, 3): []byte("garbage a crash left"),
			WALPath(dir, 2):      []byte("acked records"),
		}
		for path, data := range files {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err := LatestSnapshot(dir)
		if !errors.Is(err, ErrSnapshotVersion) || errors.Is(err, ErrNoSnapshot) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: got %v, want ErrSnapshotVersion saying %q", c.name, err, c.want)
		}
		for path, data := range files {
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				t.Errorf("%s: %s changed (%v)", c.name, filepath.Base(path), err)
			}
		}
	}
	// A readable generation newer than the foreign one is served: the
	// walk never reaches what it cannot read.
	dir := t.TempDir()
	os.WriteFile(SnapshotPath(dir, 1), []byte(format1Snapshot), 0o644)
	if _, err := WriteSnapshot(dir, 2, []byte(`{"gen":2}`)); err != nil {
		t.Fatal(err)
	}
	if payload, seq, err := LatestSnapshot(dir); err != nil || seq != 2 || string(payload) != `{"gen":2}` {
		t.Fatalf("mixed dir: seq=%d payload=%s err=%v", seq, payload, err)
	}
}

func TestLatestSnapshotFallsBackOverCorruptGenerations(t *testing.T) {
	dir := t.TempDir()
	for seq := uint64(1); seq <= 3; seq++ {
		payload := []byte(fmt.Sprintf(`{"gen":%d}`, seq))
		if _, err := WriteSnapshot(dir, seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Give generation 3 a WAL, then corrupt its snapshot: fallback must
	// discard the snapshot and leave the WAL to the caller (the serving
	// daemon's holds acknowledged records).
	walPath := WALPath(dir, 3)
	if err := os.WriteFile(walPath, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap3 := SnapshotPath(dir, 3)
	data, err := os.ReadFile(snap3)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(snap3, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Plus leftover debris a crash mid-write could leave: a temp file
	// and a foreign name, both ignored.
	os.WriteFile(filepath.Join(dir, "snap-000000004.ckpt.tmp123"), []byte("partial"), 0o644)
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644)

	payload, seq, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || string(payload) != `{"gen":2}` {
		t.Fatalf("fell back to seq=%d payload=%s, want generation 2", seq, payload)
	}
	if _, err := os.Stat(snap3); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot generation not removed")
	}
	if _, err := os.Stat(walPath); err != nil {
		t.Fatalf("corrupt generation's WAL must survive the fallback: %v", err)
	}
}

// TestLatestSnapshotKeepsUnreadableSnapshot: only a snapshot whose bytes
// were read and failed the envelope check is deleted. One that cannot be
// read at all — here a symlink to a directory, standing in for EIO,
// EACCES or EMFILE — may be intact: the walk stops with an error naming
// it and both entries stay.
func TestLatestSnapshotKeepsUnreadableSnapshot(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, 1, []byte(`{"gen":1}`)); err != nil {
		t.Fatal(err)
	}
	unreadable := SnapshotPath(dir, 2)
	if err := os.Symlink(t.TempDir(), unreadable); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	payload, seq, err := LatestSnapshot(dir)
	if err == nil || errors.Is(err, ErrNoSnapshot) || !strings.Contains(err.Error(), unreadable) {
		t.Fatalf("got payload=%s seq=%d err=%v, want an error naming %s", payload, seq, err, unreadable)
	}
	for _, path := range []string{SnapshotPath(dir, 1), unreadable} {
		if _, err := os.Lstat(path); err != nil {
			t.Errorf("%s did not survive: %v", filepath.Base(path), err)
		}
	}
}

func TestLatestSnapshotEmptyOrAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LatestSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: got %v, want ErrNoSnapshot", err)
	}
	// A directory that was never created (run killed before the first
	// snapshot) must look the same as an empty one, not error.
	if _, _, err := LatestSnapshot(filepath.Join(dir, "never-created")); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing dir: got %v, want ErrNoSnapshot", err)
	}
	if _, err := WriteSnapshot(dir, 1, []byte(`{"gen":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(SnapshotPath(dir, 1), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LatestSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("all corrupt: got %v, want ErrNoSnapshot", err)
	}
}

func TestPruneCheckpoints(t *testing.T) {
	dir := t.TempDir()
	for seq := uint64(1); seq <= 4; seq++ {
		if _, err := WriteSnapshot(dir, seq, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		os.WriteFile(WALPath(dir, seq), nil, 0o644)
	}
	// Generation 1's snapshot was never published (a crash between WAL
	// rotation and publish): its WAL must still be pruned.
	os.Remove(SnapshotPath(dir, 1))
	if err := PruneCheckpoints(dir, 3); err != nil {
		t.Fatal(err)
	}
	snaps, err := Snapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].Seq != 3 || snaps[1].Seq != 4 {
		t.Fatalf("snapshots after prune: %+v", snaps)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := os.Stat(WALPath(dir, seq)); !os.IsNotExist(err) {
			t.Fatalf("wal %d survived pruning", seq)
		}
	}
}

// TestCreateWALSyncsParentDir: the directory entry of a fresh WAL must
// be fsynced before CreateWAL returns — the first record appended to it
// may be acknowledged straight after its own fsync, and a file whose
// entry a power cut loses takes that record with it.
func TestCreateWALSyncsParentDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-000000007.jsonl")
	var calls []string
	syncDir = func(d string) error {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("directory synced before the WAL file exists: %v", err)
		}
		calls = append(calls, d)
		return fsyncDir(d)
	}
	defer func() { syncDir = fsyncDir }()
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(calls) != 1 || calls[0] != dir {
		t.Fatalf("syncDir calls = %q, want exactly [%q]", calls, dir)
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte(`{"t":"a"}`), []byte(`{"t":"b","n":2}`), []byte(``)}
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	records, validLen, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	if validLen != fi.Size() {
		t.Fatalf("validLen %d, file size %d", validLen, fi.Size())
	}
	if len(records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(records), len(want))
	}
	for i := range want {
		if !bytes.Equal(records[i], want[i]) {
			t.Fatalf("record %d: %q != %q", i, records[i], want[i])
		}
	}
}

func TestWALTornTailAndCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, prefixLen, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}

	// Torn tail: half a record appended without its newline.
	full, _ := os.ReadFile(path)
	torn := append(append([]byte(nil), full...), []byte("deadbeef {\"i\":3")...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	records, validLen, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 || validLen != prefixLen {
		t.Fatalf("torn tail: %d records, validLen %d (want 3, %d)", len(records), validLen, prefixLen)
	}

	// Bit flip inside the second record: the valid prefix ends before it.
	flipped := append([]byte(nil), full...)
	lines := bytes.SplitAfter(full, []byte("\n"))
	flipped[len(lines[0])+12] ^= 0x01
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	records, validLen, err = ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || validLen != int64(len(lines[0])) {
		t.Fatalf("corrupt middle: %d records, validLen %d (want 1, %d)", len(records), validLen, len(lines[0]))
	}

	// Continuing after the valid prefix truncates the bad tail.
	w, err = OpenWALAppend(path, validLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte(`{"i":"new"}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	records, _, err = ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || string(records[1]) != `{"i":"new"}` {
		t.Fatalf("after reopen: %q", records)
	}
}

func TestWALRejectsNewlineInRecord(t *testing.T) {
	w, err := CreateWAL(filepath.Join(t.TempDir(), "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([]byte("two\nlines")); err == nil {
		t.Fatal("newline in record accepted")
	}
}

func TestReplayWALMissingFileIsEmpty(t *testing.T) {
	records, validLen, err := ReplayWAL(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || len(records) != 0 || validLen != 0 {
		t.Fatalf("missing file: %d records, len %d, err %v", len(records), validLen, err)
	}
}

func BenchmarkCheckpointSnapshot(b *testing.B) {
	dir := b.TempDir()
	// A payload in the ballpark of a real platform snapshot.
	var buf bytes.Buffer
	buf.WriteString(`{"rows":[`)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"i":%d,"x":%g}`, i, float64(i)*1.618033988749895)
	}
	buf.WriteString(`]}`)
	payload := buf.Bytes()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WriteSnapshot(dir, uint64(i+1), payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppend(b *testing.B) {
	w, err := CreateWAL(filepath.Join(b.TempDir(), "wal.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := []byte(`{"t":"place","sim_s":1234.5,"name":"matmul","placement":[0,3,5]}`)
	b.SetBytes(int64(len(rec)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
