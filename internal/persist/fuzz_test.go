package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadSnapshot throws arbitrary bytes at the snapshot decoder: it
// must reject or accept cleanly, telling version skew from corruption,
// and anything it accepts must be the very envelope EncodeSnapshot
// writes for that sequence number and payload.
func FuzzLoadSnapshot(f *testing.F) {
	good, err := EncodeSnapshot(3, FramePayload([]byte(`{"state":{"step":42},"rnd":[1,2,3,4]}`), []byte("GSPC\x02\x00\x00\x00")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:snapHeaderSize])
	f.Add([]byte(`{"version":1,"seq":1,"sha256":"","payload":{}}`))
	f.Add(append([]byte(snapMagic), 3, 0, 0, 0))
	f.Add([]byte("neither envelope"))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, payload, err := DecodeSnapshot(data)
		if err != nil {
			if errors.Is(err, ErrSnapshotVersion) == errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("rejection is neither or both of version skew and corruption: %v", err)
			}
			return
		}
		re, err := EncodeSnapshot(seq, payload)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("accepted snapshot re-encodes to different bytes")
		}
	})
}

// FuzzReplayWAL feeds arbitrary bytes as a WAL file: replay must never
// error on content (only report a shorter valid prefix), the prefix must
// be stable, and continuing from validLen must preserve it.
func FuzzReplayWAL(f *testing.F) {
	dir := f.TempDir()
	wal, err := CreateWAL(filepath.Join(dir, "seed.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	wal.Append([]byte(`{"t":"place","sim_s":30,"name":"matmul","placement":[0,1]}`))
	wal.Append([]byte(`{"t":"obs","sim_s":60,"kind":"ipc","target":1,"label":1.25}`))
	wal.Append([]byte(`{"t":"crash","sim_s":95}`))
	if err := wal.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, "seed.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-7]) // torn tail
	f.Add([]byte(""))
	f.Add([]byte("deadbeef {}\n"))
	f.Add([]byte("zzzzzzzz {}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records, validLen, err := ReplayWAL(path)
		if err != nil {
			t.Fatalf("replay errored on arbitrary content: %v", err)
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [0,%d]", validLen, len(data))
		}
		// The valid prefix re-parses to the same records.
		if err := os.WriteFile(path, data[:validLen], 0o644); err != nil {
			t.Fatal(err)
		}
		again, againLen, err := ReplayWAL(path)
		if err != nil || againLen != validLen || len(again) != len(records) {
			t.Fatalf("prefix unstable: %d/%d records, len %d/%d, err %v",
				len(again), len(records), againLen, validLen, err)
		}
		for i := range records {
			if !bytes.Equal(again[i], records[i]) {
				t.Fatalf("record %d changed across replays", i)
			}
		}
		// Appending after the prefix keeps it intact.
		w, err := OpenWALAppend(path, validLen)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append([]byte(`{"t":"new"}`)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		final, _, err := ReplayWAL(path)
		if err != nil || len(final) != len(records)+1 {
			t.Fatalf("continuation lost records: %d vs %d+1, err %v", len(final), len(records), err)
		}
	})
}
