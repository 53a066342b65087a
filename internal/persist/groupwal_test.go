package persist

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// These tests pin WAL.AppendBatch through the NewGroupWAL shim, the
// call sequence benchmark/probes.go compiles against.

func walRecords(t *testing.T, path string) []string {
	t.Helper()
	recs, _, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

func TestGroupWALBatchOrderAndBarrier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupWAL(w, time.Millisecond)
	if g != w {
		t.Fatal("NewGroupWAL must return the WAL it was given")
	}

	// A bare Append stays in the buffer: nothing reaches the file until
	// a batch (or Sync) flushes, so a batch costs one flush + fsync, not
	// one per record.
	if err := g.Append([]byte(`{"seq":0}`)); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("Append alone wrote %d bytes (err %v); it must only buffer", fi.Size(), err)
	}
	// The empty batch is the sync barrier for what was appended before.
	if err := g.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if got := walRecords(t, path); len(got) != 1 || got[0] != `{"seq":0}` {
		t.Fatalf("after the barrier the file holds %q", got)
	}

	batch := [][]byte{[]byte(`{"seq":1}`), []byte(`{"seq":2}`), []byte(`{"seq":3}`)}
	if err := g.AppendBatch(batch); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if n := w.w.Buffered(); n != 0 {
		t.Fatalf("%d bytes still buffered after AppendBatch returned", n)
	}
	// The batch is durable before Close: replay the live file.
	got := walRecords(t, path)
	if len(got) != 1+len(batch) {
		t.Fatalf("replayed %d records, want %d", len(got), 1+len(batch))
	}
	for i, rec := range got[1:] {
		if rec != string(batch[i]) {
			t.Fatalf("record %d = %q, want %q (batch order broken)", i, rec, batch[i])
		}
	}
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestGroupWALStickyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupWAL(w, 0)
	if err := g.AppendBatch([][]byte{[]byte("good")}); err != nil {
		t.Fatal(err)
	}
	// Pull the file out from under the log: the next batch's flush fails.
	w.f.Close()
	first := g.AppendBatch([][]byte{[]byte("lost")})
	if first == nil {
		t.Fatal("batch on a closed file succeeded")
	}
	// Every later call — a valid batch, the barrier — reports that first
	// failure and writes nothing.
	for _, batch := range [][][]byte{{[]byte("later")}, nil} {
		if err := g.AppendBatch(batch); err != first {
			t.Fatalf("after a failed batch got %v, want the first failure %v", err, first)
		}
	}
	if got := walRecords(t, path); len(got) != 1 || got[0] != "good" {
		t.Fatalf("file holds %q, want only the acknowledged record", got)
	}

	// A record the framing rejects fails its batch the same way.
	w2, err := CreateWAL(filepath.Join(t.TempDir(), "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	bad := w2.AppendBatch([][]byte{[]byte("ok"), []byte("bad\nrecord")})
	if bad == nil {
		t.Fatal("batch with a newline payload succeeded")
	}
	if err := w2.AppendBatch([][]byte{[]byte("good")}); err != bad {
		t.Fatalf("append after a rejected record: %v, want sticky %v", err, bad)
	}
}
