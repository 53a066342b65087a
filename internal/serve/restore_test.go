package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gsight/internal/persist"
)

// TestServeRefusesDataDirOfAnotherCluster: a data dir written by a
// 16-server daemon holds placements on servers an 8-server daemon does
// not have. Restoring it must be refused with an error — by the cluster
// size the snapshot records, and for a snapshot from before that field
// existed by the first stored placement that names a missing server —
// never applied until an index runs off the cluster.
func TestServeRefusesDataDirOfAnotherCluster(t *testing.T) {
	// Untrained, every placement goes to the worst-fit fallback, which
	// spreads over all sixteen servers at once.
	config := func(dir string, servers int) Config {
		cfg := snapConfig(dir, nil)
		cfg.Servers, cfg.Train = servers, 0
		return cfg
	}
	dir := t.TempDir()
	srv, err := New(config(dir, 16))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	drive(t, NewClient(hs.URL), crashScript, 0, 120)
	hs.Close()
	stopNow(t, srv)

	restore := func(dir string, servers int) error {
		cfg := config(dir, servers)
		srv, err := New(cfg)
		if err == nil {
			stopNow(t, srv)
		}
		return err
	}
	if err := restore(dir, 8); err == nil || !strings.Contains(err.Error(), "16-server") {
		t.Fatalf("restore of a 16-server data dir on 8 servers: err = %v, want the cluster-size refusal", err)
	}
	older := t.TempDir()
	copyDir(t, dir, older)
	rewriteSnapshots(t, older, func(doc map[string]json.RawMessage) { delete(doc, "servers") })
	if err := restore(older, 8); err == nil || !strings.Contains(err.Error(), "names server") {
		t.Fatalf("restore of a pre-servers 16-server snapshot on 8 servers: err = %v, want the placement refusal", err)
	}
	// Nothing was damaged by the refusals: the right size still restores.
	if err := restore(dir, 16); err != nil {
		t.Fatalf("restore on 16 servers after the refusals: %v", err)
	}
}

// recLog is decisions.jsonl with its writes and fsyncs counted; before
// either, check runs.
type recLog struct {
	*os.File
	mu              sync.Mutex
	written, synced int64
	check           func(synced int64)
}

func (f *recLog) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.check(f.synced)
	n, err := f.File.Write(p)
	f.written += int64(n)
	return n, err
}

func (f *recLog) Sync() error {
	f.mu.Lock()
	covers := f.written
	f.check(f.synced)
	f.mu.Unlock()
	err := f.File.Sync()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil && covers > f.synced {
		f.synced = covers
	}
	return err
}

// TestServeDecisionLogOrdering pins the two orderings the daemon's
// decision log owes its readers. A line is in the file before its
// request is acknowledged: after every acknowledgement the file holds
// exactly as many lines as there were acknowledgements. And a snapshot
// records only a log offset an fsync already covers: whenever the log is
// written or fsynced — its only events — every snapshot that has
// appeared in the data dir so far must record log_bytes within the bytes
// fsynced before that event, so the fsync preceded the rename.
func TestServeDecisionLogOrdering(t *testing.T) {
	dir := t.TempDir()
	checked := map[string]bool{}
	var mu sync.Mutex
	check := func(synced int64) {
		mu.Lock()
		defer mu.Unlock()
		snaps, err := persist.Snapshots(dir)
		if err != nil {
			t.Error(err)
			return
		}
		for _, sn := range snaps {
			if checked[sn.Path] {
				continue
			}
			data, err := os.ReadFile(sn.Path)
			if err != nil {
				continue // pruned between the listing and the read
			}
			checked[sn.Path] = true
			_, payload, err := persist.DecodeSnapshot(data)
			if err != nil {
				t.Error(err)
				continue
			}
			snap, _, err := decodeSnapshotPayload(payload)
			if err != nil {
				t.Error(err)
				continue
			}
			if snap.LogBytes > synced {
				t.Errorf("snapshot %d records log_bytes %d, only %d bytes of the log were fsynced before it was published",
					sn.Seq, snap.LogBytes, synced)
			}
		}
	}
	var log *recLog
	defer func(orig func(string, int) (io.WriteCloser, error)) { openLog = orig }(openLog)
	openLog = func(path string, flag int) (io.WriteCloser, error) {
		f, err := os.OpenFile(path, flag, 0o644)
		if err != nil {
			return nil, err
		}
		log = &recLog{File: f, check: check}
		return log, nil
	}

	cfg := snapConfig(dir, nil)
	cfg.SnapshotEvery = 16
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	cl := NewClient(hs.URL)
	logPath := filepath.Join(dir, "decisions.jsonl")
	for i := 0; i < 100; i++ {
		drive(t, cl, crashScript, i, i+1)
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if lines := bytes.Count(data, []byte{'\n'}); lines != i+1 {
			t.Fatalf("after acknowledgement %d decisions.jsonl holds %d lines", i+1, lines)
		}
	}
	hs.Close()
	stopNow(t, srv)
	log.mu.Lock()
	synced := log.synced
	log.mu.Unlock()
	check(synced)
	if len(checked) < 5 {
		t.Fatalf("only %d snapshots were checked", len(checked))
	}
}
