package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"gsight/internal/persist"
)

// TestServeRefusesDataDirOfAnotherCluster: a data dir written by a
// 16-server daemon holds placements on servers an 8-server daemon does
// not have. Restoring it must be refused with an error by the cluster
// size the snapshot records, never applied until an index runs off the
// cluster. A snapshot without that size, or whose used vectors do not
// cover it, is refused as malformed.
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
	for _, c := range []struct {
		name string
		edit func(doc map[string]json.RawMessage)
	}{
		{"no servers", func(doc map[string]json.RawMessage) { delete(doc, "servers") }},
		{"no used", func(doc map[string]json.RawMessage) { delete(doc, "used") }},
		{"short used", func(doc map[string]json.RawMessage) {
			var used []json.RawMessage
			if err := json.Unmarshal(doc["used"], &used); err != nil {
				t.Fatal(err)
			}
			doc["used"], _ = json.Marshal(used[:8])
		}},
	} {
		malformed := t.TempDir()
		copyDir(t, dir, malformed)
		rewriteSnapshots(t, malformed, c.edit)
		for _, servers := range []int{8, 16} {
			if err := restore(malformed, servers); err == nil || !strings.Contains(err.Error(), "malformed snapshot") {
				t.Fatalf("%s, restored on %d servers: err = %v, want the malformed-snapshot refusal", c.name, servers, err)
			}
		}
	}
	// Nothing was damaged by the refusals: the right size still restores.
	if err := restore(dir, 16); err != nil {
		t.Fatalf("restore on 16 servers after the refusals: %v", err)
	}
}

// readDir returns every regular file of a flat directory by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestServeRestoreRefusesDivergentRecord: a WAL record that re-executes
// differently — here one placement rewritten under a fresh checksum, as
// a build with another model or scheduler would have decided it — is
// refused. The error names the record's seq and shows both records, and
// no file in the data dir changes.
func TestServeRestoreRefusesDivergentRecord(t *testing.T) {
	dir := t.TempDir()
	live, err := New(snapConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	send(t, live, script(6), 0, 20)
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	stopNow(t, live)

	records, _, err := persist.ReplayWAL(persist.WALPath(crashed, 1))
	if err != nil || len(records) != 20 {
		t.Fatalf("wal-1: %d records, err %v", len(records), err)
	}
	const forged = 14 // the fifth step's placement
	r, err := DecodeRecord(records[forged-1])
	if err != nil || r.Place == nil || len(r.Place.Placement) == 0 {
		t.Fatalf("record %d is not a placement: %s", forged, records[forged-1])
	}
	r.Place.Placement[0] = (r.Place.Placement[0] + 1) % live.state.NumServers()
	original := records[forged-1]
	if records[forged-1], err = encodeRecord(r); err != nil {
		t.Fatal(err)
	}
	w, err := persist.CreateWAL(persist.WALPath(crashed, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(records); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	before := readDir(t, crashed)
	_, err = New(snapConfig(crashed, nil))
	if !errors.Is(err, persist.ErrDiverged) {
		t.Fatalf("restore over a forged placement: err = %v, want ErrDiverged", err)
	}
	for _, want := range []string{fmt.Sprintf("seq %d", forged), string(records[forged-1]), string(original)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not name %s", err, want)
		}
	}
	after := readDir(t, crashed)
	if len(after) != len(before) {
		t.Fatalf("data dir now holds %s", listDir(t, crashed))
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Errorf("%s changed", name)
		}
	}
}

// churnScript places n instances and, from the thirteenth on, releases
// the one placed twelve steps earlier: place/release churn over a
// running set of about a dozen.
func churnScript(n int) []scriptOp {
	mix := []string{"matmul", "social-network", "dd", "e-commerce", "kmeans"}
	var ops []scriptOp
	var names []string
	for k := 0; k < n; k++ {
		arch := mix[k%len(mix)]
		names = append(names, fmt.Sprintf("%s#o%d", arch, len(ops)+1))
		ops = append(ops, scriptOp{kind: kindPlace, arch: arch})
		if k >= 12 {
			ops = append(ops, scriptOp{kind: kindRelease, name: names[k-12]})
		}
	}
	return ops
}

// forceSnapshot cuts a snapshot on srv's committer and waits until it
// is durable.
func forceSnapshot(t *testing.T, srv *Server) {
	t.Helper()
	if r := srv.enqueue(context.Background(), &pending{kind: ctlSnapshot, reply: make(chan pendingResp, 1)}); r.err != nil {
		t.Fatalf("snapshot: %v", r.err)
	}
}

// TestServeSnapshotKeepsUsedBitForBit: after a thousand placements and
// releases, a snapshot restores every server's Used vector bit for bit
// as the live state holds it — what a rebuild from the running set does
// not reproduce — and counts the same active servers.
func TestServeSnapshotKeepsUsedBitForBit(t *testing.T) {
	dir := t.TempDir()
	live, err := New(snapConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer stopNow(t, live)
	ops := churnScript(1000)
	send(t, live, ops, 0, len(ops))
	forceSnapshot(t, live)
	want := slices.Clone(live.state.Used)
	wantActive := live.state.ActiveServers()

	restoredDir := t.TempDir()
	copyDir(t, dir, restoredDir)
	restored, err := New(snapConfig(restoredDir, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer stopNow(t, restored)
	got := restored.state.Used
	for s := range want {
		for k := range want[s] {
			if math.Float64bits(got[s][k]) != math.Float64bits(want[s][k]) {
				t.Errorf("server %d resource %d: restored %v (%#x), live %v (%#x)",
					s, k, got[s][k], math.Float64bits(got[s][k]), want[s][k], math.Float64bits(want[s][k]))
			}
		}
	}
	if got := restored.state.ActiveServers(); got != wantActive {
		t.Errorf("restored state counts %d active servers, live %d", got, wantActive)
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
