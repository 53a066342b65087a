package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gsight/internal/persist"
	"gsight/internal/telemetry"
)

// Tests of the two-halved snapshot (snapshot.go): what a crash leaves
// behind at each point of the protocol, what restore makes of it, and
// how the committer behaves while a publish is in flight. Crashes are
// simulated as the benchmark harness does: the data dir of a live
// server is copied and a second server restores from the copy.

// scriptOp is one request of the deterministic ordered load the crash
// tests drive: order i+1 is ops[i], whoever sends it.
type scriptOp struct {
	kind  string // kindPlace, kindObserve, kindRelease
	arch  string
	name  string
	value float64
}

// script builds a mixed load: every step places an instance and
// observes it twice, and from the fourth step on releases the instance
// placed three steps earlier. Instance names are a function of the
// order number, so the script needs no answers to be written down.
func script(steps int) []scriptOp {
	mix := []string{"matmul", "social-network", "dd", "e-commerce"}
	var ops []scriptOp
	var names []string
	for k := 0; k < steps; k++ {
		arch := mix[k%len(mix)]
		name := fmt.Sprintf("%s#o%d", arch, len(ops)+1)
		names = append(names, name)
		ops = append(ops, scriptOp{kind: kindPlace, arch: arch})
		ops = append(ops, scriptOp{kind: kindObserve, name: name, value: 1 + 0.01*float64(k%7)})
		ops = append(ops, scriptOp{kind: kindObserve, name: name, value: 1 + 0.02*float64(k%5)})
		if k >= 3 {
			ops = append(ops, scriptOp{kind: kindRelease, name: names[k-3]})
		}
	}
	return ops
}

// drive sends ops[from:to] in order, one at a time, and returns the
// sequence number of the last acknowledgement.
func drive(t *testing.T, cl *Client, ops []scriptOp, from, to int) (lastSeq uint64) {
	t.Helper()
	ctx := context.Background()
	for i := from; i < to; i++ {
		op, order := ops[i], uint64(i+1)
		var err error
		switch op.kind {
		case kindPlace:
			var ack *PlaceAck
			if ack, err = cl.Place(ctx, PlaceRequest{Workload: op.arch, Order: order}); err == nil {
				lastSeq = ack.Seq
			}
		case kindObserve:
			var ack *observeResponse
			if ack, err = cl.Observe(ctx, ObserveRequest{Name: op.name, QoS: "ipc", Value: op.value, Order: order}); err == nil {
				lastSeq = ack.Seq
			}
		case kindRelease:
			var ack *releaseResponse
			if ack, err = cl.Release(ctx, ReleaseRequest{Name: op.name, Order: order}); err == nil {
				lastSeq = ack.Seq
			}
		}
		if err != nil {
			t.Fatalf("op %d (%s): %v", i, op.kind, err)
		}
	}
	return lastSeq
}

// snapConfig leaves SnapshotEvery at its default, beyond any test's
// load: periodic snapshots happen only where a test asks for them.
func snapConfig(dir string, sink *telemetry.Sink) Config {
	return Config{DataDir: dir, Seed: 7, Train: 4, Placers: 2, Sink: sink, Health: telemetry.NewHealth()}
}

func stopNow(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// copyDir copies the regular files of a flat directory — what is left
// of a server that is abandoned at this instant.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func listDir(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return strings.Join(names, " ")
}

// crashScript is the load of the crash tests: 437 records, the learner
// flushing at the 100th and 200th observation (records 196 and 396).
var crashScript = script(110)

var reference struct {
	once sync.Once
	log  []byte
}

// referenceLog returns the decision log of crashScript run against one
// uninterrupted server (computed once; the log does not depend on when
// snapshots are taken).
func referenceLog(t *testing.T) []byte {
	t.Helper()
	reference.once.Do(func() {
		dir := t.TempDir()
		srv, err := New(snapConfig(dir, nil))
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		drive(t, NewClient(hs.URL), crashScript, 0, len(crashScript))
		hs.Close()
		stopNow(t, srv)
		if reference.log, err = os.ReadFile(filepath.Join(dir, "decisions.jsonl")); err != nil {
			t.Fatal(err)
		}
	})
	if reference.log == nil {
		t.Fatal("no reference decision log")
	}
	return reference.log
}

// finishFrom restores a server from dir — what a crash after crashAt
// acknowledged records left — checks where it comes back and how much it
// replayed, runs the rest of crashScript on it and compares the decision
// log with the uninterrupted run's.
func finishFrom(t *testing.T, dir string, keep, crashAt int, wantReplayed uint64) {
	t.Helper()
	sink := telemetry.New()
	cfg := snapConfig(dir, sink)
	cfg.Keep = keep
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := srv.Applied(); got != uint64(crashAt) {
		t.Fatalf("restored applied = %d, last acknowledged was %d", got, crashAt)
	}
	if got := sink.Registry.Snapshot().Counters["serve_replayed_records_total"]; got != wantReplayed {
		t.Fatalf("replayed %d records, want %d", got, wantReplayed)
	}
	hs := httptest.NewServer(srv.Handler())
	drive(t, NewClient(hs.URL), crashScript, crashAt, len(crashScript))
	hs.Close()
	stopNow(t, srv)
	got, err := os.ReadFile(filepath.Join(dir, "decisions.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceLog(t); !bytes.Equal(got, want) {
		t.Fatalf("decision log after the crash differs from the uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// blockPublish makes srv's next publish stop at stage until release is
// called; entered is closed when it gets there.
func blockPublish(srv *Server, stage string) (entered chan struct{}, release func()) {
	entered = make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	srv.publishHook = func(at string) {
		if at != stage {
			return
		}
		first := false
		once.Do(func() { first = true })
		if first {
			close(entered)
			<-gate
		}
	}
	var releaseOnce sync.Once
	return entered, func() { releaseOnce.Do(func() { close(gate) }) }
}

// TestServeCrashPointsOfSnapshotProtocol abandons a server at each
// point of a background snapshot — WAL rotated but nothing published, a
// half-written temporary snapshot, snapshot renamed into place but old
// generations not yet pruned — and restores from what it left. Every
// restore must come back at the last acknowledged sequence number,
// replay exactly the records no durable snapshot covers, and continue
// the decision log byte-identically to an uninterrupted run.
func TestServeCrashPointsOfSnapshotProtocol(t *testing.T) {
	// Snapshot 1 is the genesis; the first periodic cut, at record 200
	// (four records after the learner's first flush), rotates to wal-2
	// and the crash comes 60 acknowledged records later.
	const cutAt, crashAt = 200, 260

	// crash runs a server into a publish blocked at stage and returns
	// its data dir as it stands after crashAt acknowledgements.
	crash := func(t *testing.T, stage string, keep int) (dir string) {
		dir = t.TempDir()
		cfg := snapConfig(dir, nil)
		cfg.SnapshotEvery = cutAt
		cfg.Keep = keep
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		entered, release := blockPublish(srv, stage)
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			hs.Close()
			release()
			stopNow(t, srv)
		})
		if last := drive(t, NewClient(hs.URL), crashScript, 0, crashAt); last != crashAt {
			t.Fatalf("last acknowledged seq = %d, want %d", last, crashAt)
		}
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("no background publish started")
		}
		return dir
	}

	t.Run("before-publish", func(t *testing.T) {
		crashed := crash(t, "start", 0)
		if _, err := os.Stat(persist.SnapshotPath(crashed, 2)); err == nil {
			t.Fatalf("snapshot 2 exists before its publish started: %s", listDir(t, crashed))
		}
		t.Run("rotated-not-published", func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, crashed, dir)
			finishFrom(t, dir, 0, crashAt, crashAt)
		})
		t.Run("temp-snapshot-half-written", func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, crashed, dir)
			whole, err := os.ReadFile(persist.SnapshotPath(crashed, 1))
			if err != nil {
				t.Fatal(err)
			}
			tmp := persist.SnapshotPath(dir, 2) + ".tmp123456"
			if err := os.WriteFile(tmp, whole[:len(whole)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			finishFrom(t, dir, 0, crashAt, crashAt)
		})
	})

	t.Run("published-not-pruned", func(t *testing.T) {
		// The store publishes and prunes in one call, so the directory a
		// crash between the rename and the prune leaves is produced by a
		// daemon that keeps both generations; the restore below runs at
		// keep 1 and must finish the pruning.
		crashed := crash(t, "published", 0)
		files := listDir(t, crashed)
		for _, f := range []string{"snap-000000001.ckpt", "wal-000000001.jsonl", "snap-000000002.ckpt", "wal-000000002.jsonl"} {
			if !strings.Contains(files, f) {
				t.Fatalf("%s missing between rename and prune: %s", f, files)
			}
		}
		dir := t.TempDir()
		copyDir(t, crashed, dir)
		finishFrom(t, dir, 1, crashAt, crashAt-cutAt)
		// The restore-time compaction and the drain each published a
		// generation and pruned behind it.
		if files := listDir(t, dir); strings.Contains(files, "000000001") || strings.Contains(files, "000000002") {
			t.Fatalf("old generations survived pruning: %s", files)
		}
	})
}

// TestServeCorruptNewestSnapshotKeepsAckedRecords: a bit flip in the
// newest snapshot must cost nothing that was acknowledged. The records
// after that snapshot's cut live in its WAL, so restore falls back one
// generation and replays the chain through it.
func TestServeCorruptNewestSnapshotKeepsAckedRecords(t *testing.T) {
	const crashAt = 100
	crashed, restored := t.TempDir(), t.TempDir()
	srv, err := New(snapConfig(crashed, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer stopNow(t, srv)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := NewClient(hs.URL)
	// Forced snapshots put the cuts at known records: generation 2 at
	// 40, generation 3 at 70 (1 is the genesis).
	from := 0
	for _, upTo := range []int{40, 70, crashAt} {
		drive(t, cl, crashScript, from, upTo)
		from = upTo
		if upTo < crashAt {
			if err := cl.Snapshot(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	copyDir(t, crashed, restored)

	newest := persist.SnapshotPath(restored, 3)
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Snapshot 2 was cut at record 40: wal-2 holds 41..70, wal-3 the rest.
	finishFrom(t, restored, 0, crashAt, crashAt-40)
}

// TestServeRestoreRejectsChainGap: a WAL chain whose sequence numbers
// do not continue is refused rather than applied.
func TestServeRestoreRejectsChainGap(t *testing.T) {
	ops := script(12)
	dir := t.TempDir()
	cfg := snapConfig(dir, nil)
	cfg.SnapshotEvery = 16
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := blockPublish(srv, "start")
	defer release()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	drive(t, NewClient(hs.URL), ops, 0, 24)
	<-entered
	broken := t.TempDir()
	copyDir(t, dir, broken)
	release()
	stopNow(t, srv)

	// wal-1 holds 1..16 and wal-2 17..24; without wal-1's tail the
	// chain jumps from 8 to 17.
	records, _, err := persist.ReplayWAL(persist.WALPath(broken, 1))
	if err != nil || len(records) != 16 {
		t.Fatalf("wal-1: %d records, err %v", len(records), err)
	}
	w, err := persist.CreateWAL(persist.WALPath(broken, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records[:8] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(snapConfig(broken, nil)); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("restore over a chain gap: err = %v, want a gap error", err)
	}
}

// TestServeRestoreRefusesToBootstrapOverDecisions: with every snapshot
// rejected, the data dir still holds acknowledged decisions; starting a
// fresh lineage over them would silently drop them.
func TestServeRestoreRefusesToBootstrapOverDecisions(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(snapConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	drive(t, NewClient(hs.URL), script(2), 0, 6)
	hs.Close()
	stopNow(t, srv)
	snaps, err := persist.Snapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("snapshots: %v, %v", snaps, err)
	}
	for _, info := range snaps {
		if err := os.WriteFile(info.Path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := New(snapConfig(dir, nil)); err == nil || !strings.Contains(err.Error(), "refusing to bootstrap") {
		t.Fatalf("restore with every snapshot corrupt: err = %v, want a refusal", err)
	}
}

// TestServeSnapshotDeferredWhilePublishing: while one generation is
// being published the committer keeps acknowledging, a snapshot that
// comes due is deferred rather than queued behind it, and a forced
// snapshot is answered only once its own generation is durable.
func TestServeSnapshotDeferredWhilePublishing(t *testing.T) {
	ops := script(20) // 77 records
	sink := telemetry.New()
	cfg := snapConfig(t.TempDir(), sink)
	cfg.SnapshotEvery = 16
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stopNow(t, srv)
	entered, release := blockPublish(srv, "start")
	defer release()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := NewClient(hs.URL)

	// Generation 2 is cut at record 16 and its publish blocks; 48 more
	// records pass three further due points.
	drive(t, cl, ops, 0, 64)
	<-entered
	forced := make(chan error, 1)
	go func() { forced <- NewClient(hs.URL).Snapshot(context.Background()) }()
	drive(t, cl, ops, 64, 70)
	select {
	case err := <-forced:
		t.Fatalf("forced snapshot answered (%v) while the publish before it was still blocked", err)
	case <-time.After(50 * time.Millisecond):
	}
	snap := sink.Registry.Snapshot()
	if got := snap.Counters["serve_snapshots_deferred_total"]; got != 1 {
		t.Fatalf("deferred = %d, want 1 (due points behind one publish collapse into one deferred cut)", got)
	}
	if got := snap.Gauges["serve_snapshot_inflight"]; got != 1 {
		t.Fatalf("inflight gauge = %v, want 1", got)
	}
	if st, err := cl.State(context.Background()); err != nil || st.Snapshots != 1 {
		t.Fatalf("durable generation = %+v (err %v), want 1 while generation 2 is unpublished", st, err)
	}

	release()
	if err := <-forced; err != nil {
		t.Fatalf("forced snapshot: %v", err)
	}
	st, err := cl.State(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One deferred cut served the periodic trigger and the forced one.
	if st.Snapshots != 3 {
		t.Fatalf("durable generation = %d after the forced snapshot, want 3", st.Snapshots)
	}
	if _, gen, err := persist.LatestSnapshot(cfg.DataDir); err != nil || gen != 3 {
		t.Fatalf("newest snapshot on disk = %d (err %v), want 3", gen, err)
	}
	snap = sink.Registry.Snapshot()
	if got := snap.Histograms["serve_snapshot_capture_seconds"].Count; got != 3 {
		t.Fatalf("capture histogram count = %d, want 3 (genesis + 2 cuts)", got)
	}
	if got := snap.Histograms["serve_snapshot_publish_seconds"].Count; got != 3 {
		t.Fatalf("publish histogram count = %d, want 3", got)
	}
	if got := snap.Gauges["serve_snapshot_inflight"]; got != 0 {
		t.Fatalf("inflight gauge = %v after the publish ended, want 0", got)
	}
}

// TestServePublishErrorFences: a background publish that fails fences
// the daemon at the next record boundary, like a failed synchronous
// snapshot did.
func TestServePublishErrorFences(t *testing.T) {
	ops := script(10)
	dir := filepath.Join(t.TempDir(), "data")
	cfg := snapConfig(dir, nil)
	cfg.SnapshotEvery = 16
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Losing the directory makes the temporary snapshot file impossible
	// to create; the open WAL and decision log keep working.
	srv.publishHook = func(stage string) {
		if stage == "start" {
			os.RemoveAll(dir)
		}
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	drive(t, NewClient(hs.URL), ops, 0, 16)
	select {
	case <-srv.doneC:
	case <-time.After(10 * time.Second):
		t.Fatal("committer still running after a failed publish")
	}
	if ok, reason := cfg.Health.Ready(); ok || !strings.Contains(reason, "fenced") {
		t.Fatalf("health after a failed publish: ready=%v reason=%q, want fenced", ok, reason)
	}
}

// TestServeStopConcurrent: Stop from two goroutines at once drains once
// and returns in both (run under -race).
func TestServeStopConcurrent(t *testing.T) {
	srv, err := New(Config{DataDir: t.TempDir(), Seed: 7, Train: 0, Health: telemetry.NewHealth()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			if err := srv.Stop(ctx); err != nil {
				t.Errorf("stop: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestServeRefusesOtherSnapshotFormat: a data dir written by a build
// with another snapshot format is not a corrupt one. The daemon must
// refuse to start, say which format it found and which it reads, and
// leave every file as it was — deleting the snapshots as "corrupt"
// would end in a fresh bootstrap beside an orphaned WAL chain.
func TestServeRefusesOtherSnapshotFormat(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"snap-000000001.ckpt":      `{"version":1,"seq":1,"sha256":"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a","payload":{}}`,
		"snap-000000002.ckpt":      `{"version":1,"seq":2,"sha256":"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a","payload":{}}`,
		"wal-000000002.jsonl":      "",
		"decisions.jsonl":          `{"seq":1,"kind":"release","release":{"name":"x","released":false}}` + "\n",
		"snap-000000003.ckpt.tmp1": "half a snapshot",
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := New(snapConfig(dir, nil))
	if !errors.Is(err, persist.ErrSnapshotVersion) ||
		!strings.Contains(err.Error(), "format 1") || !strings.Contains(err.Error(), fmt.Sprintf("format %d", persist.SnapshotVersion)) {
		t.Fatalf("start on a format-1 data dir: err = %v, want ErrSnapshotVersion naming both formats", err)
	}
	for name, data := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(got) != data {
			t.Errorf("%s changed: %q (%v)", name, got, err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != len(files) {
		t.Errorf("data dir now holds %s", listDir(t, dir))
	}
}
