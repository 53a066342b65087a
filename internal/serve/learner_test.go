package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gsight/internal/persist"
	"gsight/internal/rng"
	"gsight/internal/telemetry"
)

// Tests of the learner trained beside the committer: a flush at record
// N installs at record N+learnerLag whatever the batching, the crash
// point or the snapshot cut.

// learnScript is a load whose learner flushes every ≈ 300 records, so
// installs come at their due record: every step places an instance and
// observes it once, and from the third step on releases the instance
// placed two steps earlier.
func learnScript(steps int) []scriptOp {
	mix := []string{"matmul", "social-network", "dd", "e-commerce"}
	var ops []scriptOp
	var names []string
	for k := 0; k < steps; k++ {
		arch := mix[k%len(mix)]
		name := fmt.Sprintf("%s#o%d", arch, len(ops)+1)
		names = append(names, name)
		ops = append(ops, scriptOp{kind: kindPlace, arch: arch})
		ops = append(ops, scriptOp{kind: kindObserve, name: name, value: 1 + 0.01*float64(k%7)})
		if k >= 2 {
			ops = append(ops, scriptOp{kind: kindRelease, name: names[k-2]})
		}
	}
	return ops
}

// flushRecord is the record at which ops' learner flushes for the n-th
// time (UpdateEvery observations each; every op is one record).
func flushRecord(ops []scriptOp, n int) int {
	seen := 0
	for i, op := range ops {
		if op.kind == kindObserve {
			if seen++; seen == 100*n {
				return i + 1
			}
		}
	}
	return -1
}

// pendingOf is the committer request of ops[i], order i+1.
func pendingOf(op scriptOp, i int) *pending {
	p := &pending{kind: op.kind, order: uint64(i + 1), reply: make(chan pendingResp, 1)}
	switch op.kind {
	case kindPlace:
		p.arch = op.arch
	case kindObserve:
		p.name, p.qos, p.value = op.name, "ipc", op.value
	case kindRelease:
		p.name = op.name
	}
	return p
}

// send commits ops[from:to] one request at a time, in process.
func send(t *testing.T, srv *Server, ops []scriptOp, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if r := srv.enqueue(context.Background(), pendingOf(ops[i], i)); r.err != nil {
			t.Fatalf("op %d (%s): %v", i, ops[i].kind, r.err)
		}
	}
}

// sendHeld commits ops[from:to] as one drain of the committer: they are
// queued behind a retry of the acknowledged order 1 whose reply nobody
// reads until all of them are in.
func sendHeld(t *testing.T, srv *Server, ops []scriptOp, from, to int) {
	t.Helper()
	hold := &pending{kind: kindPlace, order: 1, arch: ops[0].arch, reply: make(chan pendingResp)}
	srv.intake <- hold
	ps := make([]*pending, 0, to-from)
	for i := from; i < to; i++ {
		ps = append(ps, pendingOf(ops[i], i))
		srv.intake <- ps[len(ps)-1]
	}
	<-hold.reply
	for j, p := range ps {
		if r := <-p.reply; r.err != nil {
			t.Fatalf("op %d (%s): %v", from+j, ops[from+j].kind, r.err)
		}
	}
}

// stopped drains srv and returns its decision log and final predictor
// state.
func stopped(t *testing.T, srv *Server) (log, state []byte) {
	t.Helper()
	stopNow(t, srv)
	log, err := os.ReadFile(srv.logPath())
	if err != nil {
		t.Fatal(err)
	}
	if state, err = srv.pred.CheckpointState(); err != nil {
		t.Fatal(err)
	}
	return log, state
}

// TestServeLearnerIndependentOfBatching: one ordered place / observe /
// release stream committed one record per batch, in batches of 64 and in
// three seeded random splits gives the same decision log and the same
// predictor state — installs land on their record whatever batch they
// fall in.
func TestServeLearnerIndependentOfBatching(t *testing.T) {
	ops := learnScript(320) // flushes at records 298, 598, 898
	type variant struct {
		name     string
		maxBatch int
		chunks   func(i int) int // size of the drain starting at op i; nil: one at a time
	}
	variants := []variant{{"one record per batch", 1, nil}, {"batches of 64", 64, func(int) int { return 64 }}}
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		variants = append(variants, variant{fmt.Sprintf("random split %d", seed), 64, func(int) int { return 1 + r.Intn(150) }})
	}
	batch := maxBatch
	t.Cleanup(func() { maxBatch = batch })
	var wantLog, wantState []byte
	for _, v := range variants {
		sink := telemetry.New()
		cfg := snapConfig(t.TempDir(), sink)
		maxBatch = v.maxBatch
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		send(t, srv, ops, 0, 1) // order 1 acknowledged: sendHeld holds behind its retry
		for i := 1; i < len(ops); {
			if v.chunks == nil {
				send(t, srv, ops, i, i+1)
				i++
				continue
			}
			j := min(len(ops), i+v.chunks(i))
			sendHeld(t, srv, ops, i, j)
			i = j
		}
		log, state := stopped(t, srv)
		// The last training's time is recorded just after its trees are
		// handed over, which the drain's snapshot waited for.
		trainings := func() uint64 { return sink.Registry.Snapshot().Histograms["serve_learner_train_seconds"].Count }
		for deadline := time.Now().Add(10 * time.Second); trainings() < 3 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		snap := sink.Registry.Snapshot()
		if got := trainings(); got != 3 {
			t.Fatalf("%s: %d trainings, want 3", v.name, got)
		}
		if got := snap.Histograms["serve_learner_install_wait_seconds"].Count; got != 2 {
			t.Fatalf("%s: %d installs, want 2 (the third is due past the stream)", v.name, got)
		}
		if got := snap.Gauges["serve_learner_inflight"]; got != 1 {
			t.Fatalf("%s: inflight gauge %v, want 1", v.name, got)
		}
		if wantLog == nil {
			wantLog, wantState = log, state
			continue
		}
		if !bytes.Equal(log, wantLog) {
			t.Fatalf("%s: decision log differs from one record per batch", v.name)
		}
		if !bytes.Equal(state, wantState) {
			t.Fatalf("%s: predictor state differs from one record per batch", v.name)
		}
	}
}

// truncatedCopy writes into dst the data dir src left behind when it
// was abandoned after record k: the genesis snapshot and every snapshot
// cut by then — generation g+2 was cut after record cuts[g] — each
// generation's WAL cut back to the records up to k, and the decision log
// cut back to its first k lines. src must have pruned nothing.
func truncatedCopy(t *testing.T, src, dst string, k int, cuts ...int) {
	t.Helper()
	starts := append([]int{0}, cuts...) // the record each generation's WAL starts after
	for g, from := range starts {
		if from > k {
			break
		}
		gen := uint64(g + 1)
		snap, err := os.ReadFile(persist.SnapshotPath(src, gen))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(persist.SnapshotPath(dst, gen), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		n := k - from
		if g+1 < len(starts) {
			n = min(n, starts[g+1]-from)
		}
		records, _, err := persist.ReplayWAL(persist.WALPath(src, gen))
		if err != nil || len(records) < n {
			t.Fatalf("wal-%d: %d records, err %v", gen, len(records), err)
		}
		w, err := persist.CreateWAL(persist.WALPath(dst, gen))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendBatch(records[:n]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	log, err := os.ReadFile(filepath.Join(src, "decisions.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cut := 0
	for n := 0; n < k; n++ {
		cut += bytes.IndexByte(log[cut:], '\n') + 1
	}
	if err := os.WriteFile(filepath.Join(dst, "decisions.jsonl"), log[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServeCrashInsideInstallWindow abandons the daemon after every
// record between a flush and its install, and once after a forced
// snapshot cut inside that window, restores, and continues the stream
// past the install: decision log and predictor state must equal the
// uninterrupted run's.
func TestServeCrashInsideInstallWindow(t *testing.T) {
	ops := learnScript(220)
	n := flushRecord(ops, 1)
	due := n + learnerLag
	end := due + 30
	if n < 0 || end > len(ops) {
		t.Fatalf("script too short: flush at %d, %d ops", n, len(ops))
	}

	ref, err := New(snapConfig(t.TempDir(), nil))
	if err != nil {
		t.Fatal(err)
	}
	send(t, ref, ops, 0, end)
	wantLog, wantState := stopped(t, ref)

	// finish restores dir, checks it is back at record k with the
	// install pending until its record, continues to end and compares.
	// It returns the restore's log lines.
	finish := func(t *testing.T, dir string, k int) string {
		var lines []string
		cfg := snapConfig(dir, nil)
		cfg.Logf = func(format string, args ...interface{}) { lines = append(lines, fmt.Sprintf(format, args...)) }
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("restore after record %d: %v", k, err)
		}
		if got, ok := srv.pred.InstallDue(); srv.Applied() != uint64(k) || ok != (k < due) || (ok && got != uint64(due)) {
			t.Fatalf("restored at record %d with install due %d (%v), want record %d, due %d", srv.Applied(), got, ok, k, due)
		}
		send(t, srv, ops, k, end)
		log, state := stopped(t, srv)
		if !bytes.Equal(log, wantLog) || !bytes.Equal(state, wantState) {
			t.Fatalf("crash after record %d: decision log equal %v, predictor state equal %v", k,
				bytes.Equal(log, wantLog), bytes.Equal(state, wantState))
		}
		return strings.Join(lines, "\n")
	}

	t.Run("every record", func(t *testing.T) {
		live, err := New(snapConfig(t.TempDir(), nil))
		if err != nil {
			t.Fatal(err)
		}
		send(t, live, ops, 0, due)
		crashed := t.TempDir()
		copyDir(t, live.cfg.DataDir, crashed) // what abandoning it now leaves
		defer stopNow(t, live)
		stride := 1
		if raceEnabled {
			stride = 17 // a restore costs ten times as much under -race
		}
		for k := n + 1; k <= due; k += stride {
			t.Run(fmt.Sprint(k), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				truncatedCopy(t, crashed, dir, k)
				finish(t, dir, k)
			})
		}
	})

	t.Run("snapshot cut in the window", func(t *testing.T) {
		live, err := New(snapConfig(t.TempDir(), nil))
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(live.Handler())
		defer hs.Close()
		send(t, live, ops, 0, n+100)
		if err := NewClient(hs.URL).post(context.Background(), "/v1/snapshot", struct{}{}, nil); err != nil {
			t.Fatal(err)
		}
		send(t, live, ops, n+100, n+150)
		crashed := t.TempDir()
		copyDir(t, live.cfg.DataDir, crashed)
		defer stopNow(t, live)
		line := finish(t, crashed, n+150)
		if !strings.Contains(line, fmt.Sprintf("learner install pending at seq %d, carried by the snapshot", due)) {
			t.Fatalf("restore did not report the carried install:\n%s", line)
		}
	})
}

// observeScript is a short mixed load whose learner flushes once: every
// step places an instance and observes it four times, and from the third
// step on releases the instance placed two steps earlier.
func observeScript(steps int) []scriptOp {
	mix := []string{"matmul", "social-network", "dd", "e-commerce"}
	var ops []scriptOp
	var names []string
	for k := 0; k < steps; k++ {
		arch := mix[k%len(mix)]
		name := fmt.Sprintf("%s#o%d", arch, len(ops)+1)
		names = append(names, name)
		ops = append(ops, scriptOp{kind: kindPlace, arch: arch})
		for j := 0; j < 4; j++ {
			ops = append(ops, scriptOp{kind: kindObserve, name: name, value: 1 + 0.01*float64((k+j)%7)})
		}
		if k >= 2 {
			ops = append(ops, scriptOp{kind: kindRelease, name: names[k-2]})
		}
	}
	return ops
}

// stateOf reads srv's /v1/state without its wall-clock fields: uptime,
// and the newest durable generation, which a restore's compaction moves.
func stateOf(t *testing.T, srv *Server) stateResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/state", nil))
	var st stateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	st.UptimeS, st.Snapshots = 0, 0
	return st
}

// TestServeRestartAtEveryRecord abandons the daemon at every record
// boundary of a short ordered run — place, observe and release mixed,
// one learner flush and its install, one forced snapshot inside the
// install window — restores a copy of what it left and finishes the run.
// The decision log, /v1/state and the predictor must equal the
// uninterrupted run's: the decision stream is a function of the admitted
// order alone, whatever was replayed.
func TestServeRestartAtEveryRecord(t *testing.T) {
	lag := learnerLag
	t.Cleanup(func() { learnerLag = lag }) // after the parallel subtests
	learnerLag = 16
	ops := observeScript(30)
	n := flushRecord(ops, 1)
	due, cut := n+learnerLag, n+learnerLag/2
	if n < 0 || due >= len(ops) {
		t.Fatalf("script too short: flush at %d, %d ops", n, len(ops))
	}
	// finish runs ops[k:] on srv, forcing the snapshot after record cut
	// if srv has not passed it.
	finish := func(t *testing.T, srv *Server, k int) {
		if k < cut {
			send(t, srv, ops, k, cut)
			forceSnapshot(t, srv)
			k = cut
		}
		send(t, srv, ops, k, len(ops))
	}

	live, err := New(snapConfig(t.TempDir(), nil))
	if err != nil {
		t.Fatal(err)
	}
	finish(t, live, 0)
	walked := t.TempDir()
	copyDir(t, live.cfg.DataDir, walked) // before the drain's snapshot
	wantState := stateOf(t, live)
	wantLog, wantPred := stopped(t, live)

	stride := 1
	if raceEnabled {
		stride = 17
	}
	for k := 0; k <= len(ops); k += stride {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			truncatedCopy(t, walked, dir, k, cut)
			srv, err := New(snapConfig(dir, nil))
			if err != nil {
				t.Fatalf("restore after record %d: %v", k, err)
			}
			if srv.Applied() != uint64(k) {
				t.Fatalf("restored at record %d, abandoned after %d", srv.Applied(), k)
			}
			finish(t, srv, k)
			state := stateOf(t, srv)
			log, pred := stopped(t, srv)
			if !reflect.DeepEqual(state, wantState) {
				t.Fatalf("/v1/state after a restart at record %d: %+v, uninterrupted %+v", k, state, wantState)
			}
			if !bytes.Equal(log, wantLog) || !bytes.Equal(pred, wantPred) {
				t.Fatalf("restart at record %d: decision log equal %v, predictor equal %v",
					k, bytes.Equal(log, wantLog), bytes.Equal(pred, wantPred))
			}
		})
	}
}

// TestServeRetryOfUncommittedOrder: a retry of an ordered request that
// reaches the committer in the same drain as the original — admitted,
// not yet acknowledged — gets the original's answer, not 410.
func TestServeRetryOfUncommittedOrder(t *testing.T) {
	srv, hs, _ := testServer(t, nil)
	stall := &pending{kind: kindPlace, arch: "matmul", reply: make(chan pendingResp)}
	srv.intake <- stall
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
		}
	}
	waitFor("the committer never logged the stalling placement", func() bool {
		fi, err := os.Stat(srv.logPath())
		return err == nil && fi.Size() > 0
	})
	type answer struct {
		code int
		body []byte
	}
	answers := make(chan answer, 2)
	post := func() {
		resp, err := http.Post(hs.URL+"/v1/place", "application/json", strings.NewReader(`{"workload":"dd","order":1}`))
		if err != nil {
			answers <- answer{code: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		answers <- answer{resp.StatusCode, body}
	}
	go post()
	waitFor("the original never queued", func() bool { return len(srv.intake) == 1 })
	go post()
	waitFor("the retry never queued", func() bool { return len(srv.intake) == 2 })
	<-stall.reply // releases the committer onto both
	a, b := <-answers, <-answers
	if a.code != http.StatusOK || b.code != http.StatusOK || !bytes.Equal(a.body, b.body) {
		t.Fatalf("original and retry answered %d %s and %d %s, want two identical 200s", a.code, a.body, b.code, b.body)
	}
}

// TestServeRefusesFormat2DataDir: a data dir whose snapshots are in the
// previous format (predictor blob version 2) is refused naming both
// formats, and no file in it changes.
func TestServeRefusesFormat2DataDir(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(snapConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	send(t, srv, script(3), 0, 9)
	stopNow(t, srv)
	snaps, err := persist.Snapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("snapshots: %v, %v", snaps, err)
	}
	for _, sn := range snaps {
		data, err := os.ReadFile(sn.Path)
		if err != nil {
			t.Fatal(err)
		}
		data[len("GSIGHTSN")] = 2
		if err := os.WriteFile(sn.Path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := map[string][]byte{}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		before[e.Name()], _ = os.ReadFile(filepath.Join(dir, e.Name()))
	}
	_, err = New(snapConfig(dir, nil))
	if !errors.Is(err, persist.ErrSnapshotVersion) || !strings.Contains(err.Error(), "format 2") ||
		!strings.Contains(err.Error(), fmt.Sprintf("format %d", persist.SnapshotVersion)) {
		t.Fatalf("start on a format-2 data dir: err = %v, want ErrSnapshotVersion naming both formats", err)
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != len(before) {
		t.Fatalf("data dir now holds %s", listDir(t, dir))
	}
	for name, data := range before {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s changed (%v)", name, err)
		}
	}
}
