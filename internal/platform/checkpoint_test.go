package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"gsight/internal/core"
	"gsight/internal/faults"
	"gsight/internal/obs"
	"gsight/internal/persist"
	"gsight/internal/sched"
	"gsight/internal/telemetry"
)

// ckptConfig builds a run exercising the full checkpoint surface: a
// real (checkpointable) predictor learning online behind the Gsight
// scheduler, batch arrivals, and dense observations so forest training
// fires mid-horizon.
func ckptConfig(seed uint64) Config {
	pred := core.NewPredictor(core.Config{Seed: seed})
	cfg := shortConfig(sched.NewGsight(pred), seed)
	cfg.Predictor = pred
	cfg.ObserveEvery = 1
	return cfg
}

// statsJSON serializes stats with the one legitimately wall-clock
// (non-deterministic) field zeroed.
func statsJSON(t *testing.T, st *Stats) []byte {
	t.Helper()
	c := *st
	c.SchedulingTime = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// obsFor attaches a fresh observability recorder writing to the given
// stream buffers, mirroring how a process (re)start reopens its trace
// and flight-recorder files.
func obsFor(cfg *Config, trace, flight *bytes.Buffer) {
	cfg.Obs = obs.New(obs.Config{
		Trace:   trace,
		Flight:  flight,
		Servers: cfg.Model.Testbed.NumServers(),
		StepS:   cfg.StepS,
	})
}

// ckptRun is what a crash/resume sequence produced: the final stats and
// the accumulated decision-log, trace and flight-recorder streams.
type ckptRun struct {
	stats        *Stats
	log          []byte
	trace        []byte
	flight       []byte
	incarnations int
}

// runToCompletion drives a checkpointed run through every injected
// controller crash, rebuilding predictor, scheduler, sink, decision
// log and observability recorder per incarnation exactly like a process
// restart would, truncating every stream to each resumed snapshot's
// recorded offsets. between, when set, runs after each crashed
// incarnation (fault injection on the checkpoint files themselves).
func runToCompletion(t *testing.T, seed uint64, dir string, schedule *faults.Schedule, intervalS float64, between func(incarnation int)) ckptRun {
	t.Helper()
	var logBytes, traceBytes, flightBytes []byte
	for incarnation := 1; ; incarnation++ {
		if incarnation > 20 {
			t.Fatal("resume loop did not converge")
		}
		cfg := ckptConfig(seed)
		cfg.Faults = schedule
		cfg.Checkpoint = CheckpointConfig{Dir: dir, IntervalS: intervalS, Resume: incarnation > 1}
		if incarnation > 1 {
			meta, err := PeekCheckpoint(dir)
			if err != nil {
				t.Fatalf("incarnation %d: %v", incarnation, err)
			}
			if int64(len(logBytes)) < meta.LogBytes {
				t.Fatalf("incarnation %d: decision log has %d bytes, snapshot records %d",
					incarnation, len(logBytes), meta.LogBytes)
			}
			if int64(len(traceBytes)) < meta.TraceBytes || int64(len(flightBytes)) < meta.FlightBytes {
				t.Fatalf("incarnation %d: trace/flight have %d/%d bytes, snapshot records %d/%d",
					incarnation, len(traceBytes), len(flightBytes), meta.TraceBytes, meta.FlightBytes)
			}
			logBytes = logBytes[:meta.LogBytes]
			traceBytes = traceBytes[:meta.TraceBytes]
			flightBytes = flightBytes[:meta.FlightBytes]
		}
		buf := bytes.NewBuffer(logBytes)
		tbuf := bytes.NewBuffer(traceBytes)
		fbuf := bytes.NewBuffer(flightBytes)
		cfg.Telemetry = telemetry.New().WithDecisions(buf)
		obsFor(&cfg, tbuf, fbuf)
		st, err := Run(context.Background(), cfg)
		logBytes = append([]byte(nil), buf.Bytes()...)
		traceBytes = append([]byte(nil), tbuf.Bytes()...)
		flightBytes = append([]byte(nil), fbuf.Bytes()...)
		if errors.Is(err, ErrControllerCrashed) {
			if between != nil {
				between(incarnation)
			}
			continue
		}
		if err != nil {
			t.Fatalf("incarnation %d: %v", incarnation, err)
		}
		return ckptRun{stats: st, log: logBytes, trace: traceBytes, flight: flightBytes, incarnations: incarnation}
	}
}

// TestCrashResumeByteIdentity is the headline guarantee: kill the
// controller at three different points of the horizon — inside the
// first snapshot interval, mid-run, and near the end — resume each time
// from disk, and the final stats and decision log are byte-identical to
// the uninterrupted same-seed run that never had a crash scheduled.
func TestCrashResumeByteIdentity(t *testing.T) {
	const seed = 11
	base := ckptConfig(seed)
	var baseLog, baseTrace, baseFlight bytes.Buffer
	base.Telemetry = telemetry.New().WithDecisions(&baseLog)
	obsFor(&base, &baseTrace, &baseFlight)
	baseStats, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if baseTrace.Len() == 0 || baseFlight.Len() == 0 {
		t.Fatal("baseline recorded no trace or flight data")
	}

	crashes := &faults.Schedule{Name: "controller-crashes", Events: []faults.Event{
		{AtS: 95, Kind: faults.ControllerCrash},   // before the first periodic snapshot
		{AtS: 910, Kind: faults.ControllerCrash},  // mid-horizon
		{AtS: 1730, Kind: faults.ControllerCrash}, // near the end
	}}
	for _, tc := range []struct {
		name    string
		between func(dir string) func(int)
	}{
		{"snapshots as written", func(string) func(int) { return nil }},
		// Every directory written before the commit clock left the
		// schema carries it in the state section; it must be ignored.
		{"snapshots carrying epochs and sched_seq", func(dir string) func(int) {
			return func(int) { addLegacyClock(t, dir) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			res := runToCompletion(t, seed, dir, crashes, 300, tc.between(dir))
			if res.incarnations != 4 {
				t.Fatalf("incarnations = %d, want 4 (three crashes + final)", res.incarnations)
			}
			if a, b := statsJSON(t, baseStats), statsJSON(t, res.stats); !bytes.Equal(a, b) {
				t.Fatalf("stats diverged after crash-resume:\nbase    %s\nresumed %s", a, b)
			}
			if !bytes.Equal(baseLog.Bytes(), res.log) {
				t.Fatalf("decision log diverged after crash-resume:\nbase    %d bytes\nresumed %d bytes\nbase    %q\nresumed %q",
					baseLog.Len(), len(res.log), truncStr(baseLog.String()), truncStr(string(res.log)))
			}
			if !bytes.Equal(baseTrace.Bytes(), res.trace) {
				t.Fatalf("trace diverged after crash-resume: base %d bytes, resumed %d bytes",
					baseTrace.Len(), len(res.trace))
			}
			if !bytes.Equal(baseFlight.Bytes(), res.flight) {
				t.Fatalf("flight recording diverged after crash-resume: base %d bytes, resumed %d bytes",
					baseFlight.Len(), len(res.flight))
			}
		})
	}
}

// addLegacyClock rewrites every snapshot in dir so its state section
// carries the epochs and sched_seq fields snapshots held before the
// commit clock was dropped from the schema.
func addLegacyClock(t *testing.T, dir string) {
	t.Helper()
	snaps, err := persist.Snapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots to rewrite in %s: %v", dir, err)
	}
	for _, sn := range snaps {
		data, err := os.ReadFile(sn.Path)
		if err != nil {
			t.Fatal(err)
		}
		seq, payload, err := persist.DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		ctl, blob, err := persist.SplitPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		var doc, state map[string]json.RawMessage
		if err := json.Unmarshal(ctl, &doc); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(doc["state"], &state); err != nil {
			t.Fatal(err)
		}
		state["epochs"] = json.RawMessage(`[41,7,41,12]`)
		state["sched_seq"] = json.RawMessage(`41`)
		if doc["state"], err = json.Marshal(state); err != nil {
			t.Fatal(err)
		}
		if ctl, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
		if _, err := persist.WriteSnapshot(dir, seq, persist.FramePayload(ctl, blob)); err != nil {
			t.Fatal(err)
		}
	}
}

func truncStr(s string) string {
	if len(s) > 600 {
		return s[:600] + "..."
	}
	return s
}

// cancelAfter wraps a scheduler and cancels a context after n Place
// calls — a hard kill landing at an arbitrary scheduling decision, not
// at a fault event or step boundary.
type cancelAfter struct {
	sched.Scheduler
	cancel context.CancelFunc
	n      int
}

func (c *cancelAfter) Place(st *sched.State, req *sched.Request) ([]int, error) {
	c.n--
	if c.n == 0 {
		c.cancel()
	}
	return c.Scheduler.Place(st, req)
}

// TestCancelMidRunResumesByteIdentical kills the run via context
// cancellation mid-decision; the checkpoint directory must hold a fully
// valid snapshot (never a partial one) and the resumed run must land
// byte-identical to the uninterrupted baseline.
func TestCancelMidRunResumesByteIdentical(t *testing.T) {
	const seed = 23
	base := ckptConfig(seed)
	var baseLog bytes.Buffer
	base.Telemetry = telemetry.New().WithDecisions(&baseLog)
	baseStats, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := ckptConfig(seed)
	killed.Scheduler = &cancelAfter{Scheduler: killed.Scheduler, cancel: cancel, n: 25}
	killed.Checkpoint = CheckpointConfig{Dir: dir, IntervalS: 300}
	var killedLog bytes.Buffer
	killed.Telemetry = telemetry.New().WithDecisions(&killedLog)
	if _, err := Run(ctx, killed); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	// Whatever the kill interrupted, a complete snapshot generation must
	// be loadable.
	if _, _, err := persist.LatestSnapshot(dir); err != nil {
		t.Fatalf("no valid snapshot after mid-run kill: %v", err)
	}

	meta, err := PeekCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed := ckptConfig(seed)
	resumed.Checkpoint = CheckpointConfig{Dir: dir, IntervalS: 300, Resume: true}
	resLog := bytes.NewBuffer(append([]byte(nil), killedLog.Bytes()[:meta.LogBytes]...))
	resumed.Telemetry = telemetry.New().WithDecisions(resLog)
	st, err := Run(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := statsJSON(t, baseStats), statsJSON(t, st); !bytes.Equal(a, b) {
		t.Fatalf("stats diverged after cancel-resume:\nbase    %s\nresumed %s", a, b)
	}
	if !bytes.Equal(baseLog.Bytes(), resLog.Bytes()) {
		t.Fatal("decision log diverged after cancel-resume")
	}
}

// TestCorruptSnapshotFallsBack flips a byte in the newest snapshot after
// a crash: resume must detect the corruption by checksum, reject that
// generation cleanly, fall back to the previous valid snapshot, and
// still finish byte-identical. The crash re-fires once (its durable
// marker lived in the discarded generation's WAL) before the run gets
// past it.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	const seed = 13
	base := ckptConfig(seed)
	var baseLog, baseTrace, baseFlight bytes.Buffer
	base.Telemetry = telemetry.New().WithDecisions(&baseLog)
	obsFor(&base, &baseTrace, &baseFlight)
	baseStats, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	crashes := &faults.Schedule{Events: []faults.Event{{AtS: 1000, Kind: faults.ControllerCrash}}}
	res := runToCompletion(t, seed, dir, crashes, 300, func(incarnation int) {
		if incarnation != 1 {
			return
		}
		snaps, err := persist.Snapshots(dir)
		if err != nil || len(snaps) == 0 {
			t.Fatalf("no snapshots to corrupt: %v", err)
		}
		path := snaps[len(snaps)-1].Path
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if res.incarnations != 3 {
		t.Fatalf("incarnations = %d, want 3 (crash, re-fired crash after fallback, final)", res.incarnations)
	}
	if a, b := statsJSON(t, baseStats), statsJSON(t, res.stats); !bytes.Equal(a, b) {
		t.Fatalf("stats diverged after corrupt-snapshot fallback:\nbase    %s\nresumed %s", a, b)
	}
	if !bytes.Equal(baseLog.Bytes(), res.log) {
		t.Fatal("decision log diverged after corrupt-snapshot fallback")
	}
}

// TestResumeRejectsMismatchedConfig: a snapshot from one seed must not
// silently resume a run configured with another.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	crashes := &faults.Schedule{Events: []faults.Event{{AtS: 500, Kind: faults.ControllerCrash}}}
	cfg := ckptConfig(29)
	cfg.Faults = crashes
	cfg.Checkpoint = CheckpointConfig{Dir: dir, IntervalS: 300}
	if _, err := Run(context.Background(), cfg); !errors.Is(err, ErrControllerCrashed) {
		t.Fatalf("got %v, want ErrControllerCrashed", err)
	}
	bad := ckptConfig(30) // different seed
	bad.Checkpoint = CheckpointConfig{Dir: dir, Resume: true}
	_, err := Run(context.Background(), bad)
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("resume with mismatched seed returned %v, want seed error", err)
	}
}

// TestResumeRefusesOtherSnapshotFormat: a checkpoint dir written in
// another snapshot format version is neither resumed nor "repaired".
// PeekCheckpoint and a resuming Run both stop with
// persist.ErrSnapshotVersion — not ErrNoSnapshot, which would start the
// run fresh over it — and the files stay as they were.
func TestResumeRefusesOtherSnapshotFormat(t *testing.T) {
	dir := t.TempDir()
	const old = `{"version":1,"seq":1,"sha256":"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a","payload":{}}`
	snap, wal := persist.SnapshotPath(dir, 1), persist.WALPath(dir, 1)
	if err := os.WriteFile(snap, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, []byte("records"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, peekErr := PeekCheckpoint(dir)
	cfg := ckptConfig(29)
	cfg.Checkpoint = CheckpointConfig{Dir: dir, Resume: true}
	_, runErr := Run(context.Background(), cfg)
	for what, err := range map[string]error{"PeekCheckpoint": peekErr, "Run": runErr} {
		if !errors.Is(err, persist.ErrSnapshotVersion) || errors.Is(err, persist.ErrNoSnapshot) ||
			!strings.Contains(err.Error(), "format 1") || !strings.Contains(err.Error(), "reads format 2") {
			t.Errorf("%s: got %v, want ErrSnapshotVersion naming both formats", what, err)
		}
	}
	if got, err := os.ReadFile(snap); err != nil || string(got) != old {
		t.Errorf("snapshot changed: %q (%v)", got, err)
	}
	if got, err := os.ReadFile(wal); err != nil || string(got) != "records" {
		t.Errorf("wal changed: %q (%v)", got, err)
	}
}

// TestCheckpointRequiresCheckpointablePredictor: enabling checkpointing
// with a predictor that cannot snapshot its learning state is a
// configuration error, not a silent fork of the learning stream.
func TestCheckpointRequiresCheckpointablePredictor(t *testing.T) {
	cfg := shortConfig(sched.NewGsight(&fixedPredictor{ipc: 99}), 5)
	cfg.Predictor = &fixedPredictor{ipc: 99}
	cfg.Checkpoint = CheckpointConfig{Dir: t.TempDir()}
	if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "checkpointable") {
		t.Fatalf("got %v, want checkpointable-predictor error", err)
	}
}

// TestResumeEmptyDirStartsFresh: Resume against an empty directory runs
// the horizon from scratch (so retry loops can always pass Resume).
func TestResumeEmptyDirStartsFresh(t *testing.T) {
	cfg := ckptConfig(31)
	cfg.Checkpoint = CheckpointConfig{Dir: t.TempDir(), IntervalS: 600, Resume: true}
	st, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != 60 {
		t.Fatalf("steps = %d, want 60", st.Steps)
	}
}
