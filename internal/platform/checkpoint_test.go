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
// restart would: each incarnation's streams open over whatever the last
// one left, and the resumed platform cuts them back to the snapshot's
// offsets itself. between, when set, runs after each crashed incarnation
// (fault injection on the checkpoint files themselves).
func runToCompletion(t *testing.T, seed uint64, dir string, schedule *faults.Schedule, intervalS float64, between func(incarnation int)) ckptRun {
	t.Helper()
	var logBuf, traceBuf, flightBuf bytes.Buffer
	for incarnation := 1; ; incarnation++ {
		if incarnation > 20 {
			t.Fatal("resume loop did not converge")
		}
		cfg := ckptConfig(seed)
		cfg.Faults = schedule
		cfg.Checkpoint = CheckpointConfig{Dir: dir, IntervalS: intervalS, Resume: incarnation > 1}
		cfg.Telemetry = telemetry.New().WithDecisions(&logBuf)
		obsFor(&cfg, &traceBuf, &flightBuf)
		st, err := Run(context.Background(), cfg)
		if errors.Is(err, ErrControllerCrashed) {
			if between != nil {
				between(incarnation)
			}
			continue
		}
		if err != nil {
			t.Fatalf("incarnation %d: %v", incarnation, err)
		}
		return ckptRun{stats: st, log: logBuf.Bytes(), trace: traceBuf.Bytes(), flight: flightBuf.Bytes(), incarnations: incarnation}
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

	resumed := ckptConfig(seed)
	resumed.Checkpoint = CheckpointConfig{Dir: dir, IntervalS: 300, Resume: true}
	resLog := &killedLog // continued: the platform cuts it back to the snapshot's offset
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

// TestCorruptSnapshotFallsBack loses the newest snapshot after a crash —
// a flipped byte, which resume must detect by checksum and fall back
// over, or a snapshot that was never published, which is what a crash
// between the WAL rotation and the publish leaves. Either way the WAL
// chain after the previous snapshot holds everything since, the crash
// marker included: the run resumes from the older snapshot, verifies its
// way through both WALs, does not take the crash a second time, and
// finishes byte-identical in every output.
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

	crashes := &faults.Schedule{Events: []faults.Event{{AtS: 1000, Kind: faults.ControllerCrash}}}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, newest string)
	}{
		{"newest snapshot corrupt", func(t *testing.T, newest string) {
			data, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(newest, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"rotated WAL with no snapshot", func(t *testing.T, newest string) {
			if err := os.Remove(newest); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			res := runToCompletion(t, seed, dir, crashes, 300, func(incarnation int) {
				if incarnation != 1 {
					return
				}
				snaps, err := persist.Snapshots(dir)
				if err != nil || len(snaps) < 2 {
					t.Fatalf("want two snapshot generations to lose the newer of: %v, %v", snaps, err)
				}
				newest := snaps[len(snaps)-1]
				if _, err := os.Stat(persist.WALPath(dir, newest.Seq)); err != nil {
					t.Fatalf("newest generation has no WAL: %v", err)
				}
				tc.damage(t, newest.Path)
			})
			if res.incarnations != 2 {
				t.Fatalf("incarnations = %d, want 2 (crash, final): the crash marker is in the chained WAL", res.incarnations)
			}
			if a, b := statsJSON(t, baseStats), statsJSON(t, res.stats); !bytes.Equal(a, b) {
				t.Fatalf("stats diverged after the fallback:\nbase    %s\nresumed %s", a, b)
			}
			if !bytes.Equal(baseLog.Bytes(), res.log) {
				t.Fatal("decision log diverged after the fallback")
			}
			if !bytes.Equal(baseTrace.Bytes(), res.trace) {
				t.Fatal("trace diverged after the fallback")
			}
			if !bytes.Equal(baseFlight.Bytes(), res.flight) {
				t.Fatal("flight recording diverged after the fallback")
			}
		})
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

// recFile is an output file that counts the bytes written to it and the
// bytes an fsync has covered, and runs a check before every write and
// fsync — the two events after which those counts change.
type recFile struct {
	*os.File
	written, synced int64
	before          func()
}

func (f *recFile) Write(p []byte) (int, error) {
	f.before()
	n, err := f.File.Write(p)
	f.written += int64(n)
	return n, err
}

func (f *recFile) Sync() error {
	f.before()
	err := f.File.Sync()
	if err == nil {
		f.synced = f.written
	}
	return err
}

func (f *recFile) Truncate(size int64) error {
	f.before()
	err := f.File.Truncate(size)
	if err == nil {
		f.written, f.synced = size, min(f.synced, size)
	}
	return err
}

// TestSnapshotRecordsOnlyFsyncedOffsets: "offset recorded ⇒ bytes
// durable". The decision log, trace and flight recording run on real
// files whose writes and fsyncs are counted; before each of those events
// every snapshot that has appeared in the checkpoint directory is opened,
// and the offsets it records must already be covered by an fsync of the
// stream they point into — the fsync came before the snapshot's rename,
// because nothing else happened to the files in between. The run crashes
// once and resumes over the same files, so the cut-back path is covered
// too, and still ends byte-identical to the in-memory baseline.
func TestSnapshotRecordsOnlyFsyncedOffsets(t *testing.T) {
	const seed = 17
	base := ckptConfig(seed)
	var baseLog, baseTrace, baseFlight bytes.Buffer
	base.Telemetry = telemetry.New().WithDecisions(&baseLog)
	obsFor(&base, &baseTrace, &baseFlight)
	if _, err := Run(context.Background(), base); err != nil {
		t.Fatal(err)
	}

	ckDir, outDir := t.TempDir(), t.TempDir()
	var logF, traceF, flightF *recFile
	checked := map[string]bool{}
	check := func() {
		snaps, err := persist.Snapshots(ckDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, sn := range snaps {
			if checked[sn.Path] {
				continue
			}
			checked[sn.Path] = true
			data, err := os.ReadFile(sn.Path)
			if err != nil {
				t.Fatal(err)
			}
			_, payload, err := persist.DecodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			p, _, err := decodePayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			var ost obs.State
			if err := json.Unmarshal(p.Obs, &ost); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				stream   string
				recorded int64
				f        *recFile
			}{{"decision log", p.LogBytes, logF}, {"trace", ost.TraceBytes, traceF}, {"flight recording", ost.FlightBytes, flightF}} {
				if c.recorded > c.f.synced {
					t.Errorf("snapshot %d records %s offset %d, only %d bytes were fsynced before it was published",
						sn.Seq, c.stream, c.recorded, c.f.synced)
				}
			}
			if p.LogBytes == 0 || ost.TraceBytes == 0 {
				t.Errorf("snapshot %d records empty streams (log %d, trace %d)", sn.Seq, p.LogBytes, ost.TraceBytes)
			}
		}
	}
	open := func(name string) *recFile {
		f, err := os.OpenFile(outDir+"/"+name, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		// What a previous incarnation left is on disk but not known synced.
		return &recFile{File: f, written: st.Size(), before: check}
	}
	crashes := &faults.Schedule{Events: []faults.Event{{AtS: 1000, Kind: faults.ControllerCrash}}}
	for incarnation := 1; ; incarnation++ {
		cfg := ckptConfig(seed)
		cfg.Faults = crashes
		cfg.Checkpoint = CheckpointConfig{Dir: ckDir, IntervalS: 300, Resume: incarnation > 1}
		logF, traceF, flightF = open("decisions.jsonl"), open("trace.json"), open("flight.bin")
		cfg.Telemetry = telemetry.New().WithDecisions(logF)
		cfg.Obs = obs.New(obs.Config{Trace: traceF, Flight: flightF, Servers: cfg.Model.Testbed.NumServers(), StepS: cfg.StepS})
		_, err := Run(context.Background(), cfg)
		if ferr := cfg.Telemetry.Decisions.Stream().Flush(); ferr != nil {
			t.Fatal(ferr)
		}
		if ferr := cfg.Obs.Sync(); ferr != nil {
			t.Fatal(ferr)
		}
		check()
		if incarnation == 1 && errors.Is(err, ErrControllerCrashed) {
			continue
		}
		if err != nil || incarnation != 2 {
			t.Fatalf("incarnation %d: %v", incarnation, err)
		}
		break
	}
	if len(checked) < 5 {
		t.Fatalf("only %d snapshots were checked", len(checked))
	}
	for name, want := range map[string][]byte{"decisions.jsonl": baseLog.Bytes(), "trace.json": baseTrace.Bytes(), "flight.bin": baseFlight.Bytes()} {
		got, err := os.ReadFile(outDir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s on disk differs from the uninterrupted in-memory run (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}
