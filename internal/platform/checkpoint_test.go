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

// ckptConfig builds a run with a real predictor learning online behind
// the Gsight scheduler, batch arrivals, and dense observations so forest
// training fires mid-horizon: everything a resumed run must re-execute
// exactly.
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

// outputs is what one run wrote: its stats, decision log, trace and
// flight recording.
type outputs struct {
	stats              *Stats
	log, trace, flight bytes.Buffer
	incarnations       int
}

// attach gives cfg fresh output streams, the way a process (re)start
// truncates its decision log, trace and flight-recording files.
func (o *outputs) attach(cfg *Config) {
	o.log.Reset()
	o.trace.Reset()
	o.flight.Reset()
	cfg.Telemetry = telemetry.New().WithDecisions(&o.log)
	cfg.Obs = obs.New(obs.Config{
		Trace:   &o.trace,
		Flight:  &o.flight,
		Servers: cfg.Model.Testbed.NumServers(),
		StepS:   cfg.StepS,
	})
}

// same fails the test unless o and want hold identical stats and
// identical bytes in every stream.
func (o *outputs) same(t *testing.T, want *outputs) {
	t.Helper()
	if a, b := statsJSON(t, want.stats), statsJSON(t, o.stats); !bytes.Equal(a, b) {
		t.Fatalf("stats diverged:\nwant %s\ngot  %s", a, b)
	}
	for _, s := range []struct {
		name      string
		want, got *bytes.Buffer
	}{{"decision log", &want.log, &o.log}, {"trace", &want.trace, &o.trace}, {"flight recording", &want.flight, &o.flight}} {
		if !bytes.Equal(s.want.Bytes(), s.got.Bytes()) {
			t.Fatalf("%s diverged: want %d bytes, got %d", s.name, s.want.Len(), s.got.Len())
		}
	}
}

// baseline runs seed's configuration once, with no faults and no
// markers.
func baseline(t *testing.T, seed uint64) *outputs {
	t.Helper()
	var o outputs
	cfg := ckptConfig(seed)
	o.attach(&cfg)
	var err error
	if o.stats, err = Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if o.log.Len() == 0 || o.trace.Len() == 0 || o.flight.Len() == 0 {
		t.Fatal("baseline wrote an empty stream")
	}
	return &o
}

// runToCompletion reruns a configuration with markers in dir until it
// stops crashing, resuming every incarnation after the first and
// rebuilding predictor, scheduler and outputs each time as a process
// restart would. between, when set, runs after each crashed
// incarnation (damage to the markers themselves).
func runToCompletion(t *testing.T, seed uint64, dir string, schedule *faults.Schedule, between func(incarnation int)) *outputs {
	t.Helper()
	var o outputs
	for o.incarnations = 1; ; o.incarnations++ {
		if o.incarnations > 20 {
			t.Fatal("resume loop did not converge")
		}
		cfg := ckptConfig(seed)
		cfg.Faults = schedule
		cfg.Checkpoint = CheckpointConfig{Dir: dir, Resume: o.incarnations > 1}
		o.attach(&cfg)
		st, err := Run(context.Background(), cfg)
		if errors.Is(err, ErrControllerCrashed) {
			if between != nil {
				between(o.incarnations)
			}
			continue
		}
		if err != nil {
			t.Fatalf("incarnation %d: %v", o.incarnations, err)
		}
		o.stats = st
		return &o
	}
}

func crashesAt(ts ...float64) *faults.Schedule {
	s := &faults.Schedule{Name: "controller-crashes"}
	for _, at := range ts {
		s.Events = append(s.Events, faults.Event{AtS: at, Kind: faults.ControllerCrash})
	}
	return s
}

// markerGens lists the marker generations in dir.
func markerGens(t *testing.T, dir string) []uint64 {
	t.Helper()
	snaps, err := persist.Snapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	var gens []uint64
	for _, s := range snaps {
		gens = append(gens, s.Seq)
	}
	return gens
}

// TestCrashResumeByteIdentity is the headline guarantee: kill the
// controller at three points of the horizon — early, mid-run and near
// the end — resume each time, and the final stats and every stream are
// byte-identical to the uninterrupted same-seed run that never had a
// crash scheduled.
func TestCrashResumeByteIdentity(t *testing.T) {
	const seed = 11
	base := baseline(t, seed)
	crashes := crashesAt(95, 910, 1730)
	for _, tc := range []struct {
		name    string
		between func(dir string) func(int)
	}{
		{"snapshots as written", func(string) func(int) { return nil }},
		// Snapshots of earlier schemas carried epochs and sched_seq; a
		// marker carrying fields it does not know must still be read.
		{"snapshots carrying epochs and sched_seq", func(dir string) func(int) {
			return func(int) { addLegacyClock(t, dir) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			res := runToCompletion(t, seed, dir, crashes, tc.between(dir))
			if res.incarnations != 4 {
				t.Fatalf("incarnations = %d, want 4 (three crashes + final)", res.incarnations)
			}
			res.same(t, base)
			if gens := markerGens(t, dir); len(gens) != 2 || gens[0] != 2 || gens[1] != 3 {
				t.Fatalf("marker generations %v, want [2 3] (newest plus one fallback)", gens)
			}
		})
	}
}

// addLegacyClock rewrites every marker in dir with the epochs and
// sched_seq fields of an older snapshot schema added.
func addLegacyClock(t *testing.T, dir string) {
	t.Helper()
	for _, gen := range markerGens(t, dir) {
		data, err := os.ReadFile(persist.SnapshotPath(dir, gen))
		if err != nil {
			t.Fatal(err)
		}
		_, payload, err := persist.DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		ctl, _, err := persist.SplitPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(ctl, &doc); err != nil {
			t.Fatal(err)
		}
		doc["epochs"] = json.RawMessage(`[41,7,41,12]`)
		doc["sched_seq"] = json.RawMessage(`41`)
		if ctl, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
		if _, err := persist.WriteSnapshot(dir, gen, persist.FramePayload(ctl, nil)); err != nil {
			t.Fatal(err)
		}
	}
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

// TestCancelMidRunResumesByteIdentical: a run crashes, its resumed
// incarnation is killed mid-decision after the skipped crash, and the
// next resume still skips exactly that crash and lands byte-identical
// to the uninterrupted baseline.
func TestCancelMidRunResumesByteIdentical(t *testing.T) {
	const seed = 23
	base := baseline(t, seed)
	dir := t.TempDir()
	crashes := crashesAt(95)
	run := func(ctx context.Context, resume bool, wrap func(*Config)) (*outputs, error) {
		var o outputs
		cfg := ckptConfig(seed)
		cfg.Faults = crashes
		cfg.Checkpoint = CheckpointConfig{Dir: dir, Resume: resume}
		if wrap != nil {
			wrap(&cfg)
		}
		o.attach(&cfg)
		var err error
		o.stats, err = Run(ctx, cfg)
		return &o, err
	}
	if _, err := run(context.Background(), false, nil); !errors.Is(err, ErrControllerCrashed) {
		t.Fatalf("first incarnation returned %v, want ErrControllerCrashed", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := run(ctx, true, func(cfg *Config) {
		cfg.Scheduler = &cancelAfter{Scheduler: cfg.Scheduler, cancel: cancel, n: 40}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed incarnation returned %v, want context.Canceled", err)
	}
	res, err := run(context.Background(), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.same(t, base)
}

// TestCorruptSnapshotFallsBack loses the newest marker after the second
// of two crashes — a flipped byte, which the checksum catches, or a
// marker that is simply gone. The resume falls back to the older
// marker, takes the second crash once more, and still finishes
// byte-identical in every output.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	const seed = 13
	base := baseline(t, seed)
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
		{"newest snapshot missing", func(t *testing.T, newest string) {
			if err := os.Remove(newest); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			res := runToCompletion(t, seed, dir, crashesAt(500, 1000), func(incarnation int) {
				if incarnation != 2 {
					return
				}
				if gens := markerGens(t, dir); len(gens) != 2 || gens[1] != 2 {
					t.Fatalf("marker generations %v, want [1 2]", gens)
				}
				tc.damage(t, persist.SnapshotPath(dir, 2))
			})
			if res.incarnations != 4 {
				t.Fatalf("incarnations = %d, want 4 (two crashes, the second re-taken, final)", res.incarnations)
			}
			res.same(t, base)
		})
	}
}

// TestFreshRunIgnoresMarkers: a run without Resume takes every crash
// and clears the markers an earlier run left, so its own resume skips
// only the crashes it took itself.
func TestFreshRunIgnoresMarkers(t *testing.T) {
	dir := t.TempDir()
	crashes := crashesAt(500, 1000)
	runToCompletion(t, 7, dir, crashes, nil) // leaves markers 1 and 2
	for i, resume := range []bool{false, true} {
		cfg := ckptConfig(7)
		cfg.Faults = crashes
		cfg.Checkpoint = CheckpointConfig{Dir: dir, Resume: resume}
		if _, err := Run(context.Background(), cfg); !errors.Is(err, ErrControllerCrashed) {
			t.Fatalf("run %d (resume %v) returned %v, want ErrControllerCrashed", i, resume, err)
		}
		if gens := markerGens(t, dir); len(gens) != i+1 || gens[i] != uint64(i+1) {
			t.Fatalf("after run %d: marker generations %v, want 1..%d", i, gens, i+1)
		}
	}
}

// TestMarkersLeaveOutputsUnchanged runs the harness's chaos shape — the
// chaos fault scenario with an online predictor — with a marker
// directory and without one: with no controller crash to take, the two
// runs are the same run.
func TestMarkersLeaveOutputsUnchanged(t *testing.T) {
	const seed = 7
	run := func(dir string) *outputs {
		var o outputs
		cfg := ckptConfig(seed)
		chaos, err := faults.Scenario("chaos", seed, cfg.DurationS, cfg.Model.Testbed.NumServers())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = chaos
		cfg.Checkpoint = CheckpointConfig{Dir: dir}
		o.attach(&cfg)
		if o.stats, err = Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		return &o
	}
	without := run("")
	dir := t.TempDir()
	run(dir).same(t, without)
	if gens := markerGens(t, dir); len(gens) != 0 {
		t.Fatalf("a run without crashes wrote markers %v", gens)
	}
	if without.stats.FaultEvents == 0 {
		t.Fatal("the chaos scenario injected no faults")
	}
}

// TestResumeRejectsMismatchedConfig: a marker from one seed must not
// resume a run configured with another; the error names both.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptConfig(29)
	cfg.Faults = crashesAt(500)
	cfg.Checkpoint = CheckpointConfig{Dir: dir}
	if _, err := Run(context.Background(), cfg); !errors.Is(err, ErrControllerCrashed) {
		t.Fatalf("got %v, want ErrControllerCrashed", err)
	}
	bad := ckptConfig(30) // different seed
	bad.Checkpoint = CheckpointConfig{Dir: dir, Resume: true}
	_, err := Run(context.Background(), bad)
	if err == nil || !strings.Contains(err.Error(), "seed 29") || !strings.Contains(err.Error(), "seed 30") {
		t.Fatalf("resume with mismatched seed returned %v, want an error naming both seeds", err)
	}
}

// TestResumeRefusesOtherSnapshotFormat: a directory written in another
// snapshot format version is neither resumed nor "repaired": a resuming
// Run stops with persist.ErrSnapshotVersion — not ErrNoSnapshot, which
// would start it fresh over the files — and the files stay as they were.
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
	cfg := ckptConfig(29)
	cfg.Checkpoint = CheckpointConfig{Dir: dir, Resume: true}
	_, err := Run(context.Background(), cfg)
	if !errors.Is(err, persist.ErrSnapshotVersion) || errors.Is(err, persist.ErrNoSnapshot) ||
		!strings.Contains(err.Error(), "format 1") || !strings.Contains(err.Error(), "reads format 3") {
		t.Errorf("got %v, want ErrSnapshotVersion naming both formats", err)
	}
	if got, err := os.ReadFile(snap); err != nil || string(got) != old {
		t.Errorf("snapshot changed: %q (%v)", got, err)
	}
	if got, err := os.ReadFile(wal); err != nil || string(got) != "records" {
		t.Errorf("wal changed: %q (%v)", got, err)
	}
}

// TestResumeEmptyDirStartsFresh: Resume against an empty directory runs
// the horizon from scratch (so retry loops can always pass Resume).
func TestResumeEmptyDirStartsFresh(t *testing.T) {
	cfg := ckptConfig(31)
	cfg.Checkpoint = CheckpointConfig{Dir: t.TempDir(), Resume: true}
	st, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != 60 {
		t.Fatalf("steps = %d, want 60", st.Steps)
	}
}
