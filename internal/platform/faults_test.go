package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"gsight/internal/core"
	"gsight/internal/faults"
	"gsight/internal/obs"
	"gsight/internal/resources"
	"gsight/internal/sched"
	"gsight/internal/telemetry"
	"gsight/internal/workload"
)

// untrainedPredictor always reports it has not been trained yet.
type untrainedPredictor struct{}

func (untrainedPredictor) TrainObservations(core.QoSKind, []core.Observation) error { return nil }
func (untrainedPredictor) Predict(core.QoSKind, int, []core.WorkloadInput) (float64, error) {
	return 0, fmt.Errorf("%w: ipc", core.ErrNotTrained)
}
func (untrainedPredictor) Observe(core.QoSKind, int, []core.WorkloadInput, float64) error { return nil }
func (untrainedPredictor) Flush(core.QoSKind) error                                       { return nil }
func (untrainedPredictor) Name() string                                                   { return "untrained" }
func (u untrainedPredictor) PredictBatchInto(k core.QoSKind, q []core.Query, out []float64) error {
	return predictEach(u, k, q, out)
}

// flakyScheduler fails every Place with an error no caller expects.
type flakyScheduler struct{ calls int }

func (f *flakyScheduler) Place(*sched.State, *sched.Request) ([]int, error) {
	f.calls++
	return nil, errors.New("transient RPC failure")
}
func (f *flakyScheduler) Name() string { return "flaky" }

func TestCrashDisplacesServices(t *testing.T) {
	cfg := shortConfig(sched.NewGsight(&fixedPredictor{ipc: 99}), 11)
	// The packing scheduler concentrates both services on few nodes;
	// crashing the first half of the cluster in sequence guarantees at
	// least one crash lands on a populated node.
	var evs []faults.Event
	for n := 0; n < 4; n++ {
		evs = append(evs, faults.Event{AtS: 200 + 150*float64(n), Kind: faults.NodeCrash, Node: n, DurationS: 300})
	}
	cfg.Faults = &faults.Schedule{Name: "crashes", Events: evs}
	st, err := Run(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultEvents != 8 {
		t.Fatalf("fault events = %d, want 8 (4 crashes + 4 recoveries)", st.FaultEvents)
	}
	if st.DisplacedServices == 0 {
		t.Fatal("no services displaced by four crashes under a packing scheduler")
	}
	if st.Steps != 60 {
		t.Fatalf("faulty run did not complete: %d steps", st.Steps)
	}
	for name, oks := range st.SLAOK {
		if len(oks) != st.Steps {
			t.Fatalf("%s SLA series truncated: %d/%d", name, len(oks), st.Steps)
		}
	}
}

func TestPredictorOutageDegradesAndRecovers(t *testing.T) {
	cfg := shortConfig(sched.NewGsight(&fixedPredictor{ipc: 99}), 4)
	cfg.Faults = &faults.Schedule{Name: "outage", Events: []faults.Event{
		{AtS: 300, Kind: faults.PredictorDown, DurationS: 600},
	}}
	st, err := Run(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Degraded) != 1 {
		t.Fatalf("degraded intervals = %+v, want exactly one", st.Degraded)
	}
	iv := st.Degraded[0]
	if iv.StartS != 300 || iv.EndS != 900 || iv.Reason != reasonUnavailable {
		t.Fatalf("interval = %+v, want [300,900) %s", iv, reasonUnavailable)
	}
	if st.DegradedSteps == 0 {
		t.Fatal("no steps counted as degraded during the outage")
	}
	if st.DegradedPlacements == 0 {
		t.Fatal("no placements served by the fallback during the outage")
	}
	if st.Steps != 60 {
		t.Fatalf("outage run did not complete: %d steps", st.Steps)
	}
}

func TestUntrainedPredictorDegradesWholeRun(t *testing.T) {
	cfg := shortConfig(sched.NewGsight(untrainedPredictor{}), 6)
	st, err := Run(nil, cfg)
	if err != nil {
		t.Fatalf("untrained predictor must degrade, not fail the run: %v", err)
	}
	if len(st.Degraded) != 1 {
		t.Fatalf("degraded intervals = %+v, want one spanning the run", st.Degraded)
	}
	iv := st.Degraded[0]
	if iv.Reason != reasonUntrained || iv.EndS != cfg.DurationS {
		t.Fatalf("interval = %+v, want %s closed at horizon %v", iv, reasonUntrained, cfg.DurationS)
	}
	if st.DegradedPlacements == 0 {
		t.Fatal("fallback served no placements")
	}
	if st.Steps != 60 {
		t.Fatalf("run did not complete: %d steps", st.Steps)
	}
}

// TestUnexpectedErrorFallsBack: a scheduler error that is neither a
// deterministic rejection nor a predictor signal is handed to the
// fallback at once — the primary is asked once per placement, never
// again — and the run completes.
func TestUnexpectedErrorFallsBack(t *testing.T) {
	flaky := &flakyScheduler{}
	cfg := shortConfig(flaky, 2)
	cfg.DurationS = 600
	st, err := Run(nil, cfg)
	if err != nil {
		t.Fatalf("unexpected scheduler errors must degrade, not fail: %v", err)
	}
	if st.DegradedPlacements == 0 {
		t.Fatal("fallback never took over from a failing scheduler")
	}
	if flaky.calls != st.DegradedPlacements {
		t.Fatalf("failing scheduler called %d times for %d fallback placements, want one call each",
			flaky.calls, st.DegradedPlacements)
	}
	if st.Steps != 20 {
		t.Fatalf("run did not complete: %d steps", st.Steps)
	}
}

// TestFaultyRunsByteIdentical is the PR's acceptance criterion: the same
// seed with the same fault schedule must emit byte-identical decision
// logs, wall-clock timing notwithstanding.
func TestFaultyRunsByteIdentical(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		sink := telemetry.New().WithDecisions(&buf)
		cfg := shortConfig(sched.NewWorstFit(), 9)
		sch, err := faults.Scenario("chaos", 9, cfg.DurationS, resources.DefaultTestbed().NumServers())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = sch
		cfg.Telemetry = sink
		if _, err := Run(nil, cfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := emit(), emit()
	if len(a) == 0 {
		t.Fatal("decision log empty under the chaos scenario")
	}
	if !bytes.Contains(a, []byte(`"event":"fault"`)) {
		t.Fatal("no fault events in the decision log")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed + same fault schedule produced different decision logs")
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, shortConfig(sched.NewWorstFit(), 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPlaceEpilogue drives each path of place with a decision log
// attached and checks what the epilogue records for it: the logged
// placement outcome and reason, the degraded-placement count and the degraded
// intervals once the run's horizon closes them.
func TestPlaceEpilogue(t *testing.T) {
	const horizonS = 1800
	outage := &faults.Schedule{Name: "outage", Events: []faults.Event{
		{AtS: 0, Kind: faults.PredictorDown, DurationS: 600},
	}}
	for _, tc := range []struct {
		name      string
		primary   sched.Scheduler
		faults    *faults.Schedule
		offline   bool // every server offline: nothing can host the request
		outcome   string
		reason    string
		degraded  int
		intervals []DegradedInterval
	}{
		{name: "outage", primary: sched.NewGsight(&fixedPredictor{ipc: 99}), faults: outage,
			outcome: "degraded", reason: reasonUnavailable, degraded: 1,
			intervals: []DegradedInterval{{StartS: 0, EndS: 600, Reason: reasonUnavailable}}},
		{name: "untrained", primary: sched.NewGsight(untrainedPredictor{}),
			outcome: "degraded", reason: "predictor-error", degraded: 1,
			intervals: []DegradedInterval{{StartS: 0, EndS: horizonS, Reason: reasonUntrained}}},
		{name: "scheduler-error", primary: &flakyScheduler{},
			outcome: "degraded", reason: "scheduler-error", degraded: 1},
		{name: "rejected", primary: sched.NewGsight(&fixedPredictor{ipc: 99}), offline: true,
			outcome: "rejected"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := resources.DefaultTestbed().NumServers()
			inj, err := faults.NewInjector(tc.faults, n)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			r := &runner{
				cfg:      Config{Scheduler: tc.primary},
				state:    sched.StateFromProfiles(testbedSpec(), n),
				inj:      inj,
				fallback: sched.NewWorstFit(),
				stats:    &Stats{},
				ins:      telemetry.New().WithDecisions(&buf).Platform(),
				pq:       obs.NewPredQ(),
			}
			if tc.offline {
				for s := 0; s < n; s++ {
					r.state.SetOffline(s, true)
				}
			}
			changes := inj.Changes()
			if len(changes) > 0 {
				r.applyFault(changes[0]) // the outage begins
				changes = changes[1:]
			}
			ss := lsFixture(workload.SocialNetwork(), 0)
			_, err = r.place(&sched.Request{Input: *ss.syncInput(), SLA: ss.svc.SLA})
			if rejected := tc.outcome == "rejected"; rejected != errors.Is(err, sched.ErrNoPlacement) {
				t.Fatalf("place error = %v", err)
			}
			for _, c := range changes {
				r.now = c.AtS
				r.applyFault(c)
			}
			r.closeDegraded(horizonS)

			var placements []map[string]any
			for _, ln := range bytes.Split(buf.Bytes(), []byte("\n")) {
				var ev map[string]any
				if json.Unmarshal(ln, &ev) == nil && ev["event"] == "placement" {
					placements = append(placements, ev)
				}
			}
			if len(placements) != 1 {
				t.Fatalf("decision log holds %d placement lines, want 1", len(placements))
			}
			if p := placements[0]; p["outcome"] != tc.outcome || (tc.reason != "" && p["reason"] != tc.reason) {
				t.Fatalf("placement outcome/reason = %v/%v, want %s/%s", p["outcome"], p["reason"], tc.outcome, tc.reason)
			}
			if r.stats.DegradedPlacements != tc.degraded {
				t.Fatalf("degraded placements = %d, want %d", r.stats.DegradedPlacements, tc.degraded)
			}
			if !reflect.DeepEqual(r.stats.Degraded, tc.intervals) {
				t.Fatalf("degraded intervals = %+v, want %+v", r.stats.Degraded, tc.intervals)
			}
		})
	}
}
