package platform

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gsight/internal/core"
	"gsight/internal/faults"
	"gsight/internal/resources"
	"gsight/internal/sched"
	"gsight/internal/telemetry"
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

// flakyScheduler fails every Place with a transient error.
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

func TestTransientErrorsRetryThenFallback(t *testing.T) {
	flaky := &flakyScheduler{}
	cfg := shortConfig(flaky, 2)
	cfg.DurationS = 600
	cfg.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Nanosecond, MaxBackoff: time.Nanosecond}
	st, err := Run(nil, cfg)
	if err != nil {
		t.Fatalf("persistent transient errors must degrade, not fail: %v", err)
	}
	if st.PlacementRetries == 0 {
		t.Fatal("no retries recorded against a flaky scheduler")
	}
	if st.DegradedPlacements == 0 {
		t.Fatal("fallback never took over after retries were exhausted")
	}
	if flaky.calls < 2 {
		t.Fatalf("flaky scheduler called %d times, want >= MaxAttempts", flaky.calls)
	}
}

// TestFaultyRunsByteIdentical is the PR's acceptance criterion: the same
// seed with the same fault schedule must emit byte-identical decision
// logs, backoff sleeps and wall-clock timing notwithstanding.
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
