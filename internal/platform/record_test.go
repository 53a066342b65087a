package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"gsight/internal/core"
	"gsight/internal/faults"
	"gsight/internal/perfmodel"
	"gsight/internal/resources"
	"gsight/internal/scenario"
	"gsight/internal/sched"
	"gsight/internal/telemetry"
)

// Each placement request is one telemetry.PlacementDecision, written
// once by the runner to the decision log and to the trace: these tests
// pin that the two streams agree, that the record is in the cluster's
// own numbering, and that the log does not depend on what else is
// being recorded.

// placementKey is the part of a placement record both streams carry.
type placementKey struct {
	Workload     string `json:"workload"`
	Outcome      string `json:"outcome"`
	Reason       string `json:"reason"`
	SpreadLevels int    `json:"spread_levels"`
	SLAChecks    int    `json:"sla_checks"`
	Placement    []int  `json:"placement"`
}

// logPlacements returns the decision log's placement lines, in order,
// with the scheduler and cluster size of each.
func logPlacements(t *testing.T, log []byte) (keys []placementKey, schedulers []string, servers []int) {
	t.Helper()
	for _, ln := range bytes.Split(bytes.TrimSuffix(log, []byte("\n")), []byte("\n")) {
		var ev struct {
			Event     string `json:"event"`
			Scheduler string `json:"scheduler"`
			Servers   int    `json:"servers"`
			placementKey
		}
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("decision-log line %q: %v", ln, err)
		}
		if ev.Event == "placement" {
			keys = append(keys, ev.placementKey)
			schedulers = append(schedulers, ev.Scheduler)
			servers = append(servers, ev.Servers)
		}
	}
	return keys, schedulers, servers
}

// tracePlacements returns the trace's placement events, in order.
func tracePlacements(t *testing.T, trace []byte) []placementKey {
	t.Helper()
	var keys []placementKey
	for _, ln := range bytes.Split(trace, []byte("\n")) {
		var ev struct {
			Name string       `json:"name"`
			Cat  string       `json:"cat"`
			Args placementKey `json:"args"`
		}
		if json.Unmarshal(bytes.TrimSuffix(ln, []byte(",")), &ev) == nil && ev.Name == "placement" && ev.Cat == "sched" {
			keys = append(keys, ev.Args)
		}
	}
	return keys
}

// TestPlacementRecordWrittenOnce: on a 16-server cluster, past the
// window ladder's first rung, under the chaos scenario with a learner
// that starts untrained, the decision log's placement lines are the
// trace's placement events, in order; every one names the whole
// cluster; and every placement the fallback served is logged as
// degraded, by the fallback's name.
func TestPlacementRecordWrittenOnce(t *testing.T) {
	const seed, servers = 7, 16
	pred := core.NewPredictor(core.Config{Seed: seed, UpdateEvery: 16})
	cfg := shortConfig(sched.NewGsight(pred), seed)
	cfg.Predictor = pred
	cfg.Model = perfmodel.New(resources.NewTestbed(servers))
	cfg.DurationS = 4 * 3600
	chaos, err := faults.Scenario("chaos", seed, cfg.DurationS, servers)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = chaos
	var o outputs
	if err := o.run(t, context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	logged, schedulers, sizes := logPlacements(t, o.log.Bytes())
	traced := tracePlacements(t, o.trace.Bytes())
	if len(logged) == 0 {
		t.Fatal("no placement logged")
	}
	if !reflect.DeepEqual(logged, traced) {
		for i := range min(len(logged), len(traced)) {
			if !reflect.DeepEqual(logged[i], traced[i]) {
				t.Fatalf("placement %d: logged %+v, traced %+v", i, logged[i], traced[i])
			}
		}
		t.Fatalf("%d placement lines logged, %d traced", len(logged), len(traced))
	}
	degraded := 0
	for i, k := range logged {
		if sizes[i] != servers {
			t.Fatalf("placement %d (%s) logged with \"servers\":%d, want %d", i, k.Workload, sizes[i], servers)
		}
		for _, s := range k.Placement {
			if s < 0 || s >= servers {
				t.Fatalf("placement %d (%s) names server %d", i, k.Workload, s)
			}
		}
		if k.Outcome == "degraded" {
			degraded++
			if schedulers[i] != "WorstFit" {
				t.Fatalf("degraded placement %d logged by %q, want the fallback's name", i, schedulers[i])
			}
		} else if schedulers[i] != "Gsight" {
			t.Fatalf("placement %d logged by %q, want Gsight", i, schedulers[i])
		}
	}
	if degraded == 0 || degraded != o.st.DegradedPlacements {
		t.Fatalf("%d degraded lines, %d degraded placements", degraded, o.st.DegradedPlacements)
	}
}

// TestDecisionLogIndependentOfRecording: prediction-quality tracking
// runs in every simulation, so the decision log — drift detections
// included — is the same bytes with a tracer and flight recorder
// attached and without. The predictor is bootstrapped, as under
// `gsight sim`, so its JCT estimates drift within the 2 h chaos run.
func TestDecisionLogIndependentOfRecording(t *testing.T) {
	const seed = 2
	bootstrapped := func() Config {
		pred := core.NewPredictor(core.Config{Seed: seed})
		lab := perfmodel.New(resources.DefaultTestbed())
		scenario.FastConfig(lab)
		if err := scenario.NewGenerator(lab, seed).Bootstrap(context.Background(), pred, 16); err != nil {
			t.Fatal(err)
		}
		cfg := shortConfig(sched.NewGsight(pred), seed)
		cfg.Predictor = pred
		cfg.DurationS = 2 * 3600
		chaos, err := faults.Scenario("chaos", seed, cfg.DurationS, cfg.Model.Testbed.NumServers())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = chaos
		return cfg
	}
	var recorded outputs
	if err := recorded.run(t, context.Background(), bootstrapped()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(recorded.log.Bytes(), []byte(`"event":"predictor_drift"`)) {
		t.Fatal("no drift detection in the run; the comparison would not cover PredQ")
	}
	cfg := bootstrapped()
	var bare bytes.Buffer
	cfg.Telemetry = telemetry.New().WithDecisions(&bare)
	cfg.Scheduler.(*sched.Gsight).Instrument(cfg.Telemetry)
	cfg.Predictor.(*core.Predictor).Instrument(cfg.Telemetry)
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bare.Bytes(), recorded.log.Bytes()) {
		t.Fatalf("decision log without recording differs from the recorded run's at %s", lineDiff(recorded.log.Bytes(), bare.Bytes()))
	}
}
