package platform

import (
	"bytes"
	"context"
	"encoding/json"
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
// once by the runner to the decision log: these tests pin that the
// record accounts for the request's whole search, that it is in the
// cluster's own numbering, and that the log does not depend on what
// else is being recorded.

// placementLine is the part of a placement record these tests read.
type placementLine struct {
	Event     string `json:"event"`
	Scheduler string `json:"scheduler"`
	Workload  string `json:"workload"`
	Servers   int    `json:"servers"`
	Outcome   string `json:"outcome"`
	SLAChecks int    `json:"sla_checks"`
	Placement []int  `json:"placement"`
}

// logPlacements returns the decision log's placement lines, in order.
func logPlacements(t *testing.T, log []byte) []placementLine {
	t.Helper()
	var lines []placementLine
	for _, ln := range bytes.Split(bytes.TrimSuffix(log, []byte("\n")), []byte("\n")) {
		var ev placementLine
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("decision-log line %q: %v", ln, err)
		}
		if ev.Event == "placement" {
			lines = append(lines, ev)
		}
	}
	return lines
}

// TestPlacementRecordWrittenOnce: on a 16-server cluster, past the
// window ladder's first rung, under the chaos scenario with a learner
// that starts untrained, each request's placement line counts its
// whole search once — the lines' SLA checks sum to the scheduler's own
// histogram, discarded ladder attempts and primary attempts the
// fallback replaced included; every line names the whole cluster; and
// every placement the fallback served is logged as degraded, by the
// fallback's name.
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
	logged := logPlacements(t, o.log.Bytes())
	if len(logged) == 0 {
		t.Fatal("no placement logged")
	}
	degraded, checks := 0, 0
	for i, k := range logged {
		checks += k.SLAChecks
		if k.Servers != servers {
			t.Fatalf("placement %d (%s) logged with \"servers\":%d, want %d", i, k.Workload, k.Servers, servers)
		}
		for _, s := range k.Placement {
			if s < 0 || s >= servers {
				t.Fatalf("placement %d (%s) names server %d", i, k.Workload, s)
			}
		}
		if k.Outcome == "degraded" {
			degraded++
			if k.Scheduler != "WorstFit" {
				t.Fatalf("degraded placement %d logged by %q, want the fallback's name", i, k.Scheduler)
			}
		} else if k.Scheduler != "Gsight" {
			t.Fatalf("placement %d logged by %q, want Gsight", i, k.Scheduler)
		}
	}
	if degraded == 0 || degraded != o.st.DegradedPlacements {
		t.Fatalf("%d degraded lines, %d degraded placements", degraded, o.st.DegradedPlacements)
	}
	h := o.sink.Registry.Snapshot().Histograms["sched_gsight_sla_checks"]
	if h.Count <= uint64(len(logged)-degraded) {
		t.Fatalf("%d Gsight Place calls for %d Gsight placements: no request made a second call", h.Count, len(logged)-degraded)
	}
	if float64(checks) != h.Sum {
		t.Fatalf("placement lines sum %d SLA checks, the scheduler made %.0f", checks, h.Sum)
	}
}

// TestDecisionLogIndependentOfRecording: prediction-quality tracking
// runs in every simulation, so the decision log — samples and drift
// detections included — is the same bytes with a flight recorder
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
