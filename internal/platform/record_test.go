package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"gsight/internal/core"
	"gsight/internal/faults"
	"gsight/internal/obs"
	"gsight/internal/perfmodel"
	"gsight/internal/resources"
	"gsight/internal/scenario"
	"gsight/internal/sched"
	"gsight/internal/telemetry"
)

// Each placement request is one telemetry.PlacementDecision, written
// once by the runner to the decision log: these tests pin that the
// record accounts for the request's whole search, that it is in the
// cluster's own numbering.

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

// TestDriftLinesMatchPerQoSReplay: the simulator tracks prediction
// quality per QoS kind. Replaying the log's pred_sample lines of each
// kind through a fresh tracker fires exactly where the log has that
// kind's predictor_drift lines — each right after the sample that fired
// it — with the same fields. The predictor is bootstrapped, as under
// `gsight sim`, so its estimates drift within the 2 h chaos run.
func TestDriftLinesMatchPerQoSReplay(t *testing.T) {
	const seed = 2
	pred := core.NewPredictor(core.Config{Seed: seed})
	lab := scenario.Lab()
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
	var o outputs
	if err := o.run(t, context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	replay := map[string]*obs.PredQ{}
	var expect *telemetry.DriftEvent // the drift the previous sample fired
	drifts := map[string]int{}
	for n, ln := range bytes.Split(bytes.TrimSuffix(o.log.Bytes(), []byte("\n")), []byte("\n")) {
		var ev struct {
			Event     string  `json:"event"`
			SimTimeS  float64 `json:"sim_time_s"`
			Archetype string  `json:"archetype"`
			QoS       string  `json:"qos"`
			Pred      float64 `json:"pred"`
			Obs       float64 `json:"obs"`
			Window    int     `json:"window"`
			MeanErr   float64 `json:"mean_err"`
			MAPE      float64 `json:"mape"`
			PH        float64 `json:"ph"`
		}
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("decision-log line %q: %v", ln, err)
		}
		if ev.Event == "predictor_drift" {
			got := telemetry.DriftEvent{SimTimeS: ev.SimTimeS, QoS: ev.QoS, Archetype: ev.Archetype, Window: ev.Window, MeanErr: ev.MeanErr, MAPE: ev.MAPE, PH: ev.PH}
			if expect == nil || *expect != got {
				t.Fatalf("line %d logs drift %+v; the per-QoS replay fired %+v", n+1, got, expect)
			}
			drifts[ev.QoS]++
		} else if expect != nil {
			t.Fatalf("line %d: the per-QoS replay fired %+v, the log has no drift line after its sample", n+1, *expect)
		}
		expect = nil
		if ev.Event != "pred_sample" {
			continue
		}
		q := replay[ev.QoS]
		if q == nil {
			q = obs.NewPredQ()
			replay[ev.QoS] = q
		}
		if d, fired := q.Track(ev.Archetype, ev.QoS, ev.Pred, ev.Obs); fired {
			d.SimTimeS = ev.SimTimeS
			expect = &d
		}
	}
	if expect != nil {
		t.Fatalf("the log ends before the drift line of %+v", *expect)
	}
	if len(drifts) == 0 {
		t.Fatal("no drift detection in the run; the comparison would not cover PredQ")
	}
}

// TestStepSamplesAreReportSeries: a chaos run logs one step sample per
// step, and the samples of the steps with an active server are the
// run's per-step series — density, good density, CPU and memory
// utilization and active servers — element for element.
func TestStepSamplesAreReportSeries(t *testing.T) {
	cfg := learningChaosConfig(t, 7)
	servers := cfg.Model.Testbed.NumServers()
	var o outputs
	if err := o.run(t, context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	var got Stats
	steps, degraded, down := 0, 0, 0
	for _, ln := range bytes.Split(bytes.TrimSuffix(o.log.Bytes(), []byte("\n")), []byte("\n")) {
		var ev struct {
			Event string `json:"event"`
			telemetry.StepSample
		}
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("decision-log line %q: %v", ln, err)
		}
		if ev.Event != "step" {
			continue
		}
		steps++
		if ev.Step != steps || len(ev.CPUDemand) != servers {
			t.Fatalf("step sample %d is step %d over %d servers", steps, ev.Step, len(ev.CPUDemand))
		}
		if ev.Degraded {
			degraded++
		}
		if len(ev.Down) > 0 {
			down++
		}
		if ev.ActiveServers > 0 {
			got.Density = append(got.Density, ev.Density)
			got.GoodDensity = append(got.GoodDensity, ev.GoodDensity)
			got.CPUUtil = append(got.CPUUtil, ev.CPUUtil)
			got.MemUtil = append(got.MemUtil, ev.MemUtil)
			got.ActiveServers = append(got.ActiveServers, float64(ev.ActiveServers))
		}
	}
	if steps != o.st.Steps || degraded == 0 || down == 0 {
		t.Fatalf("%d step samples (%d degraded, %d with a server down) for %d steps", steps, degraded, down, o.st.Steps)
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"Density", got.Density, o.st.Density},
		{"GoodDensity", got.GoodDensity, o.st.GoodDensity},
		{"CPUUtil", got.CPUUtil, o.st.CPUUtil},
		{"MemUtil", got.MemUtil, o.st.MemUtil},
		{"ActiveServers", got.ActiveServers, o.st.ActiveServers},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("step samples' %s (%d values) differ from the report's (%d values)", c.name, len(c.got), len(c.want))
		}
	}
}
