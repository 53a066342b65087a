package gsight_test

import (
	"context"
	"errors"
	"testing"

	"gsight"
)

func TestWithSeedOverridesConfig(t *testing.T) {
	obs := trainingSet(t, 60)
	predict := func(p *gsight.Predictor) float64 {
		if err := p.TrainObservations(gsight.IPCQoS, obs); err != nil {
			t.Fatal(err)
		}
		v, err := p.Predict(gsight.IPCQoS, obs[0].Target, obs[0].Inputs)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	base := predict(gsight.NewPredictor(gsight.PredictorConfig{Seed: 1}, gsight.WithSeed(7)))
	same := predict(gsight.NewPredictor(gsight.PredictorConfig{Seed: 7}))
	if base != same {
		t.Fatalf("WithSeed(7) != Seed:7 config: %v vs %v", base, same)
	}
}

func TestWithFallbackServesDegradedPlacements(t *testing.T) {
	// An untrained predictor makes the Gsight scheduler error; the
	// fallback option turns that into a served placement.
	st := testState(t)
	req := testRequest(t)
	bare := gsight.NewScheduler(gsight.NewPredictor(gsight.PredictorConfig{Seed: 3}))
	if _, err := bare.Place(st, req); err == nil {
		t.Fatal("untrained scheduler without fallback must error")
	}
	with := gsight.NewScheduler(gsight.NewPredictor(gsight.PredictorConfig{Seed: 3}),
		gsight.WithFallback(gsight.NewWorstFit()))
	placement, err := with.Place(st, req)
	if err != nil {
		t.Fatalf("fallback did not serve the placement: %v", err)
	}
	if len(placement) == 0 {
		t.Fatal("empty placement")
	}
}

func TestInapplicableOptionsIgnored(t *testing.T) {
	// A shared option list configures predictor and scheduler alike;
	// options that do not apply are silently ignored.
	opts := []gsight.Option{
		gsight.WithSeed(5),
		gsight.WithTelemetry(gsight.NewTelemetry()),
		gsight.WithFallback(gsight.NewWorstFit()),
	}
	p := gsight.NewPredictor(gsight.PredictorConfig{}, opts...)
	s := gsight.NewScheduler(p, opts...)
	if s == nil || p == nil {
		t.Fatal("constructors rejected a mixed option list")
	}
}

func TestRunPlatformRootAPI(t *testing.T) {
	m := gsight.NewTestbedModel()
	cat := gsight.Catalog()
	sch, err := gsight.FaultScenario("predictor-outage", 42, 1800, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := gsight.RunPlatform(nil, gsight.PlatformConfig{
		Model:     m,
		Scheduler: gsight.NewWorstFit(),
		Services: []gsight.PlatformService{
			{W: cat["social-network"], Pattern: gsight.DefaultTracePattern(250), SLA: gsight.SLA{MinIPC: 0.9}},
		},
		DurationS: 1800,
		StepS:     30,
		Seed:      42,
		Faults:    sch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultEvents == 0 {
		t.Fatal("fault scenario produced no events through the root API")
	}
	if len(st.Degraded) == 0 {
		t.Fatal("predictor outage left no degraded interval")
	}
}

func TestRunExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := gsight.RunExperiment(ctx, "fig3a", gsight.ExperimentOptions{Seed: 1, Scale: 0.02}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// trainingSet draws labeled colocations from the scenario generator.
func trainingSet(t *testing.T, n int) []gsight.Observation {
	t.Helper()
	gen := gsight.NewGenerator(gsight.NewTestbedModel(), 99)
	var obs []gsight.Observation
	for len(obs) < n {
		samples, err := gen.Label(gen.Colocation(gsight.LSSC, 2))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if s.Kind == gsight.IPCQoS {
				obs = append(obs, gsight.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label})
			}
		}
	}
	return obs[:n]
}

func testState(t *testing.T) *gsight.ClusterState {
	t.Helper()
	return gsight.NewSchedulerState(gsight.NewTestbedModel()).Base()
}

func testRequest(t *testing.T) *gsight.PlacementRequest {
	t.Helper()
	gen := gsight.NewGenerator(gsight.NewTestbedModel(), 17)
	samples, err := gen.Label(gen.Colocation(gsight.LSSC, 2))
	if err != nil {
		t.Fatal(err)
	}
	s := samples[0]
	return &gsight.PlacementRequest{Input: s.Inputs[s.Target], SLA: gsight.SLA{MinIPC: 0.5}}
}
