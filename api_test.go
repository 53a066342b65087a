package gsight_test

import (
	"testing"

	"gsight"
)

func TestFallbackServesDegradedPlacements(t *testing.T) {
	// An untrained predictor makes the Gsight scheduler error; the
	// degradation rule turns that into a placement served by WorstFit.
	st := gsight.NewSchedulerState(gsight.NewTestbedModel())
	req := testRequest(t)
	bare := gsight.NewScheduler(gsight.NewPredictor(gsight.PredictorConfig{Seed: 3}))
	if _, err := bare.Place(st, req); err == nil {
		t.Fatal("untrained scheduler placed without a fallback")
	}
	req = testRequest(t)
	placement, err := st.ProposeOrDegrade(bare, gsight.NewWorstFit(), false, req)
	if len(placement) == 0 {
		t.Fatalf("fallback did not serve the placement: %v", err)
	}
	if req.Detail.Outcome != "degraded" {
		t.Fatalf("outcome %q, want degraded", req.Detail.Outcome)
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
