package platform

import (
	"bytes"
	"context"
	"testing"

	"gsight/internal/sched"
	"gsight/internal/workload"
)

// The §6.3 IPC floors are the admission contract of the schedulers that
// predict. WorstFit places by capacity alone, so `gsight sim -scheduler
// worstfit` skips calibrating them and runs with zero floors; these
// tests pin that this changes no output, and that the same comparison
// does see the floors under a scheduler that reads them.

const floorsSeed = 11

// calibratedFloors returns shortConfig's services' floors from their
// latency–IPC curves, as `gsight sim` calibrates them.
func calibratedFloors(t *testing.T) []float64 {
	t.Helper()
	cfg := shortConfig(nil, floorsSeed)
	ws := make([]*workload.Workload, len(cfg.Services))
	for i, s := range cfg.Services {
		ws[i] = s.W
	}
	floors := sched.CalibrateMinIPC(cfg.Model, ws, 250, floorsSeed)
	for i, f := range floors {
		if f <= 0 {
			t.Fatalf("%s calibrated to floor %v; want a positive floor", ws[i].Name, f)
		}
	}
	return floors
}

// runWithFloors runs the chaos scenario under the scheduler mk builds,
// with each service's IPC floor taken from floors.
func runWithFloors(t *testing.T, mk func() sched.Scheduler, floors []float64) *outputs {
	t.Helper()
	cfg := chaosConfig(t, mk(), floorsSeed)
	for i := range cfg.Services {
		cfg.Services[i].SLA = sched.SLA{MinIPC: floors[i]}
	}
	var o outputs
	if err := o.run(t, context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	return &o
}

// TestWorstFitIgnoresSLAFloors: a WorstFit run with calibrated floors
// and one with zero floors write the same stats and the same bytes in
// every stream.
func TestWorstFitIgnoresSLAFloors(t *testing.T) {
	floors := calibratedFloors(t)
	mk := func() sched.Scheduler { return sched.NewWorstFit() }
	withFloors := runWithFloors(t, mk, floors)
	runWithFloors(t, mk, make([]float64, len(floors))).same(t, withFloors)
}

// TestGsightReadsSLAFloors is the control: under Gsight the same pair
// of runs must differ, or the WorstFit test could pass without the
// floors reaching the run at all. The predictor reports an IPC below
// every floor, so with floors every SLA check fails and each
// placement spreads to the last resort, and without them none is
// checked.
func TestGsightReadsSLAFloors(t *testing.T) {
	floors := calibratedFloors(t)
	low := floors[0]
	for _, f := range floors {
		low = min(low, f)
	}
	mk := func() sched.Scheduler { return sched.NewGsight(&fixedPredictor{ipc: low / 2}) }
	withFloors := runWithFloors(t, mk, floors)
	without := runWithFloors(t, mk, make([]float64, len(floors)))
	if bytes.Equal(withFloors.stats, without.stats) {
		t.Fatal("Gsight's stats are the same with and without IPC floors")
	}
	if bytes.Equal(withFloors.log.Bytes(), without.log.Bytes()) {
		t.Fatal("Gsight's decision log is the same with and without IPC floors")
	}
}
