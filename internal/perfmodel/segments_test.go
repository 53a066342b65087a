package perfmodel

import (
	"testing"

	"gsight/internal/rng"
	"gsight/internal/workload"
)

// coRun runs one co-execution of deps on sv, whose counters the caller
// reads afterwards.
func coRun(t *testing.T, m *Model, sv *lsSolver, deps ...*Deployment) {
	t.Helper()
	var ls, sc []*Deployment
	for _, d := range deps {
		if d.W.Class == workload.LS {
			ls = append(ls, d)
		} else {
			sc = append(sc, d)
		}
	}
	m.coExecute(sv, sc, ls)
}

// TestCoExecuteSolvesPerSegment: a single-phase job beside an LS
// service is one background segment (two with a start delay), however
// many time steps it spans.
func TestCoExecuteSolvesPerSegment(t *testing.T) {
	m := newModel()
	for _, delay := range []float64{0, 31} {
		sv := m.newSolver()
		mm := NewDeployment(workload.MatMul())
		mm.StartDelayS = delay
		coRun(t, m, sv, SpreadDeployment(workload.SocialNetwork(), m.Testbed), mm)
		if sv.co.steps < 20 {
			t.Fatalf("delay %v: only %d steps, the scenario no longer exercises reuse", delay, sv.co.steps)
		}
		if sv.solves > 3 {
			t.Errorf("delay %v: %d solves over %d steps, want at most 3", delay, sv.solves, sv.co.steps)
		}
	}
}

// TestCurveSamplingSolvesFarFewerThanSteps drives the scenario shape
// sched.BuildCurve samples for serve.NewCatalog (an LS service at an
// operating load with up to three micro-benchmark corunners beside one
// of its functions, at scenario.FastConfig resolution): the solves must
// stay under a twentieth of the steps.
func TestCurveSamplingSolvesFarFewerThanSteps(t *testing.T) {
	m := newModel()
	m.Cfg.StepS, m.Cfg.FixedPointIters = 5, 10
	corunners := []*workload.Workload{
		workload.MatMul(), workload.VideoProcessing(), workload.DD(), workload.Iperf(),
	}
	sv := m.newSolver()
	rnd := rng.Stream(42, "segments-test")
	for _, w := range []*workload.Workload{
		workload.SocialNetwork(), workload.ECommerce(), workload.MLServing(),
	} {
		for i := 0; i < 60; i++ {
			d := SpreadDeployment(w, m.Testbed)
			d.QPS = w.MaxQPS * rnd.Range(0.35, 0.75)
			deps := []*Deployment{d}
			for j := 1 + rnd.Intn(3); j > 0; j-- {
				c := NewDeployment(corunners[rnd.Intn(len(corunners))].Clone())
				target := rnd.Intn(len(w.Functions))
				for f := range c.Placement {
					c.Placement[f] = d.Placement[target]
					c.Socket[f] = d.Socket[target]
				}
				deps = append(deps, c)
			}
			coRun(t, m, sv, deps...)
		}
	}
	if sv.solves == 0 || sv.solves*20 >= sv.co.steps {
		t.Fatalf("%d solves over %d steps, want fewer than steps/20", sv.solves, sv.co.steps)
	}
	t.Logf("%d solves over %d steps", sv.solves, sv.co.steps)
}
