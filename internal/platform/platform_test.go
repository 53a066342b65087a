package platform

import (
	"testing"

	"gsight/internal/core"
	"gsight/internal/perfmodel"
	"gsight/internal/resources"
	"gsight/internal/sched"
	"gsight/internal/trace"
	"gsight/internal/workload"
)

// fixedPredictor always reports a healthy IPC, so the Gsight scheduler
// packs maximally.
type fixedPredictor struct{ ipc float64 }

func (f *fixedPredictor) TrainObservations(core.QoSKind, []core.Observation) error { return nil }
func (f *fixedPredictor) Predict(core.QoSKind, int, []core.WorkloadInput) (float64, error) {
	return f.ipc, nil
}
func (f *fixedPredictor) Observe(core.QoSKind, int, []core.WorkloadInput, float64) error { return nil }
func (f *fixedPredictor) Flush(core.QoSKind) error                                       { return nil }
func (f *fixedPredictor) Name() string                                                   { return "fixed" }
func (f *fixedPredictor) PredictBatchInto(k core.QoSKind, q []core.Query, out []float64) error {
	return predictEach(f, k, q, out)
}

// predictEach answers a batch with one Predict per query: the batch
// method of the test predictors.
func predictEach(p core.QoSPredictor, kind core.QoSKind, queries []core.Query, out []float64) error {
	for i, q := range queries {
		v, err := p.Predict(kind, q.Target, q.Inputs)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

func shortConfig(s sched.Scheduler, seed uint64) Config {
	return Config{
		Model:     perfmodel.New(resources.DefaultTestbed()),
		Scheduler: s,
		Services: []LSService{
			{
				W:       workload.SocialNetwork(),
				Pattern: trace.DefaultPattern(250),
				SLA:     sched.SLA{MinIPC: 0.9},
			},
			{
				W:       workload.ECommerce(),
				Pattern: trace.DefaultPattern(350),
				SLA:     sched.SLA{MinIPC: 1.0},
			},
		},
		SCPool:          []*workload.Workload{workload.MatMul(), workload.DD(), workload.FloatOp()},
		SCMeanIntervalS: 200,
		DurationS:       1800,
		Seed:            seed,
	}
}

func TestRunProducesSeries(t *testing.T) {
	st, err := Run(nil, shortConfig(sched.NewWorstFit(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != 60 {
		t.Fatalf("steps = %d, want 60", st.Steps)
	}
	if len(st.Density) == 0 || len(st.CPUUtil) == 0 || len(st.MemUtil) == 0 {
		t.Fatal("metric series empty")
	}
	for _, d := range st.Density {
		if d <= 0 {
			t.Fatal("non-positive density")
		}
	}
	for _, u := range append(append([]float64{}, st.CPUUtil...), st.MemUtil...) {
		if u < 0 || u > 2 {
			t.Fatalf("implausible utilization %v", u)
		}
	}
	if len(st.SLAOK["social-network"]) != st.Steps {
		t.Fatalf("SLA series length %d, want %d", len(st.SLAOK["social-network"]), st.Steps)
	}
	if st.ColdStarts == 0 {
		t.Fatal("no cold starts recorded")
	}
	if st.Placements == 0 {
		t.Fatal("no placements recorded")
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(nil, shortConfig(sched.NewWorstFit(), 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(nil, shortConfig(sched.NewWorstFit(), 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Density) != len(b.Density) {
		t.Fatal("series lengths differ")
	}
	for i := range a.Density {
		if a.Density[i] != b.Density[i] {
			t.Fatalf("density diverged at step %d", i)
		}
	}
	if a.ColdStarts != b.ColdStarts || a.Migrations != b.Migrations {
		t.Fatal("counters diverged")
	}
}

func TestPackingBeatsSpreadingOnDensity(t *testing.T) {
	packed, err := Run(nil, shortConfig(sched.NewGsight(&fixedPredictor{ipc: 99}), 3))
	if err != nil {
		t.Fatal(err)
	}
	spread, err := Run(nil, shortConfig(sched.NewWorstFit(), 3))
	if err != nil {
		t.Fatal(err)
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(packed.Density) <= mean(spread.Density) {
		t.Fatalf("packing density %v not above spreading %v",
			mean(packed.Density), mean(spread.Density))
	}
}

func TestSLARatio(t *testing.T) {
	st := &Stats{SLAOK: map[string][]bool{"x": {true, true, false, true}}}
	if got := st.SLARatio("x"); got != 0.75 {
		t.Fatalf("SLARatio = %v", got)
	}
	if got := st.SLARatio("ghost"); got != 0 {
		t.Fatalf("missing workload ratio = %v", got)
	}
}

func TestJCTsRecorded(t *testing.T) {
	cfg := shortConfig(sched.NewWorstFit(), 5)
	cfg.DurationS = 3600
	cfg.SCMeanIntervalS = 120
	st, err := Run(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, jcts := range st.JCTs {
		total += len(jcts)
		for _, j := range jcts {
			if j <= 0 {
				t.Fatal("non-positive JCT")
			}
		}
	}
	if total == 0 {
		t.Fatal("no batch jobs completed in an hour")
	}
}
