package sched

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"gsight/internal/core"
	"gsight/internal/perfmodel"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/workload"
)

var spec = resources.DefaultServerSpec("test")

func inputFor(w *workload.Workload, qpsFrac float64) core.WorkloadInput {
	ps := profile.WorkloadProfiles(w, spec, nil)
	in := core.WorkloadInput{
		Name:      w.Name,
		Class:     w.Class,
		Profiles:  ps,
		Placement: make([]int, len(ps)),
		QPSFrac:   qpsFrac,
	}
	if w.Class == workload.LS {
		in.Replicas = make([]int, len(ps))
		for f := range in.Replicas {
			in.Replicas[f] = perfmodel.LSReplicasFor(w, f, w.MaxQPS)
		}
	} else {
		in.LifetimeS = w.SoloDurationS
	}
	return in
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

// stubPredictor returns a fixed IPC, letting tests force SLA outcomes.
type stubPredictor struct{ ipc float64 }

func (s *stubPredictor) TrainObservations(core.QoSKind, []core.Observation) error { return nil }
func (s *stubPredictor) Predict(core.QoSKind, int, []core.WorkloadInput) (float64, error) {
	return s.ipc, nil
}
func (s *stubPredictor) Observe(core.QoSKind, int, []core.WorkloadInput, float64) error { return nil }
func (s *stubPredictor) Flush(core.QoSKind) error                                       { return nil }
func (s *stubPredictor) Name() string                                                   { return "stub" }
func (s *stubPredictor) PredictBatchInto(k core.QoSKind, q []core.Query, out []float64) error {
	return predictEach(s, k, q, out)
}

func TestStateBookkeeping(t *testing.T) {
	st := StateFromProfiles(spec, 4)
	if st.NumServers() != 4 || st.ActiveServers() != 0 {
		t.Fatal("fresh state wrong")
	}
	in := inputFor(workload.MatMul(), 0)
	in.Placement = []int{2}
	st.Commit(in, SLA{})
	if st.ActiveServers() != 1 {
		t.Fatal("commit did not activate server")
	}
	if st.Free(2)[resources.CPU] >= spec.Capacity[resources.CPU] {
		t.Fatal("commit did not consume CPU")
	}
	if !st.Release("matmul") {
		t.Fatal("release failed")
	}
	if st.ActiveServers() != 0 {
		t.Fatal("release did not free server")
	}
	if st.Release("matmul") {
		t.Fatal("double release succeeded")
	}
}

func TestGsightPacksWhenSLAAllows(t *testing.T) {
	st := StateFromProfiles(spec, 4)
	// Pre-load server 0 so it is the busiest.
	seed := inputFor(workload.MatMul(), 0)
	seed.Placement = []int{0}
	st.Commit(seed, SLA{})

	g := NewGsight(&stubPredictor{ipc: 99}) // SLA always satisfied
	req := &Request{Input: inputFor(workload.DD(), 0), SLA: SLA{MinIPC: 1}}
	placement, err := g.Place(st, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range placement {
		if s != 0 {
			t.Fatalf("full-overlap placement should pack onto busy server 0, got %v", placement)
		}
	}
}

func TestGsightSpreadsWhenSLAViolated(t *testing.T) {
	st := StateFromProfiles(spec, 4)
	seed := inputFor(workload.MatMul(), 0)
	seed.Placement = []int{0}
	st.Commit(seed, SLA{})

	// Predictor always fails the SLA: the binary search must fall all
	// the way to the full-spread fallback without erroring.
	g := NewGsight(&stubPredictor{ipc: 0.1})
	req := &Request{Input: inputFor(workload.ECommerce(), 0.5), SLA: SLA{MinIPC: 1}}
	placement, err := g.Place(st, req)
	if err != nil {
		t.Fatal(err)
	}
	servers := map[int]bool{}
	for _, s := range placement {
		servers[s] = true
	}
	if len(servers) < 2 {
		t.Fatalf("expected spread placement, got %v", placement)
	}
}

func TestGsightChecksRunningWorkloads(t *testing.T) {
	// A predictor that reports bad QoS only for running workloads
	// (target > 0 after candidate insertion at slot 0).
	p := &targetAware{}
	st := StateFromProfiles(spec, 4)
	running := inputFor(workload.SocialNetwork(), 0.5)
	for f := range running.Placement {
		running.Placement[f] = f % 4
	}
	st.Commit(running, SLA{MinIPC: 1.0})

	g := NewGsight(p)
	req := &Request{Input: inputFor(workload.MatMul(), 0), SLA: SLA{}}
	if _, err := g.Place(st, req); err != nil {
		t.Fatal(err)
	}
	if !p.sawRunningCheck {
		t.Fatal("scheduler never checked the running workload's SLA")
	}
}

type targetAware struct{ sawRunningCheck bool }

func (s *targetAware) TrainObservations(core.QoSKind, []core.Observation) error { return nil }
func (s *targetAware) Predict(_ core.QoSKind, target int, _ []core.WorkloadInput) (float64, error) {
	if target > 0 {
		s.sawRunningCheck = true
	}
	return 99, nil
}
func (s *targetAware) Observe(core.QoSKind, int, []core.WorkloadInput, float64) error { return nil }
func (s *targetAware) Flush(core.QoSKind) error                                       { return nil }
func (s *targetAware) Name() string                                                   { return "targetAware" }
func (s *targetAware) PredictBatchInto(k core.QoSKind, q []core.Query, out []float64) error {
	return predictEach(s, k, q, out)
}

func TestBestFitPicksTightestServer(t *testing.T) {
	st := StateFromProfiles(spec, 3)
	// Server 1 is the most loaded (least headroom).
	a := inputFor(workload.MatMul(), 0)
	a.Name = "a"
	a.Placement = []int{1}
	st.Commit(a, SLA{})
	b := inputFor(workload.DD(), 0)
	b.Name = "b"
	b.Placement = []int{2}
	st.Commit(b, SLA{})

	bf := NewBestFit(nil)
	req := &Request{Input: inputFor(workload.FloatOp(), 0)}
	placement, err := bf.Place(st, req)
	if err != nil {
		t.Fatal(err)
	}
	if placement[0] != 1 {
		t.Fatalf("best fit chose server %d, want 1 (least headroom)", placement[0])
	}
}

func TestWorstFitPicksEmptiestServer(t *testing.T) {
	st := StateFromProfiles(spec, 3)
	a := inputFor(workload.MatMul(), 0)
	a.Placement = []int{0}
	st.Commit(a, SLA{})

	wf := NewWorstFit()
	req := &Request{Input: inputFor(workload.DD(), 0)}
	placement, err := wf.Place(st, req)
	if err != nil {
		t.Fatal(err)
	}
	if placement[0] == 0 {
		t.Fatalf("worst fit chose the busy server")
	}
}

func TestMemoryIsNeverOversubscribed(t *testing.T) {
	smallSpec := spec
	smallSpec.Capacity[resources.Memory] = 0.4 // 400 MB per server
	st := StateFromProfiles(smallSpec, 2)
	big := inputFor(workload.VideoProcessing(), 0) // 6 GB demand
	for _, s := range []Scheduler{NewGsight(&stubPredictor{ipc: 9}), NewBestFit(nil), NewWorstFit()} {
		if _, err := s.Place(st, &Request{Input: big}); err == nil {
			t.Errorf("%s oversubscribed memory", s.Name())
		}
	}
}

func TestCurveSLATransform(t *testing.T) {
	// Synthetic knee: latency flat at 50ms above ipc 1.0, exploding
	// below.
	var pts []CurvePoint
	for i := 0; i < 50; i++ {
		ipc := 0.5 + 0.02*float64(i)
		p99 := 50.0
		if ipc < 1.0 {
			p99 = 50 + 4000*(1.0-ipc)
		}
		pts = append(pts, CurvePoint{IPC: ipc, P99Ms: p99})
	}
	c := NewCurve(pts)
	minIPC, ok := c.MinIPCFor(100)
	if !ok {
		t.Fatal("SLA should be satisfiable")
	}
	if minIPC < 0.9 || minIPC > 1.1 {
		t.Fatalf("MinIPCFor(100ms) = %v, want ~1.0", minIPC)
	}
	if _, ok := c.MinIPCFor(1); ok {
		t.Fatal("1ms SLA should be unsatisfiable")
	}
	empty := NewCurve(nil)
	if _, ok := empty.MinIPCFor(10); ok {
		t.Fatal("empty curve cannot satisfy")
	}
}

func TestBuildCurveShape(t *testing.T) {
	m := perfmodel.New(resources.DefaultTestbed())
	c := BuildCurve(m, workload.SocialNetwork(), 60, 5)
	pts := c.Points()
	if len(pts) < 50 {
		t.Fatalf("curve too sparse: %d points", len(pts))
	}
	// The knee property: mean latency at the lowest IPC quartile must
	// exceed that at the highest quartile.
	q := len(pts) / 4
	var lowSum, highSum float64
	for i := 0; i < q; i++ {
		lowSum += pts[i].P99Ms
		highSum += pts[len(pts)-1-i].P99Ms
	}
	if lowSum <= highSum {
		t.Fatalf("no knee: low-IPC latency %v <= high-IPC %v", lowSum/float64(q), highSum/float64(q))
	}
	// SLA transformation yields a usable floor.
	if _, ok := c.MinIPCFor(workload.SocialNetwork().SLAp99Ms); !ok {
		t.Fatal("SLA transform found no feasible IPC floor")
	}
}

// TestCalibrateMinIPCWorkerCountIndependent: the curve sweep is
// evaluated on a GOMAXPROCS-wide pool; the floors and every curve point
// are bit-equal at 1 and 4 workers.
func TestCalibrateMinIPCWorkerCountIndependent(t *testing.T) {
	m := perfmodel.New(resources.DefaultTestbed())
	services := []*workload.Workload{workload.SocialNetwork(), workload.ECommerce(), workload.MLServing()}
	at := func(procs int) ([]float64, []CurvePoint) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return CalibrateMinIPC(m, services, 60, 9), BuildCurve(m, services[0], 60, 9).Points()
	}
	floors1, pts1 := at(1)
	floors4, pts4 := at(4)
	for i := range floors1 {
		if math.Float64bits(floors1[i]) != math.Float64bits(floors4[i]) {
			t.Fatalf("%s floor: %v at 1 worker, %v at 4", services[i].Name, floors1[i], floors4[i])
		}
	}
	if !slices.Equal(pts1, pts4) {
		t.Fatal("curve points differ between 1 and 4 workers")
	}
}
