package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"gsight/internal/metrics"
	"gsight/internal/ml"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/workload"
)

var spec = resources.DefaultServerSpec("test")

func lsInput(w *workload.Workload, placement []int, qpsFrac float64) WorkloadInput {
	ps := profile.WorkloadProfiles(w, spec, nil)
	return WorkloadInput{
		Name:      w.Name,
		Class:     w.Class,
		Profiles:  ps,
		Placement: placement,
		QPSFrac:   qpsFrac,
	}
}

func scInput(w *workload.Workload, server int, delay float64) WorkloadInput {
	ps := profile.WorkloadProfiles(w, spec, nil)
	placement := make([]int, len(w.Functions))
	for i := range placement {
		placement[i] = server
	}
	return WorkloadInput{
		Name:        w.Name,
		Class:       w.Class,
		Profiles:    ps,
		Placement:   placement,
		StartDelayS: delay,
		LifetimeS:   w.SoloDurationS,
	}
}

func snPlacement() []int { return []int{0, 1, 2, 3, 4, 5, 6, 7, 0} }

// Encode is EncodeInto into a fresh row, the way the predictor encodes
// an observation.
func (c Coder) Encode(target int, ws []WorkloadInput) ([]float64, error) {
	x := make([]float64, c.Dim())
	if err := c.EncodeInto(x, target, ws); err != nil {
		return nil, err
	}
	return x, nil
}

func TestCoderDim(t *testing.T) {
	c := DefaultCoder()
	// 32(n+1)S + 2n with the aggregate block: 32*11*8 + 20.
	if got := c.Dim(); got != 32*11*8+20 {
		t.Fatalf("Dim = %d", got)
	}
	small := Coder{NumServers: 2, MaxWorkloads: 3}
	if got := small.Dim(); got != 32*4*2+6 {
		t.Fatalf("small Dim = %d", got)
	}
}

func TestEncodeBasics(t *testing.T) {
	c := DefaultCoder()
	sn := lsInput(workload.SocialNetwork(), snPlacement(), 0.5)
	mm := scInput(workload.MatMul(), 0, 30)
	x, err := c.Encode(0, []WorkloadInput{sn, mm})
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != c.Dim() {
		t.Fatalf("feature length %d != Dim %d", len(x), c.Dim())
	}
	nonzero := 0
	for _, v := range x {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 50 {
		t.Fatalf("suspiciously sparse encoding: %d nonzero", nonzero)
	}
	// Unused slots (2..9) must be all zero.
	for slot := 2; slot < c.MaxWorkloads; slot++ {
		for srv := 0; srv < c.NumServers; srv++ {
			for col := 0; col < metrics.NumSelected; col++ {
				if x[c.UFeatureIndex(slot, srv, col)] != 0 {
					t.Fatalf("padding slot %d not zero", slot)
				}
			}
		}
	}
}

func TestEncodeTargetInSlot0(t *testing.T) {
	c := DefaultCoder()
	sn := lsInput(workload.SocialNetwork(), snPlacement(), 0.5)
	mm := scInput(workload.MatMul(), 0, 30)
	x0, err := c.Encode(0, []WorkloadInput{sn, mm})
	if err != nil {
		t.Fatal(err)
	}
	x1, err := c.Encode(1, []WorkloadInput{sn, mm})
	if err != nil {
		t.Fatal(err)
	}
	// Different targets must produce different codes (slot 0 differs).
	same := true
	for i := range x0 {
		if x0[i] != x1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different targets encoded identically")
	}
}

func TestEncodeCorunnerPermutationInvariance(t *testing.T) {
	c := DefaultCoder()
	sn := lsInput(workload.SocialNetwork(), snPlacement(), 0.5)
	mm := scInput(workload.MatMul(), 0, 30)
	dd := scInput(workload.DD(), 3, 60)
	a, err := c.Encode(0, []WorkloadInput{sn, mm, dd})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Encode(0, []WorkloadInput{sn, dd, mm})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corunner order changed the code at feature %d", i)
		}
	}
}

func TestEncodeServerRelabelInvariance(t *testing.T) {
	// Renaming physical servers must not change the code: servers are
	// homogeneous and rows are assigned canonically.
	c := DefaultCoder()
	a, err := c.Encode(0, []WorkloadInput{
		lsInput(workload.ECommerce(), []int{0, 1, 2, 0, 1, 2}, 0.4),
		scInput(workload.MatMul(), 1, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Encode(0, []WorkloadInput{
		lsInput(workload.ECommerce(), []int{5, 7, 3, 5, 7, 3}, 0.4),
		scInput(workload.MatMul(), 7, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("server relabeling changed the code at feature %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEncodeColocationMatters(t *testing.T) {
	// The same workloads on the same servers vs different servers must
	// encode differently — that is the spatial overlap code.
	c := DefaultCoder()
	sn := lsInput(workload.SocialNetwork(), snPlacement(), 0.5)
	same, err := c.Encode(0, []WorkloadInput{sn, scInput(workload.MatMul(), 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	apart, err := c.Encode(0, []WorkloadInput{sn, scInput(workload.MatMul(), 5, 0)})
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range same {
		if same[i] != apart[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("placement change did not alter the code")
	}
}

func TestTemporalCodingRules(t *testing.T) {
	c := DefaultCoder()
	dOff := (c.MaxWorkloads + 1) * 2 * c.NumServers * metrics.NumSelected
	tOff := dOff + c.MaxWorkloads

	// LS+LS: D = T = 0 everywhere.
	x, err := c.Encode(0, []WorkloadInput{
		lsInput(workload.SocialNetwork(), snPlacement(), 0.5),
		lsInput(workload.ECommerce(), []int{0, 1, 2, 3, 4, 5}, 0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := dOff; i < tOff+c.MaxWorkloads; i++ {
		if x[i] != 0 {
			t.Fatalf("LS+LS should have zero D/T, got x[%d]=%v", i, x[i])
		}
	}

	// SC+SC: delays relative to the first SC arrival; lifetimes set.
	x, err = c.Encode(0, []WorkloadInput{
		scInput(workload.MatMul(), 0, 100),
		scInput(workload.DD(), 1, 40),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x[dOff+0]; got != 60 {
		t.Fatalf("target delay = %v, want 60 (100 - first arrival 40)", got)
	}
	if got := x[dOff+1]; got != 0 {
		t.Fatalf("first SC delay = %v, want 0", got)
	}
	if x[tOff+0] != 180 || x[tOff+1] != 150 {
		t.Fatalf("lifetimes = %v, %v; want 180, 150", x[tOff+0], x[tOff+1])
	}

	// Mixed: the LS slot keeps D = T = 0.
	x, err = c.Encode(0, []WorkloadInput{
		lsInput(workload.SocialNetwork(), snPlacement(), 0.5),
		scInput(workload.MatMul(), 0, 50),
	})
	if err != nil {
		t.Fatal(err)
	}
	if x[dOff+0] != 0 || x[tOff+0] != 0 {
		t.Fatal("LS target must carry D = T = 0")
	}
	if x[dOff+1] != 0 {
		t.Fatalf("single SC delay should be 0 (relative to itself), got %v", x[dOff+1])
	}
	if x[tOff+1] != 180 {
		t.Fatalf("SC lifetime = %v, want 180", x[tOff+1])
	}
}

func TestEncodeErrors(t *testing.T) {
	c := DefaultCoder()
	sn := lsInput(workload.SocialNetwork(), snPlacement(), 0.5)
	if _, err := c.Encode(5, []WorkloadInput{sn}); err == nil {
		t.Fatal("out-of-range target must error")
	}
	bad := sn
	bad.Placement = []int{0}
	if _, err := c.Encode(0, []WorkloadInput{bad}); err == nil {
		t.Fatal("profile/placement mismatch must error")
	}
	// More distinct servers than rows must error.
	small := Coder{NumServers: 2, MaxWorkloads: 3}
	three := lsInput(workload.MLServing(), []int{0, 1, 2}, 0.5)
	if _, err := small.Encode(0, []WorkloadInput{three}); err == nil {
		t.Fatal("too many servers must error")
	}
}

func TestClassify(t *testing.T) {
	sn := lsInput(workload.SocialNetwork(), snPlacement(), 0.5)
	ec := lsInput(workload.ECommerce(), []int{0, 1, 2, 3, 4, 5}, 0.5)
	mm := scInput(workload.MatMul(), 0, 0)
	bg := scInput(workload.IoTCollector(), 0, 0)
	cases := []struct {
		ws   []WorkloadInput
		want ColocationKind
	}{
		{[]WorkloadInput{sn, ec}, LSLS},
		{[]WorkloadInput{sn, mm}, LSSC},
		{[]WorkloadInput{sn, bg}, LSSC},
		{[]WorkloadInput{mm, mm}, SCSC},
		{[]WorkloadInput{mm, bg}, SCSC},
		{[]WorkloadInput{bg, bg}, BGBG},
	}
	for _, tc := range cases {
		if got := Classify(tc.ws); got != tc.want {
			t.Errorf("Classify = %v, want %v", got, tc.want)
		}
	}
	for _, k := range []ColocationKind{LSLS, LSSC, SCSC, BGBG} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestPredictorLifecycle(t *testing.T) {
	p := NewPredictor(Config{
		Coder:       Coder{NumServers: 4, MaxWorkloads: 3},
		Factory:     func(seed uint64) ml.Incremental { return ml.NewForest(ml.ForestConfig{Trees: 6, Seed: seed}) },
		UpdateEvery: 10,
		Seed:        1,
	})
	if _, err := p.Predict(IPCQoS, 0, nil); err == nil {
		t.Fatal("untrained predict must error")
	}

	// Build a toy dataset: IPC of matmul beside dd at varying delay.
	mm := scInput(workload.MatMul(), 0, 0)
	r := rng.New(2)
	var obs []Observation
	for i := 0; i < 60; i++ {
		dd := scInput(workload.DD(), i%2, r.Range(0, 100))
		label := 1.9 - 0.3*float64(i%2) + 0.001*dd.StartDelayS
		obs = append(obs, Observation{Target: 0, Inputs: []WorkloadInput{mm, dd}, Label: label})
	}
	if err := p.TrainObservations(IPCQoS, obs); err != nil {
		t.Fatal(err)
	}
	if p.SamplesSeen(IPCQoS) != 60 {
		t.Fatalf("samples seen = %d", p.SamplesSeen(IPCQoS))
	}
	dd := scInput(workload.DD(), 0, 50)
	got, err := p.Predict(IPCQoS, 0, []WorkloadInput{mm, dd})
	if err != nil {
		t.Fatal(err)
	}
	if got < 1.0 || got > 2.5 {
		t.Fatalf("prediction %v out of plausible range", got)
	}

	// Observe drips samples in; the 10th triggers an update.
	for i := 0; i < 10; i++ {
		if err := p.Observe(IPCQoS, 0, []WorkloadInput{mm, dd}, 1.8); err != nil {
			t.Fatal(err)
		}
	}
	if p.SamplesSeen(IPCQoS) != 70 {
		t.Fatalf("after observe: samples = %d, want 70", p.SamplesSeen(IPCQoS))
	}
	if err := p.Flush(IPCQoS); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorFlushBeforeTrain(t *testing.T) {
	p := NewPredictor(Config{
		Coder:       Coder{NumServers: 4, MaxWorkloads: 3},
		Factory:     func(seed uint64) ml.Incremental { return ml.NewForest(ml.ForestConfig{Trees: 4, Seed: seed}) },
		UpdateEvery: 1000,
	})
	mm := scInput(workload.MatMul(), 0, 0)
	dd := scInput(workload.DD(), 0, 10)
	for i := 0; i < 20; i++ {
		if err := p.Observe(JCTQoS, 0, []WorkloadInput{mm, dd}, 200); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(JCTQoS); err != nil {
		t.Fatal(err)
	}
	// Flush on an empty buffer is a no-op.
	if err := p.Flush(JCTQoS); err != nil {
		t.Fatal(err)
	}
	got, err := p.Predict(JCTQoS, 0, []WorkloadInput{mm, dd})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-200) > 40 {
		t.Fatalf("prediction %v, want ~200", got)
	}
}

// TestTrainObservationsRefusesSecondTraining: TrainObservations is a
// kind's first training only. On a kind trained by it, or by a flush —
// installed, or still in flight beside the caller, which it installs
// first — it returns ErrTrained, and the model is the one its last
// training installed.
func TestTrainObservationsRefusesSecondTraining(t *testing.T) {
	boot, ref := ckptPredictor(4), ckptPredictor(4)
	lagged, lagRef := lagPredictor(4, 6), lagPredictor(4, 6)
	for _, p := range []*Predictor{boot, ref} {
		if err := p.TrainObservations(IPCQoS, tier0Bootstrap(30)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []*Predictor{lagged, lagRef} {
		for i := 0; i < 10; i++ { // the 10th observation's IPC flush trains beside the caller
			learnObs(t, p, i)
		}
		if _, ok := p.InstallDue(); !ok {
			t.Fatal("no training in flight")
		}
	}
	if err := lagRef.settle(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		p, ref *Predictor
	}{{"bootstrapped", boot, ref}, {"flushed", lagged, lagRef}} {
		if err := c.p.TrainObservations(IPCQoS, tier0Bootstrap(20)); !errors.Is(err, ErrTrained) {
			t.Fatalf("%s: second training returned %v, want ErrTrained", c.name, err)
		}
		got, err := c.p.CheckpointState()
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.ref.CheckpointState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the refused training left a different model", c.name)
		}
	}
}

// TestTrainObservationsLowestIndexError: rows are encoded on the pool,
// and of several bad rows the lowest index's error is returned, at any
// width.
func TestTrainObservationsLowestIndexError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	mm := scInput(workload.MatMul(), 0, 0)
	obs := make([]Observation, 64)
	for i := range obs {
		obs[i] = Observation{Inputs: []WorkloadInput{mm}, Label: 100}
	}
	obs[9].Target, obs[40].Target = 5, 7
	p := NewPredictor(Config{Coder: Coder{NumServers: 4, MaxWorkloads: 3}})
	err := p.TrainObservations(JCTQoS, obs)
	if err == nil || !strings.Contains(err.Error(), "target 5 out of range") {
		t.Fatalf("got %v, want row 9's error", err)
	}
}

func TestMetricImportance(t *testing.T) {
	p := NewPredictor(Config{
		Coder:       Coder{NumServers: 4, MaxWorkloads: 3},
		Factory:     func(seed uint64) ml.Incremental { return ml.NewForest(ml.ForestConfig{Trees: 8, Seed: seed}) },
		UpdateEvery: 10,
	})
	if p.MetricImportance(IPCQoS) != nil {
		t.Fatal("untrained importance should be nil")
	}
	mm := scInput(workload.MatMul(), 0, 0)
	r := rng.New(3)
	var obs []Observation
	pool := []*workload.Workload{workload.DD(), workload.Iperf(), workload.VideoProcessing()}
	for i := 0; i < 120; i++ {
		co := scInput(pool[i%3], i%2, r.Range(0, 100))
		obs = append(obs, Observation{
			Target: 0,
			Inputs: []WorkloadInput{mm, co},
			Label:  1.9 - 0.2*float64(i%3) - 0.2*float64(i%2),
		})
	}
	if err := p.TrainObservations(IPCQoS, obs); err != nil {
		t.Fatal(err)
	}
	imp := p.MetricImportance(IPCQoS)
	if len(imp) != metrics.NumSelected {
		t.Fatalf("importance length = %d", len(imp))
	}
	sum := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Fatal("negative importance")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importance sums to %v", sum)
	}
}

func TestQoSKindString(t *testing.T) {
	if IPCQoS.String() != "ipc" || TailLatencyQoS.String() != "p99" || JCTQoS.String() != "jct" {
		t.Fatal("QoS kind names wrong")
	}
}
