package core

import (
	"errors"
	"testing"

	"gsight/internal/ml"
	"gsight/internal/workload"
)

// testColocations builds a spread of colocation shapes — LSLS, LSSC,
// SCSC, wide placements — exercising every coding path.
func testColocations() [][]WorkloadInput {
	sn := lsInput(workload.SocialNetwork(), snPlacement(), 0.5)
	ec := lsInput(workload.ECommerce(), []int{0, 1, 2, 0, 1, 2}, 0.4)
	mm := scInput(workload.MatMul(), 0, 30)
	dd := scInput(workload.DD(), 3, 60)
	fo := scInput(workload.FloatOp(), 7, 0)
	return [][]WorkloadInput{
		{sn, mm},
		{sn, ec},
		{mm, dd},
		{sn, mm, dd, fo},
		{ec, fo, dd},
	}
}

// TestEncodeIntoMatchesEncode is the tentpole equivalence: the pooled,
// allocation-free EncodeInto must reproduce Encode bit for bit — for
// every target of every colocation, and across reuses of a dirty
// destination buffer.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	c := DefaultCoder()
	dst := make([]float64, c.Dim())
	// Pre-poison the buffer: EncodeInto must fully overwrite it.
	for i := range dst {
		dst[i] = -1e9
	}
	for ci, ws := range testColocations() {
		for target := range ws {
			want, err := c.Encode(target, ws)
			if err != nil {
				t.Fatalf("colocation %d target %d: Encode: %v", ci, target, err)
			}
			if err := c.EncodeInto(dst, target, ws); err != nil {
				t.Fatalf("colocation %d target %d: EncodeInto: %v", ci, target, err)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("colocation %d target %d: feature %d differs: %v vs %v",
						ci, target, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestEncodeIntoValidatesDst(t *testing.T) {
	c := DefaultCoder()
	ws := testColocations()[0]
	if err := c.EncodeInto(make([]float64, c.Dim()-1), 0, ws); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := c.EncodeInto(make([]float64, c.Dim()), -1, ws); err == nil {
		t.Fatal("negative target accepted")
	}
	if err := c.EncodeInto(make([]float64, c.Dim()), len(ws), ws); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

// TestEncodeIntoAfterError reuses the pooled scratch right after an
// error return: the error path must leave no stale per-slot state
// behind (rows touched before the failure are cleared on release).
func TestEncodeIntoAfterError(t *testing.T) {
	c := Coder{NumServers: 2, MaxWorkloads: 3}
	good := []WorkloadInput{
		lsInput(workload.ECommerce(), []int{0, 1, 0, 1, 0, 1}, 0.4),
		scInput(workload.MatMul(), 1, 10),
	}
	// Needs 3 distinct servers with S=2: fails mid-encode after some
	// rows were already touched.
	bad := []WorkloadInput{
		lsInput(workload.ECommerce(), []int{0, 1, 2, 0, 1, 2}, 0.4),
		scInput(workload.MatMul(), 1, 10),
	}
	dst := make([]float64, c.Dim())
	if err := c.EncodeInto(dst, 0, bad); !errors.Is(err, ErrTooManyServers) {
		t.Fatalf("want ErrTooManyServers, got %v", err)
	}
	want, err := c.Encode(0, good)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := c.EncodeInto(dst, 0, good); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("round %d: stale scratch corrupted feature %d: %v vs %v",
					round, i, dst[i], want[i])
			}
		}
	}
}

// TestEncodeIntoCorunnerPermutationInvariance re-checks the
// canonicalization claim on the buffer-reusing path: shuffling the
// corunners (everything but the target) must not change a single bit.
func TestEncodeIntoCorunnerPermutationInvariance(t *testing.T) {
	c := DefaultCoder()
	sn := lsInput(workload.SocialNetwork(), snPlacement(), 0.5)
	mm := scInput(workload.MatMul(), 0, 30)
	dd := scInput(workload.DD(), 3, 60)
	fo := scInput(workload.FloatOp(), 5, 90)
	perms := [][]WorkloadInput{
		{sn, mm, dd, fo},
		{sn, fo, mm, dd},
		{sn, dd, fo, mm},
		{sn, fo, dd, mm},
	}
	ref := make([]float64, c.Dim())
	if err := c.EncodeInto(ref, 0, perms[0]); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, c.Dim())
	for pi, ws := range perms[1:] {
		if err := c.EncodeInto(got, 0, ws); err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("perm %d changed the code at feature %d", pi+1, i)
			}
		}
	}
}

// trainedTestPredictor fits small IPC and JCT models over the test
// colocations so prediction equivalence can be checked end to end.
func trainedTestPredictor(t *testing.T) (*Predictor, []Query) {
	t.Helper()
	p := NewPredictor(Config{
		Seed: 7,
		Factory: func(seed uint64) ml.Incremental {
			return ml.NewForest(ml.ForestConfig{Trees: 6, Seed: seed, Tree: ml.TreeConfig{MTry: 48}})
		},
	})
	var queries []Query
	var ipcObs, jctObs []Observation
	label := 0.4
	for _, ws := range testColocations() {
		for target := range ws {
			queries = append(queries, Query{Target: target, Inputs: ws})
			ipcObs = append(ipcObs, Observation{Target: target, Inputs: ws, Label: label})
			jctObs = append(jctObs, Observation{Target: target, Inputs: ws, Label: label * 100})
			label += 0.17
		}
	}
	if err := p.TrainObservations(IPCQoS, ipcObs); err != nil {
		t.Fatal(err)
	}
	if err := p.TrainObservations(JCTQoS, jctObs); err != nil {
		t.Fatal(err)
	}
	return p, queries
}

// TestPredictBatchMatchesPredict: batched inference must be
// bit-identical to the per-query path for every QoS kind it serves —
// including JCT, a log kind, whose batch the predictor exponentiates
// after the forest's batch path.
func TestPredictBatchMatchesPredict(t *testing.T) {
	p, queries := trainedTestPredictor(t)
	for _, kind := range []QoSKind{IPCQoS, JCTQoS} {
		got := make([]float64, len(queries))
		if err := p.PredictBatchInto(kind, queries, got); err != nil {
			t.Fatalf("%v: PredictBatchInto: %v", kind, err)
		}
		for i, q := range queries {
			want, err := p.Predict(kind, q.Target, q.Inputs)
			if err != nil {
				t.Fatalf("%v query %d: Predict: %v", kind, i, err)
			}
			if got[i] != want {
				t.Fatalf("%v query %d: batch %v != single %v", kind, i, got[i], want)
			}
		}
	}
}

func TestPredictBatchErrors(t *testing.T) {
	p, queries := trainedTestPredictor(t)
	if err := p.PredictBatchInto(TailLatencyQoS, queries, make([]float64, len(queries))); err == nil {
		t.Fatal("untrained kind accepted")
	}
	if err := p.PredictBatchInto(IPCQoS, queries, make([]float64, len(queries)-1)); err == nil {
		t.Fatal("short out slice accepted")
	}
	if err := p.PredictBatchInto(IPCQoS, nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestPredictConcurrent exercises the pooled encode buffers under
// concurrent Predict and PredictBatchInto calls (run with -race).
func TestPredictConcurrent(t *testing.T) {
	p, queries := trainedTestPredictor(t)
	want := make([]float64, len(queries))
	for i, q := range queries {
		v, err := p.Predict(IPCQoS, q.Target, q.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for round := 0; round < 20; round++ {
				if g%2 == 0 {
					got := make([]float64, len(queries))
					if err := p.PredictBatchInto(IPCQoS, queries, got); err != nil {
						done <- err
						return
					}
					for i := range got {
						if got[i] != want[i] {
							done <- errors.New("concurrent batch diverged")
							return
						}
					}
				} else {
					for i, q := range queries {
						got, err := p.Predict(IPCQoS, q.Target, q.Inputs)
						if err != nil {
							done <- err
							return
						}
						if got != want[i] {
							done <- errors.New("concurrent predict diverged")
							return
						}
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
