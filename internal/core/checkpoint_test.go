package core

import (
	"bytes"
	"testing"

	"gsight/internal/ml"
	"gsight/internal/workload"
)

func ckptPredictor(seed uint64) *Predictor {
	return NewPredictor(Config{
		Coder:       Coder{NumServers: 4, MaxWorkloads: 3},
		Factory:     func(s uint64) ml.Incremental { return ml.NewForest(ml.ForestConfig{Trees: 6, Seed: s, Window: 64}) },
		UpdateEvery: 10,
		Seed:        seed,
	})
}

// TestPredictorCheckpointRoundTrip: restoring a checkpoint into a fresh
// same-configured predictor must continue the learning stream exactly —
// same predictions before and after further observations on both.
func TestPredictorCheckpointRoundTrip(t *testing.T) {
	a := ckptPredictor(5)
	mm := scInput(workload.MatMul(), 0, 0)
	obsAt := func(p *Predictor, i int) {
		dd := scInput(workload.DD(), i%2, float64(i%7)*10)
		if err := p.Observe(IPCQoS, 0, []WorkloadInput{mm, dd}, 1.9-0.01*float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	// Past the first flush (trained) with a part-filled pending buffer.
	for i := 0; i < 24; i++ {
		obsAt(a, i)
	}
	raw, err := a.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}

	b := ckptPredictor(5)
	if err := b.RestoreCheckpoint(raw); err != nil {
		t.Fatal(err)
	}
	if a.SamplesSeen(IPCQoS) != b.SamplesSeen(IPCQoS) {
		t.Fatalf("samples seen: %d vs %d", a.SamplesSeen(IPCQoS), b.SamplesSeen(IPCQoS))
	}
	// Drive both through more observations (crossing another flush) and
	// compare predictions bit-for-bit.
	for i := 24; i < 40; i++ {
		obsAt(a, i)
		obsAt(b, i)
	}
	dd := scInput(workload.DD(), 1, 30)
	pa, errA := a.Predict(IPCQoS, 0, []WorkloadInput{mm, dd})
	pb, errB := b.Predict(IPCQoS, 0, []WorkloadInput{mm, dd})
	if errA != nil || errB != nil {
		t.Fatalf("predict errors: %v, %v", errA, errB)
	}
	if pa != pb {
		t.Fatalf("restored predictor diverged: %v != %v", pb, pa)
	}
}

// TestPredictorRestoreRejectsCorruptState: malformed checkpoints must
// not be applied.
func TestPredictorRestoreRejectsCorruptState(t *testing.T) {
	for _, raw := range []string{
		`not json`,
		`{"version":2,"kinds":[]}`,
		`{"version":1,"kinds":[]}`, // wrong kind count
		`{"version":1,"kinds":[{"seen":-1},{},{}]}`,
		`{"version":1,"kinds":[{"pending_x":[[1]],"pending_y":[1]},{},{}]}`, // dim mismatch
	} {
		if err := ckptPredictor(7).RestoreCheckpoint([]byte(raw)); err == nil {
			t.Errorf("corrupt checkpoint %q accepted", raw)
		}
	}
}

// TestCaptureDoesNotAliasLiveState is the aliasing audit: a capture
// taken at observation n must encode to the CheckpointState bytes of
// observation n however far the predictor has moved on. The 250
// further observations cross two flushes (the pending buffer is reset
// in place, the forest grows and prunes trees in place) and wrap the
// 120-row ring, and the encode runs on another goroutine while they
// are applied — under -race that also proves the capture shares
// nothing the learner still writes.
func TestCaptureDoesNotAliasLiveState(t *testing.T) {
	p := NewPredictor(Config{
		Coder:       Coder{NumServers: 4, MaxWorkloads: 3},
		Factory:     func(s uint64) ml.Incremental { return ml.NewForest(ml.ForestConfig{Trees: 6, Seed: s, Window: 120}) },
		UpdateEvery: 100,
		Seed:        5,
	})
	mm := scInput(workload.MatMul(), 0, 0)
	observe := func(i int) {
		dd := scInput(workload.DD(), i%2, float64(i%7)*10)
		if err := p.Observe(IPCQoS, 0, []WorkloadInput{mm, dd}, 1.9-0.01*float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	// One fit and one update behind it (so the tree slice has the spare
	// capacity later updates append and prune within), the ring wrapped
	// once, 30 rows pending.
	const n = 230
	for i := 0; i < n; i++ {
		observe(i)
	}
	want, err := p.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Capture()
	if err != nil {
		t.Fatal(err)
	}

	type encoded struct {
		raw []byte
		err error
	}
	early := make(chan encoded, 1)
	go func() {
		raw, err := c.Encode()
		early <- encoded{raw, err}
	}()
	for i := n; i < n+250; i++ {
		observe(i)
	}
	if got := p.SamplesSeen(IPCQoS); got != 400 {
		t.Fatalf("samples seen = %d, want 400 (two flushes after the capture)", got)
	}
	e := <-early
	if e.err != nil {
		t.Fatal(e.err)
	}
	if !bytes.Equal(e.raw, want) {
		t.Fatal("encode concurrent with 250 observations differs from the checkpoint taken at the capture point")
	}
	late, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(late, want) {
		t.Fatal("encode after 250 observations differs from the checkpoint taken at the capture point")
	}
	now, err := p.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(now, want) {
		t.Fatal("checkpoint did not change across 250 observations: the test exercises nothing")
	}
}
