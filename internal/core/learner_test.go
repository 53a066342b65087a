package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gsight/internal/wire"
	"gsight/internal/workload"
)

// lagPredictor is ckptPredictor training beside its caller, installing
// lag Ticks after each flush.
func lagPredictor(seed uint64, lag int) *Predictor {
	p := ckptPredictor(seed)
	p.cfg.InstallLag = lag
	return p
}

// learnObs feeds observation i — IPC every time, JCT (a forest on
// log labels) every other time — and, for a lagged predictor, ticks once.
func learnObs(t testing.TB, p *Predictor, i int) {
	t.Helper()
	tier0Obs(t, p, i)
	if i%2 == 0 {
		mm := scInput(workload.MatMul(), 0, 0)
		dd := scInput(workload.DD(), i%3, float64(i%5)*10)
		if err := p.Observe(JCTQoS, 0, []WorkloadInput{mm, dd}, 20+float64(i%9)); err != nil {
			t.Fatal(err)
		}
	}
	if p.cfg.InstallLag > 0 {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
}

// probes are the colocations predictions are compared on.
func probes() []Query {
	mm := scInput(workload.MatMul(), 0, 0)
	var qs []Query
	for i := 0; i < 6; i++ {
		qs = append(qs, Query{Target: 0, Inputs: []WorkloadInput{mm, scInput(workload.DD(), i%2, float64(i)*10)}})
	}
	return qs
}

// predictions returns the IPC and JCT predictions on the probes.
func predictions(t testing.TB, p *Predictor) []float64 {
	t.Helper()
	qs := probes()
	out := make([]float64, 2*len(qs))
	for k, kind := range []QoSKind{IPCQoS, JCTQoS} {
		if !p.trained[kind] {
			continue
		}
		if err := p.PredictBatchInto(kind, qs, out[k*len(qs):(k+1)*len(qs)]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestInstallLagChangesWhenNotWhat: a predictor that trains beside its
// caller keeps predicting with the model it had until the install Tick,
// then holds exactly the model — forests, tier-0 generation and fit,
// sample counts — an inline predictor reached at the flush, whether the
// install comes at its due Tick (lag 4) or early because the next flush
// came first (lag 30, flushes every 10 observations). Both scorers are
// attached before the first observation.
func TestInstallLagChangesWhenNotWhat(t *testing.T) {
	for _, lag := range []int{4, 30} {
		inline, lagged := ckptPredictor(5), lagPredictor(5, lag)
		inlineT0, laggedT0 := inline.Tier0(), lagged.Tier0()
		for i := 0; i < 12; i++ { // the first IPC flush is the 10th observation
			learnObs(t, inline, i)
			learnObs(t, lagged, i)
		}
		due, ok := lagged.InstallDue()
		if !ok || due != 10+uint64(lag) {
			t.Fatalf("lag %d: install due at %d (%v), want %d", lag, due, ok, 10+lag)
		}
		if lagged.SamplesSeen(IPCQoS) != 0 || laggedT0.Gen() != 0 {
			t.Fatalf("lag %d: the flush installed before its Tick", lag)
		}
		for i := 12; i < 64; i++ {
			learnObs(t, inline, i)
			learnObs(t, lagged, i)
			// With lag 30 the flush at the 20th observation installs it.
			if lag < 10 && lagged.Ticks() == due-1 && lagged.SamplesSeen(IPCQoS) != 0 {
				t.Fatalf("lag %d: installed before tick %d", lag, due)
			}
		}
		for {
			if _, ok := lagged.InstallDue(); !ok {
				break
			}
			if err := lagged.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if !sameBits(predictions(t, lagged), predictions(t, inline)) {
			t.Fatalf("lag %d: the installed model predicts differently from the inline one", lag)
		}
		for _, k := range []QoSKind{IPCQoS, JCTQoS} {
			if lagged.SamplesSeen(k) != inline.SamplesSeen(k) {
				t.Fatalf("lag %d, %v: samples seen %d vs %d", lag, k, lagged.SamplesSeen(k), inline.SamplesSeen(k))
			}
		}
		if laggedT0.Gen() != inlineT0.Gen() {
			t.Fatalf("lag %d: tier-0 generation %d vs %d", lag, laggedT0.Gen(), inlineT0.Gen())
		}
		sameScorer(t, laggedT0, inlineT0)
	}
}

// carriedBlob returns a lag-6 predictor's checkpoint taken between a
// flush and its install, the predictor, and where the learner section
// starts.
func carriedBlob(t testing.TB) (blob []byte, p *Predictor, learner int) {
	t.Helper()
	p = lagPredictor(11, 6)
	for i := 0; i < 13; i++ {
		learnObs(t, p, i)
	}
	if _, ok := p.InstallDue(); !ok {
		t.Fatal("no training in flight")
	}
	c, err := p.Capture()
	if err != nil {
		t.Fatal(err)
	}
	blob = c.Encode()
	c.train = nil
	return blob, p, len(c.Encode()) - 9
}

// TestPredictorCheckpointCarriesTraining: a checkpoint cut between a
// flush and its install restores into a predictor that installs the
// same trees at the same Tick, re-encodes to the same bytes and
// continues the stream of the predictor it was taken from.
func TestPredictorCheckpointCarriesTraining(t *testing.T) {
	blob, a, _ := carriedBlob(t)
	sum, err := SummarizeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	due, _ := a.InstallDue()
	if in := sum.Install; in == nil || in.Kind != IPCQoS || in.Due != due || in.Batch != 10 || in.Trees != 6 || sum.Ticks != 13 {
		t.Fatalf("summary: ticks %d, install %+v; want ipc due at %d, batch 10, 6 trees", sum.Ticks, sum.Install, due)
	}
	b := lagPredictor(11, 6)
	if err := b.RestoreCheckpoint(blob); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.InstallDue(); !ok || got != due {
		t.Fatalf("restored install due at %d (%v), want %d", got, ok, due)
	}
	again, err := b.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("a restored training in flight re-encodes to different bytes")
	}
	for i := 13; i < 60; i++ {
		learnObs(t, a, i)
		learnObs(t, b, i)
		if !sameBits(predictions(t, a), predictions(t, b)) {
			t.Fatalf("tick %d: the restored predictor predicts differently", a.Ticks())
		}
	}
	endA, _ := a.CheckpointState()
	endB, _ := b.CheckpointState()
	if !bytes.Equal(endA, endB) {
		t.Fatal("the two predictors' states differ after the continued stream")
	}
}

// TestPredictorRestoreRejectsBadTraining breaks the learner section once
// per rule; each break is refused and leaves the receiver as it was. A
// version-2 blob — no learner section — is refused naming both versions.
func TestPredictorRestoreRejectsBadTraining(t *testing.T) {
	good, src, at := carriedBlob(t)
	ticks := src.Ticks()
	u64 := func(v uint64) []byte { return wire.AppendU64(nil, v) }
	kind, due, batch := at+9, at+13, at+21
	cases := []struct {
		name string
		blob []byte
		recv *Predictor
		want string
	}{
		{"version 2", splice(good, 4, 4, wire.AppendU32(nil, 2)), nil, "version 2, want 4"},
		{"due at the clock", splice(good, due, 8, u64(ticks)), nil, "installs at tick"},
		{"due past the lag", splice(good, due, 8, u64(ticks+8)), nil, "installs at tick"},
		{"kind", splice(good, kind, 4, wire.AppendU32(nil, 3)), nil, "of kind 3"},
		{"batch over the window", splice(good, batch, 4, wire.AppendU32(nil, 99)), nil, "window holds"},
		{"tree count", splice(good, batch+4, 4, wire.AppendU32(nil, 5)), nil, "carries 5 trees"},
		{"into an inline predictor", good, ckptPredictor(11), "installs at tick"},
		{"flag", splice(good, at+8, 1, []byte{2}), nil, "want 0 or 1"},
	}
	for _, c := range cases {
		dst := c.recv
		if dst == nil {
			dst = lagPredictor(11, 6)
		}
		for i := 0; i < 25; i++ {
			learnObs(t, dst, i)
		}
		before, err := dst.CheckpointState()
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.RestoreCheckpoint(c.blob); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
		if after, _ := dst.CheckpointState(); !bytes.Equal(after, before) {
			t.Errorf("%s: the rejected checkpoint changed the predictor", c.name)
		}
	}
}

// TestTrainingBesideCallerIsRaceFree drives flushes whose Run overlaps
// batch predictions and captures on the caller's goroutine; under
// `make race` that is the proof Run shares nothing they touch.
func TestTrainingBesideCallerIsRaceFree(t *testing.T) {
	p := lagPredictor(7, 40)
	qs := probes()
	out := make([]float64, len(qs))
	for i := 0; i < 90; i++ {
		learnObs(t, p, i)
		if _, ok := p.InstallDue(); !ok {
			continue
		}
		for _, kind := range []QoSKind{IPCQoS, JCTQoS} {
			if err := p.PredictBatchInto(kind, qs, out); err != nil && p.trained[kind] {
				t.Fatal(err)
			}
		}
		if _, err := p.Capture(); err != nil {
			t.Fatal(err)
		}
	}
	if p.SamplesSeen(IPCQoS) == 0 || p.SamplesSeen(JCTQoS) == 0 {
		t.Fatal("nothing installed")
	}
}
