package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"gsight/internal/profile"
	"gsight/internal/workload"
)

// tier0Obs drives one IPC observation through a predictor, same shape
// as the checkpoint tests use.
func tier0Obs(t testing.TB, p *Predictor, i int) {
	t.Helper()
	mm := scInput(workload.MatMul(), 0, 0)
	dd := scInput(workload.DD(), i%2, float64(i%7)*10)
	if err := p.Observe(IPCQoS, 0, []WorkloadInput{mm, dd}, 1.9-0.01*float64(i%5)); err != nil {
		t.Fatal(err)
	}
}

// TestTier0TrainsWithPredictor: the tier-0 scorer must ingest the same
// observation stream the forest does, bump its generation on every
// flush, and converge to a usable fit.
func TestTier0TrainsWithPredictor(t *testing.T) {
	p := ckptPredictor(3)
	t0 := p.Tier0()
	if t0 == nil {
		t.Fatal("predictor has no tier-0 scorer")
	}
	if t0.Ready() || t0.Gen() != 0 {
		t.Fatal("fresh scorer must be unready at generation 0")
	}
	gen := t0.Gen()
	for i := 0; i < 40; i++ {
		tier0Obs(t, p, i)
	}
	if t0.Gen() <= gen {
		t.Fatalf("generation did not advance past %d after 40 observations", gen)
	}
	if !t0.Ready() {
		t.Fatal("scorer not trained after 40 IPC observations")
	}
	mix, ref := Tier0TargetStats(scInput(workload.MatMul(), 0, 0).Profiles)
	if ref <= 0 {
		t.Fatalf("reference IPC %v, want > 0", ref)
	}
	if s := t0.Score(&mix, 2.0); s == 0 {
		t.Fatal("trained scorer returned the unready sentinel 0")
	}
}

// TestTier0ScoreLoadMonotonicAfterTraining: sanity-check the learned
// direction — when the observation stream shows IPC degrading with
// co-located CPU, a loaded server must not outscore an idle one.
func TestTier0ScoreLoadMonotonicAfterTraining(t *testing.T) {
	p := ckptPredictor(3)
	mm := scInput(workload.MatMul(), 0, 0)
	for i := 0; i < 60; i++ {
		// Alternate one and two corunners so the load coefficient is
		// identifiable; the label drops as load rises.
		dd := scInput(workload.DD(), 0, float64(i%7)*10)
		inputs := []WorkloadInput{mm, dd}
		label := 1.9 - 0.01*float64(i%5)
		if i%2 == 1 {
			inputs = append(inputs, scInput(workload.FloatOp(), 0, float64(i%3)*5))
			label = 1.4 - 0.01*float64(i%5)
		}
		if err := p.Observe(IPCQoS, 0, inputs, label); err != nil {
			t.Fatal(err)
		}
	}
	t0 := p.Tier0()
	if !t0.Ready() {
		t.Fatal("scorer not trained after 60 IPC observations")
	}
	mix, _ := Tier0TargetStats(mm.Profiles)
	if idle, busy := t0.Score(&mix, 0), t0.Score(&mix, 8); busy >= idle {
		t.Fatalf("score at 8 corunner CPUs (%v) exceeds idle score (%v)", busy, idle)
	}
}

// tier0Bootstrap is a bootstrap set of IPC observations: matmul beside
// one or two corunners on server 0 or 1.
func tier0Bootstrap(n int) []Observation {
	obs := make([]Observation, n)
	for i := range obs {
		in := []WorkloadInput{scInput(workload.MatMul(), 0, 0), scInput(workload.DD(), i%2, float64(i%3)*10)}
		if i%3 == 2 {
			in = append(in, scInput(workload.FloatOp(), 0, 5))
		}
		obs[i] = Observation{Target: 0, Inputs: in, Label: 1.7 - 0.02*float64(i%6)}
	}
	return obs
}

// sameScorer fails unless a and b hold the same ridge state and give
// bit-identical scores over a grid of target mixes and corunner loads.
func sameScorer(t *testing.T, a, b *Tier0) {
	t.Helper()
	if !reflect.DeepEqual(a.ridge, b.ridge) {
		t.Fatal("the two scorers' ridge states differ")
	}
	if !a.Ready() {
		t.Fatal("the scorers are not trained: the comparison shows nothing")
	}
	for _, w := range []*workload.Workload{workload.MatMul(), workload.DD(), workload.FloatOp(), workload.SocialNetwork()} {
		mix, _ := Tier0TargetStats(profile.WorkloadProfiles(w, spec, nil))
		for _, load := range []float64{0, 0.5, 1.5, 3, 6, 12} {
			if sa, sb := a.Score(&mix, load), b.Score(&mix, load); math.Float64bits(sa) != math.Float64bits(sb) {
				t.Fatalf("%s at load %v: %v vs %v", w.Name, load, sa, sb)
			}
		}
	}
}

// TestTier0AttachedAfterTrainingMatchesEager: a scorer attached after
// the bootstrap and two IPC flushes is the scorer that rode the same
// stream from the start through train and absorb, bit for bit, and the
// two stay equal through the next flush.
func TestTier0AttachedAfterTrainingMatchesEager(t *testing.T) {
	eager, late := ckptPredictor(3), ckptPredictor(3)
	ref := eager.Tier0()
	for _, p := range []*Predictor{eager, late} {
		if err := p.TrainObservations(IPCQoS, tier0Bootstrap(30)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ { // two flushes, five rows pending
			tier0Obs(t, p, i)
		}
	}
	attached := late.Tier0()
	if attached.Gen() != 1 || ref.Gen() != 3 {
		t.Fatalf("generations %d (attached) and %d (eager), want 1 and 3", attached.Gen(), ref.Gen())
	}
	sameScorer(t, attached, ref)
	if late.Tier0() != attached {
		t.Fatal("a second call built another scorer")
	}
	for i := 25; i < 30; i++ {
		tier0Obs(t, eager, i)
		tier0Obs(t, late, i)
	}
	if attached.Gen() != 2 {
		t.Fatalf("the flush after attaching left generation %d, want 2", attached.Gen())
	}
	sameScorer(t, attached, ref)
}

// TestTier0AttachedDuringTrainingSkipsInFlightBatch: with the learner
// training beside its caller, a scorer attached while an IPC batch is
// in flight leaves that batch out until its install, exactly as the
// scorer that rode the stream from the start does.
func TestTier0AttachedDuringTrainingSkipsInFlightBatch(t *testing.T) {
	eager, late := lagPredictor(3, 6), lagPredictor(3, 6)
	ref := eager.Tier0()
	for _, p := range []*Predictor{eager, late} {
		if err := p.TrainObservations(IPCQoS, tier0Bootstrap(30)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ { // the flush at the 10th installs at tick 17
			learnObs(t, p, i)
		}
	}
	if _, ok := late.InstallDue(); !ok {
		t.Fatal("no training in flight")
	}
	attached := late.Tier0()
	sameScorer(t, attached, ref)
	gen := attached.Gen()
	for i := 12; i < 18; i++ {
		learnObs(t, eager, i)
		learnObs(t, late, i)
	}
	if _, ok := late.InstallDue(); ok || attached.Gen() != gen+1 {
		t.Fatalf("after the install tick: in flight %v, generation %d, want the install at generation %d", ok, attached.Gen(), gen+1)
	}
	sameScorer(t, attached, ref)
}

// TestCheckpointIndependentOfTier0: attaching a scorer changes nothing
// a checkpoint carries, and a restored predictor's scorer, attached
// after the restore, is the one the checkpointed predictor holds; one
// attached before the restore is rebuilt to it.
func TestCheckpointIndependentOfTier0(t *testing.T) {
	with, without := ckptPredictor(5), ckptPredictor(5)
	ref := with.Tier0()
	for i := 0; i < 44; i++ { // four flushes, four rows pending
		tier0Obs(t, with, i)
		tier0Obs(t, without, i)
	}
	a, err := with.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := without.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("an attached scorer changed the checkpoint bytes")
	}
	restored := ckptPredictor(5)
	if err := restored.RestoreCheckpoint(a); err != nil {
		t.Fatal(err)
	}
	sameScorer(t, restored.Tier0(), ref)

	prior := ckptPredictor(9)
	for i := 0; i < 30; i++ {
		tier0Obs(t, prior, i)
	}
	scorer := prior.Tier0()
	gen := scorer.Gen()
	if err := prior.RestoreCheckpoint(a); err != nil {
		t.Fatal(err)
	}
	if scorer.Gen() <= gen {
		t.Fatalf("restore left the attached scorer at generation %d", scorer.Gen())
	}
	sameScorer(t, scorer, ref)
}

// TestTier0TargetStatsPure: target stats must ignore everything but the
// profiles so cached per-archetype entries survive crash/resume.
func TestTier0TargetStatsPure(t *testing.T) {
	ps := profile.WorkloadProfiles(workload.MatMul(), spec, nil)
	m1, r1 := Tier0TargetStats(ps)
	m2, r2 := Tier0TargetStats(ps)
	if m1 != m2 || r1 != r2 {
		t.Fatal("Tier0TargetStats is not deterministic")
	}
}
