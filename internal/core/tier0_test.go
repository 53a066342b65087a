package core

import (
	"strings"
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

// TestPredictorCheckpointTier0RoundTrip: tier-0 state rides inside the
// predictor checkpoint, and a restored scorer must score and keep
// evolving bit-identically to the original.
func TestPredictorCheckpointTier0RoundTrip(t *testing.T) {
	a := ckptPredictor(5)
	for i := 0; i < 24; i++ {
		tier0Obs(t, a, i)
	}
	raw, err := a.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	b := ckptPredictor(5)
	if err := b.RestoreCheckpoint(raw); err != nil {
		t.Fatal(err)
	}
	ta, tb := a.Tier0(), b.Tier0()
	if tb.Gen() != ta.Gen() {
		t.Fatalf("restored generation %d, want %d", tb.Gen(), ta.Gen())
	}
	if tb.Ready() != ta.Ready() {
		t.Fatalf("restored readiness %v, want %v", tb.Ready(), ta.Ready())
	}
	mix, _ := Tier0TargetStats(scInput(workload.DD(), 0, 0).Profiles)
	for _, load := range []float64{0, 1.5, 6} {
		if sa, sb := ta.Score(&mix, load), tb.Score(&mix, load); sa != sb {
			t.Fatalf("restored score at load %v diverged: %v != %v", load, sb, sa)
		}
	}
	// Continue both through more flushes; scores must stay bit-identical.
	for i := 24; i < 44; i++ {
		tier0Obs(t, a, i)
		tier0Obs(t, b, i)
	}
	if tb.Gen() != ta.Gen() {
		t.Fatalf("post-restore generations diverged: %d != %d", tb.Gen(), ta.Gen())
	}
	if sa, sb := ta.Score(&mix, 3), tb.Score(&mix, 3); sa != sb {
		t.Fatalf("post-restore scores diverged: %v != %v", sb, sa)
	}
}

// TestPredictorRestoreWithoutTier0Resets: the tier-0 section is part of
// every checkpoint. One cut off before it is rejected and leaves the
// receiving scorer alone; one taken before the scorer ever trained
// restores as an empty scorer, resetting whatever the receiver had
// learnt.
func TestPredictorRestoreWithoutTier0Resets(t *testing.T) {
	a := ckptPredictor(5)
	for i := 0; i < 24; i++ {
		tier0Obs(t, a, i)
	}
	raw, err := a.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	b := ckptPredictor(5)
	for i := 0; i < 44; i++ {
		tier0Obs(t, b, i) // a trained scorer of its own
	}
	gen := b.Tier0().Gen()
	noTier0 := raw[:layoutOf(t, raw).tier0]
	if err := b.RestoreCheckpoint(noTier0); err == nil || !strings.Contains(err.Error(), "tier0 generation") {
		t.Fatalf("checkpoint without its tier-0 section: got %v", err)
	}
	if tb := b.Tier0(); !tb.Ready() || tb.Gen() != gen {
		t.Fatalf("rejected checkpoint left scorer gen=%d ready=%v, want gen=%d ready", tb.Gen(), tb.Ready(), gen)
	}

	untrained, err := ckptPredictor(5).CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreCheckpoint(untrained); err != nil {
		t.Fatal(err)
	}
	if tb := b.Tier0(); tb.Ready() || tb.Gen() != 0 {
		t.Fatalf("untrained checkpoint left scorer gen=%d ready=%v, want empty", tb.Gen(), tb.Ready())
	}
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
