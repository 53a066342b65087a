package gsight

import (
	"math"
	"testing"

	"gsight/internal/core"
	"gsight/internal/perfmodel"
	"gsight/internal/resources"
	"gsight/internal/scenario"
)

// bootstrapIPCObservations labels n generated LS+SC colocations the way
// `gsight-sim -train n` does and returns their IPC observations.
func bootstrapIPCObservations(tb testing.TB, g *scenario.Generator, n int) []core.Observation {
	tb.Helper()
	var obs []core.Observation
	for i := 0; i < n; i++ {
		samples, err := g.Label(g.Colocation(core.LSSC, 2+g.Rand().Intn(2)))
		if err != nil {
			tb.Fatal(err)
		}
		for _, s := range samples {
			if s.Kind == core.IPCQoS {
				obs = append(obs, core.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label})
			}
		}
	}
	return obs
}

// heldOutIPCMAPE trains a default predictor on the bootstrap observations
// of 200 colocations and returns its mean absolute percentage error on
// those of 100 further colocations from the same generator.
func heldOutIPCMAPE(t *testing.T, seed uint64) float64 {
	t.Helper()
	m := perfmodel.New(resources.DefaultTestbed())
	scenario.FastConfig(m)
	g := scenario.NewGenerator(m, seed)
	train := bootstrapIPCObservations(t, g, 200)
	test := bootstrapIPCObservations(t, g, 100)
	p := core.NewPredictor(core.Config{Seed: seed, UpdateEvery: 1 << 30})
	if err := p.TrainObservations(core.IPCQoS, train); err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	for _, o := range test {
		if o.Label == 0 {
			continue
		}
		got, err := p.Predict(core.IPCQoS, o.Target, o.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		sum += math.Abs(got-o.Label) / o.Label
		n++
	}
	return sum / float64(n)
}

// pairSortMAPE is heldOutIPCMAPE in percent for seeds 1..12 under the
// forest kernel this repository had up to commit 8eb8c23 (a pdqsort of
// (value, target) pairs per node and feature, ties summed in pdqsort's
// order). Mean 6.838, standard deviation across seeds 1.816, standard
// error of the mean 0.524.
var pairSortMAPE = [12]float64{
	7.1685, 8.6775, 7.2846, 7.4971, 5.7957, 5.3245,
	10.5235, 6.7135, 5.2748, 3.4033, 6.6179, 7.7753,
}

// TestBootstrapModelMatchesPairSortKernel is the evidence that changing
// the split search's tie rule (DESIGN.md §9) re-draws the same
// estimator rather than a different one: over twelve seeds the held-out
// IPC error of the bootstrap-trained predictor must stay within the
// former kernel's own seed-to-seed standard error (0.524 points of
// MAPE) — seed by seed, and in the mean. When this change was made the
// paired differences ran from -0.085 to +0.135 points, mean +0.020.
func TestBootstrapModelMatchesPairSortKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains twelve predictors")
	}
	const tolerance = 0.524
	var mean, wantMean float64
	for i, want := range pairSortMAPE {
		got := 100 * heldOutIPCMAPE(t, uint64(i+1))
		t.Logf("seed %2d: held-out IPC MAPE %.4f %% (pair-sort kernel %.4f %%, %+.4f)", i+1, got, want, got-want)
		if math.Abs(got-want) > tolerance {
			t.Errorf("seed %d: held-out IPC MAPE %.3f %% is more than %.3f points from the pair-sort kernel's %.3f %%", i+1, got, tolerance, want)
		}
		mean += got / float64(len(pairSortMAPE))
		wantMean += want / float64(len(pairSortMAPE))
	}
	t.Logf("mean over seeds: %.4f %% (pair-sort kernel %.4f %%)", mean, wantMean)
	if mean > wantMean+tolerance {
		t.Errorf("mean held-out IPC MAPE %.3f %% exceeds the pair-sort kernel's %.3f %% by more than %.3f points", mean, wantMean, tolerance)
	}
}
