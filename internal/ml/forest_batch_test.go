package ml

import "testing"

// constTree is a one-leaf tree predicting k everywhere.
func constTree(k float64) *Tree { return &Tree{dim: 1, nodes: []treeNode{{feature: -1, value: k}}} }

// TestPruneKeepsBestTrees pins the single-sort prune rewrite: the
// worst-SSE trees go (ties broken by age, oldest first, as the old
// repeated worst-scan did) and survivors keep their original order.
func TestPruneKeepsBestTrees(t *testing.T) {
	f := NewForest(ForestConfig{Trees: 2})
	// Constant trees predicting 3,1,3,0,2 scored against y=0: SSE
	// ranks 3(idx0)=3(idx2) > 2 > 1 > 0. MaxTrees=2 drops three trees:
	// both 3s (older first) and the 2.
	for _, k := range []float64{3, 1, 3, 0, 2} {
		f.trees = append(f.trees, constTree(k))
	}
	X := [][]float64{{0}, {1}}
	y := []float64{0, 0}
	f.prune(X, y)
	if len(f.trees) != 2 {
		t.Fatalf("kept %d trees, want 2", len(f.trees))
	}
	if got := f.trees[0].Predict(X[0]); got != 1 {
		t.Fatalf("first survivor predicts %v, want 1", got)
	}
	if got := f.trees[1].Predict(X[0]); got != 0 {
		t.Fatalf("second survivor predicts %v, want 0", got)
	}
}

func TestPruneNoExcessIsNoop(t *testing.T) {
	f := NewForest(ForestConfig{Trees: 8})
	for _, k := range []float64{2, 1} {
		f.trees = append(f.trees, constTree(k))
	}
	f.prune([][]float64{{0}}, []float64{0})
	if len(f.trees) != 2 {
		t.Fatalf("prune with no excess dropped trees: %d left", len(f.trees))
	}
}

// TestForestPredictBatchMatchesPredict: the batched path must be
// bit-identical to per-sample Predict on both the sequential (small
// batch) and fanned-out (large batch) code paths.
func TestForestPredictBatchMatchesPredict(t *testing.T) {
	X, y := synth(300, 6, 11, 0.1)
	f := NewForest(ForestConfig{Trees: 10, Seed: 3})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 7, 300} {
		got := make([]float64, n)
		f.PredictBatchInto(X[:n], got)
		for i := 0; i < n; i++ {
			if want := f.Predict(X[i]); got[i] != want {
				t.Fatalf("batch %d sample %d: %v != %v", n, i, got[i], want)
			}
		}
	}
}

func TestForestPredictBatchEmptyAndUntrained(t *testing.T) {
	f := NewForest(ForestConfig{Trees: 4})
	f.PredictBatchInto(nil, nil)
	out := []float64{7}
	f.PredictBatchInto([][]float64{{1, 2}}, out)
	if out[0] != 0 {
		t.Fatalf("untrained forest batch = %v, want [0]", out)
	}
}

// TestForestFitUpdateDeterministic guards the index-based bootstrap
// refactor: identical config and data must grow identical forests,
// through Fit and incremental Update alike.
func TestForestFitUpdateDeterministic(t *testing.T) {
	X, y := synth(250, 5, 21, 0.2)
	probe, _ := synth(40, 5, 22, 0)
	build := func() *Forest {
		f := NewForest(ForestConfig{Trees: 8, Seed: 9, UpdateTrees: 4})
		if err := f.Fit(X[:200], y[:200]); err != nil {
			t.Fatal(err)
		}
		if err := f.Update(X[200:], y[200:]); err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := build(), build()
	if len(a.trees) != len(b.trees) {
		t.Fatalf("tree counts differ: %d vs %d", len(a.trees), len(b.trees))
	}
	for i, x := range probe {
		if pa, pb := a.Predict(x), b.Predict(x); pa != pb {
			t.Fatalf("probe %d: %v vs %v", i, pa, pb)
		}
	}
}
