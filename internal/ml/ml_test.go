package ml

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gsight/internal/rng"
)

// synth generates n samples of a smooth nonlinear target over d dims.
func synth(n, d int, seed uint64, noise float64) ([][]float64, []float64) {
	r := rng.New(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = r.Range(-1, 1)
		}
		v := 3*x[0]*x[0] + 2*math.Sin(3*x[1]) + x[2]*x[0] + 0.5*x[3] + 5
		if noise > 0 {
			v += r.Norm(0, noise)
		}
		X[i] = x
		y[i] = v
	}
	return X, y
}

// linSynth generates a purely linear target.
func linSynth(n, d int, seed uint64) ([][]float64, []float64) {
	r := rng.New(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		v := 2.0
		for j := range x {
			x[j] = r.Range(-1, 1)
			v += float64(j%3-1) * x[j]
		}
		X[i] = x
		y[i] = v
	}
	return X, y
}

func rmse(m interface{ Predict([]float64) float64 }, X [][]float64, y []float64) float64 {
	s := 0.0
	for i, x := range X {
		d := m.Predict(x) - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(y)))
}

func TestTreeFitsNonlinear(t *testing.T) {
	X, y := synth(2000, 6, 1, 0)
	Xt, yt := synth(500, 6, 2, 0)
	tr, err := growTree(X, y, nil, TreeConfig{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if e := rmse(tr, Xt, yt); e > 0.8 {
		t.Fatalf("tree RMSE = %v, want < 0.8", e)
	}
	if len(tr.nodes) < 10 {
		t.Fatalf("tree suspiciously small: %d nodes", len(tr.nodes))
	}
}

func TestTreePerfectOnConstant(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	tr, err := growTree(X, y, nil, TreeConfig{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{2.5}); got != 7 {
		t.Fatalf("constant target prediction = %v", got)
	}
	if len(tr.nodes) != 1 {
		t.Fatalf("constant target should not split: %d nodes", len(tr.nodes))
	}
}

// TestTreeErrors: trees grow only inside a forest update, which refuses
// a batch no tree can grow on; an unfitted tree predicts 0.
func TestTreeErrors(t *testing.T) {
	f := NewForest(ForestConfig{Trees: 2})
	if _, err := f.BeginUpdate(nil, nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty batch: %v, want ErrNoData", err)
	}
	if _, err := f.BeginUpdate([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("length mismatch: %v, want ErrDimMismatch", err)
	}
	if _, err := f.BeginUpdate([][]float64{{1}, {1, 2}}, []float64{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("ragged features: %v, want ErrDimMismatch", err)
	}
	if got := NewTree(TreeConfig{}).Predict([]float64{1}); got != 0 {
		t.Fatalf("unfitted tree predicts %v", got)
	}
}

func TestForestBeatsSingleTree(t *testing.T) {
	X, y := synth(1500, 6, 3, 0.5)
	Xt, yt := synth(500, 6, 4, 0)
	tr, err := growTree(X, y, nil, TreeConfig{MaxDepth: 6}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	f := NewForest(ForestConfig{Trees: 30, Tree: TreeConfig{MaxDepth: 6}})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	eTree, eForest := rmse(tr, Xt, yt), rmse(f, Xt, yt)
	if eForest >= eTree {
		t.Fatalf("forest RMSE %v not better than tree %v", eForest, eTree)
	}
}

func TestForestImportanceFindsSignal(t *testing.T) {
	// Only dims 0-3 carry signal; 4-5 are noise.
	X, y := synth(1500, 6, 5, 0)
	f := NewForest(ForestConfig{Trees: 20})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp := f.Importance()
	total := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance: %v", imp)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("importance sums to %v, want 1", total)
	}
	if imp[0] < imp[4] || imp[1] < imp[5] {
		t.Fatalf("signal dims should dominate noise dims: %v", imp)
	}
}

func TestForestIncrementalUpdate(t *testing.T) {
	X, y := synth(800, 6, 6, 0.3)
	f := NewForest(ForestConfig{Trees: 16})
	if err := f.Fit(X[:400], y[:400]); err != nil {
		t.Fatal(err)
	}
	if err := f.Update(X[400:], y[400:]); err != nil {
		t.Fatal(err)
	}
	// Fixed-capacity ensemble: updates churn trees, never grow the
	// forest past its configured size.
	if len(f.trees) != 16 {
		t.Fatalf("forest size = %d, want fixed 16", len(f.trees))
	}
	for i := 0; i < 20; i++ {
		if err := f.Update(X[:50], y[:50]); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.trees) != 16 {
		t.Fatalf("forest size drifted: %d trees", len(f.trees))
	}
	Xt, yt := synth(300, 6, 7, 0)
	if e := rmse(f, Xt, yt); e > 1.2 {
		t.Fatalf("incrementally updated forest RMSE = %v", e)
	}
}

func TestForestUpdateBeforeFit(t *testing.T) {
	X, y := synth(300, 4, 8, 0)
	f := NewForest(ForestConfig{Trees: 8})
	if err := f.Update(X, y); err != nil {
		t.Fatal("Update before Fit should behave as Fit:", err)
	}
	if len(f.trees) != 8 {
		t.Fatalf("trees = %d, want 8", len(f.trees))
	}
}

func TestForestAdaptsToShift(t *testing.T) {
	// Figure 13's mechanism: train on one regime, shift the target,
	// update, and watch the error recover.
	X, y := synth(1000, 6, 9, 0.2)
	f := NewForest(ForestConfig{Trees: 20, Window: 1500})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// shifted regime: target scaled 1.6x (the paper's CPU- vs
	// IO-intensive IPC gap)
	Xs, ys := synth(1200, 6, 10, 0.2)
	for i := range ys {
		ys[i] *= 1.6
	}
	errBefore := rmse(f, Xs[:300], ys[:300])
	for b := 300; b < 1200; b += 300 {
		if err := f.Update(Xs[b:b+300], ys[b:b+300]); err != nil {
			t.Fatal(err)
		}
	}
	errAfter := rmse(f, Xs[:300], ys[:300])
	if errAfter >= errBefore*0.7 {
		t.Fatalf("forest did not adapt: %v -> %v", errBefore, errAfter)
	}
}

func TestKNNExactOnSeen(t *testing.T) {
	X, y := synth(500, 6, 11, 0)
	k := NewKNN(1)
	if err := k.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got := k.Predict(X[i]); math.Abs(got-y[i]) > 1e-6 {
			t.Fatalf("1-NN on training point = %v, want %v", got, y[i])
		}
	}
}

func TestKNNInterpolates(t *testing.T) {
	X, y := synth(3000, 6, 12, 0)
	Xt, yt := synth(300, 6, 13, 0)
	k := NewKNN(8)
	if err := k.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if e := rmse(k, Xt, yt); e > 1.0 {
		t.Fatalf("KNN RMSE = %v", e)
	}
}

func TestKNNWindow(t *testing.T) {
	k := NewKNN(2)
	k.Window = 100
	X, y := synth(300, 4, 14, 0)
	if err := k.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if k.data.Len() != 100 {
		t.Fatalf("window not enforced: %d", k.data.Len())
	}
}

func TestLinearRecoversLinearTarget(t *testing.T) {
	X, y := linSynth(2000, 8, 15)
	Xt, yt := linSynth(300, 8, 16)
	m := NewLinear(1)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if e := rmse(m, Xt, yt); e > 0.1 {
		t.Fatalf("linear model RMSE on linear target = %v", e)
	}
}

func TestLinearUnderfitsNonlinear(t *testing.T) {
	X, y := synth(2000, 6, 17, 0)
	Xt, yt := synth(300, 6, 18, 0)
	lin := NewLinear(2)
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	f := NewForest(ForestConfig{Trees: 20})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if rmse(lin, Xt, yt) <= rmse(f, Xt, yt) {
		t.Fatal("linear model should underfit the nonlinear target vs forest")
	}
}

func TestSVRFitsLinearTarget(t *testing.T) {
	X, y := linSynth(2000, 8, 19)
	Xt, yt := linSynth(300, 8, 20)
	m := NewSVR(3)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if e := rmse(m, Xt, yt); e > 0.3 {
		t.Fatalf("SVR RMSE on linear target = %v", e)
	}
}

func TestMLPFitsNonlinear(t *testing.T) {
	X, y := synth(3000, 6, 21, 0.1)
	Xt, yt := synth(300, 6, 22, 0)
	m := NewMLP(4)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if e := rmse(m, Xt, yt); e > 1.0 {
		t.Fatalf("MLP RMSE = %v", e)
	}
}

func TestIncrementalInterfaces(t *testing.T) {
	models := []Incremental{
		NewForest(ForestConfig{Trees: 4}),
		NewKNN(3),
		NewLinear(5),
		NewSVR(6),
		NewMLP(7),
	}
	X, y := synth(200, 5, 23, 0)
	X2, y2 := synth(100, 5, 24, 0)
	for _, m := range models {
		if err := m.Fit(X, y); err != nil {
			t.Fatalf("%T.Fit: %v", m, err)
		}
		if err := m.Update(X2, y2); err != nil {
			t.Fatalf("%T.Update: %v", m, err)
		}
		// dimension mismatch must be rejected
		bad := [][]float64{{1, 2}}
		if err := m.Update(bad, []float64{1}); err == nil {
			t.Fatalf("%T accepted wrong dimension", m)
		}
		if v := m.Predict(X[0]); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%T predicted %v", m, v)
		}
	}
}

func TestScaler(t *testing.T) {
	s := NewScaler()
	r := rng.New(25)
	for i := 0; i < 1000; i++ {
		s.Observe([]float64{r.Norm(10, 2), r.Norm(-5, 0.5), 42})
	}
	z := s.Transform([]float64{10, -5, 42})
	if math.Abs(z[0]) > 0.2 || math.Abs(z[1]) > 0.2 {
		t.Fatalf("mean not centered: %v", z)
	}
	if z[2] != 0 {
		t.Fatalf("constant feature should map to 0, got %v", z[2])
	}
	hi := s.Transform([]float64{12, -5, 42})
	if hi[0] < 0.8 || hi[0] > 1.2 {
		t.Fatalf("unit variance violated: %v", hi[0])
	}
	// Unobserved scaler passes values through.
	fresh := NewScaler()
	if got := fresh.Transform([]float64{3}); got[0] != 3 {
		t.Fatalf("fresh scaler transform = %v", got)
	}
}

func TestTreePredictConsistencyProperty(t *testing.T) {
	X, y := synth(500, 5, 28, 0)
	tr, err := growTree(X, y, nil, TreeConfig{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := y[0], y[0]
	for _, v := range y {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	r := rng.New(29)
	if err := quick.Check(func(_ uint64) bool {
		x := make([]float64, 5)
		for j := range x {
			x[j] = r.Range(-2, 2)
		}
		p := tr.Predict(x)
		// Tree predictions are means of training targets: always
		// within the target range.
		return p >= lo-1e-9 && p <= hi+1e-9
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
