package ml

import (
	"math"
	"testing"

	"gsight/internal/rng"
)

// anisotropic generates data with variance concentrated in a few known
// directions.
func anisotropic(n, d int, seed uint64) [][]float64 {
	r := rng.New(seed)
	X := make([][]float64, n)
	for i := range X {
		x := make([]float64, d)
		a := r.Norm(0, 5) // dominant latent factor
		b := r.Norm(0, 2) // secondary
		for j := range x {
			switch j % 3 {
			case 0:
				x[j] = a + r.Norm(0, 0.1)
			case 1:
				x[j] = b + r.Norm(0, 0.1)
			default:
				x[j] = r.Norm(0, 0.1)
			}
		}
		X[i] = x
	}
	return X
}

func TestPCAFindsDominantDirections(t *testing.T) {
	X := anisotropic(500, 9, 1)
	p := NewPCA(3)
	if err := p.Fit(X); err != nil {
		t.Fatal(err)
	}
	ev := p.evals
	if len(ev) != 3 {
		t.Fatalf("components = %d", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i] > ev[i-1]+1e-9 {
			t.Fatalf("explained variance not descending: %v", ev)
		}
	}
	// The dominant factor has variance ~25 spread over 3 coordinates
	// (~75 along its axis); the leading eigenvalue must dwarf the third.
	if ev[0] < 5*ev[2] {
		t.Fatalf("leading component not dominant: %v", ev)
	}
}

func TestPCAReconstructionOrdering(t *testing.T) {
	// Projections onto more components preserve more variance:
	// distances in 3-component space upper-bound 1-component space.
	X := anisotropic(300, 6, 2)
	p1 := NewPCA(1)
	p3 := NewPCA(3)
	if err := p1.Fit(X); err != nil {
		t.Fatal(err)
	}
	if err := p3.Fit(X); err != nil {
		t.Fatal(err)
	}
	var v1, v3 float64
	for _, x := range X {
		for _, c := range p1.Transform(x) {
			v1 += c * c
		}
		for _, c := range p3.Transform(x) {
			v3 += c * c
		}
	}
	if v3 <= v1 {
		t.Fatalf("3 components carry %v variance, 1 component %v", v3, v1)
	}
}

func TestPCADropsConstantFeatures(t *testing.T) {
	r := rng.New(3)
	X := make([][]float64, 200)
	for i := range X {
		X[i] = []float64{r.Norm(0, 1), 7, 0, r.Norm(0, 2)}
	}
	p := NewPCA(4)
	if err := p.Fit(X); err != nil {
		t.Fatal(err)
	}
	// Only two features vary: at most two meaningful components.
	if p.NumComponents() > 2 {
		t.Fatalf("components = %d, want <= 2", p.NumComponents())
	}
	z := p.Transform([]float64{0, 7, 0, 0})
	for _, v := range z {
		if math.IsNaN(v) {
			t.Fatal("NaN in transform")
		}
	}
}

func TestPCAErrors(t *testing.T) {
	p := NewPCA(2)
	if err := p.Fit(nil); err == nil {
		t.Fatal("empty fit must error")
	}
	if err := p.Fit([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged input must error")
	}
	// all-constant input: zero components, zero transform
	allSame := [][]float64{{1, 1}, {1, 1}}
	if err := p.Fit(allSame); err != nil {
		t.Fatal(err)
	}
	if p.NumComponents() != 0 {
		t.Fatal("constant data should yield no components")
	}
}

func TestPCAAxesOrthonormal(t *testing.T) {
	X := anisotropic(400, 8, 4)
	p := NewPCA(4)
	if err := p.Fit(X); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.NumComponents(); i++ {
		for j := i; j < p.NumComponents(); j++ {
			dot := 0.0
			for t2 := range p.comps[i] {
				dot += p.comps[i][t2] * p.comps[j][t2]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-6 {
				t.Fatalf("axes %d,%d dot = %v, want %v", i, j, dot, want)
			}
		}
	}
}

func TestPCAWrapLifecycle(t *testing.T) {
	X, y := synth(800, 6, 5, 0.2)
	w := NewPCAWrap(4, NewForest(ForestConfig{Trees: 10}))
	if err := w.Fit(X[:600], y[:600]); err != nil {
		t.Fatal(err)
	}
	if err := w.Update(X[600:], y[600:]); err != nil {
		t.Fatal(err)
	}
	Xt, yt := synth(200, 6, 6, 0)
	e := rmse(w, Xt, yt)
	if e > 2.5 {
		t.Fatalf("PCA-wrapped forest RMSE = %v", e)
	}
	// Update before Fit behaves as Fit.
	w2 := NewPCAWrap(4, NewForest(ForestConfig{Trees: 6}))
	if err := w2.Update(X[:200], y[:200]); err != nil {
		t.Fatal(err)
	}
	if v := w2.Predict(X[0]); math.IsNaN(v) {
		t.Fatal("NaN prediction")
	}
	// Unfitted wrap predicts zero.
	if v := NewPCAWrap(2, NewKNN(1)).Predict(X[0]); v != 0 {
		t.Fatalf("unfitted predict = %v", v)
	}
}
