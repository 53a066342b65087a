package ml

import (
	"math"
	"testing"
)

// ridgeSample builds a deterministic synthetic sample x and label
// w*·x + tiny structured noise, with a constant-1 bias feature.
func ridgeSample(i, d int) ([]float64, float64) {
	wStar := func(j int) float64 { return 0.5 - 0.1*float64(j) }
	x := make([]float64, d)
	x[0] = 1
	for j := 1; j < d; j++ {
		x[j] = math.Sin(float64(i*j)*0.37) + 0.5*math.Cos(float64(i+j)*0.11)
	}
	y := 0.0
	for j := 0; j < d; j++ {
		y += wStar(j) * x[j]
	}
	y += 0.01 * math.Sin(float64(i)*1.7)
	return x, y
}

func TestRidgeFitsLinearTarget(t *testing.T) {
	const d = 6
	r := NewRidge(d, 256, 1e-6)
	for i := 0; i < 200; i++ {
		x, y := ridgeSample(i, d)
		r.Observe(x, y)
	}
	if !r.Refresh() {
		t.Fatal("refresh failed on well-conditioned data")
	}
	sum, n := 0.0, 0
	for i := 200; i < 260; i++ {
		x, y := ridgeSample(i, d)
		e := r.Predict(x) - y
		sum += e * e
		n++
	}
	if rmse := math.Sqrt(sum / float64(n)); rmse > 0.05 {
		t.Fatalf("held-out RMSE %.4f, want < 0.05", rmse)
	}
}

func TestRidgeUntrainedPredictsZero(t *testing.T) {
	r := NewRidge(4, 64, 1e-3)
	if got := r.Predict([]float64{1, 2, 3, 4}); got != 0 {
		t.Fatalf("untrained predict = %v, want 0", got)
	}
	// Below the sample gate Refresh must refuse to train.
	for i := 0; i < ridgeMinSamples-1; i++ {
		x, y := ridgeSample(i, 4)
		r.Observe(x, y)
	}
	if r.Refresh() {
		t.Fatalf("refresh trained on %d samples, gate is %d", r.n, ridgeMinSamples)
	}
}

// TestRidgeWindowDowndate checks the ring eviction path: after
// absorbing far more samples than the window holds, the Gram matrix
// must match one rebuilt from scratch over only the retained samples
// (same accumulation order: oldest first), up to rounding.
func TestRidgeWindowDowndate(t *testing.T) {
	const d, window = 5, 32
	r := NewRidge(d, window, 1e-6)
	total := 3*window + 7
	for i := 0; i < total; i++ {
		x, y := ridgeSample(i, d)
		r.Observe(x, y)
	}
	if r.n != window {
		t.Fatalf("retained %d samples, want %d", r.n, window)
	}
	fresh := NewRidge(d, window, 1e-6)
	for i := total - window; i < total; i++ {
		x, y := ridgeSample(i, d)
		fresh.Observe(x, y)
	}
	for i := range r.a {
		if diff := math.Abs(r.a[i] - fresh.a[i]); diff > 1e-8 {
			t.Fatalf("gram[%d] drifted %.3g after downdates", i, diff)
		}
	}
	for i := range r.b {
		if diff := math.Abs(r.b[i] - fresh.b[i]); diff > 1e-8 {
			t.Fatalf("b[%d] drifted %.3g after downdates", i, diff)
		}
	}
	if !r.Refresh() || !fresh.Refresh() {
		t.Fatal("refresh failed")
	}
	for i := range r.w {
		if diff := math.Abs(r.w[i] - fresh.w[i]); diff > 1e-6 {
			t.Fatalf("w[%d] drifted %.3g after downdates", i, diff)
		}
	}
}
