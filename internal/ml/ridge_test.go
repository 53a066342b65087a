package ml

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"gsight/internal/wire"
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
		t.Fatalf("refresh trained on %d samples, gate is %d", r.Len(), ridgeMinSamples)
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
	if r.Len() != window {
		t.Fatalf("retained %d samples, want %d", r.Len(), window)
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

// TestRidgeStateRoundTrip checks export/restore is exact: the restored
// model predicts bit-identically and keeps evolving bit-identically as
// further samples arrive (the seam position must be unobservable).
func TestRidgeStateRoundTrip(t *testing.T) {
	const d, window = 5, 32
	a := NewRidge(d, window, 1e-6)
	for i := 0; i < 2*window+5; i++ {
		x, y := ridgeSample(i, d)
		a.Observe(x, y)
	}
	a.Refresh()
	b := NewRidge(d, window, 1e-6)
	state := a.Capture().AppendTo(nil)
	if len(state) != a.Capture().SizeHint() {
		t.Fatalf("SizeHint %d, section is %d bytes", a.Capture().SizeHint(), len(state))
	}
	if err := restoreRidge(b, state); err != nil {
		t.Fatal(err)
	}
	if again := b.Capture().AppendTo(nil); string(again) != string(state) {
		t.Fatal("restored ridge re-encodes to different bytes")
	}
	if b.Seen() != a.Seen() || b.Len() != a.Len() || b.Trained() != a.Trained() {
		t.Fatalf("restored counters diverge: seen %d/%d len %d/%d", b.Seen(), a.Seen(), b.Len(), a.Len())
	}
	probe, _ := ridgeSample(999, d)
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("restored model predicts differently")
	}
	// Continue both with identical samples through several evictions.
	for i := 0; i < 2*window; i++ {
		x, y := ridgeSample(1000+i, d)
		a.Observe(x, y)
		b.Observe(x, y)
	}
	a.Refresh()
	b.Refresh()
	if !reflect.DeepEqual(a.w, b.w) {
		t.Fatal("post-restore evolution diverged bit-wise")
	}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("post-restore predictions diverged")
	}
}

// restoreRidge reads one ridge section under r's limits and installs it.
func restoreRidge(r *Ridge, data []byte) error {
	rd := wire.NewReader(data)
	d := ReadRidgeState(rd, r.StateLimits())
	if err := rd.Done(); err != nil {
		return err
	}
	r.Install(d)
	return nil
}

func TestRidgeRestoreRejectsCorrupt(t *testing.T) {
	src := NewRidge(4, 24, 1e-3)
	for i := 0; i < 30; i++ {
		x, y := ridgeSample(i, 4)
		src.Observe(x, y)
	}
	cases := []struct {
		name    string
		corrupt func(c *RidgeCapture)
		want    string
	}{
		{"dim", func(c *RidgeCapture) { c.d = 5 }, "ridge dim 5 != configured 4"},
		{"short accumulator", func(c *RidgeCapture) { c.a = c.a[:3] }, ""},
		{"nan accumulator", func(c *RidgeCapture) { c.a[0] = math.NaN() }, "non-finite"},
		{"inf ring row", func(c *RidgeCapture) { c.ringX[5] = math.Inf(-1) }, "non-finite"},
		{"ring over capacity", func(c *RidgeCapture) {
			c.ringX = append(c.ringX, c.ringX[:4]...)
			c.ringY = append(c.ringY, 1)
		}, "exceeds capacity"},
		{"labels without rows", func(c *RidgeCapture) { c.ringX = c.ringX[:4] }, ""},
	}
	for _, tc := range cases {
		c := src.Capture()
		tc.corrupt(&c)
		dst := NewRidge(4, 24, 1e-3)
		err := restoreRidge(dst, c.AppendTo(nil))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
		if dst.Len() != 0 || dst.Seen() != 0 {
			t.Errorf("%s: rejected state was applied", tc.name)
		}
	}
}
