package trace

import (
	"testing"

	"gsight/internal/rng"
)

// TestTimeScaleCompressesClock pins the TimeScale contract: at factor
// k, the rate at simulated time t equals the unscaled rate at trace
// time k*t — one simulated day replays k days of diurnal structure.
func TestTimeScaleCompressesClock(t *testing.T) {
	base := DefaultPattern(100)
	base.PhaseShift = 3600
	for _, k := range []float64{2, 4, 24} {
		scaled := base
		scaled.TimeScale = k
		for _, tt := range []float64{0, 1800, 7 * 3600, 86400, 5 * 86400} {
			got := scaled.RateAt(tt)
			want := base.RateAt(k * tt)
			if got != want {
				t.Fatalf("TimeScale %v at t=%v: rate %v, want unscaled rate at %v = %v", k, tt, got, k*tt, want)
			}
		}
	}
}

// TestTimeScaleZeroAndOneAreRealTime pins bit-identity for unscaled
// patterns: the zero value and an explicit 1 must evaluate the exact
// float expression the field's introduction did not change.
func TestTimeScaleZeroAndOneAreRealTime(t *testing.T) {
	base := DefaultPattern(100)
	one := base
	one.TimeScale = 1
	for h := 0.0; h < 24*8; h += 0.25 {
		tt := h * 3600
		if base.RateAt(tt) != one.RateAt(tt) {
			t.Fatalf("TimeScale 1 diverges from zero value at t=%v", tt)
		}
	}
}

// TestScalingApply pins the knob semantics: rate factor multiplies
// BaseQPS, time factor composes into TimeScale, non-positive factors
// mean unscaled, and Apply is composable.
func TestScalingApply(t *testing.T) {
	p := DefaultPattern(50)
	s := Scaling{RateFactor: 3, TimeFactor: 4}
	q := s.Apply(p)
	if q.BaseQPS != 150 {
		t.Fatalf("BaseQPS = %v, want 150", q.BaseQPS)
	}
	if q.TimeScale != 4 {
		t.Fatalf("TimeScale = %v, want 4", q.TimeScale)
	}
	if q.PhaseShift != p.PhaseShift || q.DiurnalAmp != p.DiurnalAmp {
		t.Fatal("Apply must not touch shape fields")
	}
	// Composition: applying again multiplies both axes.
	q2 := s.Apply(q)
	if q2.BaseQPS != 450 || q2.TimeScale != 16 {
		t.Fatalf("composed = (%v qps, x%v), want (450, x16)", q2.BaseQPS, q2.TimeScale)
	}
	// Zero value and non-positive factors are no-ops.
	if !(Scaling{}).IsZero() || !(Scaling{RateFactor: -2, TimeFactor: 0}).IsZero() {
		t.Fatal("zero/non-positive scaling must be IsZero")
	}
	if (Scaling{RateFactor: 1, TimeFactor: 2}).IsZero() {
		t.Fatal("time-only scaling is not IsZero")
	}
	r := Scaling{}.Apply(p)
	if r.BaseQPS != p.BaseQPS || r.TimeScale != 1 {
		t.Fatalf("zero scaling changed the pattern: %+v", r)
	}
}

// TestScaledDeterminism pins same-seed reproducibility at scaled
// rates: two draws from equal seeds produce identical noisy samples.
func TestScaledDeterminism(t *testing.T) {
	p := Scaling{RateFactor: 2, TimeFactor: 8}.Apply(DefaultPattern(40))
	r1, r2 := rng.New(11), rng.New(11)
	for i := 0; i < 100; i++ {
		tt := float64(i) * 30
		if p.Sample(tt, r1) != p.Sample(tt, r2) {
			t.Fatalf("same-seed Sample diverges at t=%v", tt)
		}
	}
}
