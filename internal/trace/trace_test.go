package trace

import (
	"math"
	"testing"

	"gsight/internal/rng"
)

func TestPatternDiurnalShape(t *testing.T) {
	p := DefaultPattern(100)
	peak := p.RateAt(14 * 3600)  // Monday 14:00
	trough := p.RateAt(2 * 3600) // Monday 02:00
	if peak <= trough {
		t.Fatalf("peak %v <= trough %v", peak, trough)
	}
	if peak < 100 || trough > 100 {
		t.Fatalf("base rate not between trough %v and peak %v", trough, peak)
	}
}

func TestPatternWeeklyDamping(t *testing.T) {
	p := DefaultPattern(100)
	monday := p.RateAt(14 * 3600)
	saturday := p.RateAt(5*86400 + 14*3600)
	if saturday >= monday {
		t.Fatalf("weekend rate %v >= weekday %v", saturday, monday)
	}
	ratio := saturday / monday
	if math.Abs(ratio-(1-p.WeeklyAmp)) > 1e-9 {
		t.Fatalf("weekend damping = %v, want %v", ratio, 1-p.WeeklyAmp)
	}
}

func TestPatternNonNegative(t *testing.T) {
	p := Pattern{BaseQPS: 1, DiurnalAmp: 0.99, WeeklyAmp: 0.99}
	for h := 0.0; h < 24*8; h++ {
		if r := p.RateAt(h * 3600); r < 0 {
			t.Fatalf("negative rate at hour %v", h)
		}
	}
}

func TestJobArrivals(t *testing.T) {
	r := rng.New(5)
	arr := JobArrivals(300, 0, 86400, r)
	want := 86400.0 / 300
	if math.Abs(float64(len(arr))-want) > want*0.4 {
		t.Fatalf("job arrivals = %d, want ~%v", len(arr), want)
	}
	if JobArrivals(0, 0, 100, r) != nil {
		t.Fatal("zero interval should produce nil")
	}
}

func TestSampleNoiseSeeded(t *testing.T) {
	p := DefaultPattern(50)
	a := p.Sample(1000, rng.New(6))
	b := p.Sample(1000, rng.New(6))
	if a != b {
		t.Fatal("seeded sample must reproduce")
	}
	if c := p.Sample(1000, nil); c != p.RateAt(1000) {
		t.Fatal("nil rnd should return deterministic rate")
	}
}
