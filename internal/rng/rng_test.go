package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := Stream(7, "alpha")
	b := Stream(7, "beta")
	if a.Uint64() == b.Uint64() {
		t.Fatal("named streams with same seed should differ")
	}
	c := Stream(7, "alpha")
	a2 := Stream(7, "alpha")
	if c.Uint64() != a2.Uint64() {
		t.Fatal("same stream name and seed must reproduce")
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(6)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Norm mean = %v, want ~10", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("Norm std = %v, want ~2", std)
	}
}

func TestExpMean(t *testing.T) {
	r := New(8)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(2)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitter(t *testing.T) {
	r := New(11)
	if got := r.Jitter(5, 0); got != 5 {
		t.Fatalf("Jitter with rel=0 should be identity, got %v", got)
	}
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Jitter(100, 0.02)
		if v <= 0 {
			t.Fatalf("Jitter produced non-positive %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-100) > 1 {
		t.Fatalf("Jitter mean = %v, want ~100", mean)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(42)
	a := parent.Split()
	b := parent.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("successive splits should differ")
	}
}

func TestRangeBounds(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		v := r.Range(3, 9)
		if v < 3 || v >= 9 {
			t.Fatalf("Range(3,9) out of bounds: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(14)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			count++
		}
	}
	if got := float64(count) / n; math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", got)
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := Stream(42, "checkpoint")
	for i := 0; i < 100; i++ {
		r.Uint64()
	}
	restored, err := FromState(r.State())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a, b := r.Uint64(), restored.Uint64(); a != b {
			t.Fatalf("draw %d diverged: %d != %d", i, b, a)
		}
	}
	// Splits from the same cursor must also agree.
	if a, b := r.Split().Uint64(), restored.Split().Uint64(); a != b {
		t.Fatalf("split diverged: %d != %d", b, a)
	}
}

func TestFromStateRejectsAllZero(t *testing.T) {
	if _, err := FromState([4]uint64{}); err == nil {
		t.Fatal("all-zero state accepted")
	}
}
