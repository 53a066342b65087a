package stats

import (
	"math"
	"testing"
	"testing/quick"

	"gsight/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := Std(xs); !almost(got, 2, 1e-12) {
		t.Fatalf("Std = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance singleton = %v, want 0", got)
	}
}

func TestCoV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := CoV(xs); !almost(got, 2.0/5.0, 1e-12) {
		t.Fatalf("CoV = %v, want 0.4", got)
	}
	if got := CoV([]float64{0, 0}); got != 0 {
		t.Fatalf("CoV zeros = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 {
		t.Fatalf("Min = %v, want -1", Min(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("P50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Fatalf("P25 = %v", got)
	}
	// interpolation between ranks
	if got := Percentile([]float64{10, 20}, 50); got != 15 {
		t.Fatalf("interp P50 = %v, want 15", got)
	}
	// input not modified
	if xs[0] != 5 {
		t.Fatal("Percentile modified its input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	r := rng.New(1)
	if err := quick.Check(func(seed uint64) bool {
		n := r.Intn(50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm(0, 10)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got, err := Pearson(xs, ys); err != nil || !almost(got, 1, 1e-12) {
		t.Fatalf("perfect positive Pearson = %v err=%v", got, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got, _ := Pearson(xs, neg); !almost(got, -1, 1e-12) {
		t.Fatalf("perfect negative Pearson = %v", got)
	}
	if got, err := Pearson(xs, []float64{3, 3, 3, 3, 3}); err != nil || got != 0 {
		t.Fatalf("constant series Pearson = %v err=%v", got, err)
	}
	if _, err := Pearson(xs, ys[:3]); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := Pearson(nil, nil); err == nil {
		t.Fatal("empty must error")
	}
}

func TestPearsonBoundsProperty(t *testing.T) {
	r := rng.New(2)
	if err := quick.Check(func(_ uint64) bool {
		n := r.Intn(100) + 2
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm(0, 1)
			ys[i] = r.Norm(0, 1)
		}
		got, err := Pearson(xs, ys)
		return err == nil && got >= -1-1e-9 && got <= 1+1e-9
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpearman(t *testing.T) {
	// monotone but nonlinear: Spearman is exactly 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	if got, err := Spearman(xs, ys); err != nil || !almost(got, 1, 1e-12) {
		t.Fatalf("Spearman monotone = %v err=%v", got, err)
	}
	desc := []float64{125, 64, 27, 8, 1}
	if got, _ := Spearman(xs, desc); !almost(got, -1, 1e-12) {
		t.Fatalf("Spearman anti-monotone = %v", got)
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary basics wrong: %+v", s)
	}
	if !almost(s.Mean, 50.5, 1e-12) {
		t.Fatalf("summary mean = %v", s.Mean)
	}
	if s.Median < 50 || s.Median > 51 {
		t.Fatalf("summary median = %v", s.Median)
	}
	if s.P99 < 98 || s.P99 > 100 {
		t.Fatalf("summary p99 = %v", s.P99)
	}
}

func TestBootstrapCI(t *testing.T) {
	r := rng.New(99)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = r.Norm(10, 2)
	}
	lo, hi, err := BootstrapCI(xs, 500, 0.95, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	m := Mean(xs)
	if lo > m || hi < m {
		t.Fatalf("CI [%v, %v] excludes the sample mean %v", lo, hi, m)
	}
	if hi-lo <= 0 || hi-lo > 1 {
		t.Fatalf("CI width %v implausible for n=400, std=2", hi-lo)
	}
	// Defaults apply for bad parameters.
	lo2, hi2, err := BootstrapCI(xs, 0, 2, rng.New(1))
	if err != nil || lo2 > hi2 {
		t.Fatalf("defaulted CI broken: [%v, %v] err=%v", lo2, hi2, err)
	}
	if _, _, err := BootstrapCI(nil, 10, 0.95, rng.New(1)); err == nil {
		t.Fatal("empty input must error")
	}
}
