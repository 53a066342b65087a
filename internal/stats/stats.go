// Package stats provides the descriptive and correlation statistics used
// throughout the Gsight reproduction: percentiles for tail latency
// reporting, coefficient of variation for Figure 3, and the
// Pearson and Spearman correlation coefficients used by the Table 3
// feature screening.
package stats

import (
	"errors"
	"gsight/internal/rng"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than
// two values.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n)
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation (std/mean), or 0 when the
// mean is 0.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return Std(xs) / m
}

// Min returns the smallest element of xs; it panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs using
// linear interpolation between closest ranks. The input is not modified.
// It panics on empty input or p outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if p < 0 || p > 100 {
		panic("stats: percentile out of [0,100]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// PercentileSorted is Percentile for already-sorted input, avoiding the
// copy and sort. The caller must guarantee xs is ascending.
func PercentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if p < 0 || p > 100 {
		panic("stats: percentile out of [0,100]")
	}
	return percentileSorted(xs, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median is shorthand for the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when either series is constant and an error when the
// lengths differ or the input is empty.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns the Spearman rank correlation coefficient between xs
// and ys (Pearson correlation of the ranks, with ties assigned their
// average rank).
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the fractional ranks of xs (1-based; ties receive the
// average of the ranks they span).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// average rank for the tie group [i, j]
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Summary holds the five-number-plus summary reported for each
// experiment series.
type Summary struct {
	N              int
	Mean, Std, CoV float64
	Min, P25       float64
	Median, P75    float64
	P95, P99, Max  float64
}

// Summarize computes a Summary of xs. It panics on empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Std:    Std(xs),
		CoV:    CoV(xs),
		Min:    sorted[0],
		P25:    percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		P75:    percentileSorted(sorted, 75),
		P95:    percentileSorted(sorted, 95),
		P99:    percentileSorted(sorted, 99),
		Max:    sorted[len(sorted)-1],
	}
}

// BootstrapCI returns the lo..hi percentile bootstrap confidence
// interval of the mean of xs, using n resamples drawn from rnd.
// Experiment reports use it to qualify error estimates.
func BootstrapCI(xs []float64, n int, conf float64, rnd *rng.Rand) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	if n <= 0 {
		n = 1000
	}
	if conf <= 0 || conf >= 1 {
		conf = 0.95
	}
	means := make([]float64, n)
	for b := 0; b < n; b++ {
		sum := 0.0
		for i := 0; i < len(xs); i++ {
			sum += xs[rnd.Intn(len(xs))]
		}
		means[b] = sum / float64(len(xs))
	}
	alpha := (1 - conf) / 2 * 100
	return Percentile(means, alpha), Percentile(means, 100-alpha), nil
}
