package main

import (
	"math"
	"sort"
	"time"

	"gsight/internal/stats"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending slice; 0 for an empty one. Nearest rank, not the
// interpolation of stats.Percentile: "p99 with at least ten samples
// beyond it" is a statement about ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is stats.Median, with 0 for no samples: a layer metric whose
// operation never ran (no observation on `steady`) reads 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// sample is one measured value stamped with its offset into a phase.
type sample struct {
	at time.Duration
	v  float64
}

func values(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.v
	}
	return out
}

// numWindows is how many equal windows a measured phase is cut into.
// Throughput and tail metrics are the median window's value, so one
// window hit by a noisy neighbour does not move the reported number.
const numWindows = 5

// windows cuts [0, length) into n equal windows and returns the sample
// values that fall into each.
func windows(n int, samples []sample, length time.Duration) [][]float64 {
	out := make([][]float64, n)
	if length <= 0 {
		return out
	}
	for _, s := range samples {
		w := int(int64(s.at) * int64(n) / int64(length))
		if w < 0 || w >= n {
			continue
		}
		out[w] = append(out[w], s.v)
	}
	return out
}

// medianWindowPercentile is the median over n windows of each window's
// p-th percentile. Empty windows are skipped.
func medianWindowPercentile(n int, samples []sample, length time.Duration, p float64) float64 {
	var ps []float64
	for _, w := range windows(n, samples, length) {
		if len(w) > 0 {
			ps = append(ps, percentile(sortedCopy(w), p))
		}
	}
	return median(ps)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
