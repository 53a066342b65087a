// Package trace synthesizes production-like invocation traces in the
// image of the Azure Functions characterization (Shahrad et al., ATC'20)
// that the paper drives its evaluation with (§6.1): invocation rates
// with diurnal and weekly patterns, and Poisson batch-job arrivals.
package trace

import (
	"math"

	"gsight/internal/rng"
)

// Pattern modulates a base request rate over time.
type Pattern struct {
	// BaseQPS is the mean request rate.
	BaseQPS float64
	// DiurnalAmp in [0,1) scales the day/night swing.
	DiurnalAmp float64
	// WeeklyAmp in [0,1) damps weekends.
	WeeklyAmp float64
	// PeakHour is the local hour of the diurnal maximum.
	PeakHour float64
	// NoiseRel adds lognormal rate noise per query.
	NoiseRel float64
	// PhaseShift offsets the pattern (seconds), decorrelating
	// workloads.
	PhaseShift float64
	// TimeScale compresses the diurnal/weekly clock: at TimeScale k,
	// one simulated second advances k seconds of trace time, so a
	// whole day of rate structure replays in 86400/k simulated
	// seconds. Zero (the zero value) and 1 mean real time.
	TimeScale float64
}

// DefaultPattern returns a diurnal+weekly pattern around baseQPS,
// shaped like the Azure invocations-per-hour series.
func DefaultPattern(baseQPS float64) Pattern {
	return Pattern{
		BaseQPS:    baseQPS,
		DiurnalAmp: 0.55,
		WeeklyAmp:  0.25,
		PeakHour:   14,
		NoiseRel:   0.05,
	}
}

const (
	daySeconds  = 86400.0
	weekSeconds = 7 * daySeconds
)

// RateAt returns the expected request rate at time t (seconds since the
// trace epoch, a Monday midnight). It is deterministic; use Sample for
// the noisy instantaneous rate.
func (p Pattern) RateAt(t float64) float64 {
	// Guarded so unscaled patterns evaluate the exact expression they
	// always did (no spurious *1 in the float chain).
	if p.TimeScale != 0 && p.TimeScale != 1 {
		t *= p.TimeScale
	}
	t += p.PhaseShift
	hour := math.Mod(t, daySeconds) / 3600
	diurnal := 1 + p.DiurnalAmp*math.Cos((hour-p.PeakHour)/24*2*math.Pi)
	dow := int(math.Mod(t, weekSeconds) / daySeconds)
	weekly := 1.0
	if dow >= 5 { // weekend
		weekly = 1 - p.WeeklyAmp
	}
	r := p.BaseQPS * diurnal * weekly
	if r < 0 {
		return 0
	}
	return r
}

// Sample returns the instantaneous rate with multiplicative noise.
func (p Pattern) Sample(t float64, rnd *rng.Rand) float64 {
	r := p.RateAt(t)
	if rnd != nil && p.NoiseRel > 0 {
		r = rnd.Jitter(r, p.NoiseRel)
	}
	return r
}

// Scaling stretches an invocation pattern along both axes: RateFactor
// multiplies every instantaneous rate (more invocations per simulated
// second), TimeFactor compresses the trace clock (more trace horizon
// per simulated second). Together they drive long-horizon soak runs —
// e.g. RateFactor 20 on a 50 QPS base replays ~86M invocations per
// simulated day. The zero value (and any factor <= 0) means unscaled.
type Scaling struct {
	RateFactor float64
	TimeFactor float64
}

// Rate returns the effective rate factor (1 when unset).
func (s Scaling) Rate() float64 {
	if s.RateFactor <= 0 {
		return 1
	}
	return s.RateFactor
}

// Time returns the effective time-compression factor (1 when unset).
func (s Scaling) Time() float64 {
	if s.TimeFactor <= 0 {
		return 1
	}
	return s.TimeFactor
}

// IsZero reports whether the scaling is a no-op.
func (s Scaling) IsZero() bool { return s.Rate() == 1 && s.Time() == 1 }

// Apply derives the scaled pattern: the base rate is multiplied by the
// rate factor and the diurnal/weekly clock compressed by the time
// factor. PhaseShift stays in trace time, so decorrelated services
// remain decorrelated under scaling.
func (s Scaling) Apply(p Pattern) Pattern {
	p.BaseQPS *= s.Rate()
	ts := p.TimeScale
	if ts == 0 {
		ts = 1
	}
	p.TimeScale = ts * s.Time()
	return p
}

// JobArrivals generates Poisson arrival times of batch (SC/BG) job
// submissions at a constant mean interval.
func JobArrivals(meanIntervalS, start, end float64, rnd *rng.Rand) []float64 {
	if meanIntervalS <= 0 {
		return nil
	}
	var out []float64
	t := start
	for {
		t += rnd.Exp(1 / meanIntervalS)
		if t >= end {
			return out
		}
		out = append(out, t)
	}
}
