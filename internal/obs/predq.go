package obs

import (
	"math"

	"gsight/internal/telemetry"
)

// Prediction-quality tracking: every (predicted, observed) pair the
// platform sees feeds a rolling-window residual tracker, overall and
// per archetype, plus a Page–Hinkley drift detector on the absolute
// relative error stream — one set per QoS kind, so IPC and JCT errors,
// which sit at different levels, never share a window or a detector.
// The platform logs the samples (so `gsight inspect` can replay them
// offline) and emits a predictor_drift decision event when a kind's
// detector fires.

// predWindowCap is the rolling-window length for signed error and MAPE.
const predWindowCap = 128

// Page–Hinkley parameters, in units of absolute relative error, tuned
// for relative-error streams: roughly, a sustained ~5-point MAPE shift
// over a few dozen samples fires.
const (
	phDelta  = 0.05 // tolerance
	phLambda = 2.0  // detection threshold
)

// QStat is the rolling error statistics for one residual stream.
type QStat struct {
	Count uint64    // samples ever seen
	ring  []float64 // last <=predWindowCap signed relative errors
	next  int       // ring write position
}

// add folds one signed relative error into the window.
func (s *QStat) add(relErr float64) {
	if len(s.ring) < predWindowCap {
		s.ring = append(s.ring, relErr)
	} else {
		s.ring[s.next] = relErr
		s.next = (s.next + 1) % predWindowCap
	}
	s.Count++
}

// MeanErr returns the rolling mean signed relative error.
func (s *QStat) MeanErr() float64 {
	if len(s.ring) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range s.ring {
		sum += e
	}
	return sum / float64(len(s.ring))
}

// MAPE returns the rolling mean absolute percentage error.
func (s *QStat) MAPE() float64 {
	if len(s.ring) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range s.ring {
		sum += math.Abs(e)
	}
	return sum / float64(len(s.ring))
}

// Window returns the rolling-window sample count.
func (s *QStat) Window() int { return len(s.ring) }

// phState is a Page–Hinkley detector over a non-negative error stream:
// it accumulates deviations of each sample from the running mean
// (minus a tolerance delta) and fires when the accumulator rises
// lambda above its running minimum — i.e. when recent errors shifted
// up from their historical level.
type phState struct {
	n      uint64
	mean   float64
	cum    float64 // accumulated deviation
	cumLow float64 // running minimum of cum
}

// add folds x in and reports whether drift was detected; the detector
// resets itself after firing so repeated drift re-arms cleanly.
func (p *phState) add(x float64) (float64, bool) {
	p.n++
	p.mean += (x - p.mean) / float64(p.n)
	p.cum += x - p.mean - phDelta
	if p.cum < p.cumLow {
		p.cumLow = p.cum
	}
	ph := p.cum - p.cumLow
	if ph > phLambda {
		*p = phState{}
		return ph, true
	}
	return ph, false
}

// PredQ tracks online prediction quality, per QoS kind. It is not
// safe for concurrent use; the platform drives it from its
// single-threaded event loop.
type PredQ struct {
	kinds map[string]*kindQ
}

// kindQ is one QoS kind's residual streams and drift detector.
type kindQ struct {
	overall QStat
	byArch  map[string]*QStat
	ph      phState
}

// NewPredQ builds a tracker.
func NewPredQ() *PredQ {
	return &PredQ{kinds: map[string]*kindQ{}}
}

// Track folds one predicted/observed pair of a QoS kind in and reports
// whether that kind's drift detector fired on this sample.
// Non-positive observations are ignored (no meaningful relative
// error). The returned event is valid only when drift is true, and its
// SimTimeS is the caller's to set.
func (q *PredQ) Track(archetype, qos string, predicted, observed float64) (telemetry.DriftEvent, bool) {
	if q == nil || observed <= 0 || math.IsNaN(predicted) || math.IsInf(predicted, 0) {
		return telemetry.DriftEvent{}, false
	}
	k := q.kinds[qos]
	if k == nil {
		k = &kindQ{byArch: map[string]*QStat{}}
		q.kinds[qos] = k
	}
	relErr := (predicted - observed) / observed
	k.overall.add(relErr)
	st := k.byArch[archetype]
	if st == nil {
		st = &QStat{}
		k.byArch[archetype] = st
	}
	st.add(relErr)
	ph, fired := k.ph.add(math.Abs(relErr))
	if !fired {
		return telemetry.DriftEvent{}, false
	}
	return telemetry.DriftEvent{
		Archetype: archetype,
		QoS:       qos,
		Window:    k.overall.Window(),
		MeanErr:   k.overall.MeanErr(),
		MAPE:      k.overall.MAPE(),
		PH:        ph,
	}, true
}

// Overall returns a QoS kind's overall rolling statistics (empty when
// unseen).
func (q *PredQ) Overall(qos string) *QStat {
	if q == nil || q.kinds[qos] == nil {
		return &QStat{}
	}
	return &q.kinds[qos].overall
}

// Archetype returns the rolling statistics for one archetype of a QoS
// kind (nil when unseen).
func (q *PredQ) Archetype(qos, name string) *QStat {
	if q == nil || q.kinds[qos] == nil {
		return nil
	}
	return q.kinds[qos].byArch[name]
}
