package obs

import "math"

// Prediction-quality tracking: every (predicted, observed) pair the
// platform sees feeds a rolling-window residual tracker, overall and
// per archetype, plus a Page–Hinkley drift detector on the absolute
// relative error stream. The platform records the samples in the trace
// (so `gsight inspect` can rebuild error-over-time offline) and emits a
// predictor_drift decision event when the detector fires.

// predWindowCap is the rolling-window length for signed error and MAPE.
const predWindowCap = 128

// calibBins is the number of calibration buckets over the
// predicted/observed log2-ratio range [-2, 2] (4x under-prediction to
// 4x over-prediction, outer bins catching the overflow).
const calibBins = 9

// QStat is the rolling error statistics for one residual stream.
type QStat struct {
	Count uint64    `json:"count"`          // samples ever seen
	Ring  []float64 `json:"ring,omitempty"` // last <=predWindowCap signed relative errors
	Next  int       `json:"next"`           // ring write position
	Calib []uint64  `json:"calib,omitempty"`
}

// add folds one signed relative error into the window.
func (s *QStat) add(relErr, ratio float64) {
	if len(s.Calib) == 0 {
		s.Calib = make([]uint64, calibBins)
	}
	if len(s.Ring) < predWindowCap {
		s.Ring = append(s.Ring, relErr)
	} else {
		s.Ring[s.Next] = relErr
		s.Next = (s.Next + 1) % predWindowCap
	}
	s.Count++
	// log2 ratio in [-2, 2] maps linearly onto the bins; the outer
	// bins absorb everything beyond 4x either way.
	lr := math.Log2(ratio)
	bin := int((lr + 2) / 4 * calibBins)
	if bin < 0 {
		bin = 0
	}
	if bin >= calibBins {
		bin = calibBins - 1
	}
	s.Calib[bin]++
}

// MeanErr returns the rolling mean signed relative error.
func (s *QStat) MeanErr() float64 {
	if len(s.Ring) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range s.Ring {
		sum += e
	}
	return sum / float64(len(s.Ring))
}

// MAPE returns the rolling mean absolute percentage error.
func (s *QStat) MAPE() float64 {
	if len(s.Ring) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range s.Ring {
		sum += math.Abs(e)
	}
	return sum / float64(len(s.Ring))
}

// Window returns the rolling-window sample count.
func (s *QStat) Window() int { return len(s.Ring) }

// phState is a Page–Hinkley detector over a non-negative error stream:
// it accumulates deviations of each sample from the running mean
// (minus a tolerance delta) and fires when the accumulator rises
// lambda above its running minimum — i.e. when recent errors shifted
// up from their historical level.
type phState struct {
	N    uint64
	Mean float64
	M    float64
	Min  float64
}

// add folds x in and reports whether drift was detected; the detector
// resets itself after firing so repeated drift re-arms cleanly.
func (p *phState) add(x, delta, lambda float64) (float64, bool) {
	p.N++
	p.Mean += (x - p.Mean) / float64(p.N)
	p.M += x - p.Mean - delta
	if p.M < p.Min {
		p.Min = p.M
	}
	ph := p.M - p.Min
	if ph > lambda {
		*p = phState{}
		return ph, true
	}
	return ph, false
}

// DriftInfo describes one drift detection.
type DriftInfo struct {
	Archetype string
	QoS       string
	Window    int
	MeanErr   float64
	MAPE      float64
	PH        float64
}

// PredQ tracks online prediction quality. It is not safe for
// concurrent use; the platform drives it from its single-threaded
// event loop.
type PredQ struct {
	// Lambda is the Page–Hinkley detection threshold and Delta its
	// tolerance, both in units of absolute relative error.
	Lambda float64
	Delta  float64

	overall QStat
	byArch  map[string]*QStat
	ph      phState
}

// NewPredQ builds a tracker with the given Page–Hinkley parameters;
// non-positive values get defaults tuned for relative-error streams
// (delta 0.05, lambda 2.0: roughly, a sustained ~5-point MAPE shift
// over a few dozen samples fires).
func NewPredQ(lambda, delta float64) *PredQ {
	if lambda <= 0 {
		lambda = 2.0
	}
	if delta <= 0 {
		delta = 0.05
	}
	return &PredQ{Lambda: lambda, Delta: delta, byArch: map[string]*QStat{}}
}

// Track folds one predicted/observed pair in and reports whether the
// drift detector fired on this sample. Non-positive observations are
// ignored (no meaningful relative error). The returned DriftInfo is
// valid only when drift is true.
func (q *PredQ) Track(archetype, qos string, predicted, observed float64) (DriftInfo, bool) {
	if q == nil || observed <= 0 || math.IsNaN(predicted) || math.IsInf(predicted, 0) {
		return DriftInfo{}, false
	}
	relErr := (predicted - observed) / observed
	ratio := math.Inf(1)
	if predicted > 0 {
		ratio = predicted / observed
	}
	q.overall.add(relErr, ratio)
	st := q.byArch[archetype]
	if st == nil {
		st = &QStat{}
		q.byArch[archetype] = st
	}
	st.add(relErr, ratio)
	ph, fired := q.ph.add(math.Abs(relErr), q.Delta, q.Lambda)
	if !fired {
		return DriftInfo{}, false
	}
	return DriftInfo{
		Archetype: archetype,
		QoS:       qos,
		Window:    q.overall.Window(),
		MeanErr:   q.overall.MeanErr(),
		MAPE:      q.overall.MAPE(),
		PH:        ph,
	}, true
}

// Overall returns the overall rolling statistics.
func (q *PredQ) Overall() *QStat {
	if q == nil {
		return &QStat{}
	}
	return &q.overall
}

// Archetype returns the rolling statistics for one archetype (nil when
// unseen).
func (q *PredQ) Archetype(name string) *QStat {
	if q == nil {
		return nil
	}
	return q.byArch[name]
}
