package ml

import (
	"fmt"
	"math"
)

// Ridge is a deterministic incremental ridge regressor over a small,
// fixed feature dimension. It is the tier-0 interference scorer's
// model: where the forest sees the full ~2.6k-dim colocation code, the
// ridge sees a handful of projected features and answers in a few
// dozen flops, cheap enough to score every candidate server before the
// forest is consulted at all.
//
// Samples live in a fixed-capacity ring mirroring the forest's
// incremental window: absorbing a sample beyond capacity evicts the
// oldest by downdating the Gram matrix, so the model always reflects
// the same recency horizon the forest trains on. There is no RNG and
// no wall-clock input anywhere — given the same observation stream the
// coefficients are bit-identical, which is what lets cached tier-0
// scores survive checkpoint/resume byte-for-byte.
type Ridge struct {
	d      int
	window int
	lambda float64

	a []float64 // d×d Gram XᵀX over the retained ring (λ added at solve)
	b []float64 // Xᵀy
	w []float64 // solved coefficients, valid when trained

	ringX []float64 // flat ring storage, window rows × d
	ringY []float64
	n     int // retained samples (≤ window)
	head  int // slot of the oldest row once full
	seen  uint64

	trained bool
	chol    []float64 // solve scratch
	rhs     []float64
}

// ridgeMinSamples gates solving: with fewer rows than features the fit
// is pure regularizer and ranks nothing.
const ridgeMinSamples = 24

// NewRidge returns an empty ridge model of dimension d with the given
// ring-window capacity and L2 strength. The caller supplies any bias
// term as a constant-1 feature.
func NewRidge(d, window int, lambda float64) *Ridge {
	if d <= 0 {
		panic("ml: ridge dimension must be positive")
	}
	if window < ridgeMinSamples {
		window = ridgeMinSamples
	}
	return &Ridge{
		d:      d,
		window: window,
		lambda: lambda,
		a:      make([]float64, d*d),
		b:      make([]float64, d),
		w:      make([]float64, d),
		chol:   make([]float64, d*d),
		rhs:    make([]float64, d),
	}
}

// Dim returns the feature dimension.
func (r *Ridge) Dim() int { return r.d }

// Len returns the number of retained samples.
func (r *Ridge) Len() int { return r.n }

// Seen returns the total number of samples ever absorbed.
func (r *Ridge) Seen() uint64 { return r.seen }

// Trained reports whether Predict is backed by a solved fit.
func (r *Ridge) Trained() bool { return r.trained }

// Reset drops all samples and coefficients.
func (r *Ridge) Reset() {
	for i := range r.a {
		r.a[i] = 0
	}
	for i := range r.b {
		r.b[i] = 0
	}
	for i := range r.w {
		r.w[i] = 0
	}
	r.ringX = r.ringX[:0]
	r.ringY = r.ringY[:0]
	r.n, r.head, r.seen = 0, 0, 0
	r.trained = false
}

// Observe absorbs one sample, evicting the oldest when the ring is
// full. O(d²); allocation-free once the ring has grown to capacity.
// Coefficients do not move until the next Refresh.
func (r *Ridge) Observe(x []float64, y float64) {
	if len(x) != r.d {
		panic(fmt.Sprintf("ml: ridge observe dim %d != %d", len(x), r.d))
	}
	slot := r.n
	if r.n == r.window {
		// Downdate: subtract the evicted row's contribution, then
		// overwrite its slot.
		slot = r.head
		old := r.ringX[slot*r.d : (slot+1)*r.d]
		oldY := r.ringY[slot]
		for i := 0; i < r.d; i++ {
			oi := old[i]
			row := r.a[i*r.d:]
			for j := 0; j < r.d; j++ {
				row[j] -= oi * old[j]
			}
			r.b[i] -= oldY * oi
		}
		r.head++
		if r.head == r.window {
			r.head = 0
		}
	} else {
		r.ringX = append(r.ringX, make([]float64, r.d)...)
		r.ringY = append(r.ringY, 0)
		r.n++
	}
	copy(r.ringX[slot*r.d:(slot+1)*r.d], x)
	r.ringY[slot] = y
	for i := 0; i < r.d; i++ {
		xi := x[i]
		row := r.a[i*r.d:]
		for j := 0; j < r.d; j++ {
			row[j] += xi * x[j]
		}
		r.b[i] += y * xi
	}
	r.seen++
}

// Refresh re-solves the normal equations (A + λI)w = b by Cholesky
// factorization, bumping λ deterministically if accumulated rounding
// has pushed A off positive-definite. Reports whether the model is now
// trained.
func (r *Ridge) Refresh() bool {
	if r.n < ridgeMinSamples {
		r.trained = false
		return false
	}
	lam := r.lambda
	for attempt := 0; attempt < 4; attempt++ {
		if r.solve(lam) {
			r.trained = true
			return true
		}
		lam *= 100
	}
	r.trained = false
	return false
}

// solve runs one Cholesky factorize-and-backsolve with the given λ.
func (r *Ridge) solve(lam float64) bool {
	d := r.d
	copy(r.chol, r.a)
	for i := 0; i < d; i++ {
		r.chol[i*d+i] += lam
	}
	// In-place lower Cholesky.
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			sum := r.chol[i*d+j]
			for k := 0; k < j; k++ {
				sum -= r.chol[i*d+k] * r.chol[j*d+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return false
				}
				r.chol[i*d+i] = math.Sqrt(sum)
			} else {
				r.chol[i*d+j] = sum / r.chol[j*d+j]
			}
		}
	}
	// Forward substitution L·z = b, then back substitution Lᵀ·w = z.
	for i := 0; i < d; i++ {
		sum := r.b[i]
		for k := 0; k < i; k++ {
			sum -= r.chol[i*d+k] * r.rhs[k]
		}
		r.rhs[i] = sum / r.chol[i*d+i]
	}
	for i := d - 1; i >= 0; i-- {
		sum := r.rhs[i]
		for k := i + 1; k < d; k++ {
			sum -= r.chol[k*d+i] * r.w[k]
		}
		r.w[i] = sum / r.chol[i*d+i]
	}
	for _, v := range r.w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Predict returns the linear estimate w·x. Zero until trained.
func (r *Ridge) Predict(x []float64) float64 {
	if !r.trained {
		return 0
	}
	v := 0.0
	for i, xi := range x {
		v += r.w[i] * xi
	}
	return v
}
