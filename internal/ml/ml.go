// Package ml implements the learning substrate of the reproduction from
// scratch, stdlib only: CART regression trees, random forests with
// impurity-based feature importance (the paper's RFR/IRFR), k-nearest
// neighbours, linear (ridge) regression, linear support-vector
// regression and a multilayer perceptron — each with an incremental
// variant (IRFR, IKNN, ILR, ISVR, IMLP) matching §3.4's comparison set.
package ml

import (
	"errors"
	"math"
)

// Regressor is a trainable model mapping feature vectors to a scalar.
type Regressor interface {
	// Fit trains the model from scratch on the dataset.
	Fit(X [][]float64, y []float64) error
	// Predict returns the model's estimate for x.
	Predict(x []float64) float64
}

// Incremental is a regressor that can absorb new samples online —
// the paper's incremental learning loop (§3.3): predict, observe, update.
type Incremental interface {
	Regressor
	// Update folds a new batch of samples into the model without a
	// full retrain.
	Update(X [][]float64, y []float64) error
}

// BatchRegressor is implemented by models whose batched prediction path
// beats a per-sample Predict loop (shared traversal state, cache
// locality, goroutine fan-out). Implementations MUST return results
// bit-identical to per-sample Predict — callers rely on single and
// batched inference being interchangeable.
type BatchRegressor interface {
	// PredictBatchInto fills out[i] with the prediction for X[i];
	// len(out) must equal len(X).
	PredictBatchInto(X [][]float64, out []float64)
}

// ErrNoData is returned when fitting on an empty dataset.
var ErrNoData = errors.New("ml: empty training set")

// ErrDimMismatch is returned when feature dimensions are inconsistent.
var ErrDimMismatch = errors.New("ml: feature dimension mismatch")

// ErrWindowTooLarge is returned when a tree or forest is asked to train
// on more rows than the split-search kernel can rank.
var ErrWindowTooLarge = errors.New("ml: training window exceeds 65536 rows")

func checkXY(X [][]float64, y []float64) error {
	if len(X) == 0 || len(y) == 0 {
		return ErrNoData
	}
	if len(X) != len(y) {
		return ErrDimMismatch
	}
	d := len(X[0])
	for _, x := range X {
		if len(x) != d {
			return ErrDimMismatch
		}
	}
	return nil
}

// Dataset is a growable design matrix with targets.
type Dataset struct {
	X [][]float64
	Y []float64
}

// Append adds one sample. The feature slice is stored, not copied.
func (d *Dataset) Append(x []float64, y float64) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Reset empties the dataset, keeping its backing capacity for reuse.
// Stored feature slices are released to their consumers — callers that
// handed rows to a model must not mutate them afterwards.
func (d *Dataset) Reset() {
	for i := range d.X {
		d.X[i] = nil
	}
	d.X = d.X[:0]
	d.Y = d.Y[:0]
}

// Tail returns a dataset view of the last n samples.
func (d *Dataset) Tail(n int) Dataset {
	if n >= d.Len() {
		return *d
	}
	return Dataset{X: d.X[d.Len()-n:], Y: d.Y[d.Len()-n:]}
}

// Scaler standardizes features to zero mean and unit variance, with
// incremental (Welford) statistics so online models can keep their
// normalization current.
type Scaler struct {
	n    float64
	mean []float64
	m2   []float64
}

// NewScaler returns an empty scaler.
func NewScaler() *Scaler { return &Scaler{} }

// Observe folds a sample into the running statistics.
func (s *Scaler) Observe(x []float64) {
	if s.mean == nil {
		s.mean = make([]float64, len(x))
		s.m2 = make([]float64, len(x))
	}
	s.n++
	for i, v := range x {
		d := v - s.mean[i]
		s.mean[i] += d / s.n
		s.m2[i] += d * (v - s.mean[i])
	}
}

// Transform returns the standardized copy of x.
func (s *Scaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = s.standardize(i, v)
	}
	return out
}

// standardize returns v, the value of feature i, standardized: v
// itself until two samples are seen, 0 for a constant feature.
func (s *Scaler) standardize(i int, v float64) float64 {
	if s.mean == nil || s.n < 2 {
		return v
	}
	sd := math.Sqrt(s.m2[i] / s.n)
	if sd < 1e-12 {
		return 0
	}
	return (v - s.mean[i]) / sd
}
