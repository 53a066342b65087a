package ml

import (
	"math"

	"gsight/internal/rng"
)

// sgdBase holds the state shared by the SGD-trained linear models (ILR
// and ISVR): standardized inputs, standardized target, weight vector
// trained by stochastic gradient descent.
type sgdBase struct {
	w       []float64
	b       float64
	xScaler *Scaler
	yMean   float64
	yM2     float64
	yN      float64
	epochs  int
	lr      float64
	l2      float64
	rnd     *rng.Rand
}

func newSGDBase(epochs int, lr, l2 float64, seed uint64) sgdBase {
	return sgdBase{
		xScaler: NewScaler(),
		epochs:  epochs,
		lr:      lr,
		l2:      l2,
		rnd:     rng.New(seed ^ 0x11ea4),
	}
}

func (s *sgdBase) observeY(y float64) {
	s.yN++
	d := y - s.yMean
	s.yMean += d / s.yN
	s.yM2 += d * (y - s.yMean)
}

func (s *sgdBase) yStd() float64 {
	if s.yN < 2 {
		return 1
	}
	v := s.yM2 / s.yN
	if v < 1e-12 {
		return 1
	}
	return math.Sqrt(v)
}

func (s *sgdBase) ensureDim(d int) {
	if s.w == nil {
		s.w = make([]float64, d)
	}
}

// raw returns the standardized-space linear output for standardized xs.
func (s *sgdBase) raw(xs []float64) float64 {
	v := s.b
	for i, x := range xs {
		v += s.w[i] * x
	}
	return v
}

// predict maps back to target space. It standardizes each feature
// inside the dot product — raw's operations in raw's order, without
// the standardized copy — so a prediction allocates nothing.
func (s *sgdBase) predict(x []float64) float64 {
	if s.w == nil {
		return 0
	}
	v := s.b
	for i, xi := range x {
		v += s.w[i] * s.xScaler.standardize(i, xi)
	}
	return v*s.yStd() + s.yMean
}

// runEpochs performs SGD over the batch with the supplied per-sample
// gradient step. grad returns dLoss/dRaw for the standardized residual.
func (s *sgdBase) runEpochs(X [][]float64, y []float64, epochs int, grad func(raw, yStd float64) float64) {
	n := len(y)
	std := s.yStd()
	for e := 0; e < epochs; e++ {
		lr := s.lr / (1 + 0.1*float64(e))
		perm := s.rnd.Perm(n)
		for _, i := range perm {
			xs := s.xScaler.Transform(X[i])
			ys := (y[i] - s.yMean) / std
			g := grad(s.raw(xs), ys)
			// Clip the per-sample gradient: standardized residuals in
			// high dimension occasionally explode and a single clipped
			// step costs less than divergence.
			if g > 3 {
				g = 3
			} else if g < -3 {
				g = -3
			}
			for j, xj := range xs {
				s.w[j] -= lr * (g*xj + s.l2*s.w[j])
			}
			s.b -= lr * g
		}
	}
}

// Linear is an L2-regularized linear regressor trained by SGD — the
// paper's ILR comparison model (incremental logistic/linear
// regression). It underfits the strongly nonlinear interference
// surface, which is exactly its role in Figures 5 and 9.
type Linear struct {
	sgdBase
}

// NewLinear returns an untrained linear model.
func NewLinear(seed uint64) *Linear {
	return &Linear{newSGDBase(12, 0.005, 1e-4, seed)}
}

// Fit trains from scratch.
func (m *Linear) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, y); err != nil {
		return err
	}
	m.sgdBase = newSGDBase(m.epochs, m.lr, m.l2, 0)
	return m.Update(X, y)
}

// Update folds a batch in with a few SGD epochs.
func (m *Linear) Update(X [][]float64, y []float64) error {
	if err := checkXY(X, y); err != nil {
		return err
	}
	m.ensureDim(len(X[0]))
	if len(X[0]) != len(m.w) {
		return ErrDimMismatch
	}
	for i := range y {
		m.xScaler.Observe(X[i])
		m.observeY(y[i])
	}
	m.runEpochs(X, y, m.epochs, func(raw, ys float64) float64 {
		return raw - ys // squared loss gradient
	})
	return nil
}

// Predict returns the linear estimate.
func (m *Linear) Predict(x []float64) float64 { return m.predict(x) }

var _ Incremental = (*Linear)(nil)

// SVR is a linear support-vector regressor (epsilon-insensitive loss)
// trained by SGD — the paper's ISVR comparison model.
type SVR struct {
	sgdBase
	Epsilon float64 // insensitivity tube in standardized target units
}

// NewSVR returns an untrained SVR.
func NewSVR(seed uint64) *SVR {
	return &SVR{sgdBase: newSGDBase(12, 0.005, 1e-4, seed), Epsilon: 0.05}
}

// Fit trains from scratch.
func (m *SVR) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, y); err != nil {
		return err
	}
	eps := m.Epsilon
	m.sgdBase = newSGDBase(m.epochs, m.lr, m.l2, 1)
	m.Epsilon = eps
	return m.Update(X, y)
}

// Update folds a batch in.
func (m *SVR) Update(X [][]float64, y []float64) error {
	if err := checkXY(X, y); err != nil {
		return err
	}
	m.ensureDim(len(X[0]))
	if len(X[0]) != len(m.w) {
		return ErrDimMismatch
	}
	for i := range y {
		m.xScaler.Observe(X[i])
		m.observeY(y[i])
	}
	eps := m.Epsilon
	m.runEpochs(X, y, m.epochs, func(raw, ys float64) float64 {
		diff := raw - ys
		switch {
		case diff > eps:
			return 1
		case diff < -eps:
			return -1
		}
		return 0
	})
	return nil
}

// Predict returns the SVR estimate.
func (m *SVR) Predict(x []float64) float64 { return m.predict(x) }

var _ Incremental = (*SVR)(nil)
