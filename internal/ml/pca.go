package ml

import (
	"math"

	"gsight/internal/rng"
)

// PCA is a principal component analysis transform, implemented from
// scratch with orthogonal (power) iteration on the covariance matrix.
// The paper names dimensionality reduction as the way to keep Gsight's
// 32nS+2n code tractable when workflows span hundreds of servers
// (§6.4, future work); PCAWrap below applies it in the predictor
// pipeline, and the ablation experiment measures the accuracy/latency
// trade.
type PCA struct {
	Components int // target dimensionality; <=0 means 64
	// MaxIter bounds the orthogonal-iteration sweeps; <=0 means 100.
	MaxIter int
	// Tol is the convergence tolerance on subspace rotation; <=0
	// means 1e-6.
	Tol float64

	mean   []float64
	comps  [][]float64 // [Components][dim] row-major principal axes
	evals  []float64   // explained variances, descending
	dim    int
	active []int // features with nonzero variance (the rest are dropped)
}

// NewPCA returns a PCA transform targeting k components.
func NewPCA(k int) *PCA { return &PCA{Components: k} }

func (p *PCA) defaults() {
	if p.Components <= 0 {
		p.Components = 64
	}
	if p.MaxIter <= 0 {
		p.MaxIter = 100
	}
	if p.Tol <= 0 {
		p.Tol = 1e-6
	}
}

// Fit estimates the principal axes of X. Constant features are dropped
// before the eigen-solve (the colocation codes are mostly zero
// padding), which keeps the covariance small and well-conditioned.
func (p *PCA) Fit(X [][]float64) error {
	if len(X) == 0 {
		return ErrNoData
	}
	p.defaults()
	p.dim = len(X[0])
	n := float64(len(X))

	// mean + active set
	p.mean = make([]float64, p.dim)
	for _, x := range X {
		if len(x) != p.dim {
			return ErrDimMismatch
		}
		for j, v := range x {
			p.mean[j] += v
		}
	}
	for j := range p.mean {
		p.mean[j] /= n
	}
	p.active = p.active[:0]
	for j := 0; j < p.dim; j++ {
		for _, x := range X {
			if x[j] != X[0][j] {
				p.active = append(p.active, j)
				break
			}
		}
	}
	d := len(p.active)
	if d == 0 {
		p.comps = nil
		p.evals = nil
		return nil
	}
	k := p.Components
	if k > d {
		k = d
	}
	if k > len(X) {
		k = len(X)
	}

	// covariance over active features
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	centered := make([][]float64, len(X))
	for i, x := range X {
		c := make([]float64, d)
		for a, j := range p.active {
			c[a] = x[j] - p.mean[j]
		}
		centered[i] = c
	}
	for _, c := range centered {
		for i := 0; i < d; i++ {
			ci := c[i]
			if ci == 0 {
				continue
			}
			row := cov[i]
			for j := i; j < d; j++ {
				row[j] += ci * c[j]
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] /= n
			cov[j][i] = cov[i][j]
		}
	}

	// orthogonal iteration for the top-k eigenvectors
	r := rng.New(0x9ca)
	Q := make([][]float64, k)
	for i := range Q {
		Q[i] = make([]float64, d)
		for j := range Q[i] {
			Q[i][j] = r.Norm(0, 1)
		}
	}
	orthonormalize(Q)
	prev := math.Inf(1)
	tmp := make([][]float64, k)
	for i := range tmp {
		tmp[i] = make([]float64, d)
	}
	for iter := 0; iter < p.MaxIter; iter++ {
		// tmp = cov * Q^T (per component)
		for c := 0; c < k; c++ {
			for i := 0; i < d; i++ {
				s := 0.0
				row := cov[i]
				qc := Q[c]
				for j := 0; j < d; j++ {
					s += row[j] * qc[j]
				}
				tmp[c][i] = s
			}
		}
		for c := 0; c < k; c++ {
			copy(Q[c], tmp[c])
		}
		orthonormalize(Q)
		// convergence: trace of Rayleigh quotients
		tr := 0.0
		for c := 0; c < k; c++ {
			tr += rayleigh(cov, Q[c])
		}
		if math.Abs(tr-prev) < p.Tol*(1+math.Abs(tr)) {
			break
		}
		prev = tr
	}

	// eigenvalues + sort descending
	p.evals = make([]float64, k)
	for c := 0; c < k; c++ {
		p.evals[c] = rayleigh(cov, Q[c])
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if p.evals[order[j]] > p.evals[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	p.comps = make([][]float64, k)
	evs := make([]float64, k)
	for i, o := range order {
		p.comps[i] = Q[o]
		evs[i] = p.evals[o]
	}
	p.evals = evs
	return nil
}

func orthonormalize(Q [][]float64) {
	for i := range Q {
		for j := 0; j < i; j++ {
			dot := 0.0
			for t := range Q[i] {
				dot += Q[i][t] * Q[j][t]
			}
			for t := range Q[i] {
				Q[i][t] -= dot * Q[j][t]
			}
		}
		norm := 0.0
		for _, v := range Q[i] {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			continue
		}
		for t := range Q[i] {
			Q[i][t] /= norm
		}
	}
}

func rayleigh(cov [][]float64, q []float64) float64 {
	d := len(q)
	s := 0.0
	for i := 0; i < d; i++ {
		row := cov[i]
		qi := q[i]
		if qi == 0 {
			continue
		}
		dot := 0.0
		for j := 0; j < d; j++ {
			dot += row[j] * q[j]
		}
		s += qi * dot
	}
	return s
}

// Transform projects x onto the principal axes.
func (p *PCA) Transform(x []float64) []float64 {
	out := make([]float64, len(p.comps))
	for c, axis := range p.comps {
		s := 0.0
		for a, j := range p.active {
			s += axis[a] * (x[j] - p.mean[j])
		}
		out[c] = s
	}
	return out
}

// NumComponents returns the fitted component count.
func (p *PCA) NumComponents() int { return len(p.comps) }

// PCAWrap composes a PCA transform with an incremental model: Fit
// learns the projection and trains the inner model in the reduced
// space; Update reuses the projection (re-fitting it would invalidate
// the inner model). This is the §6.4 dimensionality-reduction variant.
type PCAWrap struct {
	PCA   *PCA
	Inner Incremental
}

// NewPCAWrap wraps inner behind a k-component PCA.
func NewPCAWrap(k int, inner Incremental) *PCAWrap {
	return &PCAWrap{PCA: NewPCA(k), Inner: inner}
}

// Fit learns the projection and the inner model.
func (w *PCAWrap) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, y); err != nil {
		return err
	}
	if err := w.PCA.Fit(X); err != nil {
		return err
	}
	return w.Inner.Fit(w.transformAll(X), y)
}

// Update folds new samples through the frozen projection.
func (w *PCAWrap) Update(X [][]float64, y []float64) error {
	if err := checkXY(X, y); err != nil {
		return err
	}
	if w.PCA.NumComponents() == 0 {
		return w.Fit(X, y)
	}
	return w.Inner.Update(w.transformAll(X), y)
}

// Predict projects and delegates.
func (w *PCAWrap) Predict(x []float64) float64 {
	if w.PCA.NumComponents() == 0 {
		return 0
	}
	return w.Inner.Predict(w.PCA.Transform(x))
}

func (w *PCAWrap) transformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, x := range X {
		out[i] = w.PCA.Transform(x)
	}
	return out
}

var _ Incremental = (*PCAWrap)(nil)
