package ml

import (
	"runtime"

	"gsight/internal/rng"
)

// GBRT is a gradient-boosted regression-tree ensemble: shallow CART
// trees fit sequentially to the residuals, shrunk by a learning rate.
// It is not part of the paper's §3.4 comparison set — it exists as the
// natural modern alternative to the random forest and is exercised by
// the model-ablation benchmarks. Incremental updates continue boosting
// on the new batch (stagewise fitting is inherently incremental),
// bounded by MaxStages.
type GBRT struct {
	Stages    int     // trees grown by Fit; <=0 means 150
	LearnRate float64 // shrinkage; <=0 means 0.1
	Tree      TreeConfig
	Seed      uint64
	// UpdateStages are grown per incremental batch; <=0 means Stages/10.
	UpdateStages int
	// MaxStages bounds the ensemble; <=0 means 3*Stages.
	MaxStages int

	base   float64
	stages []*Tree
	rnd    *rng.Rand
	fitted bool
	dim    int
}

// NewGBRT returns an untrained gradient-boosted ensemble.
func NewGBRT(seed uint64) *GBRT {
	return &GBRT{Seed: seed}
}

func (g *GBRT) defaults() {
	if g.Stages <= 0 {
		g.Stages = 150
	}
	if g.LearnRate <= 0 {
		g.LearnRate = 0.1
	}
	if g.Tree.MaxDepth <= 0 {
		g.Tree.MaxDepth = 4 // boosting wants weak learners
	}
	if g.UpdateStages <= 0 {
		g.UpdateStages = g.Stages / 10
		if g.UpdateStages < 5 {
			g.UpdateStages = 5
		}
	}
	if g.MaxStages <= 0 {
		g.MaxStages = 3 * g.Stages
	}
	if g.rnd == nil {
		g.rnd = rng.New(g.Seed ^ 0x6b12)
	}
}

// Fit trains the ensemble from scratch.
func (g *GBRT) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, y); err != nil {
		return err
	}
	g.defaults()
	g.stages = g.stages[:0]
	g.dim = len(X[0])
	g.base = mean(y)
	g.fitted = true
	return g.boost(X, y, g.Stages)
}

// Update continues boosting on the new batch.
func (g *GBRT) Update(X [][]float64, y []float64) error {
	if err := checkXY(X, y); err != nil {
		return err
	}
	if !g.fitted {
		return g.Fit(X, y)
	}
	if len(X[0]) != g.dim {
		return ErrDimMismatch
	}
	if err := g.boost(X, y, g.UpdateStages); err != nil {
		return err
	}
	if excess := len(g.stages) - g.MaxStages; excess > 0 {
		// Dropping early stages would invalidate the additive model;
		// instead stop accepting new stages once saturated.
		g.stages = g.stages[:g.MaxStages]
	}
	return nil
}

// boost grows n stages against the current residuals of (X, y).
// Stages are inherently sequential (each fits the previous residuals),
// but every per-stage step is batched: residual seeding and the
// post-fit residual refresh run tree-outer through the batched
// traversal kernel, and X is ranked for split search once — only the
// residual targets change between stages. Per-sample accumulation order
// is unchanged (base, then stages in order), so residuals — and the
// grown stages — are bit-identical to the scalar loop.
func (g *GBRT) boost(X [][]float64, y []float64, n int) error {
	resid := make([]float64, len(y))
	pred := make([]float64, len(y))
	g.predictBatchInto(X, resid)
	for i := range y {
		resid[i] = y[i] - resid[i]
	}
	var wc windowColumns // wc.y aliases resid
	if err := wc.build(X, resid, runtime.GOMAXPROCS(0)); err != nil {
		return err
	}
	every := identity(len(y))
	for s := 0; s < n; s++ {
		t := NewTree(g.Tree)
		if err := t.fitFromWindow(&wc, every, g.rnd.Split()); err != nil {
			return err
		}
		g.stages = append(g.stages, t)
		t.predictInto(X, pred)
		for i := range resid {
			resid[i] -= g.LearnRate * pred[i]
		}
	}
	return nil
}

// predictBatchInto fills out[i] with the ensemble prediction for X[i],
// tree-outer so each stage's nodes stay cache-hot across the batch.
// Bit-identical to calling Predict per sample.
func (g *GBRT) predictBatchInto(X [][]float64, out []float64) {
	for i := range out {
		out[i] = g.base
	}
	for _, t := range g.stages {
		for i, x := range X {
			out[i] += g.LearnRate * t.Predict(x)
		}
	}
}

// Predict sums the shrunken stage outputs.
func (g *GBRT) Predict(x []float64) float64 {
	out := g.base
	for _, t := range g.stages {
		out += g.LearnRate * t.Predict(x)
	}
	return out
}

// NumStages returns the current ensemble size.
func (g *GBRT) NumStages() int { return len(g.stages) }

var _ Incremental = (*GBRT)(nil)
