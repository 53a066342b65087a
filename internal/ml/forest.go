package ml

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"gsight/internal/rng"
	"gsight/internal/telemetry"
)

// ForestConfig parameterizes random forest training.
type ForestConfig struct {
	Trees int // trees grown by Fit; <=0 means 40
	Tree  TreeConfig
	Seed  uint64
	// Incremental behaviour (IRFR): Update grows UpdateTrees fresh
	// trees on the recent window and culls the trees that score worst
	// on the new batch so the forest never exceeds MaxTrees.
	UpdateTrees int // <=0 means max(4, Trees/4)
	MaxTrees    int // <=0 means Trees
	// Window is the number of samples kept for incremental training;
	// <=0 means 12000. Above 65536 Fit and Update return
	// ErrWindowTooLarge (the kernel's per-column ranks are uint16).
	Window int
	// Workers bounds the tree-growing worker pool; <=0 means
	// GOMAXPROCS. Same-seed forests are byte-identical for every value:
	// each tree's bootstrap and split-RNG stream are drawn sequentially
	// before the fan-out. Excluded from serialization — it describes the
	// machine, not the model.
	Workers int `json:"-"`
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 40
	}
	if c.UpdateTrees <= 0 {
		c.UpdateTrees = c.Trees / 4
		if c.UpdateTrees < 4 {
			c.UpdateTrees = 4
		}
	}
	if c.MaxTrees <= 0 {
		// Fixed capacity: every update grows fresh trees and culls the
		// worst-scoring ones, keeping the ensemble size constant.
		c.MaxTrees = c.Trees
	}
	if c.Window <= 0 {
		c.Window = 12000
	}
	return c
}

// Forest is a random-forest regressor: bootstrap-resampled CART trees
// with per-split feature subsampling. It satisfies Incremental via
// window-retraining of a rotating subset of trees — the IRFR model of
// §3.4.
type Forest struct {
	cfg    ForestConfig
	trees  []*Tree
	rnd    *rng.Rand
	buf    window // ring of retained samples for incremental updates
	boot   []int  // reusable bootstrap index arena (k trees × window)
	dim    int
	fitted bool
	ins    telemetry.ForestInstruments

	// prune scratch, reused across updates.
	sse   []float64
	pred  []float64
	order []int
	drop  []bool

	// shared split-search view of the window (and the logical-order
	// rows and targets it is built from), rebuilt once per growTrees
	// call and read concurrently by the tree-growing workers.
	wc     windowColumns
	wcRows [][]float64
	wcY    []float64
}

// Instrument attaches the shared forest instrument set. The zero value
// disables instrumentation.
func (f *Forest) Instrument(ins telemetry.ForestInstruments) { f.ins = ins }

// NewForest returns an untrained forest.
func NewForest(cfg ForestConfig) *Forest {
	cfg = cfg.withDefaults()
	f := &Forest{cfg: cfg, rnd: rng.New(cfg.Seed ^ 0x5eed0f0e57)}
	f.buf.reset(cfg.Window)
	return f
}

// Fit trains cfg.Trees trees on bootstrap resamples of (X, y).
func (f *Forest) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, y); err != nil {
		return err
	}
	if f.cfg.Window > maxWindowRows {
		return ErrWindowTooLarge
	}
	span := telemetry.StartSpan(f.ins.FitSeconds)
	f.dim = len(X[0])
	f.trees = f.trees[:0]
	f.buf.reset(f.cfg.Window)
	f.absorb(X, y)
	trees, err := f.growTrees(f.cfg.Trees)
	if err != nil {
		return err
	}
	f.trees = append(f.trees, trees...)
	f.fitted = true
	f.ins.Fits.Inc()
	f.ins.TreesGrown.Add(uint64(len(trees)))
	f.ins.WindowSize.SetInt(f.buf.Len())
	span.End()
	return nil
}

// Update folds a new batch in: the window advances, UpdateTrees fresh
// trees are grown on it, and the oldest trees are retired beyond
// MaxTrees. The forest therefore tracks workload drift (Figure 13)
// while past trees preserve stability (Figure 10(b)).
func (f *Forest) Update(X [][]float64, y []float64) error {
	if err := checkXY(X, y); err != nil {
		return err
	}
	if !f.fitted {
		return f.Fit(X, y)
	}
	if len(X[0]) != f.dim {
		return ErrDimMismatch
	}
	span := telemetry.StartSpan(f.ins.UpdateSeconds)
	f.absorb(X, y)
	trees, err := f.growTrees(f.cfg.UpdateTrees)
	if err != nil {
		return err
	}
	before := len(f.trees) + len(trees)
	f.trees = append(f.trees, trees...)
	f.prune(X, y)
	f.ins.Updates.Inc()
	f.ins.TreesGrown.Add(uint64(len(trees)))
	f.ins.TreesPruned.Add(uint64(before - len(f.trees)))
	f.ins.WindowSize.SetInt(f.buf.Len())
	span.End()
	return nil
}

// sseOrder stably sorts tree indices by descending SSE. Stability
// breaks score ties by tree age, exactly like the repeated worst-scan
// this replaced, so the surviving set is unchanged.
type sseOrder struct {
	order []int
	sse   []float64
}

func (s *sseOrder) Len() int           { return len(s.order) }
func (s *sseOrder) Less(a, b int) bool { return s.sse[s.order[a]] > s.sse[s.order[b]] }
func (s *sseOrder) Swap(a, b int)      { s.order[a], s.order[b] = s.order[b], s.order[a] }

// prune keeps the forest at MaxTrees by discarding the trees that score
// worst on the freshest batch. Under stationary workloads the scores
// are statistically indistinguishable, so pruning is harmless; after a
// concept shift (Figure 13) the stale-regime trees score terribly and
// are culled within a few updates.
//
// Scoring runs through the batched traversal kernel (one pass per tree
// over the batch, predictInto) and all score/order/drop buffers are
// reused across updates, so pruning allocates nothing in steady state.
func (f *Forest) prune(X [][]float64, y []float64) {
	excess := len(f.trees) - f.cfg.MaxTrees
	if excess <= 0 {
		return
	}
	nt := len(f.trees)
	f.sse = grab(f.sse, nt)
	f.pred = grab(f.pred, len(X))
	for i, t := range f.trees {
		t.predictInto(X, f.pred)
		s := 0.0
		for j, p := range f.pred {
			d := p - y[j]
			s += d * d
		}
		f.sse[i] = s
	}
	f.order = grab(f.order, nt)
	for i := range f.order {
		f.order[i] = i
	}
	sort.Stable(&sseOrder{order: f.order, sse: f.sse})
	f.drop = grab(f.drop, nt)
	clear(f.drop)
	for _, i := range f.order[:excess] {
		f.drop[i] = true
	}
	kept := f.trees[:0]
	for i, t := range f.trees {
		if !f.drop[i] {
			kept = append(kept, t)
		}
	}
	f.trees = kept
}

// absorb pushes the batch into the ring window: O(batch), regardless of
// how much history is retained.
func (f *Forest) absorb(X [][]float64, y []float64) {
	for i := range y {
		f.buf.push(X[i], y[i])
	}
}

// prepWindow rebuilds the shared split-search view of the window: one
// candidate scan and one ranking per column per update, amortized over
// every tree grown on it. Candidates are the features with any variance
// across the window — an exact superset of any bootstrap's active set,
// since a bootstrap only ever sees window rows. Rows are handed over in
// logical (oldest-first) order, so the view is independent of where the
// ring's seam currently sits.
func (f *Forest) prepWindow(workers int) error {
	w := f.buf.Len()
	f.wcRows = grab(f.wcRows, w)
	f.wcY = grab(f.wcY, w)
	for i := 0; i < w; i++ {
		p := f.buf.phys(i)
		f.wcRows[i] = f.buf.x[p]
		f.wcY[i] = f.buf.y[p]
	}
	err := f.wc.build(f.wcRows, f.wcY, workers)
	clear(f.wcRows) // evicted rows must not stay reachable from here
	return err
}

// growTrees grows k trees, drawing each tree's bootstrap and split RNG
// sequentially from the forest's stream and then fitting the trees
// across a bounded worker pool (cfg.Workers wide). Because all
// randomness is fixed before the fan-out, the shared window view is
// read-only during it, and each call writes only its own tree slot, the
// grown forest is byte-identical for every pool size. Bootstraps are
// logical index draws over the window (fitFromWindow), never
// materialized row copies; the index arena is reused across updates.
func (f *Forest) growTrees(k int) ([]*Tree, error) {
	n := f.buf.Len()
	if n == 0 {
		return nil, ErrNoData
	}
	workers := f.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := f.prepWindow(workers); err != nil {
		return nil, err
	}
	f.boot = grab(f.boot, k*n)
	rnds := make([]*rng.Rand, k)
	for t := 0; t < k; t++ {
		idx := f.boot[t*n : (t+1)*n]
		for i := 0; i < n; i++ {
			// Recency-biased bootstrap: u^1.5 skews index draws
			// toward the newest window entries, so fresh trees track
			// drift.
			u := f.rnd.Float64()
			j := n - 1 - int(u*math.Sqrt(u)*float64(n))
			if j < 0 {
				j = 0
			}
			idx[i] = j
		}
		rnds[t] = f.rnd.Split()
	}

	trees := make([]*Tree, k)
	errs := make([]error, k)
	parallelFor(workers, k, func(_, t int) {
		trees[t] = NewTree(f.cfg.Tree)
		errs[t] = trees[t].fitFromWindow(&f.wc, f.boot[t*n:(t+1)*n], rnds[t])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return trees, nil
}

// Predict averages the trees' estimates.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range f.trees {
		sum += t.Predict(x)
	}
	return sum / float64(len(f.trees))
}

// PredictBatch predicts every sample of X. Results are bit-identical to
// calling Predict per sample.
func (f *Forest) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	f.PredictBatchInto(X, out)
	return out
}

// batchParallelMin is the per-worker sample count below which goroutine
// fan-out costs more than it saves.
const batchParallelMin = 16

// PredictBatchInto predicts every sample of X into out (len(out) must
// equal len(X)). Large batches fan out over sample ranges; within each
// range the loop is tree-outer/sample-inner, so a tree's nodes stay hot
// in cache across the whole range. Because every sample still
// accumulates its tree sum in tree order, the results are bit-identical
// to per-sample Predict regardless of worker count.
func (f *Forest) PredictBatchInto(X [][]float64, out []float64) {
	n := len(X)
	if n == 0 {
		return
	}
	if len(f.trees) == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if max := n / batchParallelMin; workers > max {
		workers = max
	}
	if workers <= 1 {
		f.predictRange(X, out, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f.predictRange(X, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// predictRange fills out[lo:hi] with forest predictions for X[lo:hi].
func (f *Forest) predictRange(X [][]float64, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = 0
	}
	for _, t := range f.trees {
		t.accumulateInto(X, out, lo, hi)
	}
	n := float64(len(f.trees))
	for i := lo; i < hi; i++ {
		out[i] /= n
	}
}

// Importance returns the normalized impurity-based feature importances
// (summing to 1 when any split occurred) — Figure 8's metric.
func (f *Forest) Importance() []float64 {
	out := make([]float64, f.dim)
	for _, t := range f.trees {
		for i, v := range t.Importance() {
			out[i] += v
		}
	}
	total := 0.0
	for _, v := range out {
		total += v
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}

// NumTrees returns the current forest size.
func (f *Forest) NumTrees() int { return len(f.trees) }

var _ Incremental = (*Forest)(nil)
var _ BatchRegressor = (*Forest)(nil)
