package ml

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"time"

	"gsight/internal/par"
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
	// rows and targets it is built from): the rows are copied out by
	// begin, the view is rebuilt by Run and read concurrently by the
	// tree-growing workers.
	wc     windowColumns
	wcRows [][]float64
	wcY    []float64

	// inflight is the update between begin and FinishUpdate; while it
	// is set, Run owns wc, wcRows, wcY and boot.
	inflight *ForestUpdate
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
	u, err := f.begin(X, y, true)
	if err != nil {
		return err
	}
	u.Run(0)
	return f.FinishUpdate(u)
}

// Update folds a new batch in: the window advances, UpdateTrees fresh
// trees are grown on it, and the oldest trees are retired beyond
// MaxTrees. The forest therefore tracks workload drift (Figure 13)
// while past trees preserve stability (Figure 10(b)). It is
// BeginUpdate, Run and FinishUpdate back to back.
func (f *Forest) Update(X [][]float64, y []float64) error {
	u, err := f.BeginUpdate(X, y)
	if err != nil {
		return err
	}
	u.Run(0)
	return f.FinishUpdate(u)
}

// ErrUpdateInFlight is returned by BeginUpdate while an earlier update
// of the same forest has not been finished.
var ErrUpdateInFlight = errors.New("ml: forest update already in flight")

// ForestUpdate is one Update (or Fit) split in three so that the
// expensive middle can run beside the caller:
//
//   - BeginUpdate, on the caller's goroutine, absorbs the batch into the
//     window, copies the window's row pointers and draws every tree's
//     bootstrap and split stream — all of the update's randomness;
//   - Run, on any goroutine, ranks the window and grows the trees;
//   - FinishUpdate, on the caller's goroutine again, appends the trees,
//     prunes on the batch and records the instruments.
//
// Between BeginUpdate and FinishUpdate the forest keeps predicting with
// the trees it had, and Capture sees the advanced window and RNG cursor
// with those trees; Run touches only the update and the forest's
// training scratch, so both are safe alongside it. The grown trees are
// byte-identical for every Run worker count.
type ForestUpdate struct {
	f     *Forest
	fit   bool // replace the trees (Fit) rather than add and prune
	X     [][]float64
	y     []float64
	rnds  []*rng.Rand
	trees []*Tree
	err   error
	done  chan struct{} // closed when Run returns
	busy  time.Duration // time spent in the three stages
}

// BeginUpdate is Update's first stage (an unfitted forest begins a
// Fit). X and y are retained until FinishUpdate and must not be
// modified before it.
func (f *Forest) BeginUpdate(X [][]float64, y []float64) (*ForestUpdate, error) {
	return f.begin(X, y, !f.fitted)
}

func (f *Forest) begin(X [][]float64, y []float64, fit bool) (*ForestUpdate, error) {
	t0 := time.Now()
	if err := checkXY(X, y); err != nil {
		return nil, err
	}
	if f.inflight != nil {
		return nil, ErrUpdateInFlight
	}
	k := f.cfg.UpdateTrees
	if fit {
		if f.cfg.Window > maxWindowRows {
			return nil, ErrWindowTooLarge
		}
		f.dim = len(X[0])
		f.buf.reset(f.cfg.Window)
		k = f.cfg.Trees
	} else if len(X[0]) != f.dim {
		return nil, ErrDimMismatch
	}
	f.absorb(X, y)
	u := &ForestUpdate{f: f, fit: fit, X: X, y: y, done: make(chan struct{})}
	u.draw(k)
	f.inflight = u
	u.busy = time.Since(t0)
	return u, nil
}

// draw copies the window's rows out in logical (oldest-first) order, so
// Run's view is independent of where the ring's seam sits, and draws k
// trees' bootstraps and split streams sequentially from the forest's
// stream. Bootstraps are logical index draws over the window
// (fitFromWindow), never materialized row copies; the index arena is
// reused across updates.
func (u *ForestUpdate) draw(k int) {
	f := u.f
	n := f.buf.Len()
	f.wcRows = grab(f.wcRows, n)
	f.wcY = grab(f.wcY, n)
	f.buf.copyTo(f.wcRows, f.wcY)
	f.boot = grab(f.boot, k*n)
	u.rnds = make([]*rng.Rand, k)
	for t := 0; t < k; t++ {
		idx := f.boot[t*n : (t+1)*n]
		for i := 0; i < n; i++ {
			// Recency-biased bootstrap: u^1.5 skews index draws
			// toward the newest window entries, so fresh trees track
			// drift.
			v := f.rnd.Float64()
			j := n - 1 - int(v*math.Sqrt(v)*float64(n))
			if j < 0 {
				j = 0
			}
			idx[i] = j
		}
		u.rnds[t] = f.rnd.Split()
	}
}

// Run is the update's second stage: it rebuilds the shared split-search
// view of the window — one candidate scan and one ranking per column,
// amortized over every tree grown on it — and fits the trees across a
// pool of workers goroutines (<= 0 means GOMAXPROCS), the one fan-out
// width of a forest's training. All randomness was fixed by
// BeginUpdate, the view is read-only during the fan-out and each call
// writes only its own tree slot, so the trees are byte-identical for
// every pool size. Run may be called on any goroutine, exactly once.
func (u *ForestUpdate) Run(workers int) {
	defer close(u.done)
	t0 := time.Now()
	f := u.f
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	err := f.wc.build(f.wcRows, f.wcY, workers)
	clear(f.wcRows) // evicted rows must not stay reachable from here
	if err != nil {
		u.err = err
		return
	}
	n, k := len(f.wcY), len(u.rnds)
	trees := make([]*Tree, k)
	errs := make([]error, k)
	par.For(context.Background(), workers, k, func(_, t int) error {
		trees[t] = NewTree(f.cfg.Tree)
		errs[t] = trees[t].fitFromWindow(&f.wc, f.boot[t*n:(t+1)*n], u.rnds[t])
		return nil
	})
	u.err = errors.Join(errs...)
	u.trees = trees
	u.busy += time.Since(t0)
}

// Wait blocks until Run has returned.
func (u *ForestUpdate) Wait() { <-u.done }

// InWindow reports whether the batch is still the newest rows of the
// window — false only for a batch larger than the window's capacity. A
// checkpoint can carry an update in flight only then, without storing
// the batch a second time.
func (u *ForestUpdate) InWindow() bool { return len(u.y) <= u.f.buf.Len() }

// Batch returns the rows and targets the update was begun with.
func (u *ForestUpdate) Batch() ([][]float64, []float64) { return u.X, u.y }

// FinishUpdate is the update's last stage, on the goroutine that began
// it: it waits for Run, then installs the grown trees — replacing the
// forest's for a Fit, else appending them and pruning back to MaxTrees
// on the batch.
func (f *Forest) FinishUpdate(u *ForestUpdate) error {
	if f.inflight != u {
		return errors.New("ml: FinishUpdate of an update this forest is not running")
	}
	u.Wait()
	t0 := time.Now()
	f.inflight = nil
	if u.err != nil {
		return u.err
	}
	hist := f.ins.UpdateSeconds
	if u.fit {
		f.trees = append(f.trees[:0], u.trees...)
		f.fitted = true
		f.ins.Fits.Inc()
		hist = f.ins.FitSeconds
	} else {
		before := len(f.trees) + len(u.trees)
		f.trees = append(f.trees, u.trees...)
		f.prune(u.X, u.y)
		f.ins.Updates.Inc()
		f.ins.TreesPruned.Add(uint64(before - len(f.trees)))
	}
	f.ins.TreesGrown.Add(uint64(len(u.trees)))
	f.ins.WindowSize.SetInt(f.buf.Len())
	if hist != nil {
		hist.Observe((u.busy + time.Since(t0)).Seconds())
	}
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

// Window returns the training window's rows and labels in logical
// (oldest-first) order: a batch's rows in its order, batches in the
// order they were absorbed. The rows are shared with the window and
// must not be modified.
func (f *Forest) Window() ([][]float64, []float64) {
	n := f.buf.Len()
	X, Y := make([][]float64, n), make([]float64, n)
	f.buf.copyTo(X, Y)
	return X, Y
}

// absorb pushes the batch into the ring window: O(batch), regardless of
// how much history is retained.
func (f *Forest) absorb(X [][]float64, y []float64) {
	for i := range y {
		f.buf.push(X[i], y[i])
	}
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
	par.For(context.Background(), workers, (n+chunk-1)/chunk, func(_, c int) error {
		lo := c * chunk
		f.predictRange(X, out, lo, min(lo+chunk, n))
		return nil
	})
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

var _ Incremental = (*Forest)(nil)
var _ BatchRegressor = (*Forest)(nil)
