package ml

import (
	"fmt"

	"gsight/internal/rng"
)

// TreeConfig parameterizes CART regression tree growth.
type TreeConfig struct {
	MaxDepth    int // maximum depth (root = 0); <=0 means 24
	MinLeaf     int // minimum samples per leaf; <=0 means 2
	MTry        int // features tried per split; <=0 means sqrt(d)
	MaxSplitVal int // cap on candidate thresholds per feature; <=0 means 32
}

func (c TreeConfig) withDefaults(d int) TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 24
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.MTry <= 0 {
		// Regression forests favour large feature subsamples
		// (scikit-learn defaults to all features); a third keeps
		// decorrelation while finding signal reliably.
		c.MTry = d / 3
		if c.MTry < 8 {
			c.MTry = 8
		}
	}
	if c.MaxSplitVal <= 0 {
		c.MaxSplitVal = 32
	}
	return c
}

// treeNode is one node of a CART regression tree, stored in a flat
// slice for cache-friendly prediction.
type treeNode struct {
	feature int     // split feature; -1 for leaves
	thresh  float64 // go left if x[feature] <= thresh
	left    int32   // child indices
	right   int32
	value   float64 // leaf prediction
}

// Tree is a CART regression tree.
type Tree struct {
	nodes      []treeNode
	cfg        TreeConfig
	dim        int
	importance []float64 // accumulated impurity decrease per feature
}

// NewTree returns an untrained tree with the given configuration.
func NewTree(cfg TreeConfig) *Tree { return &Tree{cfg: cfg} }

// Fit grows the tree on (X, y). A nil rnd makes feature subsampling
// deterministic (all features considered).
func (t *Tree) Fit(X [][]float64, y []float64) error { return t.FitSeeded(X, y, nil) }

// FitSeeded grows the tree using rnd for feature subsampling.
func (t *Tree) FitSeeded(X [][]float64, y []float64, rnd *rng.Rand) error {
	return t.FitIndexed(X, y, nil, rnd)
}

// FitIndexed grows the tree on the samples X[idx[0]], X[idx[1]], ...
// (duplicates allowed): a bootstrap resample is just an index list into
// the shared training set. A nil idx means every row once, in order.
// The tree does not retain idx. It is a one-off window fit: (X, y) is
// prepared as a windowColumns and grown by the same kernel the forest
// uses, so X may hold at most 65536 rows (ErrWindowTooLarge).
func (t *Tree) FitIndexed(X [][]float64, y []float64, idx []int, rnd *rng.Rand) error {
	if err := checkXY(X, y); err != nil {
		return err
	}
	if idx == nil {
		idx = identity(len(y))
	}
	for _, i := range idx {
		if uint(i) >= uint(len(y)) {
			return fmt.Errorf("ml: bootstrap index %d outside the %d training rows", i, len(y))
		}
	}
	var wc windowColumns
	if err := wc.build(X, y, 1); err != nil {
		return err
	}
	return t.fitFromWindow(&wc, idx, rnd)
}

// identity returns 0, 1, ..., n-1.
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// fitFromWindow grows the tree on the bootstrap lid — logical window
// row indices, duplicates allowed — over a prepared window. All
// per-node working state lives in a pooled fitScratch, so growth
// allocates only what the tree retains.
//
// Split search is restricted to the columns that vary within the
// bootstrap: sparse colocation codes zero-pad unused workload slots and
// servers, and a feature subsample drawn from columns that can split
// lands on signal. A column can only vary within the bootstrap if it
// varies within the window, so the scan probes just the window's
// candidates, by rank.
func (t *Tree) fitFromWindow(wc *windowColumns, lid []int, rnd *rng.Rand) error {
	n := len(lid)
	if n == 0 {
		return ErrNoData
	}
	t.dim = wc.dim
	s := fitPool.Get().(*fitScratch)
	defer fitPool.Put(s)
	s.prepare(n, wc.w)
	for i, li := range lid {
		s.arena[i] = int32(li)
	}

	w := wc.w
	active := s.active[:0]
	for c := range wc.feats {
		rk := wc.ranks[c*w : (c+1)*w]
		r0 := rk[lid[0]]
		for _, li := range lid[1:] {
			if rk[li] != r0 {
				active = append(active, c)
				break
			}
		}
	}
	s.active = active
	s.feat = grab(s.feat, len(active))

	t.cfg = t.cfg.withDefaults(len(active))
	t.nodes = t.nodes[:0]
	t.importance = make([]float64, t.dim)
	t.grow(s, wc, 0, n, 0, rnd)
	return nil
}

// grow builds the subtree over the window rows arena[lo:hi] and returns
// its node index.
//
// The split of a node is defined without reference to any sort: group
// the node's rows by the candidate column's value; sum each group's y
// and y² in arena order; take prefixes over the groups in ascending
// value order; the right side is the node's total (summed in arena
// order) minus the left. A cut after a group is a candidate when the
// cumulative count passes the MaxSplitVal stride and MinLeaf tests; the
// first strictly larger gain wins, and its threshold is the midpoint to
// the next value present in the node (cutBetween). Groups are rank buckets, so one
// pass over the rows accumulates them, and the occupied ranks —
// distinct, hence with one possible ascending order — are then walked.
// None of this depends on how rows with equal values would be ordered
// by a sort, which is what TestSplitSearchMatchesReference checks
// against a reference written from the paragraph above.
func (t *Tree) grow(s *fitScratch, wc *windowColumns, lo, hi, depth int, rnd *rng.Rand) int32 {
	node := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode{feature: -1})

	span := s.arena[lo:hi]
	y := wc.y
	var sum, sq float64
	for _, p := range span {
		v := y[p]
		sum += v
		sq += v * v
	}
	n := len(span)
	nf := float64(n)
	m := sum / nf
	t.nodes[node].value = m

	if depth >= t.cfg.MaxDepth || n < 2*t.cfg.MinLeaf {
		return node
	}
	imp := 0.0
	for _, p := range span {
		d := y[p] - m
		imp += d * d
	}
	if imp <= 1e-12 {
		return node
	}

	total := sq - sum*sum/nf
	step := 1
	if n > t.cfg.MaxSplitVal {
		step = n / t.cfg.MaxSplitVal
	}
	minLeaf := t.cfg.MinLeaf
	bestCol, bestGain := -1, 0.0
	var bestRank, bestNext uint16
	w := wc.w
	cols := t.sampleFeatures(s, rnd)
	bkt := s.bkt
	for _, c := range cols {
		accumulate(span, y, wc.ranks[c*w:(c+1)*w], bkt, s.occ)
		occ := s.occupied(len(wc.vals[c]))
		var lSum, lSq float64
		cum := 0
		for g, r := range occ[:len(occ)-1] {
			b := &bkt[r]
			lSum += b.sum
			lSq += b.sq
			cum += int(b.n)
			if n-cum < minLeaf {
				break
			}
			if cum < minLeaf || (step > 1 && (cum-1)%step != 0) {
				continue
			}
			nl, nr := float64(cum), float64(n-cum)
			rSum, rSq := sum-lSum, sq-lSq
			sse := (lSq - lSum*lSum/nl) + (rSq - rSum*rSum/nr)
			if gain := total - sse; gain > bestGain {
				bestGain = gain
				bestCol, bestRank, bestNext = c, r, occ[g+1]
			}
		}
		for _, r := range occ {
			bkt[r] = bucket{}
		}
	}
	if bestCol < 0 {
		return node
	}

	// Stable in-place partition of the arena: lefts compact forward in
	// order, rights spill and are copied back behind them, so both
	// children see their rows in the parent's order. MinLeaf >= 1 on
	// both sides of every candidate cut, so neither child is empty.
	rk := wc.ranks[bestCol*w : (bestCol+1)*w]
	spill := s.spill[:0]
	mid := lo
	for _, p := range span {
		if rk[p] <= bestRank {
			s.arena[mid] = p
			mid++
		} else {
			spill = append(spill, p)
		}
	}
	copy(s.arena[mid:hi], spill)
	s.spill = spill[:0]

	f := wc.feats[bestCol]
	vals := wc.vals[bestCol]
	t.importance[f] += bestGain
	t.nodes[node].feature = f
	t.nodes[node].thresh = cutBetween(vals[bestRank], vals[bestNext])
	t.nodes[node].left = t.grow(s, wc, lo, mid, depth+1, rnd)
	t.nodes[node].right = t.grow(s, wc, mid, hi, depth+1, rnd)
	return node
}

// cutBetween returns the threshold of a cut between the adjacent node
// values lo < hi: their midpoint, or lo where the midpoint falls outside
// [lo, hi) — it rounds up to hi for half of all 1-ulp neighbours and
// overflows at huge magnitudes — so that x <= thresh sends left exactly
// the rows the partition on rank did.
func cutBetween(lo, hi float64) float64 {
	if m := (lo + hi) / 2; lo <= m && m < hi {
		return m
	}
	return lo
}

// accumulate adds each row of span into the bucket of its rank and marks
// the rank occupied.
func accumulate(span []int32, y []float64, rk []uint16, bkt []bucket, occ []uint64) {
	for _, p := range span {
		v := y[p]
		r := rk[p]
		b := &bkt[r]
		b.n++
		b.sum += v
		b.sq += v * v
		occ[r>>6] |= 1 << (r & 63)
	}
}

// sampleFeatures returns the candidate columns to try at one node: the
// full active set when no subsampling applies, otherwise an
// MTry-element partial Fisher-Yates draw. The shuffle runs in the
// reusable s.feat buffer, re-copied from the active set each node so
// the draw sequence and the selected columns are identical to shuffling
// a fresh copy.
func (t *Tree) sampleFeatures(s *fitScratch, rnd *rng.Rand) []int {
	n := len(s.active)
	if n == 0 {
		return nil
	}
	if rnd == nil || t.cfg.MTry >= n {
		return s.active
	}
	feat := s.feat[:n]
	copy(feat, s.active)
	for i := 0; i < t.cfg.MTry; i++ {
		j := i + rnd.Intn(n-i)
		feat[i], feat[j] = feat[j], feat[i]
	}
	return feat[:t.cfg.MTry]
}

// Predict returns the tree's estimate for x.
func (t *Tree) Predict(x []float64) float64 {
	if len(t.nodes) == 0 {
		return 0
	}
	n := int32(0)
	for {
		node := &t.nodes[n]
		if node.feature < 0 {
			return node.value
		}
		if x[node.feature] <= node.thresh {
			n = node.left
		} else {
			n = node.right
		}
	}
}

// predictInto fills out[i] with the tree's prediction for X[i] — the
// batched traversal kernel: one pass per tree keeps the node slice hot
// in cache across the whole batch. Results are bit-identical to calling
// Predict per sample.
func (t *Tree) predictInto(X [][]float64, out []float64) {
	if len(t.nodes) == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	for i, x := range X {
		n := int32(0)
		for {
			node := &t.nodes[n]
			if node.feature < 0 {
				out[i] = node.value
				break
			}
			if x[node.feature] <= node.thresh {
				n = node.left
			} else {
				n = node.right
			}
		}
	}
}

// accumulateInto adds the tree's prediction for X[lo:hi] into out[lo:hi]
// — the forest-averaging variant of the batched traversal kernel.
func (t *Tree) accumulateInto(X [][]float64, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] += t.Predict(X[i])
	}
}

// Importance returns the tree's accumulated impurity decrease per
// feature (unnormalized).
func (t *Tree) Importance() []float64 {
	out := make([]float64, len(t.importance))
	copy(out, t.importance)
	return out
}

// NumNodes returns the size of the grown tree.
func (t *Tree) NumNodes() int { return len(t.nodes) }
