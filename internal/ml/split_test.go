package ml

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"gsight/internal/rng"
	"gsight/internal/wire"
)

// refTree is the reference split search the production kernel must
// reproduce bit for bit. It knows nothing of ranks, buckets or lanes:
// per node and feature it stably sorts the node's rows by value, groups
// equal values, and applies the tie rule of DESIGN.md §9 —
//
//   - a group's Σy and Σy² are summed in arena order (the stable sort
//     keeps it);
//   - the left side of a cut is the prefix over groups, ascending;
//   - the right side is the node's total (arena order) minus the left;
//   - a cut after a group is a candidate when its cumulative position
//     passes the MaxSplitVal stride and both sides hold MinLeaf rows;
//   - the first strictly larger gain wins; its threshold is the midpoint
//     to the next value present in the node, or the cut's own value where
//     the midpoint does not lie between the two;
//   - the rows whose value is at most the cut's go left, in arena order.
type refTree struct {
	X          [][]float64
	y          []float64
	cfg        TreeConfig
	rnd        *rng.Rand
	active     []int
	nodes      []treeNode
	importance []float64
	leaf       []int32 // per row of X, the leaf it trained in
}

func refFit(X [][]float64, y []float64, lid []int, cfg TreeConfig, rnd *rng.Rand) *refTree {
	r := &refTree{X: X, y: y, rnd: rnd, importance: make([]float64, len(X[0])), leaf: make([]int32, len(X))}
	for f := range X[0] {
		for _, li := range lid[1:] {
			if X[li][f] != X[lid[0]][f] {
				r.active = append(r.active, f)
				break
			}
		}
	}
	r.cfg = cfg.withDefaults(len(r.active))
	r.grow(append([]int(nil), lid...), 0)
	return r
}

func (r *refTree) features() []int {
	n := len(r.active)
	if r.rnd == nil || r.cfg.MTry >= n {
		return r.active
	}
	feat := append([]int(nil), r.active...)
	for i := 0; i < r.cfg.MTry; i++ {
		j := i + r.rnd.Intn(n-i)
		feat[i], feat[j] = feat[j], feat[i]
	}
	return feat[:r.cfg.MTry]
}

func (r *refTree) grow(rows []int, depth int) int32 {
	node := int32(len(r.nodes))
	r.nodes = append(r.nodes, treeNode{feature: -1})
	var sum, sq float64
	for _, p := range rows {
		r.leaf[p] = node // until a child claims the row
		sum += r.y[p]
		sq += r.y[p] * r.y[p]
	}
	n := len(rows)
	mean := sum / float64(n)
	r.nodes[node].value = mean
	if depth >= r.cfg.MaxDepth || n < 2*r.cfg.MinLeaf {
		return node
	}
	imp := 0.0
	for _, p := range rows {
		imp += (r.y[p] - mean) * (r.y[p] - mean)
	}
	if imp <= 1e-12 {
		return node
	}
	total := sq - sum*sum/float64(n)
	step := 1
	if n > r.cfg.MaxSplitVal {
		step = n / r.cfg.MaxSplitVal
	}
	bestFeat, bestGain, bestVal, bestNext := -1, 0.0, 0.0, 0.0
	for _, f := range r.features() {
		sorted := append([]int(nil), rows...)
		sort.SliceStable(sorted, func(a, b int) bool { return r.X[sorted[a]][f] < r.X[sorted[b]][f] })
		var lSum, lSq float64
		for lo := 0; lo < n; {
			v := r.X[sorted[lo]][f]
			var gSum, gSq float64
			hi := lo
			for ; hi < n && r.X[sorted[hi]][f] == v; hi++ {
				gSum += r.y[sorted[hi]]
				gSq += r.y[sorted[hi]] * r.y[sorted[hi]]
			}
			lSum += gSum
			lSq += gSq
			lo = hi
			if hi == n || (step > 1 && (hi-1)%step != 0) || hi < r.cfg.MinLeaf || n-hi < r.cfg.MinLeaf {
				continue
			}
			nl, nr := float64(hi), float64(n-hi)
			rSum, rSq := sum-lSum, sq-lSq
			gain := total - ((lSq - lSum*lSum/nl) + (rSq - rSum*rSum/nr))
			if gain > bestGain {
				bestFeat, bestGain, bestVal, bestNext = f, gain, v, r.X[sorted[hi]][f]
			}
		}
	}
	if bestFeat < 0 {
		return node
	}
	var left, right []int
	for _, p := range rows {
		if r.X[p][bestFeat] <= bestVal {
			left = append(left, p)
		} else {
			right = append(right, p)
		}
	}
	r.importance[bestFeat] += bestGain
	r.nodes[node].feature = bestFeat
	thresh := (bestVal + bestNext) / 2
	if !(bestVal <= thresh && thresh < bestNext) {
		thresh = bestVal
	}
	r.nodes[node].thresh = thresh
	r.nodes[node].left = r.grow(left, depth+1)
	r.nodes[node].right = r.grow(right, depth+1)
	return node
}

// diffTrees reports the first bitwise difference between a grown tree
// and the reference.
func diffTrees(got *Tree, want *refTree) error {
	if len(got.nodes) != len(want.nodes) {
		return fmt.Errorf("%d nodes, reference has %d", len(got.nodes), len(want.nodes))
	}
	for i, g := range got.nodes {
		w := want.nodes[i]
		if g.feature != w.feature || g.left != w.left || g.right != w.right ||
			math.Float64bits(g.thresh) != math.Float64bits(w.thresh) ||
			math.Float64bits(g.value) != math.Float64bits(w.value) {
			return fmt.Errorf("node %d = %+v, reference %+v", i, g, w)
		}
	}
	for f, g := range got.importance {
		if math.Float64bits(g) != math.Float64bits(want.importance[f]) {
			return fmt.Errorf("importance[%d] = %x, reference %x", f, g, want.importance[f])
		}
	}
	return nil
}

// splitCase draws an n×d design matrix whose columns cycle through the
// shapes the kernel treats differently — zero-heavy with a few levels
// (the colocation codes), tie-heavy small integers, continuous (as many
// distinct values as rows), constant, and a copy of an earlier column
// (exactly equal gains: the first must win) — and repeats a third of
// the rows verbatim. Targets are noisy, so tie groups hold different
// y and a group summed in another order rounds differently.
func splitCase(n, d int, r *rng.Rand) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		if i > 0 && r.Intn(3) == 0 {
			X[i] = X[r.Intn(i)]
		} else {
			x := make([]float64, d)
			for j := range x {
				switch j % 5 {
				case 0:
					if r.Intn(10) < 3 {
						x[j] = float64(1+r.Intn(6)) / 4
					}
				case 1:
					x[j] = float64(r.Intn(4))
				case 2:
					x[j] = r.Range(-1, 1)
				case 3:
					x[j] = 2.5
				case 4:
					x[j] = x[j-4]
				}
			}
			X[i] = x
		}
		y[i] = 3*X[i][0] + X[i][1]*X[i][2] + r.Norm(0, 0.3)
	}
	return X, y
}

// bootstrap draws n window rows with replacement.
func bootstrap(n, w int, r *rng.Rand) []int {
	lid := make([]int, n)
	for i := range lid {
		lid[i] = r.Intn(w)
	}
	return lid
}

// TestSplitSearchMatchesReference pins the production split search to
// refTree: same nodes (feature, threshold, value, children) and same
// importances, bit for bit, over windows from 2 to 7000 rows, identity and resampled bootstraps, with and without feature
// subsampling (MTry below and above the active count), at several
// MinLeaf / MaxSplitVal / MaxDepth settings.
func TestSplitSearchMatchesReference(t *testing.T) {
	r := rng.New(2024)
	cfgs := []TreeConfig{
		{},
		{MTry: 3},
		{MTry: 1000},
		{MTry: 5, MinLeaf: 1, MaxSplitVal: 4},
		{MinLeaf: 7, MaxDepth: 5, MaxSplitVal: 1000},
	}
	for _, n := range []int{2, 3, 5, 16, 60, 150, 445, 1100, 2000, 7000} {
		for _, d := range []int{3, 11, 40} {
			if n*d > 30000 {
				continue // the reference sorts per node and feature
			}
			X, y := splitCase(n, d, r)
			var wc windowColumns
			if err := wc.build(X, y, 1+r.Intn(3)); err != nil {
				t.Fatal(err)
			}
			for ci, cfg := range cfgs {
				for _, lid := range [][]int{identity(n), bootstrap(n, n, r), bootstrap(1+n/3, n, r)} {
					seed := r.Uint64()
					tree := NewTree(cfg)
					if err := tree.fitFromWindow(&wc, lid, rng.New(seed)); err != nil {
						t.Fatal(err)
					}
					if err := diffTrees(tree, refFit(X, y, lid, cfg, rng.New(seed))); err != nil {
						t.Fatalf("n=%d d=%d cfg=%d bootstrap=%d: %v", n, d, ci, len(lid), err)
					}
				}
			}
		}
	}
}

// TestSplitSearchPublicFitsMatchReference covers the one-off window of
// Tree.Fit / FitSeeded / FitIndexed: nil rnd (every active feature),
// seeded, and an explicit index list.
func TestSplitSearchPublicFitsMatchReference(t *testing.T) {
	r := rng.New(7)
	X, y := splitCase(300, 11, r)
	tree := NewTree(TreeConfig{})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := diffTrees(tree, refFit(X, y, identity(300), TreeConfig{}, nil)); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	cfg := TreeConfig{MTry: 4}
	tree = NewTree(cfg)
	if err := tree.FitSeeded(X, y, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	if err := diffTrees(tree, refFit(X, y, identity(300), cfg, rng.New(5))); err != nil {
		t.Fatalf("FitSeeded: %v", err)
	}
	lid := bootstrap(200, 300, r)
	tree = NewTree(cfg)
	if err := tree.FitIndexed(X, y, lid, rng.New(6)); err != nil {
		t.Fatal(err)
	}
	if err := diffTrees(tree, refFit(X, y, lid, cfg, rng.New(6))); err != nil {
		t.Fatalf("FitIndexed: %v", err)
	}
	if err := tree.FitIndexed(X, y, []int{0, 300}, nil); err == nil {
		t.Fatal("FitIndexed accepted an index past the last row")
	}
}

// leafOf returns the node x ends in when routed the way Predict routes.
func leafOf(nodes []treeNode, x []float64) int32 {
	n := int32(0)
	for nodes[n].feature >= 0 {
		if x[nodes[n].feature] <= nodes[n].thresh {
			n = nodes[n].left
		} else {
			n = nodes[n].right
		}
	}
	return n
}

// TestSplitThresholdRoutesTrainingRows grows trees on columns whose
// neighbouring values have no usable midpoint — 1 ulp apart near 1 and
// among the subnormals, where it rounds onto the upper value half the
// time, and near ±MaxFloat64, where the sum overflows — and checks that
// the stored thresholds send every training row to the leaf the rank
// partition trained it in.
func TestSplitThresholdRoutesTrainingRows(t *testing.T) {
	r := rng.New(77)
	steps := func(from, toward float64, k int) float64 {
		for ; k > 0; k-- {
			from = math.Nextafter(from, toward)
		}
		return from
	}
	const n = 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		k := []int{r.Intn(8), r.Intn(8), r.Intn(4), r.Intn(4)}
		huge := steps(math.MaxFloat64, 0, k[2])
		if r.Intn(2) == 0 {
			huge = -huge
		}
		X[i] = []float64{steps(1, 2, k[0]), steps(0, 1, k[1]), huge, steps(-3, 0, k[3])}
		y[i] = float64(k[0]) + float64(k[1]%3) + float64(k[2])*math.Copysign(1, huge) - float64(k[3]) + r.Norm(0, 0.1)
	}
	for ci, cfg := range []TreeConfig{{MinLeaf: 1}, {MTry: 2, MinLeaf: 1, MaxSplitVal: 1000}, {}} {
		tree := NewTree(cfg)
		if err := tree.FitSeeded(X, y, rng.New(3)); err != nil {
			t.Fatal(err)
		}
		ref := refFit(X, y, identity(n), cfg, rng.New(3))
		if err := diffTrees(tree, ref); err != nil {
			t.Fatalf("cfg=%d: %v", ci, err)
		}
		for p, x := range X {
			if got := leafOf(tree.nodes, x); got != ref.leaf[p] {
				t.Fatalf("cfg=%d: row %d %v trained in leaf %d, Predict routes it to %d", ci, p, x, ref.leaf[p], got)
			}
		}
	}
}

// TestSplitSearchRingWrappedWindow grows trees on a forest window whose
// ring has wrapped and checks them against the reference run on the
// window's logical (oldest-first) rows.
func TestSplitSearchRingWrappedWindow(t *testing.T) {
	r := rng.New(31)
	const win, pushed = 180, 250
	X, y := splitCase(pushed, 11, r)
	f := NewForest(ForestConfig{Window: win, Workers: 2})
	f.absorb(X, y)
	if f.buf.head == 0 {
		t.Fatal("window did not wrap")
	}
	if err := f.prepWindow(2); err != nil {
		t.Fatal(err)
	}
	lid := bootstrap(win, win, r)
	tree := NewTree(TreeConfig{MTry: 4})
	if err := tree.fitFromWindow(&f.wc, lid, rng.New(9)); err != nil {
		t.Fatal(err)
	}
	want := refFit(X[pushed-win:], y[pushed-win:], lid, TreeConfig{MTry: 4}, rng.New(9))
	if err := diffTrees(tree, want); err != nil {
		t.Fatal(err)
	}
}

// TestWindowRowLimit pins the explicit handling of the uint16 rank
// width: 65536 rows of all-distinct values train (ranks reach 65535),
// one row more is refused, and so is a forest configured — or restored
// from a checkpoint — with a window that could outgrow it.
func TestWindowRowLimit(t *testing.T) {
	X := make([][]float64, maxWindowRows+1)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = []float64{float64(i)}
		y[i] = float64(i)
	}
	tree := NewTree(TreeConfig{MaxDepth: 3})
	if err := tree.Fit(X[:maxWindowRows], y[:maxWindowRows]); err != nil {
		t.Fatalf("fit on %d rows: %v", maxWindowRows, err)
	}
	if lo, hi := tree.Predict(X[0]), tree.Predict(X[maxWindowRows-1]); tree.NumNodes() != 15 || hi-lo < maxWindowRows/2 {
		t.Fatalf("tree on %d distinct rows: %d nodes, predicts %v..%v", maxWindowRows, tree.NumNodes(), lo, hi)
	}
	if err := tree.Fit(X, y); !errors.Is(err, ErrWindowTooLarge) {
		t.Fatalf("fit on %d rows: err = %v, want ErrWindowTooLarge", len(X), err)
	}

	f := NewForest(ForestConfig{Trees: 2, Window: maxWindowRows + 1})
	if err := f.Fit(X[:10], y[:10]); !errors.Is(err, ErrWindowTooLarge) {
		t.Fatalf("forest with window %d: Fit err = %v, want ErrWindowTooLarge", maxWindowRows+1, err)
	}
	if err := f.Update(X[:10], y[:10]); !errors.Is(err, ErrWindowTooLarge) {
		t.Fatalf("forest with window %d: Update err = %v, want ErrWindowTooLarge", maxWindowRows+1, err)
	}
	ok := NewForest(ForestConfig{Trees: 2, Window: maxWindowRows})
	if err := ok.Fit(X[:10], y[:10]); err != nil {
		t.Fatalf("forest with window %d: %v", maxWindowRows, err)
	}
	// A checkpoint claiming more rows than the kernel can rank is refused
	// whatever capacity the reader was configured with, and without one
	// (inspection) too.
	c := ok.Capture()
	for len(c.windowY) <= maxWindowRows {
		c.windowX = append(c.windowX, c.windowX[0])
		c.windowY = append(c.windowY, c.windowY[0])
	}
	section := c.AppendTo(nil)
	for _, lim := range []*ForestLimits{nil, {Dim: 1, Window: maxWindowRows + 1, MaxTrees: 2}} {
		r := wire.NewReader(section)
		ReadForestState(r, lim)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "65536") {
			t.Fatalf("section with %d window rows under limits %+v: err = %v, want the 65536-row refusal", len(c.windowY), lim, err)
		}
	}
}
