package ml

import (
	"gsight/internal/rng"
	"gsight/internal/wire"
)

// Crash-consistent checkpoints of the learners' live state, in the
// binary layout of DESIGN.md §12 — the one model format on disk. A
// checkpoint carries everything a resumed controller needs to continue
// the exact incremental-learning stream:
// the trees, the ring training window in logical (oldest-first) order,
// and the RNG cursor the next update's bootstraps will draw from.
// Restoring one into a same-configured forest makes every subsequent
// Update/Predict byte-identical to the uninterrupted run.
//
// Writing goes capture → AppendTo, straight into the caller's buffer.
// Reading goes ReadForestState → Install: the first validates and
// builds the replacement state on the side, the second cannot fail, so
// a caller restoring several models installs all of them or none.

// ForestCapture is a frozen view of a forest's live state, cheap enough
// to take between two records on a serving path: it copies slice
// headers and pointers only. What it points at is immutable once handed
// over — a grown tree is never modified (prune and Fit only reshuffle
// the forest's pointer slice) and a window row is never written after
// push — so AppendTo may run on another goroutine while the forest
// keeps updating.
type ForestCapture struct {
	dim     int
	fitted  bool
	rng     [4]uint64
	trees   []*Tree
	windowX [][]float64 // logical (oldest-first) order
	windowY []float64
}

// Capture freezes the forest's live state. The tree pointers and the
// ring's row pointers are copied out — prune compacts the former and
// push overwrites the latter in place.
func (f *Forest) Capture() ForestCapture {
	c := ForestCapture{
		dim:    f.dim,
		fitted: f.fitted,
		rng:    f.rnd.State(),
		trees:  append([]*Tree(nil), f.trees...),
	}
	c.windowX, c.windowY = f.Window()
	return c
}

// treeNodeBytes is the width of one node record: feature, left and
// right as int32, then threshold and value.
const treeNodeBytes = 3*4 + 2*8

// SizeHint estimates what AppendTo will write — exact for nodes and
// labels, sampled for the sparse rows — for sizing the buffer once.
func (c ForestCapture) SizeHint() int {
	return 64 + 8*len(c.windowY) + wire.SparseSizeHint(c.windowX) + treesSizeHint(c.trees)
}

func treesSizeHint(trees []*Tree) int {
	n := 0
	for _, t := range trees {
		// Importance holds at most one entry per split, i.e. per two nodes.
		n += 64 + (treeNodeBytes+5)*len(t.nodes)
	}
	return n
}

// appendTrees appends a tree list: the count, then per tree its
// dimension, node records and importance (a sparse row).
func appendTrees(dst []byte, trees []*Tree) []byte {
	dst = wire.AppendU32(dst, uint32(len(trees)))
	for _, t := range trees {
		dst = wire.AppendU32(dst, uint32(t.dim))
		dst = wire.AppendU32(dst, uint32(len(t.nodes)))
		for i := range t.nodes {
			n := &t.nodes[i]
			dst = wire.AppendU32(dst, uint32(int32(n.feature)))
			dst = wire.AppendU32(dst, uint32(n.left))
			dst = wire.AppendU32(dst, uint32(n.right))
			dst = wire.AppendF64(dst, n.thresh)
			dst = wire.AppendF64(dst, n.value)
		}
		dst = wire.AppendU32(dst, uint32(len(t.importance)))
		dst = wire.AppendSparse(dst, t.importance)
	}
	return dst
}

// SizeHint estimates what AppendTo writes. It waits for Run first.
func (u *ForestUpdate) SizeHint() int {
	u.Wait()
	return 4 + treesSizeHint(u.trees)
}

// AppendTo appends the update's grown trees in the forest section's
// tree layout. It waits for Run first.
func (u *ForestUpdate) AppendTo(dst []byte) []byte {
	u.Wait()
	return appendTrees(dst, u.trees)
}

// AppendTo appends the forest section: dim, fitted flag, RNG state,
// the trees (node records, importance as a sparse row), then the window
// rows (sparse) and labels (dense).
func (c ForestCapture) AppendTo(dst []byte) []byte {
	dst = wire.AppendU32(dst, uint32(c.dim))
	dst = wire.AppendBool(dst, c.fitted)
	for _, s := range c.rng {
		dst = wire.AppendU64(dst, s)
	}
	dst = appendTrees(dst, c.trees)
	dst = wire.AppendU32(dst, uint32(len(c.windowY)))
	for _, row := range c.windowX {
		dst = wire.AppendSparse(dst, row)
	}
	return wire.AppendF64s(dst, c.windowY)
}

// ForestLimits are the bounds a forest puts on a checkpoint it will
// install: the feature dimension its rows must have (a never-fitted
// forest's section says 0) and its configured capacities. They are what
// caps the memory a hostile section can ask for.
type ForestLimits struct {
	Dim      int
	Window   int
	MaxTrees int
	// Trees a Fit grows and UpdateTrees an update: what an update in
	// flight must carry exactly.
	Trees, UpdateTrees int
}

// StateLimits returns the limits for checkpoints of this forest over
// dim-feature rows.
func (f *Forest) StateLimits(dim int) *ForestLimits {
	return &ForestLimits{Dim: dim, Window: f.cfg.Window, MaxTrees: f.cfg.MaxTrees,
		Trees: f.cfg.Trees, UpdateTrees: f.cfg.UpdateTrees}
}

// ForestDecoded is a validated forest section. Read under limits it
// also holds the rebuilt state, for Install.
type ForestDecoded struct {
	Dim        int
	Fitted     bool
	Trees      int
	WindowRows int

	rnd     *rng.Rand
	trees   []*Tree
	windowX [][]float64
	windowY []float64
}

// ReadForestState reads one forest section, validating structure and
// values so corrupt on-disk state is rejected instead of silently
// poisoning the model; failures are recorded on r. With limits it
// builds the state to install; with nil limits (inspection) it checks
// what needs no configuration, allocates nothing and returns the counts
// only.
func ReadForestState(r *wire.Reader, lim *ForestLimits) *ForestDecoded {
	keep := lim != nil
	d := &ForestDecoded{}
	d.Dim = int(r.U32("forest dim"))
	d.Fitted = r.Bool("forest fitted flag")
	var state [4]uint64
	for i := range state {
		state[i] = r.U64("forest rng state")
	}
	if r.Err() != nil {
		return d
	}
	if keep && d.Dim != 0 && d.Dim != lim.Dim {
		r.Failf("forest dim %d, want %d", d.Dim, lim.Dim)
		return d
	}
	if d.Dim == 0 && d.Fitted {
		r.Failf("forest fitted but has no dimension")
		return d
	}
	rnd, err := rng.FromState(state)
	if err != nil {
		r.Failf("forest %v", err)
		return d
	}
	d.rnd = rnd

	d.trees, d.Trees = readTrees(r, d.Dim, keep, func(n int) bool {
		if keep && n > lim.MaxTrees {
			r.Failf("forest has %d trees, configured max is %d", n, lim.MaxTrees)
			return false
		}
		return true
	})
	if r.Err() != nil {
		return d
	}
	if d.Fitted && d.Trees == 0 {
		r.Failf("forest fitted but has no trees")
		return d
	}

	d.WindowRows = r.Count(1+8, "forest window row count")
	if d.WindowRows > maxWindowRows {
		r.Failf("forest window has %d rows, the kernel ranks at most %d", d.WindowRows, maxWindowRows)
		return d
	}
	if keep && d.WindowRows > lim.Window {
		r.Failf("forest window %d exceeds configured capacity %d", d.WindowRows, lim.Window)
		return d
	}
	if d.Dim == 0 && d.WindowRows > 0 {
		r.Failf("forest has %d window rows but no dimension", d.WindowRows)
		return d
	}
	if keep {
		d.windowX = make([][]float64, d.WindowRows)
		d.windowY = make([]float64, d.WindowRows)
	}
	for i := 0; i < d.WindowRows && r.Err() == nil; i++ {
		var row []float64
		if keep {
			row = make([]float64, d.Dim)
			d.windowX[i] = row
		}
		r.Sparse(row, d.Dim, "forest window row")
	}
	r.F64s(d.windowY, d.WindowRows, "forest window labels")
	return d
}

// readTrees reads a tree list written by appendTrees, returning the
// trees (when keep) and their count. accept vets the count before
// anything is allocated for it, recording its own failure on r.
func readTrees(r *wire.Reader, dim int, keep bool, accept func(n int) bool) ([]*Tree, int) {
	n := r.Count(12, "forest tree count")
	if r.Err() != nil || !accept(n) {
		return nil, n
	}
	var trees []*Tree
	if keep {
		trees = make([]*Tree, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		t := readTree(r, dim, keep)
		if keep {
			trees = append(trees, t)
		}
	}
	return trees, n
}

// ForestUpdateDecoded is a validated update-in-flight section: the
// trees an update grew before its install. Read under limits it holds
// them, for ResumeUpdate.
type ForestUpdateDecoded struct {
	Trees int

	batch int
	trees []*Tree
}

// ReadForestUpdate reads the grown trees of an update in flight on the
// forest fd describes, whose batch was its batch newest window rows —
// all of the window for a Fit, which starts it afresh. Under limits the
// tree count must be exactly what such an update grows.
func ReadForestUpdate(r *wire.Reader, fd *ForestDecoded, lim *ForestLimits, batch int) *ForestUpdateDecoded {
	d := &ForestUpdateDecoded{batch: batch}
	switch {
	case fd.Dim == 0:
		r.Failf("update in flight on a forest with no dimension")
		return d
	case batch < 1 || batch > fd.WindowRows:
		r.Failf("update in flight has a %d-row batch, the window holds %d", batch, fd.WindowRows)
		return d
	case !fd.Fitted && batch != fd.WindowRows:
		r.Failf("fit in flight has a %d-row batch but %d window rows", batch, fd.WindowRows)
		return d
	}
	d.trees, d.Trees = readTrees(r, fd.Dim, lim != nil, func(n int) bool {
		if lim == nil {
			return true
		}
		want := lim.UpdateTrees
		if !fd.Fitted {
			want = lim.Trees
		}
		if n != want {
			r.Failf("update in flight carries %d trees, the forest grows %d", n, want)
			return false
		}
		return true
	})
	return d
}

// ResumeUpdate makes a decoded update in flight this forest's again,
// after Install of the section it was read against: grown, waiting only
// for FinishUpdate, with the window's newest rows as its batch.
func (f *Forest) ResumeUpdate(d *ForestUpdateDecoded) *ForestUpdate {
	u := &ForestUpdate{f: f, fit: !f.fitted, trees: d.trees, done: make(chan struct{})}
	close(u.done)
	n := f.buf.Len()
	u.X, u.y = make([][]float64, d.batch), make([]float64, d.batch)
	for i := range u.y {
		p := f.buf.phys(n - d.batch + i)
		u.X[i], u.y[i] = f.buf.x[p], f.buf.y[p]
	}
	f.inflight = u
	return u
}

// readTree reads one tree of a dim-feature forest. Children must follow
// their parent — the order grow writes them in — which bounds every
// index and makes a cycle, and so a prediction that never returns,
// unrepresentable.
func readTree(r *wire.Reader, dim int, keep bool) *Tree {
	if td := int(r.U32("tree dim")); td != dim {
		r.Failf("tree dim %d != forest dim %d", td, dim)
		return nil
	}
	n := r.Count(treeNodeBytes, "tree node count")
	if n == 0 {
		r.Failf("tree has no nodes")
		return nil
	}
	var t *Tree
	if keep {
		t = &Tree{dim: dim, nodes: make([]treeNode, n)}
	}
	for i := 0; i < n; i++ {
		node := treeNode{
			feature: int(int32(r.U32("tree node"))),
			left:    int32(r.U32("tree node")),
			right:   int32(r.U32("tree node")),
			thresh:  r.F64("tree node threshold"),
			value:   r.F64("tree node value"),
		}
		if r.Err() != nil {
			return nil
		}
		if node.feature < -1 || node.feature >= dim {
			r.Failf("tree node %d splits on feature %d outside dim %d", i, node.feature, dim)
			return nil
		}
		if node.feature >= 0 && (int(node.left) <= i || int(node.left) >= n || int(node.right) <= i || int(node.right) >= n) {
			r.Failf("tree node %d of %d has child out of range (%d, %d)", i, n, node.left, node.right)
			return nil
		}
		if keep {
			t.nodes[i] = node
		}
	}
	imp := int(r.U32("tree importance length"))
	if r.Err() != nil {
		return nil
	}
	if imp != 0 && imp != dim {
		r.Failf("tree importance has %d entries, dim is %d", imp, dim)
		return nil
	}
	var row []float64
	if keep && imp > 0 {
		row = make([]float64, imp)
		t.importance = row
	}
	r.Sparse(row, imp, "tree importance")
	return t
}

// Install replaces the forest's live state with a section read under
// this forest's StateLimits. The forest keeps its configuration — state
// carries data, code carries parameters.
//
// The restored window starts at ring position zero regardless of where
// the original seam sat: training reads the window in logical order
// only (prepWindow, bootstrap index draws), so the seam position is
// unobservable and the resumed stream stays byte-identical. An update
// in flight is dropped: the caller must have waited for its Run.
func (f *Forest) Install(d *ForestDecoded) {
	f.inflight = nil
	f.trees = d.trees
	f.rnd = d.rnd
	f.dim = d.Dim
	f.fitted = d.Fitted
	f.buf.reset(f.cfg.Window)
	for i := range d.windowY {
		f.buf.push(d.windowX[i], d.windowY[i])
	}
}
