package ml

import (
	"math"

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
	n := f.buf.Len()
	c.windowX = make([][]float64, n)
	c.windowY = make([]float64, n)
	for i := 0; i < n; i++ {
		p := f.buf.phys(i)
		c.windowX[i] = f.buf.x[p]
		c.windowY[i] = f.buf.y[p]
	}
	return c
}

// treeNodeBytes is the width of one node record: feature, left and
// right as int32, then threshold and value.
const treeNodeBytes = 3*4 + 2*8

// SizeHint estimates what AppendTo will write — exact for nodes and
// labels, sampled for the sparse rows — for sizing the buffer once.
func (c ForestCapture) SizeHint() int {
	n := 64 + 8*len(c.windowY) + wire.SparseSizeHint(c.windowX)
	for _, t := range c.trees {
		// Importance holds at most one entry per split, i.e. per two nodes.
		n += 64 + (treeNodeBytes+5)*len(t.nodes)
	}
	return n
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
	dst = wire.AppendU32(dst, uint32(len(c.trees)))
	for _, t := range c.trees {
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
}

// StateLimits returns the limits for checkpoints of this forest over
// dim-feature rows.
func (f *Forest) StateLimits(dim int) *ForestLimits {
	return &ForestLimits{Dim: dim, Window: f.cfg.Window, MaxTrees: f.cfg.MaxTrees}
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

	d.Trees = r.Count(12, "forest tree count")
	if keep && d.Trees > lim.MaxTrees {
		r.Failf("forest has %d trees, configured max is %d", d.Trees, lim.MaxTrees)
		return d
	}
	if d.Fitted && d.Trees == 0 {
		r.Failf("forest fitted but has no trees")
		return d
	}
	if keep {
		d.trees = make([]*Tree, 0, d.Trees)
	}
	for i := 0; i < d.Trees && r.Err() == nil; i++ {
		t := readTree(r, d.Dim, keep)
		if keep {
			d.trees = append(d.trees, t)
		}
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
// unobservable and the resumed stream stays byte-identical.
func (f *Forest) Install(d *ForestDecoded) {
	f.trees = d.trees
	f.rnd = d.rnd
	f.dim = d.Dim
	f.fitted = d.Fitted
	f.buf.reset(f.cfg.Window)
	for i := range d.windowY {
		f.buf.push(d.windowX[i], d.windowY[i])
	}
}

// RidgeCapture is a frozen copy of a ridge model's live state: the Gram
// accumulators verbatim (rebuilding them from the ring would change
// float accumulation order) and the ring rows in logical oldest-first
// order, so the seam position is unobservable. Unlike the forest's, it
// is a real copy — the ring overwrites its slots in place — but a small
// one: at most window × d floats.
type RidgeCapture struct {
	d       int
	seen    uint64
	trained bool
	a, b, w []float64
	ringX   []float64 // n × d, oldest first
	ringY   []float64
}

// Capture copies the ridge model's live state.
func (r *Ridge) Capture() RidgeCapture {
	c := RidgeCapture{
		d:       r.d,
		seen:    r.seen,
		trained: r.trained,
		a:       append([]float64(nil), r.a...),
		b:       append([]float64(nil), r.b...),
		w:       append([]float64(nil), r.w...),
		ringX:   make([]float64, 0, r.n*r.d),
		ringY:   make([]float64, 0, r.n),
	}
	// Oldest first: slots head..n-1, then 0..head-1.
	c.ringX = append(append(c.ringX, r.ringX[r.head*r.d:r.n*r.d]...), r.ringX[:r.head*r.d]...)
	c.ringY = append(append(c.ringY, r.ringY[r.head:r.n]...), r.ringY[:r.head]...)
	return c
}

// SizeHint is the exact number of bytes AppendTo writes.
func (c RidgeCapture) SizeHint() int {
	return 4 + 8 + 1 + 4 + 8*(len(c.a)+len(c.b)+len(c.w)+len(c.ringX)+len(c.ringY))
}

// AppendTo appends the ridge section: dim, seen, trained flag, A (d×d),
// B and W (d each), the ring row count, then ring rows and labels, all
// dense — the projected features are rarely zero.
func (c RidgeCapture) AppendTo(dst []byte) []byte {
	dst = wire.AppendU32(dst, uint32(c.d))
	dst = wire.AppendU64(dst, c.seen)
	dst = wire.AppendBool(dst, c.trained)
	dst = wire.AppendF64s(dst, c.a)
	dst = wire.AppendF64s(dst, c.b)
	dst = wire.AppendF64s(dst, c.w)
	dst = wire.AppendU32(dst, uint32(len(c.ringY)))
	dst = wire.AppendF64s(dst, c.ringX)
	return wire.AppendF64s(dst, c.ringY)
}

// RidgeLimits are a ridge model's configured dimension and ring
// capacity.
type RidgeLimits struct {
	Dim    int
	Window int
}

// StateLimits returns the limits for checkpoints of this model.
func (r *Ridge) StateLimits() *RidgeLimits { return &RidgeLimits{Dim: r.d, Window: r.window} }

// RidgeDecoded is a validated ridge section; read under limits it also
// holds the state to install.
type RidgeDecoded struct {
	Dim     int
	Seen    uint64
	Trained bool
	Rows    int

	a, b, w      []float64
	ringX, ringY []float64
}

// ReadRidgeState reads one ridge section, recording failures on r:
// under limits it checks dimension and ring capacity and builds the
// state to install; with nil limits it checks structure and finiteness
// only and allocates nothing.
func ReadRidgeState(r *wire.Reader, lim *RidgeLimits) *RidgeDecoded {
	keep := lim != nil
	d := &RidgeDecoded{}
	dim := r.U32("ridge dim")
	d.Dim = int(dim)
	d.Seen = r.U64("ridge seen")
	d.Trained = r.Bool("ridge trained flag")
	if r.Err() != nil {
		return d
	}
	if keep && d.Dim != lim.Dim {
		r.Failf("ridge dim %d != configured %d", d.Dim, lim.Dim)
		return d
	}
	if sq := uint64(dim) * uint64(dim); sq > math.MaxInt32 {
		r.Failf("ridge dim %d out of range", dim)
		return d
	}
	if keep {
		d.a = make([]float64, d.Dim*d.Dim)
		d.b = make([]float64, d.Dim)
		d.w = make([]float64, d.Dim)
	}
	r.F64s(d.a, d.Dim*d.Dim, "ridge accumulator A")
	r.F64s(d.b, d.Dim, "ridge accumulator B")
	r.F64s(d.w, d.Dim, "ridge coefficients")
	d.Rows = r.Count(8*(d.Dim+1), "ridge ring row count")
	if keep && d.Rows > lim.Window {
		r.Failf("ridge ring %d exceeds capacity %d", d.Rows, lim.Window)
		return d
	}
	if keep {
		d.ringX = make([]float64, d.Rows*d.Dim)
		d.ringY = make([]float64, d.Rows)
	}
	r.F64s(d.ringX, d.Rows*d.Dim, "ridge ring rows")
	r.F64s(d.ringY, d.Rows, "ridge ring labels")
	return d
}

// Install replaces the model's live state with a section read under
// this model's StateLimits.
func (r *Ridge) Install(d *RidgeDecoded) {
	r.a, r.b, r.w = d.a, d.b, d.w
	r.ringX, r.ringY = d.ringX, d.ringY
	r.n, r.head = d.Rows, 0
	r.seen = d.Seen
	r.trained = d.Trained
}
