package ml

import (
	"fmt"
	"math"

	"gsight/internal/rng"
)

// ForestState is the full live state of a forest for crash-consistent
// checkpointing. Unlike ForestExport (a portable trained model), it
// captures everything a resumed controller needs to continue the exact
// incremental-learning stream: the trees, the ring training window in
// logical (oldest-first) order, and the RNG cursor the next update's
// bootstraps will draw from. Restoring it into a same-configured forest
// makes every subsequent Update/Predict byte-identical to the
// uninterrupted run.
type ForestState struct {
	Version int          `json:"version"`
	Dim     int          `json:"dim"`
	Fitted  bool         `json:"fitted"`
	Rng     [4]uint64    `json:"rng"`
	Trees   []TreeExport `json:"trees"`
	WindowX [][]float64  `json:"window_x"`
	WindowY []float64    `json:"window_y"`
}

// ForestCapture is a frozen view of a forest's live state, cheap enough
// to take between two records on a serving path: it copies slice
// headers and pointers only. What it points at is immutable once handed
// over — a grown tree is never modified (prune and Fit only reshuffle
// the forest's pointer slice) and a window row is never written after
// push — so State may run on another goroutine while the forest keeps
// updating.
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

// State expands the capture into the serializable form (the tree
// exports are the expensive part).
func (c ForestCapture) State() ForestState {
	st := ForestState{Version: 1, Dim: c.dim, Fitted: c.fitted, Rng: c.rng,
		WindowX: c.windowX, WindowY: c.windowY}
	for _, t := range c.trees {
		st.Trees = append(st.Trees, t.Export())
	}
	return st
}

// ExportState snapshots the forest's live state.
func (f *Forest) ExportState() ForestState { return f.Capture().State() }

// RestoreState replaces the forest's live state with a snapshot,
// validating structure and values so corrupt on-disk state is rejected
// instead of silently poisoning the model. The forest keeps its
// configuration — state carries data, code carries parameters.
//
// The restored window starts at ring position zero regardless of where
// the original seam sat: training reads the window in logical order
// only (prepWindow, bootstrap index draws), so the seam position is
// unobservable and the resumed stream stays byte-identical.
func (f *Forest) RestoreState(st ForestState) error {
	if st.Version != 1 {
		return fmt.Errorf("ml: unsupported forest state version %d", st.Version)
	}
	if st.Dim < 0 {
		return fmt.Errorf("ml: forest state dim %d negative", st.Dim)
	}
	if len(st.WindowX) != len(st.WindowY) {
		return fmt.Errorf("ml: forest state window X/Y length mismatch (%d vs %d)", len(st.WindowX), len(st.WindowY))
	}
	if len(st.WindowY) > f.cfg.Window {
		return fmt.Errorf("ml: forest state window %d exceeds configured capacity %d", len(st.WindowY), f.cfg.Window)
	}
	if st.Fitted && len(st.Trees) == 0 {
		return fmt.Errorf("ml: forest state fitted but has no trees")
	}
	if len(st.Trees) > f.cfg.MaxTrees {
		return fmt.Errorf("ml: forest state has %d trees, configured max is %d", len(st.Trees), f.cfg.MaxTrees)
	}
	rnd, err := rng.FromState(st.Rng)
	if err != nil {
		return fmt.Errorf("ml: forest state: %w", err)
	}
	trees := make([]*Tree, len(st.Trees))
	for i, te := range st.Trees {
		if te.Dim != st.Dim {
			return fmt.Errorf("ml: forest state tree %d dim %d != forest dim %d", i, te.Dim, st.Dim)
		}
		t, err := ImportTree(te)
		if err != nil {
			return fmt.Errorf("ml: forest state tree %d: %w", i, err)
		}
		trees[i] = t
	}
	for i, row := range st.WindowX {
		if len(row) != st.Dim {
			return fmt.Errorf("ml: forest state window row %d has %d features, dim is %d", i, len(row), st.Dim)
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: forest state window row %d has non-finite features", i)
			}
		}
		if math.IsNaN(st.WindowY[i]) || math.IsInf(st.WindowY[i], 0) {
			return fmt.Errorf("ml: forest state window label %d non-finite", i)
		}
	}
	f.trees = trees
	f.rnd = rnd
	f.dim = st.Dim
	f.fitted = st.Fitted
	f.buf.reset(f.cfg.Window)
	for i := range st.WindowY {
		f.buf.push(st.WindowX[i], st.WindowY[i])
	}
	return nil
}
