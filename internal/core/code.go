// Package core implements Gsight, the paper's contribution: a QoS
// predictor for colocated serverless workloads under partial
// interference (§3). It encodes each colocation as the paper's
// spatial-temporal interference code — per-workload resource-allocation
// (R) and utilization (U) matrices over the servers, a start-delay
// vector D and a lifetime vector T — and feeds the code plus solo-run
// function profiles to an incremental learning model (IRFR by default).
package core

import (
	"errors"
	"fmt"
	"sync"

	"gsight/internal/metrics"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/workload"
)

// BaseName splits a unique invocation run name ("matmul#17") back to
// its archetype — the pool workload the instance was stamped from.
// Names without a run suffix come back unchanged with ok=false; the
// platform and the observability layer share this convention when
// keying per-archetype statistics.
func BaseName(name string) (string, bool) {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '#' {
			return name[:i], true
		}
	}
	return name, false
}

// WorkloadInput is everything the predictor may legally see about one
// deployed workload: its class, its solo-run profiles, where its
// functions are placed, and its load/timing. It never includes
// ground-truth model internals.
type WorkloadInput struct {
	Name  string
	Class workload.Class
	// Profiles holds one solo-run profile per function.
	Profiles []profile.Profile
	// Placement[f] is the server hosting function f.
	Placement []int
	// Replicas[f] is the instance count of function f (nil = all 1).
	Replicas []int
	// QPSFrac is the LS load relative to the profiling reference
	// (QPS / MaxQPS); utilization-like profile metrics scale with it.
	QPSFrac float64
	// StartDelayS is the workload's start offset (SC/BG).
	StartDelayS float64
	// LifetimeS is the solo-run duration of an SC/BG workload; 0 for LS.
	LifetimeS float64
}

func (w *WorkloadInput) replicas(f int) float64 {
	if w.Replicas == nil {
		return 1
	}
	return float64(w.Replicas[f])
}

// Coder flattens colocations into the paper's 32nS+2n feature layout:
// for each of n workload slots, an R matrix (S servers x 16 columns)
// and a U matrix (S x 16), then the n-dimensional D and T vectors.
// Slot 0 always holds the prediction target.
//
// One refinement over the paper's formulation: an extra aggregate block
// (one more R/U matrix pair) holds the per-server SUM over all
// corunner slots. Contention is driven by total pressure per server,
// and giving the model that marginal directly spares it assembling the
// same quantity from up to nine separate slots — the information
// content is identical.
type Coder struct {
	NumServers   int // S
	MaxWorkloads int // n (the paper fixes n = 10)
}

// DefaultCoder matches the paper's experiment configuration: 8 servers,
// up to 10 colocated workloads.
func DefaultCoder() Coder { return Coder{NumServers: 8, MaxWorkloads: 10} }

// Dim returns the feature dimensionality: 32nS + 2n plus the 32S
// aggregate-corunner block.
func (c Coder) Dim() int {
	return 32*(c.MaxWorkloads+1)*c.NumServers + 2*c.MaxWorkloads
}

// aggSlot is the pseudo-slot index of the aggregate corunner block.
func (c Coder) aggSlot() int { return c.MaxWorkloads }

// blockSize is the per-workload feature count: R (S x 16) + U (S x 16).
func (c Coder) blockSize() int { return 2 * c.NumServers * metrics.NumSelected }

// UFeatureIndex returns the feature position of metric column m of
// workload slot i on server l in the U matrix — used to map forest
// importances back onto the 16 metrics (Figure 8).
func (c Coder) UFeatureIndex(slot, server, col int) int {
	return slot*c.blockSize() + c.NumServers*metrics.NumSelected + server*metrics.NumSelected + col
}

// rFeatureIndex is the R-matrix analogue.
func (c Coder) rFeatureIndex(slot, server, col int) int {
	return slot*c.blockSize() + server*metrics.NumSelected + col
}

// ErrTooManyServers is returned by EncodeInto when the colocation touches
// more distinct servers than the coder has spatial rows — the paper's
// §6.4 scaling limit ("if a workflow ... spans over hundreds or
// thousands of servers, Gsight may not scale up well").
var ErrTooManyServers = errors.New("core: colocation spans more servers than the code has rows")

// ColocationKind classifies a colocation per §3.3's model forms.
type ColocationKind int

const (
	// LSLS: only latency-sensitive workloads; D = T = 0 and QPS is the
	// interference driver.
	LSLS ColocationKind = iota
	// LSSC: LS mixed with SC/BG; LS entries carry D = T = 0, SC/BG
	// delays are relative to the first SC/BG arrival.
	LSSC
	// SCSC: only SC/BG; lifetimes are non-zero.
	SCSC
	// BGBG: only background jobs; the paper never invokes the
	// predictor here (lenient requirements).
	BGBG
)

// String names the colocation kind as the paper does.
func (k ColocationKind) String() string {
	switch k {
	case LSLS:
		return "LS+LS"
	case LSSC:
		return "LS+SC/BG"
	case SCSC:
		return "SC+SC/BG"
	case BGBG:
		return "BG+BG"
	}
	return fmt.Sprintf("ColocationKind(%d)", int(k))
}

// Classify returns the colocation kind of a workload set.
func Classify(ws []WorkloadInput) ColocationKind {
	hasLS, hasSC, hasBG := false, false, false
	for _, w := range ws {
		switch w.Class {
		case workload.LS:
			hasLS = true
		case workload.SC:
			hasSC = true
		case workload.BG:
			hasBG = true
		}
	}
	switch {
	case hasLS && (hasSC || hasBG):
		return LSSC
	case hasLS:
		return LSLS
	case hasSC:
		return SCSC
	default:
		return BGBG
	}
}

// rowScratch accumulates one "virtual larger function" (§3.3): the
// metrics, CPU-demand weights and summed allocation of a workload's
// functions that share a server row.
type rowScratch struct {
	vs      []metrics.Vector
	weights []float64
	alloc   resources.Vector
	used    bool
}

// codeScratch holds the reusable buffers EncodeInto needs, so that a
// steady-state encode performs no allocation. Instances live in
// encodePool; they are never retained across calls and hold no pointers
// into caller data after release().
type codeScratch struct {
	ordered   []WorkloadInput
	serverIDs []int        // serverIDs[row] = physical server id (first-use order)
	rows      []rowScratch // per-row slot grouping, indexed by row
	touched   []int        // rows used by the current slot
}

var encodePool = sync.Pool{New: func() interface{} { return new(codeScratch) }}

// rowOf returns the canonical row of a physical server id, assigning
// the next row on first use. Colocations touch at most a handful of
// servers, so a linear scan beats a map — no hashing, no allocation.
func (sc *codeScratch) rowOf(server int) int {
	for row, id := range sc.serverIDs {
		if id == server {
			return row
		}
	}
	sc.serverIDs = append(sc.serverIDs, server)
	return len(sc.serverIDs) - 1
}

// release drops references to caller-owned data so pooled scratch never
// pins workload inputs or profiles, and clears any rows left dirty by
// an error return mid-encode.
func (sc *codeScratch) release() {
	for i := range sc.ordered {
		sc.ordered[i] = WorkloadInput{}
	}
	sc.ordered = sc.ordered[:0]
	sc.serverIDs = sc.serverIDs[:0]
	for _, l := range sc.touched {
		g := &sc.rows[l]
		g.vs = g.vs[:0]
		g.weights = g.weights[:0]
		g.alloc = resources.Vector{}
		g.used = false
	}
	sc.touched = sc.touched[:0]
	encodePool.Put(sc)
}

// corunnerLess is the canonical corunner order: name, start delay,
// first placement.
func corunnerLess(a, b *WorkloadInput) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.StartDelayS != b.StartDelayS {
		return a.StartDelayS < b.StartDelayS
	}
	pa, pb := -1, -1
	if len(a.Placement) > 0 {
		pa = a.Placement[0]
	}
	if len(b.Placement) > 0 {
		pb = b.Placement[0]
	}
	return pa < pb
}

// EncodeInto writes the feature vector for predicting workload
// ws[target]'s QoS under the colocation into dst, which must have
// length Dim(). Workloads beyond MaxWorkloads-1 corunners are dropped
// (the paper fixes n and zero-pads); servers beyond NumServers are
// rejected. All intermediate state lives in pooled scratch, and dst is
// fully overwritten (zero-padded), so callers may reuse one buffer
// across calls. Safe for concurrent use with distinct dst buffers.
func (c Coder) EncodeInto(dst []float64, target int, ws []WorkloadInput) error {
	if len(dst) != c.Dim() {
		return fmt.Errorf("core: EncodeInto dst has %d entries, want %d", len(dst), c.Dim())
	}
	if target < 0 || target >= len(ws) {
		return fmt.Errorf("core: target %d out of range", target)
	}
	sc := encodePool.Get().(*codeScratch)
	defer sc.release()

	// Reorder: target in slot 0, corunners in a canonical order
	// (name, start delay, first placement) so that permuting the
	// submission order of corunners cannot change the code — slot
	// identity carries no information the model would have to learn
	// away. The insertion sort is stable (same result as
	// sort.SliceStable) and corunner counts are <= MaxWorkloads-1,
	// so it is also the fastest option here.
	sc.ordered = append(sc.ordered[:0], ws[target])
	for i := range ws {
		if i != target {
			sc.ordered = append(sc.ordered, ws[i])
		}
	}
	rest := sc.ordered[1:]
	for i := 1; i < len(rest); i++ {
		for j := i; j > 0 && corunnerLess(&rest[j], &rest[j-1]); j-- {
			rest[j], rest[j-1] = rest[j-1], rest[j]
		}
	}
	if len(sc.ordered) > c.MaxWorkloads {
		sc.ordered = sc.ordered[:c.MaxWorkloads]
	}
	ordered := sc.ordered

	kind := Classify(ordered)
	for i := range dst {
		dst[i] = 0
	}
	dOff := (c.MaxWorkloads + 1) * c.blockSize()
	tOff := dOff + c.MaxWorkloads

	// Canonical server relabeling: the testbed's servers are
	// homogeneous, so physical server indices carry no information —
	// but fixed rows would force the model to relearn each
	// target-corunner interaction once per server. Rows are therefore
	// assigned in order of first use (target's functions first, then
	// corunners in slot order), which aligns "the server hosting the
	// target's first function" to row 0 in every sample.
	for i := range ordered {
		for _, l := range ordered[i].Placement {
			sc.rowOf(l)
		}
	}
	if need := c.NumServers; len(sc.rows) < need {
		sc.rows = append(sc.rows, make([]rowScratch, need-len(sc.rows))...)
	}

	// Temporal overlap coding (§3.3): delays relative to the first
	// SC/BG arrival; LS workloads carry D = T = 0.
	firstSC := 0.0
	found := false
	for i := range ordered {
		if ordered[i].Class != workload.LS {
			if !found || ordered[i].StartDelayS < firstSC {
				firstSC = ordered[i].StartDelayS
				found = true
			}
		}
	}

	for slot := range ordered {
		w := &ordered[slot]
		if len(w.Profiles) != len(w.Placement) {
			return fmt.Errorf("core: workload %q has %d profiles, %d placements",
				w.Name, len(w.Profiles), len(w.Placement))
		}
		// Spatial overlap coding: merge same-server functions into a
		// "virtual larger function" by CPU-demand-weighted averaging
		// of their metrics; allocations sum.
		for f := range w.Profiles {
			if w.Placement[f] < 0 {
				return fmt.Errorf("core: workload %q function %d on negative server", w.Name, f)
			}
			l := sc.rowOf(w.Placement[f])
			if l >= c.NumServers {
				return fmt.Errorf("core: workload %q function %d on server row %d (S=%d): %w",
					w.Name, f, l, c.NumServers, ErrTooManyServers)
			}
			g := &sc.rows[l]
			if !g.used {
				g.used = true
				sc.touched = append(sc.touched, l)
			}
			p := &w.Profiles[f]
			m := p.Metrics
			if w.Class == workload.LS && w.QPSFrac > 0 {
				m = profile.ScaleLoad(m, w.QPSFrac)
			}
			g.vs = append(g.vs, m)
			weight := p.Demand[resources.CPU] * w.replicas(f)
			if weight <= 0 {
				weight = 1e-6
			}
			g.weights = append(g.weights, weight)
			g.alloc = g.alloc.Add(p.Alloc.Scale(w.replicas(f)))
		}
		for _, l := range sc.touched {
			g := &sc.rows[l]
			merged := metrics.Mix(g.vs, g.weights).Select()
			for col, v := range merged {
				dst[c.UFeatureIndex(slot, l, col)] = v
				if slot > 0 {
					dst[c.UFeatureIndex(c.aggSlot(), l, col)] += v
				}
			}
			// R rows: the six allocation dimensions occupy the first
			// six columns; the rest stay zero-padded.
			for k := 0; k < int(resources.NumKinds); k++ {
				dst[c.rFeatureIndex(slot, l, k)] = g.alloc[k]
				if slot > 0 {
					dst[c.rFeatureIndex(c.aggSlot(), l, k)] += g.alloc[k]
				}
			}
			g.vs = g.vs[:0]
			g.weights = g.weights[:0]
			g.alloc = resources.Vector{}
			g.used = false
		}
		sc.touched = sc.touched[:0]
		switch {
		case kind == LSLS:
			// D = T = 0; QPS is already folded into the scaled metrics.
		case w.Class == workload.LS:
			// LS in a mixed colocation: D = T = 0.
		default:
			dst[dOff+slot] = w.StartDelayS - firstSC
			dst[tOff+slot] = w.LifetimeS
		}
	}
	return nil
}
