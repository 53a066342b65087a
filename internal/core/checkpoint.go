package core

import (
	"fmt"
	"math"

	"gsight/internal/ml"
	"gsight/internal/wire"
)

// Checkpointable is implemented by predictors whose full online-learning
// state — models, training windows, pending observation buffers — can be
// snapshotted and restored for crash recovery. The platform requires it
// when checkpointing is enabled with an attached predictor: resuming
// without the learner's state would silently fork the learning stream.
type Checkpointable interface {
	// CheckpointState serializes the predictor's live state as one
	// opaque binary blob.
	CheckpointState() ([]byte, error)
	// RestoreCheckpoint replaces the predictor's live state with a
	// blob produced by CheckpointState on an identically-configured
	// predictor, or fails and leaves the predictor as it was.
	RestoreCheckpoint([]byte) error
}

// The predictor blob (byte layout in DESIGN.md §12): a header — magic,
// blob version, coder dimension, QoS kind count — then per kind the
// trained flag, the sample count, the forest section (ml) and the
// pending observation rows, then the tier-0 ingest generation and its
// ridge section. The log-space wrapping of tail-latency and JCT models
// is structural (rebuilt by NewPredictor), so only the inner forests
// are written. The tier-0 accumulators travel verbatim (rebuilding them
// would change float accumulation order) together with the ingest
// generation, so scheduler-side score caches invalidate at exactly the
// same points after resume.
const (
	checkpointMagic   = "GSPC"
	checkpointVersion = 2 // 1 was the JSON schema
)

// forestOf unwraps a QoS model to its forest, the only model family the
// checkpoint format covers (the paper's IRFR and its log-space wrap).
func forestOf(m ml.Incremental) (*ml.Forest, error) {
	if lt, ok := m.(*ml.LogTarget); ok {
		m = lt.Inner
	}
	f, ok := m.(*ml.Forest)
	if !ok {
		return nil, fmt.Errorf("core: model %T does not support checkpointing", m)
	}
	return f, nil
}

// PredictorCapture is a frozen view of the predictor's learning state,
// taken by Capture for the price of some pointer copies and one flat
// copy of the tier-0 ring (at most its window × Tier0Dim floats), and
// encoded later — possibly on another goroutine, while the predictor
// keeps observing and flushing.
type PredictorCapture struct {
	dim      int
	kinds    [numQoSKinds]kindCapture
	tier0Gen uint64
	tier0    ml.RidgeCapture
}

type kindCapture struct {
	trained  bool
	seen     int
	forest   ml.ForestCapture
	pendingX [][]float64
	pendingY []float64
}

// Capture freezes the predictor's state at the current observation:
// per-QoS forest view (tree pointers, window row pointers, RNG cursor),
// the pending observation buffer and the training counters, plus the
// tier-0 accumulators. Nothing the capture references is written
// afterwards: window and pending rows are immutable once handed over and
// trees once grown, so only the containers that ARE rewritten in place
// are copied — the pending buffer (Dataset.Reset nils its entries), the
// ring's slot array, the forest's tree slice and the ridge ring.
func (p *Predictor) Capture() (*PredictorCapture, error) {
	c := &PredictorCapture{dim: p.coder.Dim()}
	for k := range p.models {
		f, err := forestOf(p.models[k])
		if err != nil {
			return nil, fmt.Errorf("%v kind: %w", QoSKind(k), err)
		}
		kc := kindCapture{trained: p.trained[k], seen: p.seen[k], forest: f.Capture()}
		if p.pending[k].Len() > 0 {
			kc.pendingX = append([][]float64(nil), p.pending[k].X...)
			kc.pendingY = append([]float64(nil), p.pending[k].Y...)
		}
		c.kinds[k] = kc
	}
	c.tier0Gen = p.tier0.gen
	c.tier0 = p.tier0.ridge.Capture()
	return c, nil
}

// Encode serializes the capture into one buffer, appending straight
// from the captured rows and trees: no intermediate copy, and a handful
// of allocations however many rows there are.
func (c *PredictorCapture) Encode() []byte {
	size := 64 + c.tier0.SizeHint()
	for k := range c.kinds {
		kc := &c.kinds[k]
		size += kc.forest.SizeHint() + 8*len(kc.pendingY) + wire.SparseSizeHint(kc.pendingX)
	}
	dst := make([]byte, 0, size)
	dst = append(dst, checkpointMagic...)
	dst = wire.AppendU32(dst, checkpointVersion)
	dst = wire.AppendU32(dst, uint32(c.dim))
	dst = wire.AppendU32(dst, uint32(len(c.kinds)))
	for k := range c.kinds {
		kc := &c.kinds[k]
		dst = wire.AppendBool(dst, kc.trained)
		dst = wire.AppendU64(dst, uint64(kc.seen))
		dst = kc.forest.AppendTo(dst)
		dst = wire.AppendU32(dst, uint32(len(kc.pendingY)))
		for _, row := range kc.pendingX {
			dst = wire.AppendSparse(dst, row)
		}
		dst = wire.AppendF64s(dst, kc.pendingY)
	}
	dst = wire.AppendU64(dst, c.tier0Gen)
	return c.tier0.AppendTo(dst)
}

// CheckpointState snapshots the predictor: Capture and Encode in one
// call, for callers with nothing to overlap the encoding with.
func (p *Predictor) CheckpointState() ([]byte, error) {
	c, err := p.Capture()
	if err != nil {
		return nil, err
	}
	return c.Encode(), nil
}

// CheckpointSummary is what a predictor blob says about itself, for
// operators (gsight-inspect snapshot).
type CheckpointSummary struct {
	Version int
	Dim     int
	Kinds   []KindSummary
	// Tier-0 scorer: ingest generation and ridge ring occupancy.
	Tier0Gen     uint64
	Tier0Rows    int
	Tier0Seen    uint64
	Tier0Trained bool
}

// KindSummary is one QoS kind's part of a CheckpointSummary.
type KindSummary struct {
	Kind        QoSKind
	Trained     bool
	Seen        int
	Trees       int
	WindowRows  int
	PendingRows int
}

// decodedCheckpoint is a validated blob: the summary always, and when
// read for a predictor the state to install.
type decodedCheckpoint struct {
	CheckpointSummary
	forests  [numQoSKinds]*ml.ForestDecoded
	pendingX [numQoSKinds][][]float64
	pendingY [numQoSKinds][]float64
	ridge    *ml.RidgeDecoded
}

// readCheckpoint is the one decoder of the predictor blob. For a
// predictor it validates against that predictor's configuration — coder
// dimension, window and tree capacities, ridge shape — and builds the
// replacement state; with p nil it checks everything that needs no
// configuration, allocates nothing per row and fills the summary only.
// Failures are recorded on r.
func readCheckpoint(r *wire.Reader, p *Predictor) *decodedCheckpoint {
	d := &decodedCheckpoint{}
	if magic := r.Bytes(len(checkpointMagic), "predictor checkpoint magic"); string(magic) != checkpointMagic {
		r.Failf("not a predictor checkpoint (magic %q)", magic)
		return d
	}
	d.Version = int(r.U32("predictor checkpoint version"))
	if d.Version != checkpointVersion {
		r.Failf("unsupported predictor checkpoint version %d, want %d", d.Version, checkpointVersion)
		return d
	}
	d.Dim = int(r.U32("coder dim"))
	if p != nil && d.Dim != p.coder.Dim() {
		r.Failf("checkpoint rows have %d features, coder dim is %d", d.Dim, p.coder.Dim())
		return d
	}
	if kinds := r.U32("kind count"); kinds != uint32(numQoSKinds) {
		r.Failf("predictor checkpoint has %d kinds, want %d", kinds, int(numQoSKinds))
		return d
	}
	for k := 0; k < int(numQoSKinds) && r.Err() == nil; k++ {
		var lim *ml.ForestLimits
		if p != nil {
			f, err := forestOf(p.models[k])
			if err != nil {
				r.Failf("%v kind: %v", QoSKind(k), err)
				return d
			}
			lim = f.StateLimits(d.Dim)
		}
		ks := KindSummary{Kind: QoSKind(k), Trained: r.Bool("trained flag")}
		seen := r.U64("sample count")
		if seen > math.MaxInt64 {
			r.Failf("%v sample count %d out of range", QoSKind(k), seen)
			return d
		}
		ks.Seen = int(seen)
		fd := ml.ReadForestState(r, lim)
		ks.Trees, ks.WindowRows = fd.Trees, fd.WindowRows
		d.forests[k] = fd

		ks.PendingRows = r.Count(1+8, "pending row count")
		if lim != nil && ks.PendingRows > lim.Window {
			r.Failf("%v has %d pending rows, more than the window capacity %d", QoSKind(k), ks.PendingRows, lim.Window)
			return d
		}
		if lim != nil {
			d.pendingX[k] = make([][]float64, ks.PendingRows)
			d.pendingY[k] = make([]float64, ks.PendingRows)
		}
		for i := 0; i < ks.PendingRows && r.Err() == nil; i++ {
			var row []float64
			if lim != nil {
				row = make([]float64, d.Dim)
				d.pendingX[k][i] = row
			}
			r.Sparse(row, d.Dim, "pending row")
		}
		r.F64s(d.pendingY[k], ks.PendingRows, "pending labels")
		if err := r.Err(); err != nil {
			// Name the kind once, here, instead of in every message.
			r.Annotate(QoSKind(k).String() + " kind")
			return d
		}
		d.Kinds = append(d.Kinds, ks)
	}
	d.Tier0Gen = r.U64("tier0 generation")
	var rlim *ml.RidgeLimits
	if p != nil {
		rlim = p.tier0.ridge.StateLimits()
	}
	d.ridge = ml.ReadRidgeState(r, rlim)
	d.Tier0Rows, d.Tier0Seen, d.Tier0Trained = d.ridge.Rows, d.ridge.Seen, d.ridge.Trained
	return d
}

// SummarizeCheckpoint validates a predictor blob as far as it can
// without a predictor's configuration and reports its counts. It reads
// through the decoder RestoreCheckpoint uses.
func SummarizeCheckpoint(blob []byte) (*CheckpointSummary, error) {
	r := wire.NewReader(blob)
	d := readCheckpoint(r, nil)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: predictor checkpoint: %w", err)
	}
	return &d.CheckpointSummary, nil
}

// RestoreCheckpoint restores a CheckpointState blob into this
// predictor's existing models. The whole blob is decoded and validated
// — dimensions, capacities, finiteness, tree structure, RNG state, no
// bytes left over — before anything is installed, so a corrupt blob is
// rejected with an error and the predictor untouched.
func (p *Predictor) RestoreCheckpoint(blob []byte) error {
	r := wire.NewReader(blob)
	d := readCheckpoint(r, p)
	if err := r.Done(); err != nil {
		return fmt.Errorf("core: predictor checkpoint: %w", err)
	}
	for k := range p.models {
		f, _ := forestOf(p.models[k]) // checked by readCheckpoint
		f.Install(d.forests[k])
		p.trained[k] = d.Kinds[k].Trained
		p.seen[k] = d.Kinds[k].Seen
		p.pending[k].Reset()
		for i, y := range d.pendingY[k] {
			p.pending[k].Append(d.pendingX[k][i], y)
		}
	}
	p.tier0.ridge.Install(d.ridge)
	p.tier0.gen = d.Tier0Gen
	return nil
}

var _ Checkpointable = (*Predictor)(nil)
