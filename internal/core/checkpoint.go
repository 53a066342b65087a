package core

import (
	"fmt"
	"math"

	"gsight/internal/ml"
	"gsight/internal/wire"
)

// The predictor blob (byte layout in DESIGN.md §12): a header — magic,
// blob version, coder dimension, QoS kind count — then per kind the
// trained flag, the sample count, the forest section (ml) and the
// pending observation rows. Tail-latency and JCT windows hold log
// labels and their pending rows unlogged ones: the predictor takes the
// log when it learns a batch. The tier-0 scorer is not written: Tier0
// rebuilds it from the IPC window. Last comes the learner section: the
// record clock (Tick count) and the training in flight, if any — its
// kind, the Tick that installs it, its batch length (the batch is the
// newest rows of that kind's window, not stored twice) and its grown
// trees.
const (
	checkpointMagic = "GSPC"
	// 1 was the JSON schema, 2 had no learner section, 3 carried the
	// tier-0 scorer.
	checkpointVersion = 4
)

// PredictorCapture is a frozen view of the predictor's learning state,
// taken by Capture for the price of some pointer copies and encoded
// later — possibly on another goroutine, while the predictor keeps
// observing and flushing.
type PredictorCapture struct {
	dim   int
	kinds [numQoSKinds]kindCapture
	ticks uint64
	train *training // in flight at the capture; Encode waits for its trees
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
// the pending observation buffer and the training counters. Nothing the
// capture references is written afterwards: window and pending rows are
// immutable once handed over and trees once grown, so only the
// containers that ARE rewritten in place are copied — the pending
// buffer (a flush truncates it and Observe refills its slots), the
// ring's slot array and the forest's tree slice. A training in flight
// is captured by reference: its trees are written once grown, and never
// change after.
func (p *Predictor) Capture() (*PredictorCapture, error) {
	c := &PredictorCapture{dim: p.enc.Dim(), ticks: p.ticks, train: p.train}
	for k, m := range p.models {
		f, ok := m.(*ml.Forest) // the one model family checkpoints cover
		if !ok {
			return nil, fmt.Errorf("%v kind: core: model %T does not support checkpointing", QoSKind(k), m)
		}
		kc := kindCapture{trained: p.trained[k], seen: p.seen[k], forest: f.Capture()}
		if p.pending[k].Len() > 0 {
			kc.pendingX = append([][]float64(nil), p.pending[k].X...)
			kc.pendingY = append([]float64(nil), p.pending[k].Y...)
		}
		c.kinds[k] = kc
	}
	return c, nil
}

// Encode serializes the capture into one buffer, appending straight
// from the captured rows and trees: no intermediate copy, and a handful
// of allocations however many rows there are. With a training in flight
// it first waits for the trees to be grown.
func (c *PredictorCapture) Encode() []byte {
	size := 96
	if c.train != nil {
		size += c.train.upd.SizeHint()
	}
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
	dst = wire.AppendU64(dst, c.ticks)
	dst = wire.AppendBool(dst, c.train != nil)
	if t := c.train; t != nil {
		dst = wire.AppendU32(dst, uint32(t.kind))
		dst = wire.AppendU64(dst, t.due)
		dst = wire.AppendU32(dst, uint32(len(t.Y)))
		dst = t.upd.AppendTo(dst)
	}
	return dst
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
// operators (`gsight inspect snapshot`).
type CheckpointSummary struct {
	Version int
	Dim     int
	Kinds   []KindSummary
	// Ticks is the record clock; Install the training in flight.
	Ticks   uint64
	Install *InstallSummary
}

// InstallSummary describes a training in flight: grown, installing at
// Tick Due.
type InstallSummary struct {
	Kind  QoSKind
	Due   uint64
	Batch int
	Trees int
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
	install  *ml.ForestUpdateDecoded
}

// readCheckpoint is the one decoder of the predictor blob. For a
// predictor it validates against that predictor's configuration — coder
// dimension, window and tree capacities — and builds the
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
	if p != nil && d.Dim != p.enc.Dim() {
		r.Failf("checkpoint rows have %d features, coder dim is %d", d.Dim, p.enc.Dim())
		return d
	}
	if kinds := r.U32("kind count"); kinds != uint32(numQoSKinds) {
		r.Failf("predictor checkpoint has %d kinds, want %d", kinds, int(numQoSKinds))
		return d
	}
	for k := 0; k < int(numQoSKinds) && r.Err() == nil; k++ {
		var lim *ml.ForestLimits
		if p != nil {
			f, ok := p.models[k].(*ml.Forest)
			if !ok {
				r.Failf("%v kind: core: model %T does not support checkpointing", QoSKind(k), p.models[k])
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
	d.Ticks = r.U64("record clock")
	if !r.Bool("install flag") || r.Err() != nil {
		return d
	}
	in := &InstallSummary{Kind: QoSKind(r.U32("install kind"))}
	in.Due = r.U64("install due tick")
	in.Batch = int(r.U32("install batch length"))
	if r.Err() != nil {
		return d
	}
	if in.Kind >= numQoSKinds {
		r.Failf("training in flight of kind %d, there are %d", int(in.Kind), int(numQoSKinds))
		return d
	}
	// Carried only by a capture between its flush and its install: after
	// the clock, and at most the flush's own Tick plus the lag ahead of
	// it — so never into a predictor that trains inline.
	ahead := p != nil && (p.cfg.InstallLag <= 0 || in.Due > d.Ticks+1+uint64(p.cfg.InstallLag))
	if in.Due <= d.Ticks || ahead {
		r.Failf("training in flight installs at tick %d; the clock reads %d", in.Due, d.Ticks)
		return d
	}
	var lim *ml.ForestLimits
	if p != nil {
		f := p.models[in.Kind].(*ml.Forest) // checked with the kind's section
		lim = f.StateLimits(d.Dim)
	}
	d.install = ml.ReadForestUpdate(r, d.forests[in.Kind], lim, in.Batch)
	in.Trees = d.install.Trees
	d.Install = in
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
	if p.train != nil {
		p.train.upd.Wait() // its Run still owns the forest's training scratch
		p.train = nil
		p.lins.InFlight.Set(0)
	}
	for k := range p.models {
		p.models[k].(*ml.Forest).Install(d.forests[k]) // checked by readCheckpoint
		p.trained[k] = d.Kinds[k].Trained
		p.seen[k] = d.Kinds[k].Seen
		p.pending[k].Reset()
		for i, y := range d.pendingY[k] {
			p.pending[k].Append(d.pendingX[k][i], y)
		}
	}
	p.ticks = d.Ticks
	if in := d.Install; in != nil {
		f := p.models[in.Kind].(*ml.Forest)
		t := &training{kind: in.Kind, due: in.Due, upd: f.ResumeUpdate(d.install)}
		t.X, t.Y = t.upd.Batch()
		p.train = t
		p.lins.InFlight.Set(1)
	}
	if p.tier0 != nil {
		// An attached scorer follows the restored window, at a new
		// generation.
		p.tier0.train(p.tier0Rows())
	}
	return nil
}
