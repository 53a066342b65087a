package core

import (
	"encoding/json"
	"fmt"
	"math"

	"gsight/internal/ml"
)

// Checkpointable is implemented by predictors whose full online-learning
// state — models, training windows, pending observation buffers — can be
// snapshotted and restored for crash recovery. The platform requires it
// when checkpointing is enabled with an attached predictor: resuming
// without the learner's state would silently fork the learning stream.
type Checkpointable interface {
	// CheckpointState serializes the predictor's live state.
	CheckpointState() (json.RawMessage, error)
	// RestoreCheckpoint replaces the predictor's live state with a
	// snapshot produced by CheckpointState on an identically-configured
	// predictor.
	RestoreCheckpoint(json.RawMessage) error
}

// predictorState is the Gsight predictor's checkpoint schema. The
// tier-0 scorer state is optional for backward compatibility: snapshots
// written before the two-tier path restore with a reset scorer, which
// only matters if the resumed run also enables pruning.
type predictorState struct {
	Version int                  `json:"version"`
	Kinds   []predictorKindState `json:"kinds"`
	Tier0   *tier0State          `json:"tier0,omitempty"`
}

// tier0State carries the tier-0 scorer across a crash: the ridge
// accumulators verbatim (rebuilding them would change float
// accumulation order) plus the ingest generation, so scheduler-side
// score caches invalidate at exactly the same points after resume.
type tier0State struct {
	Gen   uint64        `json:"gen"`
	Ridge ml.RidgeState `json:"ridge"`
}

type predictorKindState struct {
	Trained  bool           `json:"trained"`
	Seen     int            `json:"seen"`
	Forest   ml.ForestState `json:"forest"`
	PendingX [][]float64    `json:"pending_x,omitempty"`
	PendingY []float64      `json:"pending_y,omitempty"`
}

// forestOf unwraps a QoS model to its forest, the only model family the
// checkpoint schema covers (the paper's IRFR and its log-space wrap).
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
	kinds [numQoSKinds]kindCapture
	tier0 tier0State
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
	c := &PredictorCapture{}
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
	c.tier0 = tier0State{Gen: p.tier0.gen, Ridge: p.tier0.ridge.ExportState()}
	return c, nil
}

// Encode serializes the capture to the checkpoint schema. The log-space
// wrapping of tail-latency and JCT models is structural (rebuilt by
// NewPredictor), so only the inner forests are serialized.
func (c *PredictorCapture) Encode() (json.RawMessage, error) {
	st := predictorState{Version: 1, Tier0: &c.tier0}
	for k := range c.kinds {
		kc := &c.kinds[k]
		st.Kinds = append(st.Kinds, predictorKindState{
			Trained:  kc.trained,
			Seen:     kc.seen,
			Forest:   kc.forest.State(),
			PendingX: kc.pendingX,
			PendingY: kc.pendingY,
		})
	}
	return json.Marshal(st)
}

// CheckpointState snapshots the predictor: Capture and Encode in one
// call, for callers with nothing to overlap the encoding with.
func (p *Predictor) CheckpointState() (json.RawMessage, error) {
	c, err := p.Capture()
	if err != nil {
		return nil, err
	}
	return c.Encode()
}

// RestoreCheckpoint restores a CheckpointState snapshot into this
// predictor's existing models, validating dimensions and values so a
// corrupt snapshot is rejected with an error instead of applied.
func (p *Predictor) RestoreCheckpoint(raw json.RawMessage) error {
	var st predictorState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("core: predictor checkpoint: %w", err)
	}
	if st.Version != 1 {
		return fmt.Errorf("core: unsupported predictor checkpoint version %d", st.Version)
	}
	if len(st.Kinds) != int(numQoSKinds) {
		return fmt.Errorf("core: predictor checkpoint has %d kinds, want %d", len(st.Kinds), int(numQoSKinds))
	}
	dim := p.coder.Dim()
	for k, ks := range st.Kinds {
		if len(ks.PendingX) != len(ks.PendingY) {
			return fmt.Errorf("core: %v pending X/Y length mismatch (%d vs %d)", QoSKind(k), len(ks.PendingX), len(ks.PendingY))
		}
		if ks.Seen < 0 {
			return fmt.Errorf("core: %v negative sample count %d", QoSKind(k), ks.Seen)
		}
		for i, row := range ks.PendingX {
			if len(row) != dim {
				return fmt.Errorf("core: %v pending row %d has %d features, coder dim is %d", QoSKind(k), i, len(row), dim)
			}
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("core: %v pending row %d has non-finite features", QoSKind(k), i)
				}
			}
			if math.IsNaN(ks.PendingY[i]) || math.IsInf(ks.PendingY[i], 0) {
				return fmt.Errorf("core: %v pending label %d non-finite", QoSKind(k), i)
			}
		}
	}
	// Pending buffers validated up front; forest states validate inside
	// RestoreState before mutating. A restore error aborts the caller's
	// resume, so a partially-applied predictor is never used.
	for k, ks := range st.Kinds {
		f, err := forestOf(p.models[k])
		if err != nil {
			return fmt.Errorf("%v kind: %w", QoSKind(k), err)
		}
		if err := f.RestoreState(ks.Forest); err != nil {
			return fmt.Errorf("core: %v kind: %w", QoSKind(k), err)
		}
		p.trained[k] = ks.Trained
		p.seen[k] = ks.Seen
		p.pending[k].Reset()
		for i := range ks.PendingY {
			p.pending[k].Append(ks.PendingX[i], ks.PendingY[i])
		}
	}
	if st.Tier0 != nil {
		if err := p.tier0.ridge.RestoreState(st.Tier0.Ridge); err != nil {
			return fmt.Errorf("core: tier0: %w", err)
		}
		p.tier0.gen = st.Tier0.Gen
	} else {
		p.tier0.ridge.Reset()
		p.tier0.gen = 0
	}
	return nil
}

var _ Checkpointable = (*Predictor)(nil)
