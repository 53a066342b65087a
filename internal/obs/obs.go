// Package obs is the observability layer on top of internal/telemetry:
// invocation-lifecycle tracing (Chrome trace-event JSON), a
// step-sampled binary flight recorder, and online prediction-quality
// tracking with Page–Hinkley drift detection.
//
// Everything is recorded in simulation time only, so a fixed-seed run
// produces byte-identical outputs, and every stream is a
// telemetry.Stream like the decision log — counted, synced before a
// checkpoint and cut back to it on resume — so a crash/resume recording
// is identical to an uninterrupted one. The
// whole package is nil-safe: a nil *Recorder (observability disabled)
// makes every hook a predictable branch and keeps the platform's
// steady-state step loop allocation-free.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

func floatBits(v float64) uint64   { return math.Float64bits(v) }
func bitsFloat(b uint64) float64   { return math.Float64frombits(b) }
func float32Bits(v float32) uint32 { return math.Float32bits(v) }
func bitsFloat32(b uint32) float32 { return math.Float32frombits(b) }

// Config selects what a Recorder captures. Either writer may be nil to
// disable that stream; prediction-quality tracking is always on (it
// feeds drift events and costs nothing on disk unless traced).
type Config struct {
	// Trace receives the Chrome trace-event stream; nil disables
	// lifecycle tracing.
	Trace io.Writer
	// Flight receives the binary flight recording; nil disables it.
	Flight io.Writer
	// Servers and StepS describe the cluster the flight recorder
	// samples (frame geometry and header fields).
	Servers int
	StepS   float64
	// PHLambda/PHDelta tune the Page–Hinkley drift detector;
	// non-positive values get NewPredQ's defaults.
	PHLambda float64
	PHDelta  float64
}

// Recorder is the run-attached observability bundle. The zero of its
// pointer type (nil) means observability is disabled; every method is
// safe to call on nil and does nothing.
type Recorder struct {
	tr *Tracer
	fl *Flight
	pq *PredQ
}

// New builds a Recorder from cfg.
func New(cfg Config) *Recorder {
	r := &Recorder{pq: NewPredQ(cfg.PHLambda, cfg.PHDelta)}
	if cfg.Trace != nil {
		r.tr = NewTracer(cfg.Trace)
	}
	if cfg.Flight != nil {
		r.fl = NewFlight(cfg.Flight, cfg.Servers, cfg.StepS)
	}
	return r
}

// Enabled reports whether any observability is attached.
func (r *Recorder) Enabled() bool { return r != nil }

// Trace returns the lifecycle tracer (nil-safe; may be nil).
func (r *Recorder) Trace() *Tracer {
	if r == nil {
		return nil
	}
	return r.tr
}

// Flight returns the flight recorder (nil-safe; may be nil).
func (r *Recorder) Flight() *Flight {
	if r == nil {
		return nil
	}
	return r.fl
}

// PredQ returns the prediction-quality tracker (nil-safe; may be nil).
func (r *Recorder) PredQ() *PredQ {
	if r == nil {
		return nil
	}
	return r.pq
}

// TrackPrediction folds one predicted/observed pair into the quality
// tracker, records it as a trace sample, and — when the drift detector
// fires — records the drift in the trace and returns it so the caller
// can emit the predictor_drift decision event.
func (r *Recorder) TrackPrediction(simTimeS float64, archetype, qos string, predicted, observed float64) (DriftInfo, bool) {
	if r == nil {
		return DriftInfo{}, false
	}
	r.tr.PredSample(simTimeS, archetype, qos, predicted, observed)
	d, fired := r.pq.Track(archetype, qos, predicted, observed)
	if fired {
		r.tr.Drift(simTimeS, &d)
	}
	return d, fired
}

// Err returns the first stream write error, if any — recording is
// best-effort and never fails the run; callers surface this at exit.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	if err := r.tr.Stream().Err(); err != nil {
		return err
	}
	return r.fl.Stream().Err()
}

// Sync makes both streams durable up to their current offsets. The
// platform calls it before CheckpointState, so a snapshot never records
// an offset the disk does not hold.
func (r *Recorder) Sync() error {
	if r == nil {
		return nil
	}
	if err := r.tr.Stream().Sync(); err != nil {
		return err
	}
	return r.fl.Stream().Sync()
}

// State is a Recorder's checkpointed position: stream offsets plus the
// serialized prediction-quality tracker. It rides inside the platform
// checkpoint payload.
type State struct {
	TraceEvents  uint64          `json:"trace_events"`
	TraceBytes   int64           `json:"trace_bytes"`
	FlightFrames uint64          `json:"flight_frames"`
	FlightBytes  int64           `json:"flight_bytes"`
	PredQ        json.RawMessage `json:"predq,omitempty"`
}

// CheckpointState captures the Recorder's position for a checkpoint
// (after Sync).
func (r *Recorder) CheckpointState() (json.RawMessage, error) {
	if r == nil {
		return nil, nil
	}
	var st State
	st.TraceEvents, st.TraceBytes = r.tr.Stream().Offset()
	st.FlightFrames, st.FlightBytes = r.fl.Stream().Offset()
	var err error
	if st.PredQ, err = r.pq.marshal(); err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// RestoreCheckpoint returns the Recorder to a checkpointed state: each
// stream is cut back to its recorded offset, so the resumed run re-emits
// exactly the records the crash cut off. A nil/absent state cuts
// everything to empty.
func (r *Recorder) RestoreCheckpoint(raw json.RawMessage) error {
	if r == nil {
		return nil
	}
	var st State
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &st); err != nil {
			return err
		}
	}
	if err := r.tr.Stream().TruncateTo(st.TraceEvents, st.TraceBytes); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := r.fl.Stream().TruncateTo(st.FlightFrames, st.FlightBytes); err != nil {
		return fmt.Errorf("flight recording: %w", err)
	}
	if len(st.PredQ) > 0 {
		return r.pq.unmarshal(st.PredQ)
	}
	*r.pq = *NewPredQ(r.pq.Lambda, r.pq.Delta)
	return nil
}
