// Package obs is the observability layer on top of internal/telemetry:
// invocation-lifecycle tracing (Chrome trace-event JSON), a
// step-sampled binary flight recorder, and online prediction-quality
// tracking with Page–Hinkley drift detection.
//
// Everything is recorded in simulation time only, so a fixed-seed run
// produces byte-identical outputs, and every stream is a counted
// telemetry.Stream like the decision log. The whole package is
// nil-safe: a nil *Recorder (observability disabled) makes every hook a
// predictable branch and keeps the platform's steady-state step loop
// allocation-free.
package obs

import "io"

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
	r := &Recorder{pq: NewPredQ()}
	if cfg.Trace != nil {
		r.tr = NewTracer(cfg.Trace)
	}
	if cfg.Flight != nil {
		r.fl = NewFlight(cfg.Flight, cfg.Servers, cfg.StepS)
	}
	return r
}

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
