// Package obs is the observability layer on top of internal/telemetry:
// invocation-lifecycle tracing (Chrome trace-event JSON), a
// step-sampled binary flight recorder, and online prediction-quality
// tracking with Page–Hinkley drift detection.
//
// Everything is recorded in simulation time only, so a fixed-seed run
// produces byte-identical outputs, and every stream is a counted
// telemetry.Stream like the decision log. The tracer encodes the same
// telemetry event structs the decision log does, so a caller builds
// each event once and hands it to both. The whole package is nil-safe:
// a nil *Tracer, *Flight or *PredQ (that stream disabled) makes every
// hook a predictable branch and keeps the platform's steady-state step
// loop allocation-free.
package obs
