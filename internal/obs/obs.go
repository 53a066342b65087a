// Package obs is the observability layer on top of internal/telemetry:
// invocation-lifecycle tracing (Chrome trace-event JSON), a
// step-sampled binary flight recorder, and online prediction-quality
// tracking with Page–Hinkley drift detection.
//
// Everything is recorded in simulation time only, so a fixed-seed run
// produces byte-identical outputs, and every stream is a counted
// telemetry.Stream like the decision log. The tracer encodes the same
// telemetry event structs the decision log does, so a caller builds
// each event once and hands it to both. The streams are nil-safe: a
// nil *Tracer or *Flight (that stream disabled) makes every hook a
// predictable branch and keeps the platform's steady-state step loop
// allocation-free. PredQ runs in every simulation.
package obs
