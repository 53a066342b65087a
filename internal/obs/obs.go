// Package obs is the observability layer on top of internal/telemetry:
// invocation-lifecycle tracing (Chrome trace-event JSON), a
// step-sampled binary flight recorder, and online prediction-quality
// tracking with Page–Hinkley drift detection.
//
// Everything is recorded in simulation time only, so a fixed-seed run
// produces byte-identical outputs, and every stream is a counted
// telemetry.Stream like the decision log. The simulator's decision log
// is its one event stream: the tracer renders it as a Perfetto trace
// afterwards, encoding the same telemetry event structs. The flight
// recorder is nil-safe: a nil *Flight (recording disabled) makes every
// hook a predictable branch and keeps the platform's steady-state step
// loop allocation-free. PredQ runs in every simulation.
package obs
