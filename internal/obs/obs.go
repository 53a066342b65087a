// Package obs is the observability layer on top of internal/telemetry:
// invocation-lifecycle tracing (Chrome trace-event JSON) and online
// prediction-quality tracking with Page–Hinkley drift detection, one
// detector per QoS kind.
//
// Everything is recorded in simulation time only, so a fixed-seed run
// produces byte-identical outputs. The simulator's decision log is its
// one recording — placements, lifecycle events, prediction samples and
// one step sample per platform step — and the tracer renders it as a
// Perfetto trace afterwards, encoding the same telemetry event
// structs. PredQ runs in every simulation.
package obs
