package obs

import (
	"io"
	"strconv"

	"gsight/internal/telemetry"
)

// traceSchema is the trace format version, recorded in a metadata
// event at the head of every trace so a reader can reject streams it
// does not understand.
const traceSchema = 1

// Tracer encodes invocation-lifecycle events in the Chrome trace-event
// JSON format, one event object per line: the view `gsight inspect
// trace` renders from a simulator's decision log, whose event structs
// it takes. The stream is the array-body form Perfetto and
// chrome://tracing accept directly: it opens with "[\n" and every event
// line ends with ",\n" — a trailing comma and a missing "]" are
// tolerated by both viewers, which keeps a cut stream readable.
//
// Determinism: timestamps are simulation time converted to
// microseconds (the trace-event unit) — never wall clock — so a
// fixed-seed run renders a byte-identical trace. Like the decision log
// it is an encoder over a telemetry.Stream: encoding/json writes each
// event into the stream's reusable buffer under its lock.
//
// The array opener and the two metadata events are the stream's
// preamble: a stream truncated to a non-zero offset never duplicates
// them.
type Tracer struct {
	s  *telemetry.Stream
	ev traceLine // the event being written, under the stream's lock
}

// traceLine is one trace event: where the trace shows it, and the
// decision-log event itself as its args.
type traceLine struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`
	Ph    string  `json:"ph"`
	TS    float64 `json:"ts"` // µs of simulation time
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
	Scope string  `json:"s,omitempty"`  // an instant event's: "t" (thread) or "g" (global)
	ID    *int    `json:"id,omitempty"` // an async span's: the job id
	Args  any     `json:"args"`
}

// tracePreamble opens the array and names the process and the schema:
// two metadata events.
var tracePreamble = []byte("[\n" +
	`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"gsight platform"}},` + "\n" +
	`{"name":"gsight_trace","ph":"M","pid":1,"tid":0,"args":{"schema":` + strconv.Itoa(traceSchema) + "}},\n")

// NewTracer streams trace events to w. Callers own w's lifecycle; the
// tracer only writes whole lines.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{s: telemetry.NewStream(w, tracePreamble, 2)}
}

// Event renders one decision-log event (a pointer to its telemetry
// struct) as a trace event and reports whether the trace shows its
// kind. A batch job is an async span from its admission (JobBegin, "b")
// to its completion (JobEnd, "e"), keyed by its id. The placement
// decision, reactive moves, fault transitions, degraded-mode windows,
// prediction-quality samples and drift detections are instant events.
// Training steps, experiment outcomes and step samples are not shown.
func (t *Tracer) Event(ev any) bool {
	var l traceLine
	switch e := ev.(type) {
	case *telemetry.JobBegin:
		l = traceLine{Name: e.Archetype, Cat: "job", Ph: "b", TS: e.SimTimeS, ID: &e.ID}
	case *telemetry.JobEnd:
		l = traceLine{Name: e.Archetype, Cat: "job", Ph: "e", TS: e.SimTimeS, ID: &e.ID}
	case *telemetry.PlacementDecision:
		l = traceLine{Name: "placement", Cat: "sched", Ph: "i", TS: e.SimTimeS, Scope: "t"}
	case *telemetry.ReactiveAction:
		l = traceLine{Name: e.Action, Cat: "reactive", Ph: "i", TS: e.SimTimeS, Scope: "t"}
	case *telemetry.FaultEvent:
		l = traceLine{Name: e.Kind, Cat: "fault", Ph: "i", TS: e.SimTimeS, Scope: "g"}
	case *telemetry.DegradedTransition:
		l = traceLine{Name: "degraded", Cat: "fault", Ph: "i", TS: e.SimTimeS, Scope: "g"}
	case *telemetry.PredSample:
		l = traceLine{Name: "sample", Cat: "predq", Ph: "i", TS: e.SimTimeS, Scope: "t"}
	case *telemetry.DriftEvent:
		l = traceLine{Name: "predictor_drift", Cat: "predq", Ph: "i", TS: e.SimTimeS, Scope: "g"}
	default:
		return false
	}
	l.TS *= 1e6
	l.PID, l.Args = 1, ev
	b, _ := t.s.Begin()
	t.ev = l
	t.s.EndJSON(b, &t.ev, ",\n")
	return true
}
