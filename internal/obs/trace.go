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
// it is an encoder over a telemetry.Stream: events are built by hand
// into the stream's reusable buffer under its lock, so steady-state
// tracing allocates nothing.
//
// The array opener and the two metadata events are the stream's
// preamble: a stream truncated to a non-zero offset never duplicates
// them.
type Tracer struct{ s *telemetry.Stream }

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

// emit closes the args object opened at index a, finishes the event
// line begin started and writes it.
func (t *Tracer) emit(b []byte, a int) {
	b[a] = '{'
	t.s.End(append(b, '}', '}', ',', '\n'))
}

// begin opens a new event:
// {"name":"<name>","cat":"<cat>","ph":"<ph>","ts":<simTimeS*1e6>,
// "pid":1,"tid":0, and an instant event's ,"s":"<scope>" when scope is
// not 0. The stream stays locked until emit.
func (t *Tracer) begin(name, cat string, ph, scope byte, simTimeS float64) []byte {
	b, _ := t.s.Begin()
	b = append(b, `{"name":`...)
	b = telemetry.AppendQuoted(b, name)
	b = append(b, `,"cat":`...)
	b = telemetry.AppendQuoted(b, cat)
	b = append(b, `,"ph":"`...)
	b = append(b, ph, '"')
	b = append(b, `,"ts":`...)
	b = strconv.AppendFloat(b, simTimeS*1e6, 'f', -1, 64)
	b = append(b, `,"pid":1,"tid":0`...)
	if scope != 0 {
		b = append(b, `,"s":"`...)
		b = append(b, scope, '"')
	}
	return b
}

// args opens the event's args object. Its fields follow, appended with
// telemetry.AppendStr and siblings — comma first, so emit turns the
// first field's comma, at the returned index, into the opening brace.
// Every event has at least one unconditional field.
func args(b []byte) ([]byte, int) {
	b = append(b, `,"args":`...)
	return b, len(b)
}

// JobBegin opens a job's async span at its admission: the job was
// placed and its functions are starting. Its servers arg is the chosen
// server per function.
func (t *Tracer) JobBegin(e *telemetry.JobBegin) {
	b := telemetry.AppendInt(t.begin(e.Archetype, "job", 'b', 0, e.SimTimeS), "id", e.ID)
	b, a := args(b)
	b = telemetry.AppendStr(b, "job", e.Job)
	b = telemetry.AppendInts(b, "servers", e.Placement)
	if e.PredJCTS > 0 {
		b = telemetry.AppendFloat(b, "pred_jct_s", e.PredJCTS)
	}
	t.emit(b, a)
}

// JobEnd closes a job's async span at completion with the observed
// outcome: job completion time, slowdown versus solo execution, and
// the SLA verdict of a checked job.
func (t *Tracer) JobEnd(e *telemetry.JobEnd) {
	b := telemetry.AppendInt(t.begin(e.Archetype, "job", 'e', 0, e.SimTimeS), "id", e.ID)
	b, a := args(b)
	b = telemetry.AppendFloat(b, "jct_s", e.JCTS)
	if e.Slowdown > 0 {
		b = telemetry.AppendFloat(b, "slowdown", e.Slowdown)
	}
	if e.Checked {
		b = telemetry.AppendBool(b, "sla_ok", e.SLAOK)
	}
	t.emit(b, a)
}

// Placement records a placement request as an instant event: how hard
// the scheduler searched, what it decided (no placement when
// rejected), and what it predicted for the accepted candidate.
func (t *Tracer) Placement(d *telemetry.PlacementDecision) {
	b := t.begin("placement", "sched", 'i', 't', d.SimTimeS)
	b, a := args(b)
	b = telemetry.AppendStr(b, "workload", d.Workload)
	b = telemetry.AppendStr(b, "outcome", d.Outcome)
	if d.Reason != "" {
		b = telemetry.AppendStr(b, "reason", d.Reason)
	}
	b = telemetry.AppendInt(b, "spread_levels", d.SpreadLevels)
	b = telemetry.AppendInt(b, "sla_checks", d.SLAChecks)
	if d.Placement != nil {
		b = telemetry.AppendInts(b, "placement", d.Placement)
	}
	if d.PredIPC > 0 {
		b = telemetry.AppendFloat(b, "pred_ipc", d.PredIPC)
	}
	if d.PredJCTS > 0 {
		b = telemetry.AppendFloat(b, "pred_jct_s", d.PredJCTS)
	}
	t.emit(b, a)
}

// Reactive records a runtime SLA-control action (corunner eviction or
// reactive spread) as an instant event — the migration phase of the
// affected jobs' lifecycle.
func (t *Tracer) Reactive(e *telemetry.ReactiveAction) {
	b := t.begin(e.Action, "reactive", 'i', 't', e.SimTimeS)
	b, a := args(b)
	b = telemetry.AppendStr(b, "service", e.Service)
	b = telemetry.AppendInt(b, "moved", e.Moved)
	t.emit(b, a)
}

// Fault records an injected fault transition as an instant event; its
// displaced arg counts services and jobs together.
func (t *Tracer) Fault(e *telemetry.FaultEvent) {
	b := t.begin(e.Kind, "fault", 'i', 'g', e.SimTimeS)
	b, a := args(b)
	b = telemetry.AppendInt(b, "node", e.Node)
	if displaced := e.DisplacedServices + e.DisplacedJobs; displaced != 0 {
		b = telemetry.AppendInt(b, "displaced", displaced)
	}
	t.emit(b, a)
}

// Degraded records the platform entering or leaving degraded placement
// mode as an instant event.
func (t *Tracer) Degraded(e *telemetry.DegradedTransition) {
	b := t.begin("degraded", "fault", 'i', 'g', e.SimTimeS)
	b, a := args(b)
	b = telemetry.AppendBool(b, "entered", e.Entered)
	b = telemetry.AppendStr(b, "reason", e.Reason)
	t.emit(b, a)
}

// PredSample records one prediction-quality sample — a predicted vs
// observed pair for an archetype — as an instant event in the "predq"
// category.
func (t *Tracer) PredSample(e *telemetry.PredSample) {
	b := t.begin("sample", "predq", 'i', 't', e.SimTimeS)
	b, a := args(b)
	b = telemetry.AppendStr(b, "archetype", e.Archetype)
	b = telemetry.AppendStr(b, "qos", e.QoS)
	b = telemetry.AppendFloat(b, "pred", e.Pred)
	b = telemetry.AppendFloat(b, "obs", e.Obs)
	t.emit(b, a)
}

// Drift records a predictor-drift detection as an instant event.
func (t *Tracer) Drift(d *telemetry.DriftEvent) {
	b := t.begin("predictor_drift", "predq", 'i', 'g', d.SimTimeS)
	b, a := args(b)
	b = telemetry.AppendStr(b, "archetype", d.Archetype)
	b = telemetry.AppendStr(b, "qos", d.QoS)
	b = telemetry.AppendInt(b, "window", d.Window)
	b = telemetry.AppendFloat(b, "mean_err", d.MeanErr)
	b = telemetry.AppendFloat(b, "mape", d.MAPE)
	b = telemetry.AppendFloat(b, "ph", d.PH)
	t.emit(b, a)
}
