package obs

import (
	"io"
	"strconv"

	"gsight/internal/telemetry"
)

// TraceSchema is the trace format version, recorded in a metadata
// event at the head of every trace so gsight-inspect can reject
// streams it does not understand.
const TraceSchema = 1

// Tracer streams invocation-lifecycle events in the Chrome trace-event
// JSON format, one event object per line. The stream is the array-body
// form Perfetto and chrome://tracing accept directly: it opens with
// "[\n" and every event line ends with ",\n" — a trailing comma and a
// missing "]" are tolerated by both viewers, which is what makes the
// format truncation-tolerant and crash-safe. gsight-inspect's trace
// subcommand re-wraps it into a strict {"traceEvents": [...]} object.
//
// Determinism: timestamps are simulation time converted to
// microseconds (the trace-event unit) — never wall clock — so a
// fixed-seed run emits a byte-identical trace. Like the decision log it
// is an encoder over a telemetry.Stream: events are built by hand into
// the stream's reusable buffer under its lock, so steady-state tracing
// allocates nothing.
//
// The array opener and the two metadata events are the stream's
// preamble: a resumed run, truncated to a non-zero offset, never
// duplicates them.
type Tracer struct{ s *telemetry.Stream }

// tracePreamble opens the array and names the process and the schema:
// two metadata events.
var tracePreamble = []byte("[\n" +
	`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"gsight platform"}},` + "\n" +
	`{"name":"gsight_trace","ph":"M","pid":1,"tid":0,"args":{"schema":` + strconv.Itoa(TraceSchema) + "}},\n")

// NewTracer streams trace events to w. Callers own w's lifecycle; the
// tracer only writes whole lines.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{s: telemetry.NewStream(w, tracePreamble, 2)}
}

// Stream returns the tracer's counted stream (events emitted, the
// preamble's metadata events included; first write error — tracing is
// best-effort and never fails the traced operation). Nil for a nil
// tracer, which the stream's methods accept.
func (t *Tracer) Stream() *telemetry.Stream {
	if t == nil {
		return nil
	}
	return t.s
}

// emit closes the args object opened at index a, finishes the event
// line begin started and writes it.
func (t *Tracer) emit(b []byte, a int) {
	b[a] = '{'
	t.s.End(append(b, '}', '}', ',', '\n'))
}

// begin opens a new event:
// {"name":"<name>","cat":"<cat>","ph":"<ph>","ts":<simTimeS*1e6>,
// "pid":1,"tid":0. The stream stays locked until emit.
func (t *Tracer) begin(name, cat string, ph byte, simTimeS float64) []byte {
	b, _ := t.s.Begin()
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"cat":`...)
	b = strconv.AppendQuote(b, cat)
	b = append(b, `,"ph":"`...)
	b = append(b, ph, '"')
	b = append(b, `,"ts":`...)
	b = strconv.AppendFloat(b, simTimeS*1e6, 'f', -1, 64)
	b = append(b, `,"pid":1,"tid":0`...)
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
// placed and its functions are starting. servers is the chosen server
// per function; predJCTS is the predictor's JCT estimate in seconds
// (0 when unavailable).
func (t *Tracer) JobBegin(id int, archetype, job string, simTimeS float64, servers []int, predJCTS float64) {
	if t == nil {
		return
	}
	b := t.begin(archetype, "job", 'b', simTimeS)
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	b, a := args(b)
	b = telemetry.AppendStr(b, "job", job)
	b = telemetry.AppendInts(b, "servers", servers)
	if predJCTS > 0 {
		b = telemetry.AppendFloat(b, "pred_jct_s", predJCTS)
	}
	t.emit(b, a)
}

// JobEnd closes a job's async span at completion with the observed
// outcome: job completion time, slowdown versus solo execution, and
// the SLA verdict (slaOK is meaningful only when checked is true —
// jobs without a JCT SLA are never judged).
func (t *Tracer) JobEnd(id int, archetype string, simTimeS, jctS, slowdown float64, checked, slaOK bool) {
	if t == nil {
		return
	}
	b := t.begin(archetype, "job", 'e', simTimeS)
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	b, a := args(b)
	b = telemetry.AppendFloat(b, "jct_s", jctS)
	if slowdown > 0 {
		b = telemetry.AppendFloat(b, "slowdown", slowdown)
	}
	if checked {
		b = telemetry.AppendBool(b, "sla_ok", slaOK)
	}
	t.emit(b, a)
}

// PlacementInfo is one scheduling decision as the tracer records it:
// how hard the scheduler searched, what it decided, and what it
// predicted for the accepted candidate.
type PlacementInfo struct {
	Workload     string
	Outcome      string // "placed", "fallback", "degraded", "rejected", "error"
	Reason       string // qualifies non-"placed" outcomes
	SpreadLevels int    // candidate spread levels tried
	SLAChecks    int    // QoS predictions issued vetting candidates
	Placement    []int  // chosen server per function (nil when rejected)
	// PredIPC/PredJCTS are the predictor's estimates for the accepted
	// candidate (0 when the decision used no prediction).
	PredIPC  float64
	PredJCTS float64
}

// Placement records a scheduling decision as an instant event.
func (t *Tracer) Placement(simTimeS float64, p *PlacementInfo) {
	if t == nil {
		return
	}
	b := t.begin("placement", "sched", 'i', simTimeS)
	b = append(b, `,"s":"t"`...)
	b, a := args(b)
	b = telemetry.AppendStr(b, "workload", p.Workload)
	b = telemetry.AppendStr(b, "outcome", p.Outcome)
	if p.Reason != "" {
		b = telemetry.AppendStr(b, "reason", p.Reason)
	}
	b = telemetry.AppendInt(b, "spread_levels", p.SpreadLevels)
	b = telemetry.AppendInt(b, "sla_checks", p.SLAChecks)
	if p.Placement != nil {
		b = telemetry.AppendInts(b, "placement", p.Placement)
	}
	if p.PredIPC > 0 {
		b = telemetry.AppendFloat(b, "pred_ipc", p.PredIPC)
	}
	if p.PredJCTS > 0 {
		b = telemetry.AppendFloat(b, "pred_jct_s", p.PredJCTS)
	}
	t.emit(b, a)
}

// Reactive records a runtime SLA-control action (corunner eviction or
// reactive spread) as an instant event — the migration phase of the
// affected jobs' lifecycle.
func (t *Tracer) Reactive(simTimeS float64, action, service string, moved int) {
	if t == nil {
		return
	}
	b := t.begin(action, "reactive", 'i', simTimeS)
	b = append(b, `,"s":"t"`...)
	b, a := args(b)
	b = telemetry.AppendStr(b, "service", service)
	b = telemetry.AppendInt(b, "moved", moved)
	t.emit(b, a)
}

// Fault records an injected fault transition as an instant event.
func (t *Tracer) Fault(simTimeS float64, kind string, node int, displaced int) {
	if t == nil {
		return
	}
	b := t.begin(kind, "fault", 'i', simTimeS)
	b = append(b, `,"s":"g"`...)
	b, a := args(b)
	b = telemetry.AppendInt(b, "node", node)
	if displaced != 0 {
		b = telemetry.AppendInt(b, "displaced", displaced)
	}
	t.emit(b, a)
}

// Degraded records the platform entering or leaving degraded placement
// mode as an instant event.
func (t *Tracer) Degraded(simTimeS float64, entered bool, reason string) {
	if t == nil {
		return
	}
	b := t.begin("degraded", "fault", 'i', simTimeS)
	b = append(b, `,"s":"g"`...)
	b, a := args(b)
	b = telemetry.AppendBool(b, "entered", entered)
	b = telemetry.AppendStr(b, "reason", reason)
	t.emit(b, a)
}

// PredSample records one prediction-quality sample — a predicted vs
// observed pair for an archetype — as an instant event in the "predq"
// category. gsight-inspect rebuilds error-over-time and calibration
// views from these.
func (t *Tracer) PredSample(simTimeS float64, archetype, qos string, predicted, observed float64) {
	if t == nil {
		return
	}
	b := t.begin("sample", "predq", 'i', simTimeS)
	b = append(b, `,"s":"t"`...)
	b, a := args(b)
	b = telemetry.AppendStr(b, "archetype", archetype)
	b = telemetry.AppendStr(b, "qos", qos)
	b = telemetry.AppendFloat(b, "pred", predicted)
	b = telemetry.AppendFloat(b, "obs", observed)
	t.emit(b, a)
}

// Drift records a predictor-drift detection as an instant event.
func (t *Tracer) Drift(simTimeS float64, d *DriftInfo) {
	if t == nil {
		return
	}
	b := t.begin("predictor_drift", "predq", 'i', simTimeS)
	b = append(b, `,"s":"g"`...)
	b, a := args(b)
	b = telemetry.AppendStr(b, "archetype", d.Archetype)
	b = telemetry.AppendStr(b, "qos", d.QoS)
	b = telemetry.AppendInt(b, "window", d.Window)
	b = telemetry.AppendFloat(b, "mean_err", d.MeanErr)
	b = telemetry.AppendFloat(b, "mape", d.MAPE)
	b = telemetry.AppendFloat(b, "ph", d.PH)
	t.emit(b, a)
}
