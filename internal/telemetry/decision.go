package telemetry

import (
	"encoding/json"
	"io"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// DecisionLog writes structured JSONL decision traces: one JSON object
// per line, fields in a fixed order, monotonically increasing sequence
// numbers. It is an encoder over a Stream: events are built by hand into
// the stream's reusable buffer under its lock, so steady-state logging
// allocates nothing and concurrent writers never interleave bytes.
//
// Each event struct's JSON tags name the fields of its line, so
// encoding/json decodes a line into the struct NewEvent picks; only
// PlacementDecision.Tier0 and JobEnd.Checked derive from a field's
// presence, by hand.
//
// Determinism: events carry no wall-clock fields (timings belong to
// histograms), so a fixed-seed run emits a byte-identical log.
//
// The first line of every log is a header event carrying the format
// version ({"event":"header","seq":0,"schema":N}); readers reject
// schemas they do not understand instead of misparsing. It is the
// stream's preamble, so a resumed run — truncated to a non-zero offset —
// never duplicates it.
type DecisionLog struct{ s *Stream }

// DecisionLogSchema is the current decision-log format version,
// recorded in the header event. Bump it on any incompatible change to
// event shapes so `gsight inspect` can reject logs it cannot read.
// Schema 2 added the simulator's job_begin, job_end and pred_sample
// events and the placement's sim_time_s, pred_ipc and pred_jct_s;
// schema 3 added the simulator's per-step step event.
const DecisionLogSchema = 3

// NewEvent returns a new value of the struct a line of the given event
// kind decodes into, or nil for a kind the log does not write (the
// header included).
func NewEvent(kind string) any {
	if t := eventTypes[kind]; t != nil {
		return reflect.New(t).Interface()
	}
	return nil
}

var eventTypes = map[string]reflect.Type{
	"placement":        reflect.TypeOf(PlacementDecision{}),
	"experiment":       reflect.TypeOf(ExperimentRun{}),
	"predictor_update": reflect.TypeOf(PredictorUpdate{}),
	"reactive":         reflect.TypeOf(ReactiveAction{}),
	"fault":            reflect.TypeOf(FaultEvent{}),
	"degraded":         reflect.TypeOf(DegradedTransition{}),
	"predictor_drift":  reflect.TypeOf(DriftEvent{}),
	"job_begin":        reflect.TypeOf(JobBegin{}),
	"job_end":          reflect.TypeOf(JobEnd{}),
	"pred_sample":      reflect.TypeOf(PredSample{}),
	"step":             reflect.TypeOf(StepSample{}),
}

// decisionHeader is the log's preamble: the header event, counted as
// record 0.
var decisionHeader = []byte(`{"event":"header","seq":0,"schema":` + strconv.Itoa(DecisionLogSchema) + "}\n")

// NewDecisionLog logs events to w (see Stream for what a file, a
// bytes.Buffer and any other writer each get). Callers own w's
// lifecycle; the log only writes whole lines.
func NewDecisionLog(w io.Writer) *DecisionLog {
	return &DecisionLog{s: NewStream(w, decisionHeader, 1)}
}

// Stream returns the log's counted stream — position, Sync, TruncateTo,
// first write error (decision logging is best-effort and never fails the
// instrumented operation). Nil for a nil log, which Stream's methods
// accept.
func (l *DecisionLog) Stream() *Stream {
	if l == nil {
		return nil
	}
	return l.s
}

// begin starts a new event line: {"event":"<kind>","seq":N. The stream
// stays locked until emit.
func (l *DecisionLog) begin(kind string) []byte {
	b, seq := l.s.Begin()
	b = append(b, `{"event":`...)
	b = AppendQuoted(b, kind)
	b = append(b, `,"seq":`...)
	return strconv.AppendUint(b, seq, 10)
}

// emit finishes the line begin started and writes it.
func (l *DecisionLog) emit(b []byte) { l.s.End(append(b, '}', '\n')) }

// AppendStr and its siblings append one JSON object field, comma first:
// ,"key":value. The decision log's events and the lifecycle trace's args
// are built from them.
func AppendStr(b []byte, key, v string) []byte { return AppendQuoted(appendKey(b, key), v) }

func AppendInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(appendKey(b, key), int64(v), 10)
}

func AppendFloat(b []byte, key string, v float64) []byte {
	return strconv.AppendFloat(appendKey(b, key), v, 'g', -1, 64)
}

func AppendBool(b []byte, key string, v bool) []byte { return strconv.AppendBool(appendKey(b, key), v) }

func AppendInts(b []byte, key string, vs []int) []byte {
	b = append(appendKey(b, key), '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// AppendQuoted appends s as a JSON string: '"', '\\' and the bytes
// below 0x20 escaped as JSON escapes them, and each run of invalid
// UTF-8 written as one U+FFFD, as strings.ToValidUTF8 replaces it. Every
// other byte is copied, so a name of printable ASCII comes out as
// strconv.Quote writes it.
func AppendQuoted(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	invalid := false
	for i, r := range s {
		bad := r == utf8.RuneError && !strings.HasPrefix(s[i:], "\uFFFD")
		switch {
		case bad && invalid:
		case bad:
			b = append(b, "\uFFFD"...)
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r == '\n':
			b = append(b, `\n`...)
		case r == '\r':
			b = append(b, `\r`...)
		case r == '\t':
			b = append(b, `\t`...)
		case r < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xf])
		default:
			b = utf8.AppendRune(b, r)
		}
		invalid = bad
	}
	return append(b, '"')
}

// appendKey appends ,"key": — the start of every field.
func appendKey(b []byte, key string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

// appendFloat32s appends a float array at float32 precision: the
// shortest decimal that reads back as the same float32.
func appendFloat32s(b []byte, key string, vs []float32) []byte {
	b = append(appendKey(b, key), '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
	}
	return append(b, ']')
}

// PlacementDecision records one placement request: what was asked,
// how hard the scheduler searched, and what it decided. It is the one
// placement record: a scheduler fills its part through
// sched.Request.Detail, and the simulator completes it once per request
// and hands it to the decision log.
type PlacementDecision struct {
	SimTimeS  float64 `json:"sim_time_s"` // simulation time of the request (0 off the simulator)
	Scheduler string  `json:"scheduler"`
	Workload  string  `json:"workload"`
	Class     string  `json:"class"`
	Functions int     `json:"functions"` // functions to place
	Servers   int     `json:"servers"`   // cluster size
	// SpreadLevels counts the binary-search iterations (candidate
	// spread levels tried); non-search schedulers report 1 per Place
	// call. The simulator sums every call the request made: discarded
	// window-ladder attempts and a primary attempt the fallback
	// replaced.
	SpreadLevels int `json:"spread_levels"`
	// SLAChecks counts the QoS predictions issued while vetting
	// candidates (batched checks count each query), summed the same way.
	SLAChecks int `json:"sla_checks"`
	// Outcome is "placed", "fallback" (placed by the full-spread last
	// resort after SLA rejections), "degraded" (placed by a fallback
	// policy because the predictor could not vet it), "rejected" or
	// "error".
	Outcome string `json:"outcome"`
	// Reason qualifies non-"placed" outcomes: "sla-violated", "no-fit",
	// "predictor-error", or the simulator's degradation reason.
	Reason string `json:"reason"`
	// Placement is the chosen server per function (nil when rejected).
	Placement []int `json:"placement"`
	// ActiveServers is the cluster's active-server count before the
	// decision — the density denominator the scheduler optimizes.
	ActiveServers int `json:"active_servers"`
	// Tier0 marks decisions where the tier-0 scorer pruned the
	// candidate set; the fields below are emitted only then, so logs
	// from runs without pruning stay byte-identical to the legacy
	// format. All values are derived from deterministic scheduler state
	// (never wall clock). A reader sets it when the line carries
	// tier0_kept.
	Tier0 bool `json:"-"`
	// Tier0Kept/Tier0Pruned are the finalist and discarded candidate
	// counts for this decision.
	Tier0Kept   int `json:"tier0_kept"`
	Tier0Pruned int `json:"tier0_pruned"`
	// Tier0Score is the tier-0 score of the accepted placement's
	// primary server (0 when the request was not placed).
	Tier0Score float64 `json:"tier0_score"`
	// PredIPC/PredJCTS are the predictor's estimates for the accepted
	// candidate's own workload; 0 (and not logged) when no prediction
	// vetted it.
	PredIPC  float64 `json:"pred_ipc"`
	PredJCTS float64 `json:"pred_jct_s"`
}

// Placement emits a placement decision event.
func (l *DecisionLog) Placement(e *PlacementDecision) {
	if l == nil {
		return
	}
	b := l.begin("placement")
	b = AppendFloat(b, "sim_time_s", e.SimTimeS)
	b = AppendStr(b, "scheduler", e.Scheduler)
	b = AppendStr(b, "workload", e.Workload)
	b = AppendStr(b, "class", e.Class)
	b = AppendInt(b, "functions", e.Functions)
	b = AppendInt(b, "servers", e.Servers)
	b = AppendInt(b, "active_servers", e.ActiveServers)
	b = AppendInt(b, "spread_levels", e.SpreadLevels)
	b = AppendInt(b, "sla_checks", e.SLAChecks)
	b = AppendStr(b, "outcome", e.Outcome)
	if e.Reason != "" {
		b = AppendStr(b, "reason", e.Reason)
	}
	if e.Placement != nil {
		b = AppendInts(b, "placement", e.Placement)
	}
	if e.PredIPC > 0 {
		b = AppendFloat(b, "pred_ipc", e.PredIPC)
	}
	if e.PredJCTS > 0 {
		b = AppendFloat(b, "pred_jct_s", e.PredJCTS)
	}
	if e.Tier0 {
		b = AppendInt(b, "tier0_kept", e.Tier0Kept)
		b = AppendInt(b, "tier0_pruned", e.Tier0Pruned)
		b = AppendFloat(b, "tier0_score", e.Tier0Score)
	}
	l.emit(b)
}

// UnmarshalJSON decodes a placement line through the struct's tags and
// sets Tier0 when the line carries tier0_kept.
func (e *PlacementDecision) UnmarshalJSON(b []byte) error {
	type fields PlacementDecision
	v := struct {
		*fields
		Tier0Kept *int `json:"tier0_kept"`
	}{fields: (*fields)(e)}
	err := json.Unmarshal(b, &v)
	if e.Tier0 = v.Tier0Kept != nil; e.Tier0 {
		e.Tier0Kept = *v.Tier0Kept
	}
	return err
}

// ExperimentRun records one experiment's outcome in a harness run.
// Events are emitted sequentially in id order after the (possibly
// parallel) runs finish, so the log stays deterministic; durations are
// deliberately absent (wall clock belongs to histograms).
type ExperimentRun struct {
	ID     string `json:"id"`
	Status string `json:"status"` // "ok", "failed" or "cancelled"
}

// Experiment emits an experiment-outcome event.
func (l *DecisionLog) Experiment(e *ExperimentRun) {
	if l == nil {
		return
	}
	b := l.begin("experiment")
	b = AppendStr(b, "id", e.ID)
	b = AppendStr(b, "status", e.Status)
	l.emit(b)
}

// PredictorUpdate records one predictor training step: the offline
// bootstrap or an incremental window flush.
type PredictorUpdate struct {
	Predictor string `json:"predictor"`
	Kind      string `json:"kind"`  // QoS kind ("ipc", "p99", "jct")
	Phase     string `json:"phase"` // "train" (bootstrap fit) or "update" (incremental)
	Batch     int    `json:"batch"` // samples folded in by this step
	// SamplesSeen is the cumulative count after the step — the
	// incremental-update window position.
	SamplesSeen int `json:"samples_seen"`
}

// PredictorUpdate emits a predictor training event.
func (l *DecisionLog) PredictorUpdate(e *PredictorUpdate) {
	if l == nil {
		return
	}
	b := l.begin("predictor_update")
	b = AppendStr(b, "predictor", e.Predictor)
	b = AppendStr(b, "kind", e.Kind)
	b = AppendStr(b, "phase", e.Phase)
	b = AppendInt(b, "batch", e.Batch)
	b = AppendInt(b, "samples_seen", e.SamplesSeen)
	l.emit(b)
}

// ReactiveAction records one runtime SLA-control action of the
// platform: a corunner eviction or a reactive spread of a violating
// service.
type ReactiveAction struct {
	SimTimeS float64 `json:"sim_time_s"`
	Action   string  `json:"action"` // "evict-corunner" or "spread-service"
	Service  string  `json:"service"`
	Moved    int     `json:"moved"` // functions/jobs moved
}

// Reactive emits a reactive-control event.
func (l *DecisionLog) Reactive(e *ReactiveAction) {
	if l == nil {
		return
	}
	b := l.begin("reactive")
	b = AppendFloat(b, "sim_time_s", e.SimTimeS)
	b = AppendStr(b, "action", e.Action)
	b = AppendStr(b, "service", e.Service)
	b = AppendInt(b, "moved", e.Moved)
	l.emit(b)
}

// FaultEvent records one injected fault transition and what the
// platform displaced in response. Times are simulation time only —
// never wall clock — so same-seed faulty runs stay byte-identical.
type FaultEvent struct {
	SimTimeS float64 `json:"sim_time_s"`
	Kind     string  `json:"kind"` // "node-down", "node-up", "slow-set", "storm-start", ...
	Node     int     `json:"node"` // -1 for cluster-wide faults
	Factor   float64 `json:"factor"`
	// DisplacedServices/DisplacedJobs count the workloads the platform
	// re-placed off a crashed node while handling this transition.
	DisplacedServices int `json:"displaced_services"`
	DisplacedJobs     int `json:"displaced_jobs"`
}

// Fault emits a fault-injection event.
func (l *DecisionLog) Fault(e *FaultEvent) {
	if l == nil {
		return
	}
	b := l.begin("fault")
	b = AppendFloat(b, "sim_time_s", e.SimTimeS)
	b = AppendStr(b, "kind", e.Kind)
	b = AppendInt(b, "node", e.Node)
	if e.Factor != 0 {
		b = AppendFloat(b, "factor", e.Factor)
	}
	b = AppendInt(b, "displaced_services", e.DisplacedServices)
	b = AppendInt(b, "displaced_jobs", e.DisplacedJobs)
	l.emit(b)
}

// DegradedTransition records the platform entering or leaving degraded
// placement mode (predictor unavailable or untrained; placements go to
// the fallback policy).
type DegradedTransition struct {
	SimTimeS float64 `json:"sim_time_s"`
	Entered  bool    `json:"entered"`  // true on entry, false on exit
	Reason   string  `json:"reason"`   // "predictor-unavailable" or "predictor-untrained"
	Fallback string  `json:"fallback"` // the policy serving placements while degraded
}

// DriftEvent records a prediction-quality drift detection: the online
// residual tracker's Page–Hinkley statistic crossed its threshold for
// one archetype (or the overall stream), meaning the predictor's
// recent errors shifted from their running mean. The platform emits it
// so operators — or a future retraining policy — can react.
type DriftEvent struct {
	SimTimeS  float64 `json:"sim_time_s"`
	QoS       string  `json:"qos"`       // QoS kind the residuals are for ("ipc", "jct")
	Archetype string  `json:"archetype"` // workload archetype, or "overall"
	Window    int     `json:"window"`    // rolling-window sample count behind the stats
	MeanErr   float64 `json:"mean_err"`  // rolling mean signed relative error
	MAPE      float64 `json:"mape"`      // rolling mean absolute percentage error
	PH        float64 `json:"ph"`        // Page–Hinkley statistic at detection
}

// Drift emits a predictor-drift event.
func (l *DecisionLog) Drift(e *DriftEvent) {
	if l == nil {
		return
	}
	b := l.begin("predictor_drift")
	b = AppendFloat(b, "sim_time_s", e.SimTimeS)
	b = AppendStr(b, "qos", e.QoS)
	b = AppendStr(b, "archetype", e.Archetype)
	b = AppendInt(b, "window", e.Window)
	b = AppendFloat(b, "mean_err", e.MeanErr)
	b = AppendFloat(b, "mape", e.MAPE)
	b = AppendFloat(b, "ph", e.PH)
	l.emit(b)
}

// Degraded emits a degraded-mode transition event.
func (l *DecisionLog) Degraded(e *DegradedTransition) {
	if l == nil {
		return
	}
	b := l.begin("degraded")
	b = AppendFloat(b, "sim_time_s", e.SimTimeS)
	b = AppendBool(b, "entered", e.Entered)
	b = AppendStr(b, "reason", e.Reason)
	b = AppendStr(b, "fallback", e.Fallback)
	l.emit(b)
}

// JobBegin records a batch job's admission in the simulator: it was
// placed and its functions are starting.
type JobBegin struct {
	SimTimeS  float64 `json:"sim_time_s"`
	ID        int     `json:"id"`         // the simulator's job id, which its JobEnd repeats
	Archetype string  `json:"archetype"`  // the workload the job runs
	Job       string  `json:"job"`        // the job's unique run name
	Placement []int   `json:"placement"`  // the chosen server per function
	PredJCTS  float64 `json:"pred_jct_s"` // the predictor's JCT estimate; 0 (and not logged) when none
}

// JobBegin emits a job-admission event.
func (l *DecisionLog) JobBegin(e *JobBegin) {
	if l == nil {
		return
	}
	b := l.begin("job_begin")
	b = AppendFloat(b, "sim_time_s", e.SimTimeS)
	b = AppendInt(b, "id", e.ID)
	b = AppendStr(b, "archetype", e.Archetype)
	b = AppendStr(b, "job", e.Job)
	b = AppendInts(b, "placement", e.Placement)
	if e.PredJCTS > 0 {
		b = AppendFloat(b, "pred_jct_s", e.PredJCTS)
	}
	l.emit(b)
}

// JobEnd records a batch job's completion with its observed outcome.
type JobEnd struct {
	SimTimeS  float64 `json:"sim_time_s"`
	ID        int     `json:"id"`
	Archetype string  `json:"archetype"`
	JCTS      float64 `json:"jct_s"`    // job completion time
	Slowdown  float64 `json:"slowdown"` // JCT over the solo run time; 0 (and not logged) when unknown
	// Checked marks a job with a JCT SLA, judged by SLAOK; only a
	// checked job logs sla_ok, and a reader sets Checked when the line
	// carries it.
	Checked bool `json:"-"`
	SLAOK   bool `json:"sla_ok"`
}

// JobEnd emits a job-completion event.
func (l *DecisionLog) JobEnd(e *JobEnd) {
	if l == nil {
		return
	}
	b := l.begin("job_end")
	b = AppendFloat(b, "sim_time_s", e.SimTimeS)
	b = AppendInt(b, "id", e.ID)
	b = AppendStr(b, "archetype", e.Archetype)
	b = AppendFloat(b, "jct_s", e.JCTS)
	if e.Slowdown > 0 {
		b = AppendFloat(b, "slowdown", e.Slowdown)
	}
	if e.Checked {
		b = AppendBool(b, "sla_ok", e.SLAOK)
	}
	l.emit(b)
}

// UnmarshalJSON decodes a job_end line through the struct's tags and
// sets Checked when the line carries sla_ok.
func (e *JobEnd) UnmarshalJSON(b []byte) error {
	type fields JobEnd
	v := struct {
		*fields
		SLAOK *bool `json:"sla_ok"`
	}{fields: (*fields)(e)}
	err := json.Unmarshal(b, &v)
	e.Checked = v.SLAOK != nil
	e.SLAOK = e.Checked && *v.SLAOK
	return err
}

// PredSample records one prediction-quality sample: a predicted and an
// observed QoS value for an archetype. `gsight inspect predq` replays
// these through the tracker the simulator runs.
type PredSample struct {
	SimTimeS  float64 `json:"sim_time_s"`
	Archetype string  `json:"archetype"`
	QoS       string  `json:"qos"` // "ipc" or "jct"
	Pred      float64 `json:"pred"`
	Obs       float64 `json:"obs"`
}

// PredSample emits a prediction-quality sample event.
func (l *DecisionLog) PredSample(e *PredSample) {
	if l == nil {
		return
	}
	b := l.begin("pred_sample")
	b = AppendFloat(b, "sim_time_s", e.SimTimeS)
	b = AppendStr(b, "archetype", e.Archetype)
	b = AppendStr(b, "qos", e.QoS)
	b = AppendFloat(b, "pred", e.Pred)
	b = AppendFloat(b, "obs", e.Obs)
	l.emit(b)
}

// StepSample records the cluster state at the end of one simulator
// step: the per-step series behind Figure 11 and the per-server load
// `gsight inspect heat` renders.
type StepSample struct {
	SimTimeS      float64 `json:"sim_time_s"`
	Step          int     `json:"step"`
	ActiveServers int     `json:"active_servers"`
	// Pending is the batch-job submissions still ahead in the arrival
	// timeline; fault changes are not counted.
	Pending     int     `json:"pending"`
	Density     float64 `json:"density"`
	GoodDensity float64 `json:"good_density"`
	CPUUtil     float64 `json:"cpu_util"`
	MemUtil     float64 `json:"mem_util"`
	// Degraded marks a step in degraded placement mode, PredictorDown
	// one inside a predictor outage; each is logged only when true.
	Degraded      bool `json:"degraded"`
	PredictorDown bool `json:"predictor_down"`
	// Down and Slow list the crashed and the straggling servers; each
	// is logged only when non-empty.
	Down []int `json:"down"`
	Slow []int `json:"slow"`
	// CPUDemand and MemUsed hold one value per server.
	CPUDemand []float32 `json:"cpu_demand"`
	MemUsed   []float32 `json:"mem_used"`
}

// Step emits a step event.
func (l *DecisionLog) Step(e *StepSample) {
	if l == nil {
		return
	}
	b := l.begin("step")
	b = AppendFloat(b, "sim_time_s", e.SimTimeS)
	b = AppendInt(b, "step", e.Step)
	b = AppendInt(b, "active_servers", e.ActiveServers)
	b = AppendInt(b, "pending", e.Pending)
	b = AppendFloat(b, "density", e.Density)
	b = AppendFloat(b, "good_density", e.GoodDensity)
	b = AppendFloat(b, "cpu_util", e.CPUUtil)
	b = AppendFloat(b, "mem_util", e.MemUtil)
	if e.Degraded {
		b = AppendBool(b, "degraded", true)
	}
	if e.PredictorDown {
		b = AppendBool(b, "predictor_down", true)
	}
	if len(e.Down) > 0 {
		b = AppendInts(b, "down", e.Down)
	}
	if len(e.Slow) > 0 {
		b = AppendInts(b, "slow", e.Slow)
	}
	b = appendFloat32s(b, "cpu_demand", e.CPUDemand)
	b = appendFloat32s(b, "mem_used", e.MemUsed)
	l.emit(b)
}
