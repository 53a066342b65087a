package telemetry

import (
	"io"
	"strconv"
)

// DecisionLog writes structured JSONL decision traces: one JSON object
// per line, fields in a fixed order, monotonically increasing sequence
// numbers. It is an encoder over a Stream: events are built by hand into
// the stream's reusable buffer under its lock, so steady-state logging
// allocates nothing and concurrent writers never interleave bytes.
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
// event shapes so gsight-inspect can reject logs it cannot read.
const DecisionLogSchema = 1

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
	b = strconv.AppendQuote(b, kind)
	b = append(b, `,"seq":`...)
	return strconv.AppendUint(b, seq, 10)
}

// emit finishes the line begin started and writes it.
func (l *DecisionLog) emit(b []byte) { l.s.End(append(b, '}', '\n')) }

// AppendStr and its siblings append one JSON object field, comma first:
// ,"key":value. The decision log's events and the lifecycle trace's args
// are built from them.
func AppendStr(b []byte, key, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendQuote(b, v)
}

func AppendInt(b []byte, key string, v int) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, int64(v), 10)
}

func AppendFloat(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func AppendBool(b []byte, key string, v bool) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendBool(b, v)
}

func AppendInts(b []byte, key string, vs []int) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':', '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// PlacementDecision records one scheduling decision: what was asked,
// how hard the scheduler searched, and what it decided.
type PlacementDecision struct {
	Scheduler string
	Workload  string
	Class     string
	Functions int // functions to place
	Servers   int // cluster size
	// SpreadLevels counts the binary-search iterations (candidate
	// spread levels tried); non-search schedulers report 1.
	SpreadLevels int
	// SLAChecks counts the QoS predictions issued while vetting
	// candidates (batched checks count each query).
	SLAChecks int
	// Outcome is "placed", "fallback" (placed by the full-spread last
	// resort after SLA rejections), "degraded" (placed by the fallback
	// policy after a predictor error), "rejected" or "error".
	Outcome string
	// Reason qualifies non-"placed" outcomes: "sla-violated", "no-fit"
	// or "predictor-error".
	Reason string
	// Placement is the chosen server per function (nil when rejected).
	Placement []int
	// ActiveServers is the cluster's active-server count before the
	// decision — the density denominator the scheduler optimizes.
	ActiveServers int
	// Tier0 marks decisions where the tier-0 scorer pruned the
	// candidate set; the fields below are emitted only then, so logs
	// from runs without pruning stay byte-identical to the legacy
	// format. All values are derived from deterministic scheduler state
	// (never wall clock).
	Tier0 bool
	// Tier0Kept/Tier0Pruned are the finalist and discarded candidate
	// counts for this decision.
	Tier0Kept   int
	Tier0Pruned int
	// Tier0Score is the tier-0 score of the accepted placement's
	// primary server (0 when the request was not placed).
	Tier0Score float64
}

// Placement emits a placement decision event.
func (l *DecisionLog) Placement(e *PlacementDecision) {
	if l == nil {
		return
	}
	b := l.begin("placement")
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
	if e.Tier0 {
		b = AppendInt(b, "tier0_kept", e.Tier0Kept)
		b = AppendInt(b, "tier0_pruned", e.Tier0Pruned)
		b = AppendFloat(b, "tier0_score", e.Tier0Score)
	}
	l.emit(b)
}

// ExperimentRun records one experiment's outcome in a harness run.
// Events are emitted sequentially in id order after the (possibly
// parallel) runs finish, so the log stays deterministic; durations are
// deliberately absent (wall clock belongs to histograms).
type ExperimentRun struct {
	ID     string
	Status string // "ok", "failed" or "cancelled"
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
	Predictor string
	Kind      string // QoS kind ("ipc", "p99", "jct")
	Phase     string // "train" (bootstrap fit) or "update" (incremental)
	Batch     int    // samples folded in by this step
	// SamplesSeen is the cumulative count after the step — the
	// incremental-update window position.
	SamplesSeen int
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
	SimTimeS float64
	Action   string // "evict-corunner" or "spread-service"
	Service  string
	Moved    int // functions/jobs moved
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
	SimTimeS float64
	Kind     string // "node-down", "node-up", "slow-set", "storm-start", ...
	Node     int    // -1 for cluster-wide faults
	Factor   float64
	// DisplacedServices/DisplacedJobs count the workloads the platform
	// re-placed off a crashed node while handling this transition.
	DisplacedServices int
	DisplacedJobs     int
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
	SimTimeS float64
	Entered  bool   // true on entry, false on exit
	Reason   string // "predictor-unavailable" or "predictor-untrained"
	Fallback string // the policy serving placements while degraded
}

// DriftEvent records a prediction-quality drift detection: the online
// residual tracker's Page–Hinkley statistic crossed its threshold for
// one archetype (or the overall stream), meaning the predictor's
// recent errors shifted from their running mean. The platform emits it
// so operators — or a future retraining policy — can react.
type DriftEvent struct {
	SimTimeS  float64
	QoS       string  // QoS kind the residuals are for ("ipc", "jct")
	Archetype string  // workload archetype, or "overall"
	Window    int     // rolling-window sample count behind the stats
	MeanErr   float64 // rolling mean signed relative error
	MAPE      float64 // rolling mean absolute percentage error
	PH        float64 // Page–Hinkley statistic at detection
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
