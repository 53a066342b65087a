package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strconv"
)

// DecisionLog writes structured JSONL decision traces: one JSON object
// per line, monotonically increasing sequence numbers. It is an encoder
// over a Stream: encoding/json writes each event into the stream's
// reusable buffer under its lock (Stream.EndJSON), so steady-state
// logging allocates nothing and concurrent writers never interleave
// bytes.
//
// Each event struct is its line's whole schema, for writing and for
// reading: Head's event and seq are the first two keys, the struct's
// JSON tags name the rest in field order, and omitempty marks the
// fields a line carries only when set. encoding/json decodes a line
// into the struct NewEvent picks. An event holding a NaN or an
// infinite float, which JSON cannot express, writes no line: it becomes
// the stream's first error and takes no sequence number.
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
// first error (decision logging is best-effort and never fails the
// instrumented operation). Nil for a nil log, which Stream's methods
// accept.
func (l *DecisionLog) Stream() *Stream {
	if l == nil {
		return nil
	}
	return l.s
}

// Head opens every line of the log: the event's kind and its sequence
// number, the line's first two keys. The log numbers the event as it
// writes it.
type Head struct {
	Event string `json:"event"`
	Seq   uint64 `json:"seq"`
}

// write logs e, whose head is h, as one line of the given kind.
func (l *DecisionLog) write(kind string, h *Head, e any) {
	if l == nil {
		return
	}
	b, seq := l.s.Begin()
	*h = Head{Event: kind, Seq: seq}
	l.s.EndJSON(b, e, "\n")
}

// PlacementDecision records one placement request: what was asked,
// how hard the scheduler searched, and what it decided. It is the one
// placement record: a scheduler fills its part through
// sched.Request.Detail, and the simulator completes it once per request
// and hands it to the decision log.
type PlacementDecision struct {
	Head
	SimTimeS  float64 `json:"sim_time_s"` // simulation time of the request (0 off the simulator)
	Scheduler string  `json:"scheduler"`
	Workload  string  `json:"workload"`
	Class     string  `json:"class"`
	Functions int     `json:"functions"` // functions to place
	Servers   int     `json:"servers"`   // cluster size
	// ActiveServers is the cluster's active-server count before the
	// decision — the density denominator the scheduler optimizes.
	ActiveServers int `json:"active_servers"`
	// SpreadLevels counts the binary-search iterations (candidate
	// spread levels tried); non-search schedulers report 1 per Place
	// call. The simulator and the daemon sum every call the request
	// made: discarded window-ladder attempts and a primary attempt the
	// fallback replaced (sched.ProposeOrDegrade).
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
	// or the degradation rule's (sched.ProposeOrDegrade)
	// "predictor-error", "predictor-unavailable" or "scheduler-error".
	Reason string `json:"reason,omitempty"`
	// Placement is the chosen server per function (nil when rejected).
	Placement []int `json:"placement,omitempty"`
	// PredIPC/PredJCTS are the predictor's estimates for the accepted
	// candidate's own workload; 0 when no prediction vetted it.
	PredIPC  float64 `json:"pred_ipc,omitempty"`
	PredJCTS float64 `json:"pred_jct_s,omitempty"`
	// Tier0Kept/Tier0Pruned are the finalist and discarded candidate
	// counts of a decision whose candidate set the tier-0 scorer pruned,
	// and 0 for any other, so Tier0Kept > 0 marks a pruned decision and
	// logs from runs without pruning carry no tier-0 field. All values
	// derive from deterministic scheduler state (never wall clock).
	Tier0Kept   int `json:"tier0_kept,omitempty"`
	Tier0Pruned int `json:"tier0_pruned,omitempty"`
	// Tier0Score is the tier-0 score of the accepted placement's
	// primary server (0 when the request was not placed).
	Tier0Score float64 `json:"tier0_score,omitempty"`
}

// Placement emits a placement decision event.
func (l *DecisionLog) Placement(e *PlacementDecision) { l.write("placement", &e.Head, e) }

// ExperimentRun records one experiment's outcome in a harness run.
// Events are emitted sequentially in id order after the (possibly
// parallel) runs finish, so the log stays deterministic; durations are
// deliberately absent (wall clock belongs to histograms).
type ExperimentRun struct {
	Head
	ID     string `json:"id"`
	Status string `json:"status"` // "ok", "failed" or "cancelled"
}

// Experiment emits an experiment-outcome event.
func (l *DecisionLog) Experiment(e *ExperimentRun) { l.write("experiment", &e.Head, e) }

// PredictorUpdate records one predictor training step: the offline
// bootstrap or an incremental window flush.
type PredictorUpdate struct {
	Head
	Predictor string `json:"predictor"`
	Kind      string `json:"kind"`  // QoS kind ("ipc", "p99", "jct")
	Phase     string `json:"phase"` // "train" (bootstrap fit) or "update" (incremental)
	Batch     int    `json:"batch"` // samples folded in by this step
	// SamplesSeen is the cumulative count after the step — the
	// incremental-update window position.
	SamplesSeen int `json:"samples_seen"`
}

// PredictorUpdate emits a predictor training event.
func (l *DecisionLog) PredictorUpdate(e *PredictorUpdate) { l.write("predictor_update", &e.Head, e) }

// ReactiveAction records one runtime SLA-control action of the
// platform: a corunner eviction or a reactive spread of a violating
// service.
type ReactiveAction struct {
	Head
	SimTimeS float64 `json:"sim_time_s"`
	Action   string  `json:"action"` // "evict-corunner" or "spread-service"
	Service  string  `json:"service"`
	Moved    int     `json:"moved"` // functions/jobs moved
}

// Reactive emits a reactive-control event.
func (l *DecisionLog) Reactive(e *ReactiveAction) { l.write("reactive", &e.Head, e) }

// FaultEvent records one injected fault transition and what the
// platform displaced in response. Times are simulation time only —
// never wall clock — so same-seed faulty runs stay byte-identical.
type FaultEvent struct {
	Head
	SimTimeS float64 `json:"sim_time_s"`
	Kind     string  `json:"kind"` // "node-down", "node-up", "slow-set", "storm-start", ...
	Node     int     `json:"node"` // -1 for cluster-wide faults
	Factor   float64 `json:"factor,omitempty"`
	// DisplacedServices/DisplacedJobs count the workloads the platform
	// re-placed off a crashed node while handling this transition.
	DisplacedServices int `json:"displaced_services"`
	DisplacedJobs     int `json:"displaced_jobs"`
}

// Fault emits a fault-injection event.
func (l *DecisionLog) Fault(e *FaultEvent) { l.write("fault", &e.Head, e) }

// DegradedTransition records the platform entering or leaving degraded
// placement mode (predictor unavailable or untrained; placements go to
// the fallback policy).
type DegradedTransition struct {
	Head
	SimTimeS float64 `json:"sim_time_s"`
	Entered  bool    `json:"entered"`  // true on entry, false on exit
	Reason   string  `json:"reason"`   // "predictor-unavailable" or "predictor-untrained"
	Fallback string  `json:"fallback"` // the policy serving placements while degraded
}

// Degraded emits a degraded-mode transition event.
func (l *DecisionLog) Degraded(e *DegradedTransition) { l.write("degraded", &e.Head, e) }

// DriftEvent records a prediction-quality drift detection: the online
// residual tracker's Page–Hinkley statistic crossed its threshold for
// one archetype (or the overall stream), meaning the predictor's
// recent errors shifted from their running mean. The platform emits it
// so operators — or a future retraining policy — can react.
type DriftEvent struct {
	Head
	SimTimeS  float64 `json:"sim_time_s"`
	QoS       string  `json:"qos"`       // QoS kind the residuals are for ("ipc", "jct")
	Archetype string  `json:"archetype"` // workload archetype, or "overall"
	Window    int     `json:"window"`    // rolling-window sample count behind the stats
	MeanErr   float64 `json:"mean_err"`  // rolling mean signed relative error
	MAPE      float64 `json:"mape"`      // rolling mean absolute percentage error
	PH        float64 `json:"ph"`        // Page–Hinkley statistic at detection
}

// Drift emits a predictor-drift event.
func (l *DecisionLog) Drift(e *DriftEvent) { l.write("predictor_drift", &e.Head, e) }

// JobBegin records a batch job's admission in the simulator: it was
// placed and its functions are starting.
type JobBegin struct {
	Head
	SimTimeS  float64 `json:"sim_time_s"`
	ID        int     `json:"id"`                   // the simulator's job id, which its JobEnd repeats
	Archetype string  `json:"archetype"`            // the workload the job runs
	Job       string  `json:"job"`                  // the job's unique run name
	Placement []int   `json:"placement"`            // the chosen server per function
	PredJCTS  float64 `json:"pred_jct_s,omitempty"` // the predictor's JCT estimate; 0 when none
}

// JobBegin emits a job-admission event.
func (l *DecisionLog) JobBegin(e *JobBegin) { l.write("job_begin", &e.Head, e) }

// JobEnd records a batch job's completion with its observed outcome.
type JobEnd struct {
	Head
	SimTimeS  float64 `json:"sim_time_s"`
	ID        int     `json:"id"`
	Archetype string  `json:"archetype"`
	JCTS      float64 `json:"jct_s"`              // job completion time
	Slowdown  float64 `json:"slowdown,omitempty"` // JCT over the solo run time; 0 when unknown
	// SLAOK is the verdict of a job with a JCT SLA, and nil for a job
	// without one, so only a checked job's line carries sla_ok.
	SLAOK *bool `json:"sla_ok,omitempty"`
}

// JobEnd emits a job-completion event.
func (l *DecisionLog) JobEnd(e *JobEnd) { l.write("job_end", &e.Head, e) }

// PredSample records one prediction-quality sample: a predicted and an
// observed QoS value for an archetype. `gsight inspect predq` replays
// these through the tracker the simulator runs.
type PredSample struct {
	Head
	SimTimeS  float64 `json:"sim_time_s"`
	Archetype string  `json:"archetype"`
	QoS       string  `json:"qos"` // "ipc" or "jct"
	Pred      float64 `json:"pred"`
	Obs       float64 `json:"obs"`
}

// PredSample emits a prediction-quality sample event.
func (l *DecisionLog) PredSample(e *PredSample) { l.write("pred_sample", &e.Head, e) }

// StepSample records the cluster state at the end of one simulator
// step: the per-step series behind Figure 11 and the per-server load
// `gsight inspect heat` renders.
type StepSample struct {
	Head
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
	// one inside a predictor outage.
	Degraded      bool `json:"degraded,omitempty"`
	PredictorDown bool `json:"predictor_down,omitempty"`
	// Down and Slow list the crashed and the straggling servers.
	Down []int `json:"down,omitempty"`
	Slow []int `json:"slow,omitempty"`
	// CPUDemand and MemUsed hold one value per server.
	CPUDemand Column `json:"cpu_demand"`
	MemUsed   Column `json:"mem_used"`
}

// Step emits a step event.
func (l *DecisionLog) Step(e *StepSample) { l.write("step", &e.Head, e) }

// Column is a per-server column of a step line, at float32 precision:
// each value is written as the shortest decimal that reads back as the
// same float32. It encodes as a []float32 does; its decoder parses the
// array itself, which spares a long log's reader encoding/json's
// reflection on every value.
type Column []float32

// UnmarshalJSON decodes a JSON array of numbers, or null, to what
// encoding/json decodes into a []float32.
func (c *Column) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*c = nil
		return nil
	}
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return fmt.Errorf("telemetry: column %.32s is not an array", b)
	}
	vs := (*c)[:0]
	if vs == nil {
		vs = Column{} // `[]` decodes to an empty column, not to nil
	}
	for rest := bytes.TrimSpace(b[1 : len(b)-1]); len(rest) > 0; {
		num := rest
		if i := bytes.IndexByte(rest, ','); i >= 0 {
			num, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		v := 0.0
		switch num = bytes.TrimSpace(num); string(num) {
		case "0", "null": // an idle server's value, and what decodes as 0
		default:
			var err error
			if v, err = strconv.ParseFloat(string(num), 32); err != nil {
				return fmt.Errorf("telemetry: column value %.32s: %w", num, err)
			}
		}
		vs = append(vs, float32(v))
	}
	*c = vs
	return nil
}
