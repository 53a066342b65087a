// Package gsight is a from-scratch Go reproduction of "Understanding,
// Predicting and Scheduling Serverless Workloads under Partial
// Interference" (Zhao et al., SC '21): the Gsight QoS predictor —
// spatial-temporal interference coding over solo-run function profiles,
// learned by an incremental random forest — together with the
// binary-search scheduler built on it, the ESP/Pythia comparison
// predictors, and a simulated 8-node serverless testbed (performance
// model, OpenFaaS-style platform, Azure-like traces) that regenerates
// every table and figure of the paper's evaluation.
//
// This root package re-exports the library's public surface; the
// implementation lives under internal/ (see DESIGN.md for the module
// map). A typical flow:
//
//	m := gsight.NewTestbedModel()                 // simulated cluster
//	gen := gsight.NewGenerator(m, 42)             // profiling + scenarios
//	pred := gsight.NewPredictor(gsight.PredictorConfig{Seed: 42})
//	... train on labeled colocations, then:
//	scheduler := gsight.NewScheduler(pred)        // §4's binary search
//
// See examples/ for runnable programs and cmd/gsight-experiments for
// the paper-reproduction harness.
package gsight

import (
	"context"

	"gsight/internal/baselines"
	"gsight/internal/core"
	"gsight/internal/experiments"
	"gsight/internal/faults"
	"gsight/internal/obs"
	"gsight/internal/perfmodel"
	"gsight/internal/platform"
	"gsight/internal/resources"
	"gsight/internal/scenario"
	"gsight/internal/sched"
	"gsight/internal/telemetry"
	"gsight/internal/trace"
	"gsight/internal/workload"
)

// Option configures a constructor. Options compose left to right; an
// option that does not apply to the component being built is ignored,
// so a shared option list can configure a predictor and a scheduler
// alike.
type Option func(*options)

type options struct {
	seed     *uint64
	sink     *telemetry.Sink
	fallback sched.Scheduler
	placers  int
	topk     int
}

func buildOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithSeed overrides the component's RNG seed (predictors).
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = &seed }
}

// WithTelemetry instruments the component with the sink (predictors and
// schedulers). TelemetryNop (nil) keeps it uninstrumented.
func WithTelemetry(s *TelemetrySink) Option {
	return func(o *options) { o.sink = s }
}

// WithFallback sets the scheduler's degraded-mode policy: placements
// the predictor cannot vet (untrained, erroring) are served by s
// instead of being rejected (schedulers).
func WithFallback(s Scheduler) Option {
	return func(o *options) { o.fallback = s }
}

// WithPlacers sets the number of concurrent placer workers proposing a
// batch (NewPlacerPool). <= 1 means serial; results are byte-identical
// at any worker count.
func WithPlacers(k int) Option {
	return func(o *options) { o.placers = k }
}

// WithTopK enables two-tier placement (NewScheduler): the predictor's
// tier-0 interference scorer prunes the candidate servers to the top K
// before full IRFR prediction vets the finalists. <= 0 means K=∞ —
// pruning disabled, exact legacy placements.
func WithTopK(k int) Option {
	return func(o *options) { o.topk = k }
}

// Core predictor types (§3).
type (
	// Predictor is the Gsight performance predictor.
	Predictor = core.Predictor
	// PredictorConfig parameterizes NewPredictor.
	PredictorConfig = core.Config
	// QoSPredictor is the interface Gsight shares with the baselines.
	QoSPredictor = core.QoSPredictor
	// QoSKind selects the predicted metric (IPC, tail latency, JCT).
	QoSKind = core.QoSKind
	// Observation is one labeled colocation.
	Observation = core.Observation
	// WorkloadInput is the predictor-visible description of a deployed
	// workload.
	WorkloadInput = core.WorkloadInput
	// Coder is the paper's spatial-temporal interference code layout.
	Coder = core.Coder
	// ColocationKind classifies colocations (LS+LS, LS+SC/BG, ...).
	ColocationKind = core.ColocationKind
)

// QoS kinds.
const (
	IPCQoS         = core.IPCQoS
	TailLatencyQoS = core.TailLatencyQoS
	JCTQoS         = core.JCTQoS
)

// Colocation kinds.
const (
	LSLS = core.LSLS
	LSSC = core.LSSC
	SCSC = core.SCSC
	BGBG = core.BGBG
)

// NewPredictor returns an untrained Gsight predictor (IRFR by default).
// Options refine the struct config: WithSeed overrides cfg.Seed,
// WithTelemetry instruments the predictor.
func NewPredictor(cfg PredictorConfig, opts ...Option) *Predictor {
	o := buildOptions(opts)
	if o.seed != nil {
		cfg.Seed = *o.seed
	}
	p := core.NewPredictor(cfg)
	if o.sink != nil {
		p.Instrument(o.sink)
	}
	return p
}

// DefaultCoder returns the paper's 8-server, 10-workload code layout.
func DefaultCoder() Coder { return core.DefaultCoder() }

// Baseline predictors (Table 2 comparisons).
var (
	// NewESP builds the ESP baseline (4 microarchitecture metrics).
	NewESP = baselines.NewESP
	// NewPythia builds the Pythia baseline (workload-level linear
	// regression).
	NewPythia = baselines.NewPythia
)

// Workload modeling.
type (
	// Workload is a call-path DAG of serverless functions.
	Workload = workload.Workload
	// Function is one serverless function archetype.
	Function = workload.Function
	// WorkloadClass is BG, SC or LS.
	WorkloadClass = workload.Class
)

// Workload classes.
const (
	BG = workload.BG
	SC = workload.SC
	LS = workload.LS
)

// Catalog returns the benchmark catalog (social network, e-commerce,
// FunctionBench micro set, SparkBench jobs, ...).
func Catalog() map[string]*Workload { return workload.Catalog() }

// Simulated testbed.
type (
	// Model is the ground-truth performance model of the cluster.
	Model = perfmodel.Model
	// Deployment places a workload's functions onto servers.
	Deployment = perfmodel.Deployment
	// Scenario is a set of colocated deployments.
	Scenario = perfmodel.Scenario
	// Testbed describes the cluster hardware.
	Testbed = resources.Testbed
)

// NewTestbedModel returns the Table 4 cluster: 8 nodes of 40-core Xeon
// E7-4820v4 class hardware.
func NewTestbedModel() *Model {
	return perfmodel.New(resources.DefaultTestbed())
}

// NewScaledTestbedModel returns a cluster of n testbed-class nodes —
// the scaled target the shared scheduling state (DESIGN.md §14)
// places against. NewTestbedModel is the paper's 8-node instance.
func NewScaledTestbedModel(n int) *Model {
	return perfmodel.New(resources.NewTestbed(n))
}

// NewDeployment places every function of w on server 0 (maximal
// overlap); SpreadDeployment spreads round-robin.
func NewDeployment(w *Workload) *Deployment { return perfmodel.NewDeployment(w) }

// SpreadDeployment places w's functions round-robin across the testbed.
func SpreadDeployment(w *Workload, tb *Testbed) *Deployment {
	return perfmodel.SpreadDeployment(w, tb)
}

// Scenario generation and labeling.
type (
	// Generator draws randomized labeled colocations.
	Generator = scenario.Generator
	// Sample is one labeled observation from a generator.
	Sample = scenario.Sample
)

// NewGenerator builds a scenario generator over the benchmark catalog,
// profiling every workload once (the solo-run phase).
func NewGenerator(m *Model, seed uint64) *Generator { return scenario.NewGenerator(m, seed) }

// Scheduling (§4; shared-state placement at scale in DESIGN.md §14).
type (
	// Scheduler decides placements.
	Scheduler = sched.Scheduler
	// SLA is a workload's admission contract.
	SLA = sched.SLA
	// SchedulerState is the shared cluster state placements commit
	// into: a ClusterState plus one stamp per server, so a transaction
	// can tell whether the servers it read were touched since.
	SchedulerState = sched.ShardedState
	// ClusterState is what Scheduler.Place reads (capacities, usage,
	// the running set, the online mask); SchedulerState.Base returns it.
	ClusterState = sched.State
	// SchedulerTxn is one snapshot-isolated placement transaction
	// (Begin/Propose/Commit with commit-time conflict detection).
	SchedulerTxn = sched.Txn
	// PlacerPool places request batches with K concurrent workers;
	// the result is serial placement in request order.
	PlacerPool = sched.PlacerPool
	// PlaceResult is one request's outcome from a PlacerPool.
	PlaceResult = sched.PlaceResult
	// PlacementRequest asks for a workload placement.
	PlacementRequest = sched.Request
	// Curve is a latency-IPC correlation curve (Figure 7).
	Curve = sched.Curve
)

// ErrTxnConflict is returned by SchedulerTxn.Commit when another commit
// touched the proposal's window first; re-propose and retry.
var ErrTxnConflict = sched.ErrTxnConflict

// NewScheduler returns the Gsight binary-search scheduler around a
// trained predictor. Options: WithTelemetry instruments it,
// WithFallback serves predictor-errored placements through a backup
// policy (outcome "degraded") instead of rejecting them.
func NewScheduler(p QoSPredictor, opts ...Option) *sched.Gsight {
	o := buildOptions(opts)
	g := sched.NewGsight(p)
	if o.fallback != nil {
		g.Fallback = o.fallback
	}
	if o.topk > 0 {
		if cp, ok := p.(*core.Predictor); ok {
			g.Tier0 = cp.Tier0()
			g.TopK = o.topk
		}
	}
	if o.sink != nil {
		g.Instrument(o.sink)
	}
	return g
}

// NewSchedulerState returns an empty scheduler cluster state sized to
// the model's testbed.
func NewSchedulerState(m *Model) *SchedulerState {
	return sched.ShardedStateFromProfiles(m.Testbed.Servers[0], m.Testbed.NumServers(), 0)
}

// NewPlacerPool builds a placer pool over the state. WithPlacers sets
// the worker count (default 1 — serial). factory must return a fresh
// Scheduler per call; workers never share one.
func NewPlacerPool(s *SchedulerState, factory func() Scheduler, opts ...Option) *PlacerPool {
	o := buildOptions(opts)
	return sched.NewPlacerPool(s, o.placers, factory)
}

// NewBestFit returns Pythia's Best Fit policy.
func NewBestFit(p QoSPredictor) *sched.BestFit { return sched.NewBestFit(p) }

// NewWorstFit returns the spreading strawman.
func NewWorstFit() *sched.WorstFit { return sched.NewWorstFit() }

// BuildCurve calibrates a workload's latency-IPC curve on the model
// testbed (the §6.3 SLA transformation source).
var BuildCurve = sched.BuildCurve

// Observability (see DESIGN.md §10).
type (
	// TelemetrySink bundles a metrics registry with an optional JSONL
	// decision log; pass it to Instrument methods and platform configs.
	TelemetrySink = telemetry.Sink
	// TelemetryRunReport is the exportable JSON summary of a run.
	TelemetryRunReport = telemetry.RunReport
)

// NewTelemetry returns a live sink with a fresh metrics registry.
var NewTelemetry = telemetry.New

// TelemetryNop is the disabled sink: instrumenting with it is exactly
// equivalent to not instrumenting at all (bit-identical, alloc-neutral).
var TelemetryNop = telemetry.Nop

// ServeDebug starts the background debug HTTP server (/metrics in
// Prometheus text format, /debug/vars, /debug/pprof).
var ServeDebug = telemetry.ServeDebug

// Run recording (DESIGN.md §13): invocation-lifecycle tracing, the
// step-sampled flight recorder, and online prediction-quality tracking.
type (
	// Recorder bundles a run's observability streams; pass it to
	// PlatformConfig.Obs. A nil *Recorder disables recording with zero
	// overhead.
	Recorder = obs.Recorder
	// RecorderConfig selects which streams a Recorder writes.
	RecorderConfig = obs.Config
	// TraceTracer streams lifecycle events as Chrome trace-event JSON
	// (loadable in Perfetto).
	TraceTracer = obs.Tracer
	// FlightRecording is a decoded flight-recorder stream.
	FlightRecording = obs.FlightData
	// FlightFrame is one step sample of cluster state.
	FlightFrame = obs.Frame
	// PredictionQuality is the online rolling-error and drift tracker.
	PredictionQuality = obs.PredQ
	// PredictionDrift describes one Page–Hinkley drift detection.
	PredictionDrift = obs.DriftInfo
)

// NewRecorder builds a run recorder writing the configured streams.
var NewRecorder = obs.New

// ReadFlightRecording decodes a flight-recorder stream (flight.bin
// from gsight-sim -record), dropping a torn final frame.
var ReadFlightRecording = obs.ReadFlight

// Experiments: the paper-reproduction harness.
type (
	// ExperimentReport is one regenerated table or figure.
	ExperimentReport = experiments.Report
	// ExperimentOptions scales experiment effort.
	ExperimentOptions = experiments.Options
)

// RunExperiment regenerates the table/figure with the given id
// ("table1", "fig3a", ..., "fig14", "ext-resilience"). A nil ctx means
// context.Background(); cancellation stops the experiment between
// units of work.
func RunExperiment(ctx context.Context, id string, opt ExperimentOptions) (*ExperimentReport, error) {
	return experiments.Run(ctx, id, opt)
}

// ExperimentIDs lists every reproducible table and figure.
func ExperimentIDs() []string { return experiments.IDs() }

// DefaultExperimentOptions returns full-scale, seed-42 options.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// Platform: the trace-driven serverless platform simulation (§6.3).
type (
	// PlatformConfig parameterizes RunPlatform.
	PlatformConfig = platform.Config
	// PlatformStats aggregates a platform run's outcomes.
	PlatformStats = platform.Stats
	// PlatformService is one resident latency-sensitive service.
	PlatformService = platform.LSService
	// PlatformRetryPolicy bounds placement retries on transient errors.
	PlatformRetryPolicy = platform.RetryPolicy
	// DegradedInterval is a window of simulation time spent placing
	// through the fallback policy.
	DegradedInterval = platform.DegradedInterval
	// TracePattern shapes a service's request-rate trace.
	TracePattern = trace.Pattern
	// PlatformCheckpoint configures crash-consistent checkpointing of a
	// platform run (PlatformConfig.Checkpoint, DESIGN.md §12).
	PlatformCheckpoint = platform.CheckpointConfig
	// CheckpointMeta summarizes the newest valid checkpoint on disk.
	CheckpointMeta = platform.CheckpointMeta
)

// ErrControllerCrashed is returned by RunPlatform when an injected
// "controller-crash" fault kills the run. With checkpointing enabled,
// rerunning with PlatformCheckpoint.Resume continues from the newest
// snapshot and reproduces the uninterrupted run byte-for-byte.
var ErrControllerCrashed = platform.ErrControllerCrashed

// PeekPlatformCheckpoint inspects a checkpoint directory without
// restoring anything: callers use it to decide whether to resume. The
// resumed run cuts its own output streams back to the snapshot.
var PeekPlatformCheckpoint = platform.PeekCheckpoint

// DefaultTracePattern returns the Azure-like diurnal + bursts + noise
// pattern around a base request rate.
var DefaultTracePattern = trace.DefaultPattern

// RunPlatform executes a trace-driven platform simulation: resident
// autoscaled LS services, arriving batch jobs, a pluggable scheduler,
// SLA monitoring with reactive control — and, when cfg.Faults is set,
// deterministic fault injection with graceful degradation. A nil ctx
// means context.Background().
func RunPlatform(ctx context.Context, cfg PlatformConfig) (*PlatformStats, error) {
	return platform.Run(ctx, cfg)
}

// Fault injection (DESIGN.md §11).
type (
	// FaultSchedule is a deterministic timeline of fault events.
	FaultSchedule = faults.Schedule
	// FaultEvent is one scheduled fault.
	FaultEvent = faults.Event
	// FaultKind names a fault event type ("node-crash", "slow-node",
	// "cold-start-storm", "predictor-down", ...).
	FaultKind = faults.Kind
)

// FaultScenario builds a named seeded scenario ("node-crash",
// "rolling-crashes", "stragglers", "cold-start-storm",
// "predictor-outage", "chaos") sized to a run's duration and cluster.
var FaultScenario = faults.Scenario

// FaultScenarioNames lists the named fault scenarios.
var FaultScenarioNames = faults.Names

// LoadFaultSchedule reads a JSON fault schedule from a file.
var LoadFaultSchedule = faults.LoadFile
