// Package gsight is a from-scratch Go reproduction of "Understanding,
// Predicting and Scheduling Serverless Workloads under Partial
// Interference" (Zhao et al., SC '21): the Gsight QoS predictor —
// spatial-temporal interference coding over solo-run function profiles,
// learned by an incremental random forest — together with the
// binary-search scheduler built on it, the ESP/Pythia comparison
// predictors (the same Predictor on their own features and models),
// and a simulated 8-node serverless testbed (performance model,
// OpenFaaS-style platform, Azure-like traces) that regenerates every
// table and figure of the paper's evaluation.
//
// This root package re-exports the library's public surface; the
// implementation lives under internal/ (see DESIGN.md for the module
// map). Components are configured one way: a config struct where the
// constructor takes one, and the returned value's exported fields and
// methods otherwise. A typical flow:
//
//	m := gsight.NewTestbedModel()                 // simulated cluster
//	gen := gsight.NewGenerator(m, 42)             // profiling + scenarios
//	pred := gsight.NewPredictor(gsight.PredictorConfig{Seed: 42})
//	... train on labeled colocations, then:
//	scheduler := gsight.NewScheduler(pred)        // §4's binary search
//	st := gsight.NewSchedulerState(m)             // the cluster it places on
//	pl, err := st.ProposeOrDegrade(scheduler, gsight.NewWorstFit(), false, req) // WorstFit serves what pred cannot vet
//
// See examples/ for runnable programs and `gsight experiments`
// (cmd/gsight) for the paper-reproduction harness.
package gsight

import (
	"context"

	"gsight/internal/core"
	"gsight/internal/faults"
	"gsight/internal/perfmodel"
	"gsight/internal/platform"
	"gsight/internal/resources"
	"gsight/internal/scenario"
	"gsight/internal/sched"
	"gsight/internal/trace"
	"gsight/internal/workload"
)

// Core predictor types (§3).
type (
	// Predictor is the Gsight performance predictor.
	Predictor = core.Predictor
	// PredictorConfig parameterizes NewPredictor.
	PredictorConfig = core.Config
	// QoSPredictor is the interface Gsight shares with the baselines;
	// Predictor implements it for all of them.
	QoSPredictor = core.QoSPredictor
	// Observation is one labeled colocation.
	Observation = core.Observation
	// WorkloadInput is the predictor-visible description of a deployed
	// workload.
	WorkloadInput = core.WorkloadInput
)

// QoS kinds.
const (
	IPCQoS = core.IPCQoS
	JCTQoS = core.JCTQoS
)

// LSSC is the LS + SC/BG colocation kind.
const LSSC = core.LSSC

// NewPredictor returns an untrained Gsight predictor (IRFR by default).
// Instrument attaches a telemetry sink.
func NewPredictor(cfg PredictorConfig) *Predictor { return core.NewPredictor(cfg) }

// NewPythia builds the Pythia baseline predictor (workload-level linear
// regression; Table 2 comparisons).
var NewPythia = core.NewPythia

// Workload modeling.
type (
	// Workload is a call-path DAG of serverless functions.
	Workload = workload.Workload
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
// the scaled target the scheduler state's window ladder (DESIGN.md §14)
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
)

// NewGenerator builds a scenario generator over the benchmark catalog,
// profiling every workload once (the solo-run phase).
func NewGenerator(m *Model, seed uint64) *Generator { return scenario.NewGenerator(m, seed) }

// Scheduling (§4; placement at scale in DESIGN.md §14).
type (
	// Scheduler decides placements.
	Scheduler = sched.Scheduler
	// SLA is a workload's admission contract.
	SLA = sched.SLA
	// SchedulerState is the cluster state Scheduler.Place reads
	// (capacities, usage, the running set, the online mask) and
	// placements commit into, one request at a time: Propose runs the
	// window ladder, ProposeOrDegrade adds the degradation rule
	// around it, Commit applies the placement either returns. Build it
	// with NewSchedulerState, or call Recount after constructing it or
	// editing its fields directly.
	SchedulerState = sched.State
	// PlacementRequest asks for a workload placement.
	PlacementRequest = sched.Request
)

// NewScheduler returns the Gsight binary-search scheduler around a
// trained predictor. Its fields and methods configure it: Tier0 (the
// predictor's Tier0()) and TopK > 0 together prune the candidate
// servers to the top K by tier-0 interference score before full
// prediction vets the finalists (two-tier placement, DESIGN.md §15);
// Instrument attaches a telemetry sink, after TopK is set. A placement
// its predictor cannot vet fails with the predictor's error;
// SchedulerState.ProposeOrDegrade serves it through a WorstFit
// fallback instead (outcome "degraded", DESIGN.md §11).
func NewScheduler(p QoSPredictor) *sched.Gsight { return sched.NewGsight(p) }

// NewSchedulerState returns an empty scheduler cluster state sized to
// the model's testbed.
func NewSchedulerState(m *Model) *SchedulerState {
	return sched.StateFromProfiles(m.Testbed.Servers[0], m.Testbed.NumServers())
}

// NewBestFit returns Pythia's Best Fit policy.
func NewBestFit(p QoSPredictor) *sched.BestFit { return sched.NewBestFit(p) }

// NewWorstFit returns the spreading strawman.
func NewWorstFit() *sched.WorstFit { return sched.NewWorstFit() }

// BuildCurve calibrates a workload's latency-IPC curve on the model
// testbed (the §6.3 SLA transformation source).
var BuildCurve = sched.BuildCurve

// Platform: the trace-driven serverless platform simulation (§6.3).
type (
	// PlatformConfig parameterizes RunPlatform.
	PlatformConfig = platform.Config
	// PlatformStats aggregates a platform run's outcomes.
	PlatformStats = platform.Stats
	// PlatformService is one resident latency-sensitive service.
	PlatformService = platform.LSService
)

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
)

// FaultScenario builds a named seeded scenario ("node-crash",
// "rolling-crashes", "stragglers", "cold-start-storm",
// "predictor-outage", "chaos") sized to a run's duration and cluster.
var FaultScenario = faults.Scenario

// LoadFaultSchedule reads a JSON fault schedule from a file.
var LoadFaultSchedule = faults.LoadFile
