package telemetry

import "io"

// Sink bundles a metrics registry with an optional decision log — the
// single handle components are instrumented with. The nil sink
// yields all-nil instruments, so uninstrumented use stays bit-identical
// and alloc-neutral; tests pin that contract.
type Sink struct {
	Registry  *Registry
	Decisions *DecisionLog
}

// New returns a live sink with a fresh registry and no decision log.
func New() *Sink { return &Sink{Registry: NewRegistry()} }

// WithDecisions attaches a JSONL decision log writing to w and returns
// the sink for chaining. The caller owns w (buffering, flushing,
// closing).
func (s *Sink) WithDecisions(w io.Writer) *Sink {
	s.Decisions = NewDecisionLog(w)
	return s
}

// reg returns the registry (nil for the nil sink).
func (s *Sink) reg() *Registry {
	if s == nil {
		return nil
	}
	return s.Registry
}

// dec returns the decision log (nil for the nil sink or when unattached).
func (s *Sink) dec() *DecisionLog {
	if s == nil {
		return nil
	}
	return s.Decisions
}

// sanitize lowercases a component name into a metric-name segment.
func sanitize(name string) string {
	out := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'A' && c <= 'Z':
			out[i] = c + ('a' - 'A')
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out[i] = c
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// SchedulerInstruments is the scheduler's pre-registered instrument
// set. The zero value (from the nil sink) disables everything.
type SchedulerInstruments struct {
	Placements       *Counter   // placement requests handled
	Failures         *Counter   // requests that returned an error
	SLARejections    *Counter   // candidate placements rejected by SLA checks
	Fallbacks        *Counter   // full-spread last-resort placements, not degraded ones
	SearchIterations *Histogram // binary-search spread levels tried per request
	SLAChecks        *Histogram // QoS predictions issued per request
	PlaceSeconds     *Histogram // wall-clock per Place call
}

// Scheduler registers (or re-resolves) the instrument set for the named
// scheduler. Metric names are prefixed sched_<name>_.
func (s *Sink) Scheduler(name string) SchedulerInstruments {
	r := s.reg()
	p := "sched_" + sanitize(name) + "_"
	return SchedulerInstruments{
		Placements:       r.Counter(p+"placements_total", "placement requests handled"),
		Failures:         r.Counter(p+"failures_total", "placement requests that returned an error"),
		SLARejections:    r.Counter(p+"sla_rejections_total", "candidate placements rejected by SLA checks"),
		Fallbacks:        r.Counter(p+"fallbacks_total", "placements accepted by the full-spread last resort"),
		SearchIterations: r.Histogram(p+"search_iterations", "binary-search spread levels tried per request", CountBuckets()),
		SLAChecks:        r.Histogram(p+"sla_checks", "QoS predictions issued per request", CountBuckets()),
		PlaceSeconds:     r.Histogram(p+"place_seconds", "wall-clock seconds per Place call", DurationBuckets()),
	}
}

// Tier0Instruments counts the two-tier scheduler's candidate pruning.
// It is registered separately from SchedulerInstruments — only when a
// scheduler actually has tier-0 pruning configured — so runs without
// pruning keep a byte-identical metrics snapshot in their reports.
type Tier0Instruments struct {
	Kept   *Counter // finalist candidates passed to full prediction
	Pruned *Counter // candidates discarded by the tier-0 score
}

// SchedulerTier0 registers (or re-resolves) the tier-0 pruning counters
// for the named scheduler.
func (s *Sink) SchedulerTier0(name string) Tier0Instruments {
	r := s.reg()
	p := "sched_" + sanitize(name) + "_"
	return Tier0Instruments{
		Kept:   r.Counter(p+"tier0_kept_total", "candidate servers kept by tier-0 pruning"),
		Pruned: r.Counter(p+"tier0_pruned_total", "candidate servers pruned by the tier-0 score"),
	}
}

// PredictorInstruments instruments the QoS predictor's hot paths.
type PredictorInstruments struct {
	Predicts      *Counter   // single-query predictions served
	Batches       *Counter   // batched prediction calls served
	BatchQueries  *Counter   // queries served through the batch path
	EncodeSeconds *Histogram // interference-code encoding time
	InferSeconds  *Histogram // model inference time
	BatchSize     *Histogram // queries per batch call
	Observations  *Counter   // online observations absorbed
	Updates       *Counter   // incremental model updates applied
	UpdateSeconds *Histogram // wall-clock per train/update step
	PendingWindow *Gauge     // observations buffered toward the next update
	SamplesSeen   *Gauge     // cumulative samples folded into the model
	Decisions     *DecisionLog
}

// Enabled reports whether the instrument set is live — the hot path's
// single check before reading the clock.
func (i *PredictorInstruments) Enabled() bool { return i.Predicts != nil }

// Predictor registers the predictor instrument set (predictor_*).
func (s *Sink) Predictor() PredictorInstruments {
	r := s.reg()
	return PredictorInstruments{
		Predicts:      r.Counter("predictor_predicts_total", "single-query predictions served"),
		Batches:       r.Counter("predictor_batches_total", "batched prediction calls served"),
		BatchQueries:  r.Counter("predictor_batch_queries_total", "queries served through the batch path"),
		EncodeSeconds: r.Histogram("predictor_encode_seconds", "interference-code encoding seconds", DurationBuckets()),
		InferSeconds:  r.Histogram("predictor_infer_seconds", "model inference seconds", DurationBuckets()),
		BatchSize:     r.Histogram("predictor_batch_size", "queries per batched prediction call", CountBuckets()),
		Observations:  r.Counter("predictor_observations_total", "online observations absorbed"),
		Updates:       r.Counter("predictor_updates_total", "incremental model updates applied"),
		UpdateSeconds: r.Histogram("predictor_update_seconds", "seconds per train/update step", DurationBuckets()),
		PendingWindow: r.Gauge("predictor_pending_window", "observations buffered toward the next update"),
		SamplesSeen:   r.Gauge("predictor_samples_seen", "cumulative samples folded into the model"),
		Decisions:     s.dec(),
	}
}

// ForestInstruments instruments the IRFR substrate (fit, incremental
// update, pruning, window occupancy).
type ForestInstruments struct {
	Fits          *Counter
	Updates       *Counter
	TreesGrown    *Counter
	TreesPruned   *Counter
	FitSeconds    *Histogram
	UpdateSeconds *Histogram
	WindowSize    *Gauge // samples retained in the incremental window
}

// Forest registers the ml-layer instrument set (ml_forest_*). All
// instrumented forests (one per QoS kind) share it; counters aggregate.
func (s *Sink) Forest() ForestInstruments {
	r := s.reg()
	return ForestInstruments{
		Fits:          r.Counter("ml_forest_fits_total", "full forest fits"),
		Updates:       r.Counter("ml_forest_updates_total", "incremental forest updates"),
		TreesGrown:    r.Counter("ml_forest_trees_grown_total", "trees grown"),
		TreesPruned:   r.Counter("ml_forest_trees_pruned_total", "trees pruned after updates"),
		FitSeconds:    r.Histogram("ml_forest_fit_seconds", "seconds per full fit", DurationBuckets()),
		UpdateSeconds: r.Histogram("ml_forest_update_seconds", "seconds per incremental update", DurationBuckets()),
		WindowSize:    r.Gauge("ml_forest_window_size", "samples retained in the incremental window"),
	}
}

// PlatformInstruments instruments the platform step loop.
type PlatformInstruments struct {
	Steps         *Counter
	StepSeconds   *Histogram
	SLAViolations *Counter // service-steps outside their SLA
	Migrations    *Counter
	Reschedules   *Counter
	ColdStarts    *Counter
	RejectedJobs  *Counter
	ActiveServers *Gauge
	Events        *Counter // fault changes and job arrivals fired
	// Resilience counters (fault injection and graceful degradation).
	FaultEvents        *Counter // injected fault transitions applied
	DisplacedServices  *Counter // services re-placed off crashed nodes
	DisplacedJobs      *Counter // batch jobs moved off crashed nodes
	DegradedPlacements *Counter // placements served by the fallback policy
	DegradedSteps      *Counter // steps spent in degraded mode
	Decisions          *DecisionLog
}

// Platform registers the platform instrument set (platform_*).
func (s *Sink) Platform() PlatformInstruments {
	r := s.reg()
	return PlatformInstruments{
		Steps:              r.Counter("platform_steps_total", "simulation steps executed"),
		StepSeconds:        r.Histogram("platform_step_seconds", "wall-clock seconds per simulation step", DurationBuckets()),
		SLAViolations:      r.Counter("platform_sla_violation_steps_total", "service-steps with measured p99 over SLA"),
		Migrations:         r.Counter("platform_migrations_total", "reactive migrations"),
		Reschedules:        r.Counter("platform_reschedules_total", "scale-out placement changes"),
		ColdStarts:         r.Counter("platform_cold_starts_total", "instances cold-started"),
		RejectedJobs:       r.Counter("platform_rejected_jobs_total", "batch jobs rejected"),
		ActiveServers:      r.Gauge("platform_active_servers", "servers with any load after the last step"),
		Events:             r.Counter("sim_events_executed_total", "fault changes and job arrivals fired"),
		FaultEvents:        r.Counter("platform_fault_events_total", "injected fault transitions applied"),
		DisplacedServices:  r.Counter("platform_displaced_services_total", "services re-placed off crashed nodes"),
		DisplacedJobs:      r.Counter("platform_displaced_jobs_total", "batch jobs moved off crashed nodes"),
		DegradedPlacements: r.Counter("platform_degraded_placements_total", "placements served by the fallback policy"),
		DegradedSteps:      r.Counter("platform_degraded_steps_total", "steps spent in degraded mode"),
		Decisions:          s.dec(),
	}
}

// PoolInstruments instruments the experiments worker pool: how many
// replicas ran and how well the pool's workers were utilized.
type PoolInstruments struct {
	Runs        *Counter   // fan-out invocations
	Tasks       *Counter   // replica tasks executed
	Workers     *Gauge     // workers of the last fan-out
	TaskSeconds *Histogram // wall-clock per replica task
	Utilization *Histogram // busy-time / (workers x wall) per fan-out
}

// Pool registers the worker-pool instrument set (experiments_pool_*).
func (s *Sink) Pool() PoolInstruments {
	r := s.reg()
	return PoolInstruments{
		Runs:        r.Counter("experiments_pool_runs_total", "worker-pool fan-out invocations"),
		Tasks:       r.Counter("experiments_pool_tasks_total", "replica tasks executed"),
		Workers:     r.Gauge("experiments_pool_workers", "workers of the last fan-out"),
		TaskSeconds: r.Histogram("experiments_pool_task_seconds", "wall-clock seconds per replica task", DurationBuckets()),
		Utilization: r.Histogram("experiments_pool_utilization", "per-replica worker-pool utilization", RatioBuckets()),
	}
}
