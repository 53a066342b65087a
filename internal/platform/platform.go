// Package platform simulates an OpenFaaS-style serverless platform over
// the model testbed for the paper's scheduling case study (§6.3):
// trace-driven latency-sensitive services with autoscaling, arriving
// SC/BG jobs, a pluggable scheduler, ground-truth QoS from the
// performance model, and SLA monitoring with reactive spreading on
// persistent violations. It produces the density/utilization series of
// Figure 11, the SLA guarantee ratios of Figure 12 and the operational
// counters behind Figure 14.
//
// The platform is resilient by construction (DESIGN.md §11): an
// optional fault schedule injects node crashes, stragglers, cold-start
// storms and predictor outages; placement calls get bounded retries
// with capped backoff; services displaced by a crash are re-placed
// through the scheduler; and when the predictor is unavailable or
// untrained the platform degrades to a capacity-based fallback policy
// and records the degraded interval instead of failing the run.
package platform

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"gsight/internal/core"
	"gsight/internal/faults"
	"gsight/internal/obs"
	"gsight/internal/perfmodel"
	"gsight/internal/persist"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/sched"
	"gsight/internal/sim"
	"gsight/internal/telemetry"
	"gsight/internal/trace"
	"gsight/internal/workload"
)

// LSService describes one long-running latency-sensitive service.
type LSService struct {
	W       *workload.Workload
	Pattern trace.Pattern
	// SLA is the admission contract (IPC floor from the Figure 7
	// transform); the runtime check still uses the raw p99 target.
	SLA sched.SLA
}

// RetryPolicy bounds the platform's placement retries on transient
// scheduler errors. Deterministic rejections (sched.ErrNoPlacement)
// and predictor-degradation signals (core.ErrNotTrained,
// core.ErrUnavailable) are never retried — the former cannot change,
// the latter route to the fallback policy. Backoff is wall clock only
// and never enters the decision log, so retries cannot break same-seed
// byte-identity.
type RetryPolicy struct {
	// MaxAttempts per placement call; <= 0 means 3.
	MaxAttempts int
	// BaseBackoff doubles per failed attempt up to MaxBackoff;
	// <= 0 means 1ms base and 16ms cap.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Timeout caps one placement call's total wall clock including
	// retries; <= 0 means 500ms.
	Timeout time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 16 * time.Millisecond
	}
	if p.Timeout <= 0 {
		p.Timeout = 500 * time.Millisecond
	}
	return p
}

// Config parameterizes a platform run.
type Config struct {
	Model     *perfmodel.Model
	Scheduler sched.Scheduler
	// Services are the resident LS workloads.
	Services []LSService
	// SCPool are the batch jobs submitted over time.
	SCPool []*workload.Workload
	// SCMeanIntervalS is the mean seconds between job submissions.
	SCMeanIntervalS float64
	// DurationS and StepS control the simulated horizon.
	DurationS float64
	StepS     float64
	// ViolationPatience is how many consecutive SLA-violating steps
	// trigger a reactive spread of the worst function.
	ViolationPatience int
	Seed              uint64
	// Predictor, when set, receives online observations (incremental
	// learning during operation).
	Predictor core.QoSPredictor
	// ObserveEvery throttles online observations (steps).
	ObserveEvery int
	// Telemetry, when set, receives runtime metrics and reactive-control
	// decision events. telemetry.Nop (nil) leaves the run bit-identical.
	Telemetry *telemetry.Sink
	// Obs, when set, records the run's observability streams:
	// invocation-lifecycle trace, flight recording and prediction-quality
	// tracking (DESIGN.md §13). nil disables all of it and keeps the
	// steady-state step loop allocation-free.
	Obs *obs.Recorder
	// Faults injects a deterministic fault schedule (crashes,
	// stragglers, cold-start storms, predictor outages); nil runs a
	// healthy cluster.
	Faults *faults.Schedule
	// Fallback serves placements while degraded (predictor unavailable
	// or untrained, or persistent scheduler failure); nil means
	// sched.NewWorstFit().
	Fallback sched.Scheduler
	// Retry bounds placement retries on transient scheduler errors.
	Retry RetryPolicy
	// Checkpoint enables crash-consistent snapshots and recovery
	// (DESIGN.md §12); the zero value disables it.
	Checkpoint CheckpointConfig
}

// DegradedInterval is a [StartS, EndS) window of simulation time the
// platform spent placing through the fallback policy.
type DegradedInterval struct {
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	Reason string  `json:"reason"`
}

// Stats aggregates a run's outcomes.
type Stats struct {
	SchedulerName string
	// Per-step series (Figure 11 CDFs are built from these).
	Density []float64 // function instances per active core
	CPUUtil []float64 // demand / capacity over active servers
	MemUtil []float64 // allocated memory / capacity over active servers
	// GoodDensity discounts each step's density by the fraction of LS
	// services inside their SLA — density is only worth what it does
	// not cost in QoS ("improve function density while guaranteeing
	// the QoS", the paper's abstract).
	GoodDensity []float64
	// ActiveServers is the per-step count of servers with any load.
	ActiveServers []float64
	// SLAOK[name] marks the steps whose measured p99 honoured the SLA
	// (Figure 12).
	SLAOK map[string][]bool
	// JCTs of completed batch jobs by workload name.
	JCTs map[string][]float64
	// Operational counters (Figure 14 inputs).
	ColdStarts     int
	Migrations     int // reactive moves after persistent SLA violations
	Reschedules    int // placement changes during scale-out
	Placements     int
	RejectedJobs   int
	SchedulingTime time.Duration // wall-clock spent in Place()
	Steps          int
	// Invocations is the total LS invocation volume replayed: the
	// per-step sampled QPS of every service integrated over step
	// widths. Soak runs report it in millions per simulated day.
	Invocations float64
	// Resilience counters (zero on healthy runs).
	FaultEvents        int // injected fault transitions applied
	DisplacedServices  int // services re-placed off crashed nodes
	DisplacedJobs      int // batch jobs moved off crashed nodes
	DegradedPlacements int // placements served by the fallback policy
	DegradedSteps      int // steps spent in degraded mode
	PlacementRetries   int // placement attempts retried
	// Degraded lists the degraded-mode windows of the run.
	Degraded []DegradedInterval
}

// SLARatio returns the fraction of steps within SLA for a service.
func (s *Stats) SLARatio(name string) float64 {
	oks := s.SLAOK[name]
	if len(oks) == 0 {
		return 0
	}
	n := 0
	for _, ok := range oks {
		if ok {
			n++
		}
	}
	return float64(n) / float64(len(oks))
}

// serviceState is the platform's runtime record of one LS service.
type serviceState struct {
	svc      LSService
	dep      *perfmodel.Deployment
	profiles []profile.Profile
	// in is the persistent scheduler-visible input, re-synced from the
	// deployment at every site that used to build a fresh one; obsIn is
	// a second persistent copy handed to the online learner, kept
	// separate so feeding the predictor mid-step cannot retro-mutate
	// the values committed to the scheduler state.
	in         core.WorkloadInput
	obsIn      core.WorkloadInput
	violations int
	// cooldown pins the placement for a while after a reactive
	// spread, so a scheduler whose predictions caused the violation
	// cannot immediately re-pack into the same hotspot. Accurate
	// predictors rarely violate and therefore keep their packing
	// freedom — the mechanism that turns prediction quality into
	// density (Figure 11).
	cooldown int
}

// Degradation reasons recorded on intervals and transition events.
const (
	reasonUnavailable = "predictor-unavailable"
	reasonUntrained   = "predictor-untrained"
)

// runner is the mutable state of one platform run. Run builds it,
// drives the step loop, and returns its stats.
type runner struct {
	cfg      Config
	ctx      context.Context
	m        *perfmodel.Model
	stepper  *perfmodel.Stepper
	state    *sched.ShardedState
	baseCaps []resources.Vector
	spec     resources.ServerSpec
	noise    *rng.Rand
	rnd      *rng.Rand

	services []*serviceState
	// activeSC is the running batch jobs in ascending submission id —
	// the iteration order every deterministic consumer needs, held as
	// an invariant instead of re-sorting a map per step (ids only grow,
	// so appends keep it sorted).
	activeSC []*scActive
	// scPool caches one run-local workload clone + lazily computed
	// profiles per SC pool entry, indexed by pool position.
	scPool []scPoolEntry
	// jobFree recycles completed jobs' records (deployment + input
	// arrays) per pool entry, so steady-state submission allocates only
	// the unique run name.
	jobFree [][]*scActive

	engine   sim.Engine
	inj      *faults.Injector
	fallback sched.Scheduler
	retry    RetryPolicy

	// Checkpointing state: cancel kills the run from inside an event
	// (controller crash, replay divergence); arrivals keeps the full
	// submission timeline so snapshots can record what is still ahead;
	// startS/startStep relocate the loop after a resume.
	ck        *checkpointer
	cancel    context.CancelFunc
	crashed   bool
	ckErr     error
	arrivals  []float64
	startS    float64
	startStep int

	degraded       bool
	degradedReason string
	degradedSince  float64

	stats *Stats
	ins   telemetry.PlatformInstruments
	rev   telemetry.ReactiveAction     // reusable reactive decision event
	fev   telemetry.FaultEvent         // reusable fault decision event
	dev   telemetry.DegradedTransition // reusable degraded decision event
	drev  telemetry.DriftEvent         // reusable drift decision event

	// Observability (nil when disabled): obsDetail is the reusable
	// placement-detail out-parameter wired into requests, viaFallback
	// marks the last placement as fallback-served for outcome labeling,
	// and flFrame is the reusable flight-recorder frame.
	obs         *obs.Recorder
	obsDetail   sched.PlacementDetail
	viaFallback bool
	flFrame     obs.Frame

	// Per-step scratch, reused so the steady-state loop allocates
	// nothing: the noise child generator, the online-learning input
	// snapshot, and the cached submit callback.
	noiseChild rng.Rand
	snapBuf    []core.WorkloadInput
	submitFn   func()
	reqBuf     sched.Request // schedulers never retain the request
}

// scPoolEntry is the runner's per-pool-workload cache: a run-local
// clone of the workload (so concurrent runs never share state with the
// caller's catalog) and its lazily computed profiles. Profiling stays
// lazy — the rng split happens at the first submission of the entry,
// exactly where the map-keyed cache drew it.
type scPoolEntry struct {
	w  *workload.Workload
	ps []profile.Profile
	// proto is a pristine NewDeployment of w, the reset template for
	// recycled job records.
	proto *perfmodel.Deployment
}

// Run executes the simulation and returns its stats. A nil ctx means
// context.Background(); cancellation returns the context's error with
// the run's partial state discarded. With Config.Checkpoint enabled,
// an injected controller-crash returns ErrControllerCrashed and a
// subsequent Run with Checkpoint.Resume continues the horizon from
// disk, byte-identical to the uninterrupted same-seed run.
func Run(ctx context.Context, cfg Config) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.StepS <= 0 {
		cfg.StepS = 30
	}
	if cfg.DurationS <= 0 {
		cfg.DurationS = 86400
	}
	if cfg.ViolationPatience <= 0 {
		cfg.ViolationPatience = 3
	}
	if cfg.ObserveEvery <= 0 {
		cfg.ObserveEvery = 10
	}
	fallback := cfg.Fallback
	if fallback == nil {
		fallback = sched.NewWorstFit()
	}
	m := cfg.Model
	inj, err := faults.NewInjector(cfg.Faults, m.Testbed.NumServers())
	if err != nil {
		return nil, err
	}
	state := sched.ShardedStateFromProfiles(m.Testbed.Servers[0], m.Testbed.NumServers(), 0)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &runner{
		cfg:      cfg,
		ctx:      runCtx,
		cancel:   cancel,
		m:        m,
		stepper:  m.NewStepper(),
		state:    state,
		baseCaps: append([]resources.Vector(nil), state.Base().Caps...),
		spec:     m.Testbed.Servers[0],
		noise:    rng.Stream(cfg.Seed, "platform-noise"),
		rnd:      rng.Stream(cfg.Seed, "platform"),
		inj:      inj,
		fallback: fallback,
		retry:    cfg.Retry.withDefaults(),
		stats: &Stats{
			SchedulerName: cfg.Scheduler.Name(),
			SLAOK:         make(map[string][]bool),
			JCTs:          make(map[string][]float64),
		},
		ins: cfg.Telemetry.Platform(),
		obs: cfg.Obs,
	}
	r.engine.Instrument(cfg.Telemetry)
	r.submitFn = r.submitJob
	r.scPool = make([]scPoolEntry, len(cfg.SCPool))
	r.jobFree = make([][]*scActive, len(cfg.SCPool))
	for i, w := range cfg.SCPool {
		wc := w.Clone()
		r.scPool[i] = scPoolEntry{w: wc, proto: perfmodel.NewDeployment(wc)}
	}
	if cfg.Checkpoint.Dir != "" {
		ck, err := newCheckpointer(r)
		if err != nil {
			return nil, err
		}
		r.ck = ck
		// The simulator's WAL is a verification aid, not an
		// acknowledgement: a failed close costs a resumed run nothing
		// it would not re-execute.
		defer func() { _ = ck.store.Close() }()
	}
	resumed := false
	if r.ck != nil && cfg.Checkpoint.Resume {
		switch err := r.resume(); {
		case err == nil:
			resumed = true
		case errors.Is(err, persist.ErrNoSnapshot):
			// Nothing to resume from yet: start fresh, so retry loops
			// can pass Resume unconditionally.
		default:
			return nil, err
		}
	}
	if !resumed {
		if err := r.deployServices(); err != nil {
			return nil, err
		}
		r.scheduleFaults(-1)
		r.scheduleArrivals()
		if r.ck != nil {
			// The pre-loop snapshot makes even a crash in the very first
			// interval resumable.
			if err := r.ck.snapshot(-1, 0); err != nil {
				return nil, err
			}
		}
	}
	if err := r.loop(); err != nil {
		return nil, err
	}
	return r.stats, nil
}

// deployServices places the resident services through the scheduler,
// in config order.
func (r *runner) deployServices() error {
	r.services = make([]*serviceState, 0, len(r.cfg.Services))
	for _, svc := range r.cfg.Services {
		ps := profile.WorkloadProfiles(svc.W, r.spec, r.rnd.Split())
		dep := perfmodel.NewDeployment(svc.W)
		for f := range dep.Socket {
			dep.Socket[f] = -1
		}
		dep.QPS = svc.Pattern.RateAt(0)
		for f := range dep.Replicas {
			dep.Replicas[f] = perfmodel.LSReplicasFor(svc.W, f, dep.QPS*1.1)
		}
		r.services = append(r.services, &serviceState{svc: svc, dep: dep, profiles: ps})
	}
	for _, ss := range r.services {
		in := ss.syncInput()
		req := &sched.Request{Input: *in, SLA: ss.svc.SLA}
		placement, err := r.place(req)
		if err != nil {
			return fmt.Errorf("platform: deploying %s: %w", ss.svc.W.Name, err)
		}
		copy(ss.dep.Placement, placement)
		copy(in.Placement, placement)
		r.state.Commit(*in, ss.svc.SLA)
		if err := r.stepper.AddLS(ss.dep); err != nil {
			return err
		}
		for _, rep := range ss.dep.Replicas {
			r.stats.ColdStarts += rep
		}
	}
	return nil
}

// scheduleFaults registers the fault timeline on the event engine,
// before job arrivals so a fault and an arrival at the same instant
// resolve in a fixed order. Only transitions after `after` are
// registered (-1 for all; a resume re-registers the remainder).
func (r *runner) scheduleFaults(after float64) {
	for _, c := range r.inj.Changes() {
		if c.AtS <= after {
			continue
		}
		c := c
		r.engine.At(c.AtS, func() { r.applyFault(c) })
	}
}

// scheduleArrivals draws the batch-job submission times and registers
// them. The times are kept on the runner so snapshots can record what
// is still ahead.
func (r *runner) scheduleArrivals() {
	if len(r.cfg.SCPool) == 0 || r.cfg.SCMeanIntervalS <= 0 {
		return
	}
	r.arrivals = trace.JobArrivals(r.cfg.SCMeanIntervalS, 0, r.cfg.DurationS, r.rnd.Split())
	r.registerArrivals(-1)
}

// registerArrivals registers the submissions after `after` on the
// engine.
func (r *runner) registerArrivals(after float64) {
	for _, t := range r.arrivals {
		if t <= after {
			continue
		}
		r.engine.At(t, r.submitFn)
	}
}

// takeJobRecord pops a recycled job record for pool entry pi (or
// builds a fresh one) and resets its deployment to pristine
// NewDeployment state, so a recycled record is indistinguishable from
// a fresh one everywhere the scheduler or the model can look.
func (r *runner) takeJobRecord(pi int) *scActive {
	pe := &r.scPool[pi]
	if free := r.jobFree[pi]; len(free) > 0 {
		a := free[len(free)-1]
		free[len(free)-1] = nil
		r.jobFree[pi] = free[:len(free)-1]
		dep, proto := a.dep, pe.proto
		copy(dep.Placement, proto.Placement)
		copy(dep.Socket, proto.Socket)
		copy(dep.Replicas, proto.Replicas)
		dep.QPS = proto.QPS
		dep.StartDelayS = proto.StartDelayS
		dep.ColdStartFrac = proto.ColdStartFrac
		dep.Protected = proto.Protected
		return a
	}
	dep := perfmodel.NewDeployment(pe.w)
	return &scActive{pool: pi, dep: dep, input: core.WorkloadInput{
		Class:     pe.w.Class,
		Placement: make([]int, len(dep.Placement)),
		Replicas:  make([]int, len(dep.Replicas)),
	}}
}

// submitJob admits one batch job through the scheduler.
func (r *runner) submitJob() {
	cfg := &r.cfg
	pi := r.rnd.Intn(len(cfg.SCPool))
	pe := &r.scPool[pi]
	w := pe.w
	if pe.ps == nil {
		pe.ps = profile.WorkloadProfiles(w, r.spec, r.rnd.Split())
	}
	a := r.takeJobRecord(pi)
	dep := a.dep
	for f := range dep.Socket {
		dep.Socket[f] = -1
	}
	dep.ColdStartFrac = r.inj.ColdStartFrac() // active storm hits new jobs
	in := &a.input
	in.Name = w.Name
	in.Profiles = pe.ps
	copy(in.Placement, dep.Placement)
	copy(in.Replicas, dep.Replicas)
	in.LifetimeS = w.SoloDurationS
	a.sla = sched.SLA{}
	if w.Class == workload.SC {
		a.sla.MaxJCTFactor = 2.0
	}
	req := &r.reqBuf
	*req = sched.Request{Input: *in, SLA: a.sla, SoloDurationS: w.SoloDurationS}
	placement, err := r.place(req)
	if err != nil {
		r.stats.RejectedJobs++
		r.jobFree[pi] = append(r.jobFree[pi], a)
		return
	}
	copy(dep.Placement, placement)
	copy(in.Placement, placement)
	// unique run name for release bookkeeping
	in.Name = fmt.Sprintf("%s#%d", w.Name, r.stats.Placements)
	r.state.Commit(*in, a.sla)
	id, err := r.stepper.AddSC(dep)
	if err != nil {
		r.state.Release(in.Name)
		r.stats.RejectedJobs++
		r.jobFree[pi] = append(r.jobFree[pi], a)
		return
	}
	for _, rep := range dep.Replicas {
		r.stats.ColdStarts += rep
	}
	a.id = id
	a.predJCTS = 0
	if r.obs != nil {
		// The scheduler's accepted-candidate JCT estimate anchors both
		// the job's trace span and its completion-time quality sample.
		a.predJCTS = r.obsDetail.PredJCTS
		r.obs.Trace().JobBegin(id, w.Name, in.Name, r.engine.Now(), placement, a.predJCTS)
	}
	r.activeSC = append(r.activeSC, a)
}

// removeJob splices the job with the given id out of the active list,
// returning it for recycling (nil when unknown).
func (r *runner) removeJob(id int) *scActive {
	for i, a := range r.activeSC {
		if a.id == id {
			r.activeSC = append(r.activeSC[:i], r.activeSC[i+1:]...)
			return a
		}
	}
	return nil
}

// predictorOut reports whether an injected outage makes the predictor
// unreachable right now.
func (r *runner) predictorOut() bool { return !r.inj.PredictorAvailable() }

// placeWith times one Place call against the given policy.
func (r *runner) placeWith(s sched.Scheduler, req *sched.Request) ([]int, error) {
	t0 := time.Now()
	placement, err := r.state.Propose(s, req)
	r.stats.SchedulingTime += time.Since(t0)
	r.stats.Placements++
	return placement, err
}

// placeFallback serves one request through the fallback policy,
// counting it as a degraded placement.
func (r *runner) placeFallback(req *sched.Request) ([]int, error) {
	placement, err := r.placeWith(r.fallback, req)
	if err != nil {
		return nil, err
	}
	r.stats.DegradedPlacements++
	r.ins.DegradedPlacements.Inc()
	r.viaFallback = true
	return placement, nil
}

// place is the platform's single placement entry point: primary
// scheduler with bounded retry on transient errors, immediate
// degradation to the fallback policy on predictor errors (or during an
// injected predictor outage), and no retry on deterministic
// rejections. The final outcome (not the internal attempts) is
// WAL-logged when checkpointing is on.
func (r *runner) place(req *sched.Request) ([]int, error) {
	if r.obs != nil {
		r.obsDetail = sched.PlacementDetail{}
		req.Detail = &r.obsDetail
		r.viaFallback = false
	}
	placement, err := r.placeInner(req)
	if r.ck != nil {
		r.ck.note(&walRecord{T: "place", SimS: r.engine.Now(), Name: req.Input.Name, Placement: placement, Rejected: err != nil})
	}
	if r.obs != nil {
		r.tracePlacement(req, placement, err)
		req.Detail = nil
	}
	return placement, err
}

// tracePlacement records the final decision of one place call as a
// trace instant, folding the fallback/degraded path into the outcome
// label (the scheduler that served the request only knows its own
// verdict).
func (r *runner) tracePlacement(req *sched.Request, placement []int, err error) {
	d := &r.obsDetail
	pi := obs.PlacementInfo{
		Workload:     req.Input.Name,
		Outcome:      d.Outcome,
		Reason:       d.Reason,
		SpreadLevels: d.SpreadLevels,
		SLAChecks:    d.SLAChecks,
		Placement:    placement,
		PredIPC:      d.PredIPC,
		PredJCTS:     d.PredJCTS,
	}
	if err != nil {
		if pi.Outcome == "" || pi.Outcome == "placed" {
			pi.Outcome = "error"
		}
	} else if r.viaFallback {
		pi.Outcome = "degraded"
		if pi.Reason == "" {
			if r.degradedReason != "" {
				pi.Reason = r.degradedReason
			} else {
				pi.Reason = reasonUnavailable
			}
		}
	}
	r.obs.Trace().Placement(r.engine.Now(), &pi)
}

func (r *runner) placeInner(req *sched.Request) ([]int, error) {
	if r.predictorOut() {
		// The predictor (and with it the primary scheduler's SLA
		// vetting) is unreachable: serve capacity-based placements
		// until the outage ends.
		return r.placeFallback(req)
	}
	backoff := r.retry.BaseBackoff
	deadline := time.Now().Add(r.retry.Timeout)
	var placement []int
	var err error
	for attempt := 1; ; attempt++ {
		placement, err = r.placeWith(r.cfg.Scheduler, req)
		if err == nil {
			if r.degraded && r.degradedReason == reasonUntrained {
				// The predictor has caught up (trained or recovered):
				// leave degraded mode.
				r.exitDegraded()
			}
			return placement, nil
		}
		if errors.Is(err, sched.ErrNoPlacement) {
			return nil, err // deterministic: retrying cannot help
		}
		if errors.Is(err, core.ErrNotTrained) {
			r.enterDegraded(reasonUntrained)
			return r.placeFallback(req)
		}
		if errors.Is(err, core.ErrUnavailable) {
			r.enterDegraded(reasonUnavailable)
			return r.placeFallback(req)
		}
		if attempt >= r.retry.MaxAttempts || r.ctx.Err() != nil || !time.Now().Before(deadline) {
			break
		}
		r.stats.PlacementRetries++
		r.ins.PlacementRetries.Inc()
		sleepCtx(r.ctx, backoff)
		backoff *= 2
		if backoff > r.retry.MaxBackoff {
			backoff = r.retry.MaxBackoff
		}
	}
	// Persistent unexpected failure: degrade rather than fail the run.
	if out, ferr := r.placeFallback(req); ferr == nil {
		return out, nil
	}
	return nil, err
}

// sleepCtx sleeps for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// enterDegraded opens a degraded interval (idempotent while open).
func (r *runner) enterDegraded(reason string) {
	if r.degraded {
		return
	}
	r.degraded = true
	r.degradedReason = reason
	r.degradedSince = r.engine.Now()
	if r.ins.Decisions != nil {
		r.dev = telemetry.DegradedTransition{SimTimeS: r.engine.Now(), Entered: true, Reason: reason, Fallback: r.fallback.Name()}
		r.ins.Decisions.Degraded(&r.dev)
	}
	if r.obs != nil {
		r.obs.Trace().Degraded(r.engine.Now(), true, reason)
	}
}

// exitDegraded closes the open degraded interval at the current time.
func (r *runner) exitDegraded() { r.closeDegraded(r.engine.Now()) }

// closeDegraded closes the open degraded interval at endS.
func (r *runner) closeDegraded(endS float64) {
	if !r.degraded {
		return
	}
	r.stats.Degraded = append(r.stats.Degraded, DegradedInterval{
		StartS: r.degradedSince, EndS: endS, Reason: r.degradedReason,
	})
	if r.ins.Decisions != nil {
		r.dev = telemetry.DegradedTransition{SimTimeS: endS, Entered: false, Reason: r.degradedReason, Fallback: r.fallback.Name()}
		r.ins.Decisions.Degraded(&r.dev)
	}
	if r.obs != nil {
		r.obs.Trace().Degraded(endS, false, r.degradedReason)
	}
	r.degraded = false
	r.degradedReason = ""
}

// applyFault transitions the injector state and makes the platform
// react: crashed nodes are cordoned and evacuated, stragglers lose
// schedulable and modeled capacity, storms force cold starts, outages
// flip degraded mode.
func (r *runner) applyFault(c faults.Change) {
	if c.Op == faults.OpControllerCrash {
		// Handled before any counter or decision event: the crash is
		// invisible in every output, so a crashed-and-resumed run stays
		// byte-identical to one that never crashed.
		r.controllerCrash()
		return
	}
	r.inj.Apply(c)
	r.stats.FaultEvents++
	r.ins.FaultEvents.Inc()
	displacedSvc, displacedJobs := 0, 0
	switch c.Op {
	case faults.OpNodeDown:
		r.state.SetOffline(c.Node, true)
		displacedSvc, displacedJobs = r.evacuate(c.Node)
		r.stats.DisplacedServices += displacedSvc
		r.stats.DisplacedJobs += displacedJobs
		r.ins.DisplacedServices.Add(uint64(displacedSvc))
		r.ins.DisplacedJobs.Add(uint64(displacedJobs))
	case faults.OpNodeUp:
		r.state.SetOffline(c.Node, false)
	case faults.OpSlowSet:
		r.state.SetCap(c.Node, r.baseCaps[c.Node].Scale(c.Factor))
		r.m.SetCapacityScale(c.Node, c.Factor)
		r.stepper.MarkDirty()
	case faults.OpSlowClear:
		r.state.SetCap(c.Node, r.baseCaps[c.Node])
		r.m.SetCapacityScale(c.Node, 1)
		r.stepper.MarkDirty()
	case faults.OpStormStart, faults.OpStormEnd:
		frac := r.inj.ColdStartFrac()
		for _, ss := range r.services {
			ss.dep.ColdStartFrac = frac
		}
		for _, a := range r.activeSC {
			a.dep.ColdStartFrac = frac
		}
		r.stepper.MarkDirty()
	case faults.OpPredictorDown:
		r.enterDegraded(reasonUnavailable)
	case faults.OpPredictorUp:
		if r.inj.PredictorAvailable() {
			r.exitDegraded()
		}
	}
	if r.ins.Decisions != nil {
		r.fev = telemetry.FaultEvent{
			SimTimeS:          r.engine.Now(),
			Kind:              c.Op.String(),
			Node:              c.Node,
			Factor:            c.Factor,
			DisplacedServices: displacedSvc,
			DisplacedJobs:     displacedJobs,
		}
		r.ins.Decisions.Fault(&r.fev)
	}
	if r.obs != nil {
		r.obs.Trace().Fault(r.engine.Now(), c.Op.String(), c.Node, displacedSvc+displacedJobs)
	}
}

// placedOn reports whether any function sits on the node.
func placedOn(placement []int, node int) bool {
	for _, s := range placement {
		if s == node {
			return true
		}
	}
	return false
}

// emptiestOnline returns the online server (never `not`) with the most
// free CPU, or -1 when every other server is offline.
func emptiestOnline(state *sched.State, not int) int {
	best, bestFree := -1, -1.0
	for s := range state.Caps {
		if s == not || !state.Online(s) {
			continue
		}
		if free := state.Free(s)[resources.CPU]; free > bestFree {
			best, bestFree = s, free
		}
	}
	return best
}

// evacuate re-places every workload with functions on a crashed node.
// Services go back through the scheduler (full re-placement, so the
// survivors land SLA-vetted); if even the fallback cannot host one,
// its stranded functions are force-moved to the emptiest online server
// — liveness over placement quality. Batch jobs keep their surviving
// functions and only the stranded ones move.
func (r *runner) evacuate(node int) (displacedSvc, displacedJobs int) {
	for _, ss := range r.services {
		if !placedOn(ss.dep.Placement, node) {
			continue
		}
		displacedSvc++
		r.state.Release(ss.svc.W.Name)
		req := &sched.Request{Input: *ss.syncInput(), SLA: ss.svc.SLA}
		if placement, err := r.place(req); err == nil {
			for f := range placement {
				if placement[f] != ss.dep.Placement[f] {
					r.stats.ColdStarts += ss.dep.Replicas[f]
				}
			}
			copy(ss.dep.Placement, placement)
		} else if alt := emptiestOnline(r.state.Base(), node); alt != -1 {
			for f, s := range ss.dep.Placement {
				if s == node {
					ss.dep.Placement[f] = alt
					r.stats.ColdStarts += ss.dep.Replicas[f]
				}
			}
		}
		// Re-commit immediately so the next displaced workload sees a
		// consistent cluster view.
		refreshState(r.state, r.services, r.activeSC)
	}
	for _, a := range r.activeSC {
		if !placedOn(a.dep.Placement, node) {
			continue
		}
		displacedJobs++
		alt := emptiestOnline(r.state.Base(), node)
		if alt == -1 {
			continue // whole cluster down; nowhere to go
		}
		for f, s := range a.dep.Placement {
			if s == node {
				a.dep.Placement[f] = alt
				a.input.Placement[f] = alt
			}
		}
		refreshState(r.state, r.services, r.activeSC)
	}
	r.stepper.MarkDirty()
	refreshState(r.state, r.services, r.activeSC)
	return displacedSvc, displacedJobs
}

// runErr maps an engine interruption to its cause: a checkpoint/replay
// failure, an injected controller crash, or the caller's cancellation.
func (r *runner) runErr(err error) error {
	if r.ckErr != nil {
		return r.ckErr
	}
	if r.crashed {
		return ErrControllerCrashed
	}
	return err
}

// loop drives the step loop to the configured horizon.
func (r *runner) loop() error {
	cfg := &r.cfg
	stats := r.stats
	ins := r.ins
	coresPerServer := r.spec.Capacity[resources.CPU]
	// Pre-size the per-step series so steady-state appends never regrow
	// their backing arrays (values are unchanged; capacity only).
	if nSteps := int(cfg.DurationS/cfg.StepS) + 1; nSteps > 0 {
		for _, ss := range r.services {
			name := ss.svc.W.Name
			if cap(stats.SLAOK[name]) < nSteps {
				grown := make([]bool, len(stats.SLAOK[name]), nSteps)
				copy(grown, stats.SLAOK[name])
				stats.SLAOK[name] = grown
			}
		}
		growF := func(s []float64) []float64 {
			if cap(s) >= nSteps {
				return s
			}
			grown := make([]float64, len(s), nSteps)
			copy(grown, s)
			return grown
		}
		stats.Density = growF(stats.Density)
		stats.CPUUtil = growF(stats.CPUUtil)
		stats.MemUtil = growF(stats.MemUtil)
		stats.GoodDensity = growF(stats.GoodDensity)
		stats.ActiveServers = growF(stats.ActiveServers)
	}
	step := r.startStep
	for now := r.startS; now < cfg.DurationS; now += cfg.StepS {
		span := telemetry.StartSpan(ins.StepSeconds)
		// Fire job submissions and fault transitions due by now;
		// cancellation is checked between events so SIGINT lands
		// between decisions, never inside one.
		if err := r.engine.RunUntilCtx(r.ctx, now); err != nil {
			return r.runErr(err)
		}
		step++
		if r.degraded {
			stats.DegradedSteps++
			ins.DegradedSteps.Inc()
		}

		// Autoscaling: track the trace. Scale-out re-places the
		// workload through the scheduler — the paper's trigger
		// ("whenever ... a previously submitted workload scales
		// beyond the current function instances").
		for _, ss := range r.services {
			qps := ss.svc.Pattern.Sample(now, r.rnd)
			if qps > ss.svc.W.MaxQPS {
				qps = ss.svc.W.MaxQPS
			}
			ss.dep.QPS = qps
			stats.Invocations += qps * cfg.StepS
			changed := false
			for f := range ss.dep.Replicas {
				want := perfmodel.LSReplicasFor(ss.svc.W, f, qps*1.1)
				if want != ss.dep.Replicas[f] {
					if want > ss.dep.Replicas[f] {
						stats.ColdStarts += want - ss.dep.Replicas[f]
					}
					ss.dep.Replicas[f] = want
					changed = true
				}
			}
			if ss.cooldown > 0 {
				ss.cooldown--
			}
			// Any replica change triggers a re-placement pass (the
			// paper reschedules on scale-out, and notes load drops
			// "can further optimize resource efficiency by
			// rescheduling the existing instances") unless the
			// service is pinned after a reactive spread.
			if changed && ss.cooldown == 0 {
				// Release our own allocation before asking for a
				// placement so the scheduler sees the true headroom.
				r.state.Release(ss.svc.W.Name)
				req := &r.reqBuf
				*req = sched.Request{Input: *ss.syncInput(), SLA: ss.svc.SLA}
				placement, err := r.place(req)
				if err == nil {
					for f := range placement {
						if placement[f] != ss.dep.Placement[f] {
							stats.Reschedules++
							stats.ColdStarts += ss.dep.Replicas[f]
						}
					}
					copy(ss.dep.Placement, placement)
				}
			}
			if changed {
				r.stepper.MarkDirty()
				refreshState(r.state, r.services, r.activeSC)
			}
		}

		r.noise.SplitInto(&r.noiseChild)
		rep := r.stepper.Step(cfg.StepS, &r.noiseChild)

		// SLA monitoring + reactive spreading.
		for i, ss := range r.services {
			lr := rep.LS[i]
			ok := ss.svc.W.SLAp99Ms <= 0 || lr.E2EP99Ms <= ss.svc.W.SLAp99Ms
			stats.SLAOK[ss.svc.W.Name] = append(stats.SLAOK[ss.svc.W.Name], ok)
			if !ok {
				ins.SLAViolations.Inc()
			}
			// The reactive controller tolerates a 5% band over the SLA
			// so measurement noise cannot trigger spreads by itself.
			controlOK := ss.svc.W.SLAp99Ms <= 0 || lr.E2EP99Ms <= ss.svc.W.SLAp99Ms*1.05
			if controlOK {
				ss.violations = 0
			} else {
				ss.violations++
				if ss.violations >= cfg.ViolationPatience {
					// Reactive control, in the paper's Observation 5
					// shape: first move the corunner — evict a batch
					// job sharing the hottest function's server —
					// and only spread the service itself when no
					// corunner is to blame. Either way the move is
					// the density price of crossing the SLA, paid
					// most often by inaccurate predictors.
					hot := ss.dep.Placement[worstFuncs(lr, 1)[0]]
					if evictSC(r.state.Base(), r.activeSC, hot) {
						stats.Migrations++
						moved := 1
						if n := migrateWorst(r.m, r.state.Base(), ss, lr, 1); n > 0 {
							stats.Migrations += n
							stats.ColdStarts += n
							moved += n
						}
						ss.cooldown = 20
						r.stepper.MarkDirty()
						refreshState(r.state, r.services, r.activeSC)
						if ins.Decisions != nil {
							r.rev = telemetry.ReactiveAction{SimTimeS: now, Action: "evict-corunner", Service: ss.svc.W.Name, Moved: moved}
							ins.Decisions.Reactive(&r.rev)
						}
						if r.obs != nil {
							r.obs.Trace().Reactive(now, "evict-corunner", ss.svc.W.Name, moved)
						}
					} else if n := migrateWorst(r.m, r.state.Base(), ss, lr, 3); n > 0 {
						stats.Migrations += n
						stats.ColdStarts += n
						ss.cooldown = 40
						r.stepper.MarkDirty()
						refreshState(r.state, r.services, r.activeSC)
						if ins.Decisions != nil {
							r.rev = telemetry.ReactiveAction{SimTimeS: now, Action: "spread-service", Service: ss.svc.W.Name, Moved: n}
							ins.Decisions.Reactive(&r.rev)
						}
						if r.obs != nil {
							r.obs.Trace().Reactive(now, "spread-service", ss.svc.W.Name, n)
						}
					}
					ss.violations = 0
				}
			}
			// Online learning feedback — paused while an injected
			// outage makes the predictor unreachable.
			if cfg.Predictor != nil && step%cfg.ObserveEvery == 0 && !r.predictorOut() {
				inputs := r.snapshotInputs()
				if r.obs != nil {
					// Predict-then-observe: score the model on the label
					// it is about to learn from. Predict is pure, so the
					// extra call cannot perturb the run.
					if pred, perr := cfg.Predictor.Predict(core.IPCQoS, i, inputs); perr == nil {
						r.trackPrediction(now, ss.svc.W.Name, "ipc", pred, lr.IPC)
					}
				}
				_ = cfg.Predictor.Observe(core.IPCQoS, i, inputs, lr.IPC)
				if r.ck != nil {
					r.ck.note(&walRecord{T: "obs", SimS: now, Kind: "ipc", Target: i, Label: lr.IPC})
				}
			}
		}

		// Completed jobs leave the cluster; their records go back to
		// the pool for the next submission of the same workload.
		for _, done := range rep.Completed {
			if a := r.removeJob(done.ID); a != nil {
				if r.obs != nil {
					solo := a.dep.W.SoloDurationS
					slowdown := 0.0
					if solo > 0 {
						slowdown = done.JCTS / solo
					}
					checked := a.sla.MaxJCTFactor > 0 && solo > 0
					slaOK := checked && done.JCTS <= solo*a.sla.MaxJCTFactor
					r.obs.Trace().JobEnd(done.ID, done.Name, now, done.JCTS, slowdown, checked, slaOK)
					if a.predJCTS > 0 {
						r.trackPrediction(now, done.Name, "jct", a.predJCTS, done.JCTS)
					}
				}
				r.state.Release(a.input.Name)
				r.jobFree[a.pool] = append(r.jobFree[a.pool], a)
			}
			stats.JCTs[done.Name] = append(stats.JCTs[done.Name], done.JCTS)
		}

		// Metrics.
		instances := 0
		for _, ss := range r.services {
			for _, rep := range ss.dep.Replicas {
				instances += rep
			}
		}
		instances += countSCInstances(r.activeSC)
		activeServers, cpuDem, memAlloc := 0, 0.0, 0.0
		for s, d := range rep.ServerDemand {
			if d.IsZero() && r.state.Allocated(s).IsZero() {
				continue
			}
			activeServers++
			cpuDem += d[resources.CPU]
			memAlloc += r.state.Allocated(s)[resources.Memory]
		}
		density, goodDensity, cpuUtil, memUtil := 0.0, 0.0, 0.0, 0.0
		if activeServers > 0 {
			activeCores := float64(activeServers) * coresPerServer
			density = float64(instances) / activeCores
			cpuUtil = cpuDem / activeCores
			memUtil = memAlloc / (float64(activeServers) * r.spec.Capacity[resources.Memory])
			stats.Density = append(stats.Density, density)
			stats.CPUUtil = append(stats.CPUUtil, cpuUtil)
			stats.MemUtil = append(stats.MemUtil, memUtil)
			okFrac, nSLA := 0.0, 0
			for i, ss := range r.services {
				if ss.svc.W.SLAp99Ms <= 0 {
					continue
				}
				nSLA++
				if rep.LS[i].E2EP99Ms <= ss.svc.W.SLAp99Ms {
					okFrac++
				}
			}
			if nSLA > 0 {
				okFrac /= float64(nSLA)
			} else {
				okFrac = 1
			}
			goodDensity = density * okFrac
			stats.GoodDensity = append(stats.GoodDensity, goodDensity)
			stats.ActiveServers = append(stats.ActiveServers, float64(activeServers))
		}
		ins.Steps.Inc()
		ins.ActiveServers.SetInt(activeServers)
		if r.obs != nil {
			r.recordFrame(now, step, rep.ServerDemand, activeServers, density, goodDensity, cpuUtil, memUtil)
		}
		span.End()
		if r.ck != nil {
			if r.ckErr != nil {
				return r.ckErr
			}
			if err := r.ck.maybeSnapshot(now, step); err != nil {
				return err
			}
		}
	}
	stats.Steps = step
	// A degraded window still open at the horizon closes there so the
	// run report always shows complete intervals.
	r.closeDegraded(cfg.DurationS)
	// Operational totals mirror the Stats counters so an exported
	// snapshot is self-contained.
	ins.Migrations.Add(uint64(stats.Migrations))
	ins.Reschedules.Add(uint64(stats.Reschedules))
	ins.ColdStarts.Add(uint64(stats.ColdStarts))
	ins.RejectedJobs.Add(uint64(stats.RejectedJobs))
	return nil
}

// trackPrediction folds one predicted/observed QoS pair into the
// quality tracker and escalates a drift detection into the decision
// log. Callers gate on r.obs != nil.
func (r *runner) trackPrediction(simS float64, archetype, qos string, pred, observed float64) {
	d, fired := r.obs.TrackPrediction(simS, archetype, qos, pred, observed)
	if !fired {
		return
	}
	if r.ins.Decisions != nil {
		r.drev = telemetry.DriftEvent{
			SimTimeS:  simS,
			QoS:       d.QoS,
			Archetype: d.Archetype,
			Window:    d.Window,
			MeanErr:   d.MeanErr,
			MAPE:      d.MAPE,
			PH:        d.PH,
		}
		r.ins.Decisions.Drift(&r.drev)
	}
}

// recordFrame appends one flight-recorder frame for the step that just
// computed its metrics. Callers gate on r.obs != nil; the frame buffer
// is reused so enabled recording allocates only on the first step.
func (r *runner) recordFrame(now float64, step int, demand []resources.Vector, active int, density, goodDensity, cpuUtil, memUtil float64) {
	fl := r.obs.Flight()
	if fl == nil {
		return
	}
	fr := &r.flFrame
	if fr.CPUDemand == nil {
		n := r.state.NumServers()
		fr.CPUDemand = make([]float32, n)
		fr.MemUsed = make([]float32, n)
		fr.ServerFlags = make([]uint8, n)
	}
	fr.SimTimeS = now
	fr.Step = uint32(step)
	fr.Flags = 0
	if r.degraded {
		fr.Flags |= obs.FrameDegraded
	}
	if r.predictorOut() {
		fr.Flags |= obs.FramePredictorDown
	}
	fr.ActiveServers = uint16(active)
	// Arrivals still ahead: computed from the (sorted) submission
	// timeline, never the engine queue — queued controller-crash events
	// must stay invisible so crash/resume recordings stay identical.
	fr.Pending = uint32(len(r.arrivals) - sort.Search(len(r.arrivals), func(i int) bool {
		return r.arrivals[i] > now
	}))
	fr.Density = float32(density)
	fr.GoodDensity = float32(goodDensity)
	fr.CPUUtil = float32(cpuUtil)
	fr.MemUtil = float32(memUtil)
	for s := range fr.CPUDemand {
		fr.CPUDemand[s] = float32(demand[s][resources.CPU])
		fr.MemUsed[s] = float32(r.state.Allocated(s)[resources.Memory])
		var sf uint8
		if r.inj.NodeDown(s) {
			sf |= obs.ServerDown
		}
		if r.inj.CapacityFactor(s) != 1 {
			sf |= obs.ServerSlow
		}
		fr.ServerFlags[s] = sf
	}
	fl.Record(fr)
}

// inputFor builds the scheduler-visible input of a deployment.
func inputFor(w *workload.Workload, dep *perfmodel.Deployment, ps []profile.Profile) core.WorkloadInput {
	in := core.WorkloadInput{
		Name:      w.Name,
		Class:     w.Class,
		Profiles:  ps,
		Placement: append([]int(nil), dep.Placement...),
		Replicas:  append([]int(nil), dep.Replicas...),
	}
	if w.Class == workload.LS {
		in.QPSFrac = perfmodel.LoadFactor(dep)
	} else {
		in.LifetimeS = w.SoloDurationS
	}
	return in
}

// syncInput refreshes the service's persistent scheduler input from
// its deployment — the allocation-free replacement for building a
// fresh input per call. The returned pointer is ss.in itself.
func (ss *serviceState) syncInput() *core.WorkloadInput { return ss.syncInto(&ss.in) }

// syncInto fills in with the service's current scheduler-visible view
// (same values inputFor would produce), allocating the backing arrays
// only on first use.
func (ss *serviceState) syncInto(in *core.WorkloadInput) *core.WorkloadInput {
	if in.Placement == nil {
		in.Placement = make([]int, len(ss.dep.Placement))
		in.Replicas = make([]int, len(ss.dep.Replicas))
	}
	in.Name = ss.svc.W.Name
	in.Class = ss.svc.W.Class
	in.Profiles = ss.profiles
	copy(in.Placement, ss.dep.Placement)
	copy(in.Replicas, ss.dep.Replicas)
	if ss.svc.W.Class == workload.LS {
		in.QPSFrac = perfmodel.LoadFactor(ss.dep)
	} else {
		in.LifetimeS = ss.svc.W.SoloDurationS
	}
	return in
}

// refreshState rebuilds the scheduler state's bookkeeping after replica
// or placement changes. Services re-sync their persistent inputs first;
// job inputs are kept current at their mutation sites. The fold order —
// services in config order, then jobs ascending by submission id — is
// the fixed order the map-era sortedSC sort produced, which float
// accumulation into Used depends on.
func refreshState(state *sched.ShardedState, services []*serviceState, activeSC []*scActive) {
	st := state.Base()
	for s := range st.Used {
		st.Used[s] = resources.Vector{}
	}
	st.Running = st.Running[:0]
	for _, ss := range services {
		st.Commit(*ss.syncInput(), ss.svc.SLA)
	}
	for _, a := range activeSC {
		st.Commit(a.input, a.sla)
	}
	// The surgery above bypassed the stamps; Recount restores the
	// counted-mode caches and restamps every server.
	state.Recount()
}

type scActive struct {
	id    int
	pool  int // SCPool index, the record's free-list on completion
	input core.WorkloadInput
	sla   sched.SLA
	dep   *perfmodel.Deployment
	// predJCTS is the scheduler's JCT estimate at admission (0 when the
	// decision used no prediction); checkpointed so a resumed run's
	// quality samples match the uninterrupted run's byte-for-byte.
	predJCTS float64
}

func countSCInstances(activeSC []*scActive) int {
	n := 0
	for _, a := range activeSC {
		if a.input.Replicas == nil {
			n += len(a.input.Profiles)
			continue
		}
		for _, r := range a.input.Replicas {
			n += r
		}
	}
	return n
}

// snapshotInputs assembles the online learner's cluster view into the
// runner's reusable buffer: services synced into their observation-only
// inputs (never the committed ones — retro-mutating a committed input's
// QPSFrac mid-step would change what the scheduler sees), then jobs in
// ascending submission order.
func (r *runner) snapshotInputs() []core.WorkloadInput {
	r.snapBuf = r.snapBuf[:0]
	for _, ss := range r.services {
		r.snapBuf = append(r.snapBuf, *ss.syncInto(&ss.obsIn))
	}
	for _, a := range r.activeSC {
		r.snapBuf = append(r.snapBuf, a.input)
	}
	return r.snapBuf
}

// worstFuncs returns up to n function indices ordered by local p99,
// worst first — the migration candidates.
func worstFuncs(r perfmodel.LSResult, n int) []int {
	idx := make([]int, len(r.PerFunc))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return r.PerFunc[idx[a]].LocalP99Ms > r.PerFunc[idx[b]].LocalP99Ms
	})
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}

// migrateWorst spreads the n worst functions of a violating service to
// the emptiest online servers — the platform's reactive control. It
// returns how many functions moved.
func migrateWorst(m *perfmodel.Model, state *sched.State, ss *serviceState, r perfmodel.LSResult, n int) int {
	moved := 0
	taken := map[int]bool{}
	// Prefer relieving pressure within the already-active fleet: waking
	// a dormant server is the last resort, so reactive control does not
	// silently destroy consolidation.
	pick := func(activeOnly bool) int {
		best, bestFree := -1, -1.0
		for s := range state.Caps {
			if taken[s] || !state.Online(s) {
				continue
			}
			if activeOnly && state.Used[s].IsZero() {
				continue
			}
			free := state.Free(s)[resources.CPU]
			if free > bestFree {
				best, bestFree = s, free
			}
		}
		return best
	}
	for _, f := range worstFuncs(r, n) {
		best := pick(true)
		if best == -1 || best == ss.dep.Placement[f] {
			if alt := pick(false); alt != -1 && alt != ss.dep.Placement[f] {
				best = alt
			}
		}
		if best == -1 {
			continue
		}
		taken[best] = true
		if best == ss.dep.Placement[f] {
			continue
		}
		ss.dep.Placement[f] = best
		moved++
	}
	return moved
}

// evictSC moves one batch job off the hot server onto the emptiest
// other online server — the paper's "move the corunner to another
// socket" control at cluster granularity. It reports whether a job
// moved.
func evictSC(state *sched.State, activeSC []*scActive, hot int) bool {
	// Pick the largest co-located batch job (by CPU allocation); ties
	// break by first-seen, i.e. ascending submission id.
	var victim *scActive
	victimCPU := 0.0
	for _, a := range activeSC {
		onHot := false
		cpu := 0.0
		for f := range a.input.Profiles {
			if a.dep.Placement[f] == hot {
				onHot = true
			}
			cpu += sched.AllocOf(&a.input, f)[resources.CPU]
		}
		if onHot && cpu > victimCPU {
			victim, victimCPU = a, cpu
		}
	}
	if victim == nil {
		return false
	}
	best := emptiestOnline(state, hot)
	if best == -1 {
		return false
	}
	for f := range victim.dep.Placement {
		victim.dep.Placement[f] = best
		victim.input.Placement[f] = best
	}
	return true
}
