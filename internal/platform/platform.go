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
// storms and predictor outages; services displaced by a crash are
// re-placed through the scheduler; and when the predictor is
// unavailable or untrained, or the scheduler fails unexpectedly, the
// platform degrades to a capacity-based fallback policy and records the
// degraded interval instead of failing the run.
package platform

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"gsight/internal/core"
	"gsight/internal/faults"
	"gsight/internal/obs"
	"gsight/internal/perfmodel"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/sched"
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

// LSServices returns a fresh set of workload.LSPool's services for one
// trace-driven run. Service i offers load x MaxQPS on the default
// diurnal pattern, phase-shifted by 2 h per service, with diurnalAmp
// as the swing when it is > 0, and is admitted against floors[i] (nil
// floors set no IPC floor). A non-zero sc scales the offered rate and
// the MaxQPS clamp it is capped against together, so the scaled
// diurnal shape survives instead of flattening at the old ceiling.
func LSServices(load, diurnalAmp float64, sc trace.Scaling, floors []float64) []LSService {
	var out []LSService
	for i, w := range workload.LSPool() {
		p := trace.DefaultPattern(w.MaxQPS * load)
		if diurnalAmp > 0 {
			p.DiurnalAmp = diurnalAmp
		}
		p.PhaseShift = float64(i) * 7200
		if !sc.IsZero() {
			p = sc.Apply(p)
			w.MaxQPS *= sc.Rate()
		}
		svc := LSService{W: w, Pattern: p}
		if floors != nil {
			svc.SLA.MinIPC = floors[i]
		}
		out = append(out, svc)
	}
	return out
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
	// DurationS is the simulated horizon, run in StepS-second steps.
	DurationS float64
	Seed      uint64
	// Predictor, when set, receives online observations (incremental
	// learning during operation) every observeEvery steps.
	Predictor core.QoSPredictor
	// Telemetry, when set, receives runtime metrics and the decision
	// log's events — the run's one event stream: one placement record
	// per request, job admissions and completions, reactive control,
	// faults, degraded transitions, prediction-quality samples and
	// drift, and one step sample per step. A nil sink leaves the run
	// bit-identical.
	Telemetry *telemetry.Sink
	// Faults injects a deterministic fault schedule (crashes,
	// stragglers, cold-start storms, predictor outages); nil runs a
	// healthy cluster.
	Faults *faults.Schedule
}

// StepS is the platform's control interval in simulated seconds: each
// step samples load, autoscales, advances the performance model and
// checks SLAs once.
const StepS = 30

// observeEvery is how many steps apart the online learner is fed.
const observeEvery = 10

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
	Placements     int // placement requests, one decision-log line each
	RejectedJobs   int
	SchedulingTime time.Duration // wall-clock spent placing them
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

// violationPatience is how many consecutive SLA-violating steps trigger
// a reactive spread of the worst function.
const violationPatience = 3

// Reasons of degraded windows; sched.ProposeOrDegrade labels the
// degraded placements themselves (DESIGN.md §11).
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
	state    *sched.State
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

	inj      *faults.Injector
	fallback *sched.WorstFit

	// The run's timeline is two presorted slices, both known before
	// t = 0: the injector's fault changes and the batch-job submission
	// times. nextFault and nextArrival index the first event of each
	// that has not fired yet, and now is the simulation clock.
	arrivals    []float64
	nextFault   int
	nextArrival int
	now         float64

	degraded       bool
	degradedReason string
	degradedSince  float64

	stats *Stats
	ins   telemetry.PlatformInstruments
	// Reusable decision-log events.
	rev  telemetry.ReactiveAction
	fev  telemetry.FaultEvent
	dev  telemetry.DegradedTransition
	drev telemetry.DriftEvent
	jbev telemetry.JobBegin
	jeev telemetry.JobEnd
	psev telemetry.PredSample
	stev telemetry.StepSample

	// slaOK is jeev.SLAOK's verdict, when the job has a JCT SLA.
	slaOK bool

	// pq tracks prediction quality in every run.
	pq *obs.PredQ

	// Per-step scratch, reused so the steady-state loop allocates
	// nothing: the noise child generator and the online-learning input
	// snapshot.
	noiseChild rng.Rand
	snapBuf    []core.WorkloadInput
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
// the run's partial state discarded. A run is a pure function of its
// config and seed, so rerunning it is its recovery (DESIGN.md §12).
func Run(ctx context.Context, cfg Config) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.DurationS <= 0 {
		cfg.DurationS = 86400
	}
	m := cfg.Model
	inj, err := faults.NewInjector(cfg.Faults, m.Testbed.NumServers())
	if err != nil {
		return nil, err
	}
	state := sched.StateFromProfiles(m.Testbed.Servers[0], m.Testbed.NumServers())
	r := &runner{
		cfg:      cfg,
		ctx:      ctx,
		m:        m,
		stepper:  m.NewStepper(),
		state:    state,
		baseCaps: append([]resources.Vector(nil), state.Caps...),
		spec:     m.Testbed.Servers[0],
		noise:    rng.Stream(cfg.Seed, "platform-noise"),
		rnd:      rng.Stream(cfg.Seed, "platform"),
		inj:      inj,
		fallback: sched.NewWorstFit(),
		stats: &Stats{
			SchedulerName: cfg.Scheduler.Name(),
			SLAOK:         make(map[string][]bool),
			JCTs:          make(map[string][]float64),
		},
		ins: cfg.Telemetry.Platform(),
		pq:  obs.NewPredQ(),
	}
	r.scPool = make([]scPoolEntry, len(cfg.SCPool))
	r.jobFree = make([][]*scActive, len(cfg.SCPool))
	for i, w := range cfg.SCPool {
		wc := w.Clone()
		r.scPool[i] = scPoolEntry{w: wc, proto: perfmodel.NewDeployment(wc)}
	}
	if err := r.deployServices(); err != nil {
		return nil, err
	}
	r.scheduleArrivals()
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
		if placement == nil {
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

// scheduleArrivals draws the batch-job submission times.
func (r *runner) scheduleArrivals() {
	if len(r.cfg.SCPool) == 0 || r.cfg.SCMeanIntervalS <= 0 {
		return
	}
	r.arrivals = trace.JobArrivals(r.cfg.SCMeanIntervalS, 0, r.cfg.DurationS, r.rnd.Split())
}

// fireDue fires every fault change and job arrival due by t (at or
// before it), merging the two sorted slices by time. At equal times a
// fault fires before an arrival, and equal-time faults keep their
// slice order, so a fault and an arrival at the same instant always
// resolve the same way. fault and arrive fire one event each (a run
// passes applyFault and submitJob). r.now holds the event's time while
// it fires and t once fireDue returns. ctx is checked between events,
// so a cancellation lands between decisions, never inside one.
func (r *runner) fireDue(t float64, fault func(faults.Change), arrive func()) error {
	changes := r.inj.Changes()
	for {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		fDue := r.nextFault < len(changes) && changes[r.nextFault].AtS <= t
		aDue := r.nextArrival < len(r.arrivals) && r.arrivals[r.nextArrival] <= t
		if !fDue && !aDue {
			r.now = t
			return nil
		}
		r.ins.Events.Inc()
		if fDue && (!aDue || changes[r.nextFault].AtS <= r.arrivals[r.nextArrival]) {
			c := changes[r.nextFault]
			r.nextFault++
			r.now = c.AtS
			fault(c)
		} else {
			r.now = r.arrivals[r.nextArrival]
			r.nextArrival++
			arrive()
		}
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
		a.sla.MaxJCTFactor = sched.BatchJCTFactor
	}
	req := &r.reqBuf
	*req = sched.Request{Input: *in, SLA: a.sla, SoloDurationS: w.SoloDurationS}
	placement, _ := r.place(req) // the decision log holds the reason
	if placement == nil {
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
	// The scheduler's accepted-candidate JCT estimate anchors both the
	// job's admission event and its completion-time quality sample.
	a.predJCTS = req.Detail.PredJCTS
	r.jbev = telemetry.JobBegin{SimTimeS: r.now, ID: id, Archetype: w.Name, Job: in.Name, Placement: placement, PredJCTS: a.predJCTS}
	r.ins.Decisions.JobBegin(&r.jbev)
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

// place is the platform's single placement entry point. sched's
// degradation rule decides the placement, with an injected predictor
// outage routed around the primary scheduler. No path retries: every
// scheduler answers an unchanged state the same way, and a retry
// timeout would be the only wall-clock input on the decision path.
// Around the rule the runner keeps the degraded windows (an untrained
// predictor opens one, the primary's next placement closes it) and
// completes the request's one placement record with the cluster-wide
// context before it goes to the decision log. It returns the rule's
// answer: a placement exactly when the request was placed, and the
// primary's error.
func (r *runner) place(req *sched.Request) ([]int, error) {
	out := r.predictorOut()
	t0 := time.Now()
	placement, err := r.state.ProposeOrDegrade(r.cfg.Scheduler, r.fallback, out, req)
	r.stats.SchedulingTime += time.Since(t0)
	r.stats.Placements++
	if !out && err == nil && r.degradedReason == reasonUntrained {
		r.closeDegraded(r.now) // the predictor has caught up
	} else if errors.Is(err, core.ErrNotTrained) {
		r.enterDegraded(reasonUntrained)
	}
	d := &req.Detail
	if d.Outcome == "degraded" {
		r.stats.DegradedPlacements++
		r.ins.DegradedPlacements.Inc()
	}
	d.Workload, d.Class, d.Functions = req.Input.Name, req.Input.Class.String(), len(req.Input.Profiles)
	d.Servers, d.ActiveServers = r.state.NumServers(), r.state.ActiveServers()
	d.Placement = placement
	d.SimTimeS = r.now
	r.ins.Decisions.Placement(d)
	return placement, err
}

// enterDegraded opens a degraded interval (idempotent while open).
func (r *runner) enterDegraded(reason string) {
	if r.degraded {
		return
	}
	r.degraded = true
	r.degradedReason = reason
	r.degradedSince = r.now
	r.degradedEvent(r.now, true)
}

// closeDegraded closes the open degraded interval at endS.
func (r *runner) closeDegraded(endS float64) {
	if !r.degraded {
		return
	}
	r.stats.Degraded = append(r.stats.Degraded, DegradedInterval{
		StartS: r.degradedSince, EndS: endS, Reason: r.degradedReason,
	})
	r.degradedEvent(endS, false)
	r.degraded = false
	r.degradedReason = ""
}

// degradedEvent records the open interval's entry or exit at simS in
// the decision log.
func (r *runner) degradedEvent(simS float64, entered bool) {
	r.dev = telemetry.DegradedTransition{SimTimeS: simS, Entered: entered, Reason: r.degradedReason, Fallback: r.fallback.Name()}
	r.ins.Decisions.Degraded(&r.dev)
}

// applyFault transitions the injector state and makes the platform
// react: crashed nodes are cordoned and evacuated, stragglers lose
// schedulable and modeled capacity, storms force cold starts, outages
// flip degraded mode.
func (r *runner) applyFault(c faults.Change) {
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
			r.closeDegraded(r.now)
		}
	}
	r.fev = telemetry.FaultEvent{
		SimTimeS:          r.now,
		Kind:              c.Op.String(),
		Node:              c.Node,
		Factor:            c.Factor,
		DisplacedServices: displacedSvc,
		DisplacedJobs:     displacedJobs,
	}
	r.ins.Decisions.Fault(&r.fev)
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

// emptiestOnline returns the online server with the most free CPU,
// the first winning ties, or -1 when none qualifies: skip lists the
// servers it must not pick, and activeOnly also passes over idle ones.
func emptiestOnline(state *sched.State, activeOnly bool, skip ...int) int {
	best, bestFree := -1, -1.0
	for s := range state.Caps {
		if !state.Online(s) || slices.Contains(skip, s) || activeOnly && state.Used[s].IsZero() {
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
		if placement, _ := r.place(req); placement != nil { // else the log holds the reason
			for f := range placement {
				if placement[f] != ss.dep.Placement[f] {
					r.stats.ColdStarts += ss.dep.Replicas[f]
				}
			}
			copy(ss.dep.Placement, placement)
		} else if alt := emptiestOnline(r.state, false, node); alt != -1 {
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
		alt := emptiestOnline(r.state, false, node)
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

// loop drives the step loop to the configured horizon.
func (r *runner) loop() error {
	cfg := &r.cfg
	stats := r.stats
	ins := r.ins
	coresPerServer := r.spec.Capacity[resources.CPU]
	// Pre-size the per-step series so steady-state appends never regrow
	// their backing arrays.
	nSteps := int(cfg.DurationS/StepS) + 1
	for _, ss := range r.services {
		stats.SLAOK[ss.svc.W.Name] = make([]bool, 0, nSteps)
	}
	stats.Density = make([]float64, 0, nSteps)
	stats.CPUUtil = make([]float64, 0, nSteps)
	stats.MemUtil = make([]float64, 0, nSteps)
	stats.GoodDensity = make([]float64, 0, nSteps)
	stats.ActiveServers = make([]float64, 0, nSteps)
	step := 0
	for now := 0.0; now < cfg.DurationS; now += StepS {
		span := telemetry.StartSpan(ins.StepSeconds)
		// Fire job submissions and fault transitions due by now.
		if err := r.fireDue(now, r.applyFault, r.submitJob); err != nil {
			return err
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
			stats.Invocations += qps * StepS
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
				if placement, _ := r.place(req); placement != nil { // else the log holds the reason
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
		rep := r.stepper.Step(StepS, &r.noiseChild)

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
				if ss.violations >= violationPatience {
					// Reactive control, in the paper's Observation 5
					// shape: first move the corunner — evict a batch
					// job sharing the hottest function's server —
					// and only spread the service itself when no
					// corunner is to blame. Either way the move is
					// the density price of crossing the SLA, paid
					// most often by inaccurate predictors.
					hot := ss.dep.Placement[worstFuncs(lr, 1)[0]]
					if evictSC(r.state, r.activeSC, hot) {
						stats.Migrations++
						moved := 1
						if n := migrateWorst(r.state, ss, lr, 1); n > 0 {
							stats.Migrations += n
							stats.ColdStarts += n
							moved += n
						}
						ss.cooldown = 20
						r.stepper.MarkDirty()
						refreshState(r.state, r.services, r.activeSC)
						r.reactive(now, "evict-corunner", ss.svc.W.Name, moved)
					} else if n := migrateWorst(r.state, ss, lr, 3); n > 0 {
						stats.Migrations += n
						stats.ColdStarts += n
						ss.cooldown = 40
						r.stepper.MarkDirty()
						refreshState(r.state, r.services, r.activeSC)
						r.reactive(now, "spread-service", ss.svc.W.Name, n)
					}
					ss.violations = 0
				}
			}
			// Online learning feedback — paused while an injected
			// outage makes the predictor unreachable.
			if cfg.Predictor != nil && step%observeEvery == 0 && !r.predictorOut() {
				inputs := r.snapshotInputs()
				// Predict-then-observe: score the model on the label it
				// is about to learn from. Predict is pure, so the extra
				// call cannot perturb the run.
				if pred, perr := cfg.Predictor.Predict(core.IPCQoS, i, inputs); perr == nil {
					r.trackPrediction(now, ss.svc.W.Name, "ipc", pred, lr.IPC)
				}
				_ = cfg.Predictor.Observe(core.IPCQoS, i, inputs, lr.IPC)
			}
		}

		// Completed jobs leave the cluster; their records go back to
		// the pool for the next submission of the same workload.
		for _, done := range rep.Completed {
			if a := r.removeJob(done.ID); a != nil {
				solo := a.dep.W.SoloDurationS
				slowdown := 0.0
				if solo > 0 {
					slowdown = done.JCTS / solo
				}
				r.jeev = telemetry.JobEnd{SimTimeS: now, ID: done.ID, Archetype: done.Name, JCTS: done.JCTS, Slowdown: slowdown}
				if a.sla.MaxJCTFactor > 0 && solo > 0 {
					r.slaOK = done.JCTS <= solo*a.sla.MaxJCTFactor
					r.jeev.SLAOK = &r.slaOK
				}
				r.ins.Decisions.JobEnd(&r.jeev)
				if a.predJCTS > 0 {
					r.trackPrediction(now, done.Name, "jct", a.predJCTS, done.JCTS)
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
			if d.IsZero() && r.state.Used[s].IsZero() {
				continue
			}
			activeServers++
			cpuDem += d[resources.CPU]
			memAlloc += r.state.Used[s][resources.Memory]
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
		if r.ins.Decisions != nil {
			r.logStep(now, step, rep.ServerDemand, activeServers, density, goodDensity, cpuUtil, memUtil)
		}
		span.End()
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

// reactive records a reactive-control action in the decision log.
func (r *runner) reactive(simS float64, action, service string, moved int) {
	r.rev = telemetry.ReactiveAction{SimTimeS: simS, Action: action, Service: service, Moved: moved}
	r.ins.Decisions.Reactive(&r.rev)
}

// trackPrediction logs one predicted/observed QoS pair as a sample and
// folds it into the quality tracker; a drift detection is logged next.
func (r *runner) trackPrediction(simS float64, archetype, qos string, pred, observed float64) {
	r.psev = telemetry.PredSample{SimTimeS: simS, Archetype: archetype, QoS: qos, Pred: pred, Obs: observed}
	r.ins.Decisions.PredSample(&r.psev)
	d, fired := r.pq.Track(archetype, qos, pred, observed)
	if !fired {
		return
	}
	r.drev = d
	r.drev.SimTimeS = simS
	r.ins.Decisions.Drift(&r.drev)
}

// logStep logs the step that just computed its metrics. Callers gate
// on the decision log being on; the sample's arrays are reused, so
// logging allocates only on the first step.
func (r *runner) logStep(now float64, step int, demand []resources.Vector, active int, density, goodDensity, cpuUtil, memUtil float64) {
	e := &r.stev
	if e.CPUDemand == nil {
		n := r.state.NumServers()
		e.CPUDemand = make([]float32, n)
		e.MemUsed = make([]float32, n)
		e.Down = make([]int, 0, n)
		e.Slow = make([]int, 0, n)
	}
	e.SimTimeS = now
	e.Step = step
	e.ActiveServers = active
	e.Pending = len(r.arrivals) - r.nextArrival // arrivals still ahead
	e.Density, e.GoodDensity, e.CPUUtil, e.MemUtil = density, goodDensity, cpuUtil, memUtil
	e.Degraded = r.degraded
	e.PredictorDown = r.predictorOut()
	e.Down, e.Slow = e.Down[:0], e.Slow[:0]
	for s := range e.CPUDemand {
		e.CPUDemand[s] = float32(demand[s][resources.CPU])
		e.MemUsed[s] = float32(r.state.Used[s][resources.Memory])
		if r.inj.NodeDown(s) {
			e.Down = append(e.Down, s)
		}
		if r.inj.CapacityFactor(s) != 1 {
			e.Slow = append(e.Slow, s)
		}
	}
	r.ins.Decisions.Step(e)
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
func refreshState(st *sched.State, services []*serviceState, activeSC []*scActive) {
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
	// The surgery above left the counted-mode caches stale; Recount
	// rebuilds them.
	st.Recount()
}

type scActive struct {
	id    int
	pool  int // SCPool index, the record's free-list on completion
	input core.WorkloadInput
	sla   sched.SLA
	dep   *perfmodel.Deployment
	// predJCTS is the scheduler's JCT estimate at admission (0 when the
	// decision used no prediction).
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
func migrateWorst(state *sched.State, ss *serviceState, r perfmodel.LSResult, n int) int {
	moved := 0
	var buf [3]int
	taken := buf[:0]
	for _, f := range worstFuncs(r, n) {
		// Prefer relieving pressure within the already-active fleet:
		// waking a dormant server is the last resort, so reactive
		// control does not silently destroy consolidation.
		best := emptiestOnline(state, true, taken...)
		if best == -1 || best == ss.dep.Placement[f] {
			if alt := emptiestOnline(state, false, taken...); alt != -1 && alt != ss.dep.Placement[f] {
				best = alt
			}
		}
		if best == -1 {
			continue
		}
		taken = append(taken, best)
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
	best := emptiestOnline(state, false, hot)
	if best == -1 {
		return false
	}
	for f := range victim.dep.Placement {
		victim.dep.Placement[f] = best
		victim.input.Placement[f] = best
	}
	return true
}
