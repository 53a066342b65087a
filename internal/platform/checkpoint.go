package platform

import (
	"encoding/json"
	"errors"
	"fmt"

	"gsight/internal/core"
	"gsight/internal/faults"
	"gsight/internal/perfmodel"
	"gsight/internal/persist"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/sched"
	"gsight/internal/telemetry"
	"gsight/internal/workload"
)

// Crash-consistent checkpointing (DESIGN.md §12). The platform's whole
// simulation is deterministic given its seed, so recovery does not need
// to replay effects — it re-executes them. A snapshot captures the full
// controller state at a step boundary (learned models, training
// buffers, scheduler state, RNG cursors); the WAL records every
// placement and observation made after it. Resume restores the
// snapshot and re-runs the simulation from that boundary, verifying
// each regenerated record against the WAL byte-for-byte: matching
// records prove the resumed run walks the exact path of the crashed
// one, and the first un-logged event switches the WAL to append mode.
// The result is byte-identical to the uninterrupted same-seed run no
// matter where (or how often) the controller died.

// ErrControllerCrashed reports a run killed by an injected
// controller-crash fault. When checkpointing is enabled the run can be
// resumed from disk with Config.Checkpoint.Resume.
var ErrControllerCrashed = errors.New("platform: controller crashed")

// CheckpointConfig configures crash-consistent checkpointing of a run.
type CheckpointConfig struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// IntervalS is the simulated time between snapshots; <= 0 means
	// 1800 s. Snapshots land on step boundaries.
	IntervalS float64
	// Resume continues from the latest valid snapshot in Dir (replaying
	// the WAL chain after it) instead of starting fresh. With no valid
	// snapshot the run starts fresh — so a retry loop can pass Resume
	// unconditionally.
	Resume bool
}

// checkpointKeep is the number of snapshot generations retained: the
// newest plus one fallback.
const checkpointKeep = 2

// deploymentCkpt is a perfmodel.Deployment's checkpoint form; the
// workload itself is rebuilt from config.
type deploymentCkpt struct {
	Placement     []int   `json:"placement"`
	Socket        []int   `json:"socket"`
	Replicas      []int   `json:"replicas"`
	QPS           float64 `json:"qps,omitempty"`
	StartDelayS   float64 `json:"start_delay_s,omitempty"`
	ColdStartFrac float64 `json:"cold_start_frac,omitempty"`
	Protected     bool    `json:"protected,omitempty"`
}

func deploymentState(d *perfmodel.Deployment) deploymentCkpt {
	return deploymentCkpt{
		Placement:     d.Placement,
		Socket:        d.Socket,
		Replicas:      d.Replicas,
		QPS:           d.QPS,
		StartDelayS:   d.StartDelayS,
		ColdStartFrac: d.ColdStartFrac,
		Protected:     d.Protected,
	}
}

func (c *deploymentCkpt) restoreInto(d *perfmodel.Deployment) error {
	n := len(d.Placement)
	if len(c.Placement) != n || len(c.Socket) != n || len(c.Replicas) != n {
		return fmt.Errorf("platform: checkpoint deployment for %s has wrong arity", d.W.Name)
	}
	copy(d.Placement, c.Placement)
	copy(d.Socket, c.Socket)
	copy(d.Replicas, c.Replicas)
	d.QPS = c.QPS
	d.StartDelayS = c.StartDelayS
	d.ColdStartFrac = c.ColdStartFrac
	d.Protected = c.Protected
	return nil
}

type serviceCkpt struct {
	Name       string            `json:"name"`
	Dep        deploymentCkpt    `json:"dep"`
	Violations int               `json:"violations"`
	Cooldown   int               `json:"cooldown"`
	Profiles   []profile.Profile `json:"profiles"`
}

type jobCkpt struct {
	ID       int            `json:"id"`
	Workload string         `json:"workload"` // SCPool workload name
	Name     string         `json:"name"`     // unique run name
	Dep      deploymentCkpt `json:"dep"`
	SLA      sched.SLA      `json:"sla"`
	QPSFrac  float64        `json:"qps_frac,omitempty"`
	// InPlacement/InReplicas are the scheduler-visible input's slices:
	// same values as the deployment's but a distinct array, preserved
	// as such.
	InPlacement []int `json:"in_placement"`
	InReplicas  []int `json:"in_replicas"`
	// PredJCTS is the admission-time JCT estimate feeding the job's
	// completion quality sample (obs; 0 when untracked).
	PredJCTS float64 `json:"pred_jct_s,omitempty"`
}

type runningCkpt struct {
	Name        string    `json:"name"`
	Class       int       `json:"class"`
	QPSFrac     float64   `json:"qps_frac,omitempty"`
	StartDelayS float64   `json:"start_delay_s,omitempty"`
	LifetimeS   float64   `json:"lifetime_s,omitempty"`
	Placement   []int     `json:"placement"`
	Replicas    []int     `json:"replicas"`
	SLA         sched.SLA `json:"sla"`
}

// stateCkpt serializes the scheduler state verbatim. Used is never
// rebuilt from Running on restore: the live vectors are the result of
// an exact sequence of adds, subtracts and clamps whose floating-point
// outcome a fresh rebuild would not reproduce bit-for-bit.
type stateCkpt struct {
	Caps    []resources.Vector `json:"caps"`
	Used    []resources.Vector `json:"used"`
	Offline []bool             `json:"offline,omitempty"`
	Running []runningCkpt      `json:"running"`
}

// ckptPayload is the platform's snapshot schema: the JSON section of
// the payload (persist.FramePayload). The predictor's checkpoint, when a
// predictor is attached, is the binary blob framed after it.
type ckptPayload struct {
	Seed      uint64  `json:"seed"`
	Scheduler string  `json:"scheduler"`
	DurationS float64 `json:"duration_s"`
	StepS     float64 `json:"step_s"`
	// FiredUpToS is the sim time through which events have executed;
	// -1 marks the pre-loop snapshot (nothing fired yet). The resumed
	// loop starts at FiredUpToS+StepS (or 0).
	FiredUpToS float64 `json:"fired_up_to_s"`
	Step       int     `json:"step"`

	Rnd      [4]uint64 `json:"rnd"`
	Noise    [4]uint64 `json:"noise"`
	Arrivals []float64 `json:"arrivals,omitempty"` // submissions still ahead

	Services   []serviceCkpt                `json:"services"`
	Jobs       []jobCkpt                    `json:"jobs,omitempty"`
	SCProfiles map[string][]profile.Profile `json:"sc_profiles,omitempty"`

	Stepper  perfmodel.StepperState `json:"stepper"`
	State    stateCkpt              `json:"state"`
	Injector faults.InjectorState   `json:"injector"`

	Degraded       bool    `json:"degraded,omitempty"`
	DegradedReason string  `json:"degraded_reason,omitempty"`
	DegradedSinceS float64 `json:"degraded_since_s,omitempty"`

	Stats *Stats `json:"stats"`

	LogSeq   uint64 `json:"log_seq"`
	LogBytes int64  `json:"log_bytes"`

	// Obs is the observability recorder's position (stream offsets plus
	// the prediction-quality tracker), absent when obs is disabled.
	Obs json.RawMessage `json:"obs,omitempty"`
}

// walRecord is one WAL entry: a placement decision, an online-learning
// observation, or the marker a controller-crash leaves behind so the
// resumed run knows the crash was already taken.
type walRecord struct {
	T         string  `json:"t"` // "place", "obs", "crash"
	SimS      float64 `json:"sim_s"`
	Name      string  `json:"name,omitempty"`
	Placement []int   `json:"placement,omitempty"`
	Rejected  bool    `json:"rejected,omitempty"`
	Kind      string  `json:"kind,omitempty"`
	Target    int     `json:"target,omitempty"`
	Label     float64 `json:"label,omitempty"`
}

// checkpointer drives snapshots and the WAL for one runner, on a
// persist.Store, which also verifies a resumed run's records against
// the crashed incarnation's until they are used up.
type checkpointer struct {
	r         *runner
	intervalS float64
	store     *persist.Store
	lastSnapS float64
}

// newCheckpointer validates the configuration and prepares dir.
func newCheckpointer(r *runner) (*checkpointer, error) {
	if r.cfg.Predictor != nil {
		if _, ok := r.cfg.Predictor.(core.Checkpointable); !ok {
			return nil, fmt.Errorf("platform: checkpointing requires a checkpointable predictor, %T is not", r.cfg.Predictor)
		}
	}
	store, err := persist.OpenStore(r.cfg.Checkpoint.Dir, checkpointKeep)
	if err != nil {
		return nil, fmt.Errorf("platform: checkpoint dir: %w", err)
	}
	c := &checkpointer{r: r, intervalS: r.cfg.Checkpoint.IntervalS, store: store}
	if c.intervalS <= 0 {
		c.intervalS = 1800
	}
	return c, nil
}

// fail aborts the run with a checkpoint/replay error.
func (c *checkpointer) fail(err error) {
	if c.r.ckErr == nil {
		c.r.ckErr = err
	}
	c.r.cancel()
}

// note hands rec to the store: verified against the crashed
// incarnation's record while a resumed run replays, appended to the WAL
// after. Any mismatch means the resumed run diverged from the crashed
// one — a corrupt snapshot the checksum missed, or changed config — and
// aborts rather than silently forking history.
func (c *checkpointer) note(rec *walRecord) {
	data, err := json.Marshal(rec)
	if err != nil {
		c.fail(fmt.Errorf("platform: wal record: %w", err))
		return
	}
	if c.store.Live() == nil {
		return // fresh run before the first snapshot: nothing to log yet
	}
	replaying := c.store.Replaying()
	if err := c.store.Append(data); err != nil {
		c.fail(fmt.Errorf("platform: wal record at sim time %g: %w", rec.SimS, err))
		return
	}
	if !replaying {
		c.r.ins.WALRecords.Inc()
	}
}

// maybeSnapshot writes a snapshot when the interval has elapsed. It
// never snapshots mid-replay: the WAL chain on disk still describes
// spans the resumed run has not re-verified.
func (c *checkpointer) maybeSnapshot(now float64, step int) error {
	if c.store.Replaying() || now-c.lastSnapS < c.intervalS {
		return nil
	}
	return c.snapshot(now, step)
}

// snapshot captures the runner at a boundary (firedUpTo = -1 before the
// loop) as the next generation: every output stream is fsynced up to the
// offset the payload is about to record, the WAL rotates, and the
// snapshot is published.
func (c *checkpointer) snapshot(firedUpTo float64, step int) error {
	span := telemetry.StartSpan(c.r.ins.CheckpointSeconds)
	if err := c.r.ins.Decisions.Stream().Sync(); err != nil {
		return fmt.Errorf("platform: checkpoint: decision log: %w", err)
	}
	if err := c.r.obs.Sync(); err != nil {
		return fmt.Errorf("platform: checkpoint: obs: %w", err)
	}
	payload, err := c.r.capturePayload(firedUpTo, step)
	if err != nil {
		return err
	}
	gen, err := c.store.Rotate()
	if err == nil {
		err = c.store.Publish(gen, payload)
	}
	if err != nil {
		return fmt.Errorf("platform: checkpoint: %w", err)
	}
	if firedUpTo > 0 {
		c.lastSnapS = firedUpTo
	}
	c.r.ins.Checkpoints.Inc()
	span.End()
	return nil
}

// capturePayload serializes the runner's full state at a boundary.
func (r *runner) capturePayload(firedUpTo float64, step int) ([]byte, error) {
	// The profile cache serializes in its historical map form: JSON
	// object keys marshal sorted, so the snapshot bytes stay identical
	// to the map-backed cache's.
	var scp map[string][]profile.Profile
	for i := range r.scPool {
		if r.scPool[i].ps == nil {
			continue
		}
		if scp == nil {
			scp = make(map[string][]profile.Profile, len(r.scPool))
		}
		scp[r.scPool[i].w.Name] = r.scPool[i].ps
	}
	p := ckptPayload{
		Seed:       r.cfg.Seed,
		Scheduler:  r.cfg.Scheduler.Name(),
		DurationS:  r.cfg.DurationS,
		StepS:      r.cfg.StepS,
		FiredUpToS: firedUpTo,
		Step:       step,
		Rnd:        r.rnd.State(),
		Noise:      r.noise.State(),
		Stepper:    r.stepper.ExportState(),
		Injector:   r.inj.ExportState(),
		SCProfiles: scp,
		Degraded:   r.degraded,
		Stats:      r.stats,
	}
	if r.degraded {
		p.DegradedReason = r.degradedReason
		p.DegradedSinceS = r.degradedSince
	}
	for _, t := range r.arrivals {
		if t > firedUpTo {
			p.Arrivals = append(p.Arrivals, t)
		}
	}
	for _, ss := range r.services {
		p.Services = append(p.Services, serviceCkpt{
			Name:       ss.svc.W.Name,
			Dep:        deploymentState(ss.dep),
			Violations: ss.violations,
			Cooldown:   ss.cooldown,
			Profiles:   ss.profiles,
		})
	}
	for _, a := range r.activeSC {
		p.Jobs = append(p.Jobs, jobCkpt{
			ID:          a.id,
			Workload:    a.dep.W.Name,
			Name:        a.input.Name,
			Dep:         deploymentState(a.dep),
			SLA:         a.sla,
			QPSFrac:     a.input.QPSFrac,
			InPlacement: a.input.Placement,
			InReplicas:  a.input.Replicas,
			PredJCTS:    a.predJCTS,
		})
	}
	p.State = stateCkpt{
		Caps:    r.state.Caps,
		Used:    r.state.Used,
		Offline: r.state.Offline,
	}
	for _, d := range r.state.Running {
		p.State.Running = append(p.State.Running, runningCkpt{
			Name:        d.Input.Name,
			Class:       int(d.Input.Class),
			QPSFrac:     d.Input.QPSFrac,
			StartDelayS: d.Input.StartDelayS,
			LifetimeS:   d.Input.LifetimeS,
			Placement:   d.Input.Placement,
			Replicas:    d.Input.Replicas,
			SLA:         d.SLA,
		})
	}
	var predictor []byte
	if r.cfg.Predictor != nil {
		var err error
		if predictor, err = r.cfg.Predictor.(core.Checkpointable).CheckpointState(); err != nil {
			return nil, fmt.Errorf("platform: checkpoint predictor: %w", err)
		}
	}
	p.LogSeq, p.LogBytes = r.ins.Decisions.Stream().Offset()
	var err error
	if p.Obs, err = r.obs.CheckpointState(); err != nil {
		return nil, fmt.Errorf("platform: checkpoint obs: %w", err)
	}
	ctl, err := json.Marshal(&p)
	if err != nil {
		return nil, err
	}
	return persist.FramePayload(ctl, predictor), nil
}

// decodePayload splits a snapshot payload into the platform's JSON
// section, parsed, and the predictor blob, untouched.
func decodePayload(payload []byte) (*ckptPayload, []byte, error) {
	ctl, predictor, err := persist.SplitPayload(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("platform: %w", err)
	}
	var p ckptPayload
	if err := json.Unmarshal(ctl, &p); err != nil {
		return nil, nil, fmt.Errorf("platform: checkpoint payload: %w", err)
	}
	return &p, predictor, nil
}

// resume recovers the checkpoint directory and rebuilds the runner
// mid-horizon from its newest valid snapshot; the store verifies the
// re-executed records against the WAL chain after it, and the chain's
// last file keeps taking the records the run appends once the chain is
// used up. It reports persist.ErrNoSnapshot when the directory has
// nothing to resume from.
func (r *runner) resume() error {
	c := r.ck
	rec, err := c.store.Recover()
	if err != nil {
		return err
	}
	p, predictor, err := decodePayload(rec.Payload)
	if err != nil {
		return err
	}
	if err := r.restorePayload(p, predictor); err != nil {
		return err
	}
	if p.FiredUpToS > 0 {
		c.lastSnapS = p.FiredUpToS
	}
	r.ins.Resumes.Inc()
	return nil
}

// restorePayload rebuilds the runner from a snapshot payload: every
// structure the step loop reads is either restored verbatim or
// reconstructed deterministically, so the next step computes exactly
// what the uninterrupted run's would have.
func (r *runner) restorePayload(p *ckptPayload, predictor []byte) error {
	cfg := &r.cfg
	if p.Seed != cfg.Seed {
		return fmt.Errorf("platform: checkpoint seed %d, run configured with %d", p.Seed, cfg.Seed)
	}
	if p.Scheduler != cfg.Scheduler.Name() {
		return fmt.Errorf("platform: checkpoint scheduler %q, run configured with %q", p.Scheduler, cfg.Scheduler.Name())
	}
	if p.StepS != cfg.StepS || p.DurationS != cfg.DurationS {
		return fmt.Errorf("platform: checkpoint horizon (%g/%g s) does not match config (%g/%g s)",
			p.StepS, p.DurationS, cfg.StepS, cfg.DurationS)
	}
	numServers := r.m.Testbed.NumServers()
	if len(p.State.Caps) != numServers || len(p.State.Used) != numServers {
		return fmt.Errorf("platform: checkpoint cluster size %d, testbed has %d servers", len(p.State.Caps), numServers)
	}
	if p.Stats == nil {
		return fmt.Errorf("platform: checkpoint has no stats")
	}
	rnd, err := rng.FromState(p.Rnd)
	if err != nil {
		return fmt.Errorf("platform: checkpoint rng: %w", err)
	}
	noise, err := rng.FromState(p.Noise)
	if err != nil {
		return fmt.Errorf("platform: checkpoint noise rng: %w", err)
	}
	r.rnd, r.noise = rnd, noise

	// Resident services: order and identity must match the config.
	if len(p.Services) != len(cfg.Services) {
		return fmt.Errorf("platform: checkpoint has %d services, config has %d", len(p.Services), len(cfg.Services))
	}
	r.services = make([]*serviceState, 0, len(cfg.Services))
	for i := range cfg.Services {
		svc := cfg.Services[i]
		sc := &p.Services[i]
		if sc.Name != svc.W.Name {
			return fmt.Errorf("platform: checkpoint service %d is %q, config has %q", i, sc.Name, svc.W.Name)
		}
		if len(sc.Profiles) != len(svc.W.Functions) {
			return fmt.Errorf("platform: checkpoint service %q has %d profiles for %d functions",
				sc.Name, len(sc.Profiles), len(svc.W.Functions))
		}
		dep := perfmodel.NewDeployment(svc.W)
		if err := sc.Dep.restoreInto(dep); err != nil {
			return err
		}
		if err := r.stepper.AddLS(dep); err != nil {
			return err
		}
		r.services = append(r.services, &serviceState{
			svc: svc, dep: dep, profiles: sc.Profiles,
			violations: sc.Violations, cooldown: sc.Cooldown,
		})
	}

	// Batch jobs: rebuilt from the SC pool's workload definitions. The
	// cached profiles land back in their pool entries; jobs were
	// serialized ascending by id, so appends restore the activeSC order
	// invariant.
	pool := map[string]int{}
	for i, w := range cfg.SCPool {
		pool[w.Name] = i
	}
	for name, ps := range p.SCProfiles {
		if pi, ok := pool[name]; ok {
			r.scPool[pi].ps = ps
		}
	}
	deps := make(map[int]*perfmodel.Deployment, len(p.Jobs))
	for i := range p.Jobs {
		jc := &p.Jobs[i]
		pi, ok := pool[jc.Workload]
		if !ok {
			return fmt.Errorf("platform: checkpoint job %q uses workload %q not in the SC pool", jc.Name, jc.Workload)
		}
		pe := &r.scPool[pi]
		if pe.ps == nil {
			return fmt.Errorf("platform: checkpoint job %q has no cached profiles", jc.Name)
		}
		dep := perfmodel.NewDeployment(pe.w)
		if err := jc.Dep.restoreInto(dep); err != nil {
			return err
		}
		in := core.WorkloadInput{
			Name:      jc.Name,
			Class:     pe.w.Class,
			Profiles:  pe.ps,
			Placement: jc.InPlacement,
			Replicas:  jc.InReplicas,
			QPSFrac:   jc.QPSFrac,
			LifetimeS: pe.w.SoloDurationS,
		}
		r.activeSC = append(r.activeSC, &scActive{id: jc.ID, pool: pi, input: in, sla: jc.SLA, dep: dep, predJCTS: jc.PredJCTS})
		deps[jc.ID] = dep
	}
	if err := r.stepper.RestoreState(p.Stepper, deps); err != nil {
		return err
	}

	// Scheduler state, verbatim.
	st := r.state
	copy(st.Caps, p.State.Caps)
	copy(st.Used, p.State.Used)
	if p.State.Offline != nil {
		if len(p.State.Offline) != numServers {
			return fmt.Errorf("platform: checkpoint offline mask has %d entries for %d servers", len(p.State.Offline), numServers)
		}
		st.Offline = append([]bool(nil), p.State.Offline...)
	}
	st.Running = st.Running[:0]
	for i := range p.State.Running {
		rc := &p.State.Running[i]
		var ps []profile.Profile
		if ss := r.serviceByName(rc.Name); ss != nil {
			ps = ss.profiles
		} else if base, ok := core.BaseName(rc.Name); ok {
			for pi := range r.scPool {
				if r.scPool[pi].w.Name == base {
					ps = r.scPool[pi].ps
					break
				}
			}
		}
		if ps == nil {
			return fmt.Errorf("platform: checkpoint running workload %q has no profiles", rc.Name)
		}
		st.Running = append(st.Running, sched.Deployed{
			Input: core.WorkloadInput{
				Name:        rc.Name,
				Class:       workload.Class(rc.Class),
				Profiles:    ps,
				Placement:   rc.Placement,
				Replicas:    rc.Replicas,
				QPSFrac:     rc.QPSFrac,
				StartDelayS: rc.StartDelayS,
				LifetimeS:   rc.LifetimeS,
			},
			SLA: rc.SLA,
		})
	}

	// The surgery above bypassed the counted caches and the stamps;
	// Recount rebuilds the first and restamps every server (no
	// proposal survives a restore, so the commit clock is not state).
	r.state.Recount()

	// Fault state: the injector's live view, plus its side effects on
	// the model and the (already restored) capacity vectors.
	if err := r.inj.RestoreState(p.Injector); err != nil {
		return err
	}
	for s, f := range p.Injector.Slow {
		r.m.SetCapacityScale(s, f)
	}
	r.degraded = p.Degraded
	r.degradedReason = p.DegradedReason
	r.degradedSince = p.DegradedSinceS
	r.stats = p.Stats
	if r.stats.SLAOK == nil {
		r.stats.SLAOK = make(map[string][]bool)
	}
	if r.stats.JCTs == nil {
		r.stats.JCTs = make(map[string][]float64)
	}

	// Event timeline: set the clock past everything already fired, then
	// re-register what is still ahead — faults before arrivals, exactly
	// like the fresh path, so simultaneous events keep their order.
	if p.FiredUpToS >= 0 {
		r.engine.RunUntil(p.FiredUpToS)
	}
	r.arrivals = p.Arrivals
	r.scheduleFaults(p.FiredUpToS)
	r.registerArrivals(p.FiredUpToS)

	// Cut every output stream back to the offset the snapshot recorded:
	// the resumed run re-emits what came after it, byte for byte.
	if err := r.ins.Decisions.Stream().TruncateTo(p.LogSeq, p.LogBytes); err != nil {
		return fmt.Errorf("platform: checkpoint decision log: %w", err)
	}
	if err := r.obs.RestoreCheckpoint(p.Obs); err != nil {
		return fmt.Errorf("platform: checkpoint obs: %w", err)
	}
	if cfg.Predictor != nil {
		if len(predictor) == 0 {
			return fmt.Errorf("platform: checkpoint has no predictor state but a predictor is attached")
		}
		if err := cfg.Predictor.(core.Checkpointable).RestoreCheckpoint(predictor); err != nil {
			return err
		}
	}
	if p.FiredUpToS >= 0 {
		r.startS = p.FiredUpToS + cfg.StepS
	}
	r.startStep = p.Step
	return nil
}

// serviceByName finds a resident service's runtime state.
func (r *runner) serviceByName(name string) *serviceState {
	for _, ss := range r.services {
		if ss.svc.W.Name == name {
			return ss
		}
	}
	return nil
}

// CheckpointMeta is the latest resumable position in a checkpoint
// directory. Callers use it before a resume to decide whether to skip
// bootstrap work and whether their output files are continued or
// created.
type CheckpointMeta struct {
	Seq       uint64
	SimTimeS  float64 // sim time through which the snapshot's events ran
	Step      int
	Seed      uint64
	Scheduler string
}

// PeekCheckpoint reads the latest valid snapshot's metadata.
func PeekCheckpoint(dir string) (*CheckpointMeta, error) {
	payload, seq, err := persist.LatestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	p, _, err := decodePayload(payload)
	if err != nil {
		return nil, err
	}
	return &CheckpointMeta{
		Seq:       seq,
		SimTimeS:  p.FiredUpToS,
		Step:      p.Step,
		Seed:      p.Seed,
		Scheduler: p.Scheduler,
	}, nil
}

// controllerCrash takes (or replays) an injected controller-crash. On
// the first encounter the crash marker is the last record the dying
// incarnation writes, fsynced before the run unwinds with
// ErrControllerCrashed; when the resumed run re-reaches the event the
// marker is the next record of the replay queue, and verifying it there
// is what stops the run from dying at the same event forever. The op is
// invisible in every run output (no decision events, no RNG draws, no
// Stats), so a crashed-and-resumed run stays byte-identical to one that
// never crashed.
func (r *runner) controllerCrash() {
	if c := r.ck; c != nil {
		taken := c.store.Replaying()
		c.note(&walRecord{T: "crash", SimS: r.engine.Now()})
		if taken || r.ckErr != nil {
			return // already taken, or aborting: do not crash again
		}
		if wal := c.store.Live(); wal != nil {
			if err := wal.Sync(); err != nil {
				c.fail(fmt.Errorf("platform: crash marker: %w", err))
			}
		}
	}
	r.crashed = true
	r.cancel()
}
