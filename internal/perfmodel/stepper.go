package perfmodel

import (
	"fmt"

	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/workload"
)

// Stepper advances a mutable scenario through time: LS deployments can
// be added, resized and re-placed while SC/BG jobs arrive and complete.
// It is the ground-truth engine under the platform simulation (§6.3's
// trace-driven scheduling study), reusing the same contention model as
// Evaluate.
type Stepper struct {
	m      *Model
	now    float64
	ls     []*Deployment
	lsRefs []float64
	dirty  bool
	sc     []*scRun
	nextID int

	// Per-step scratch: the solver, the SC background demand store,
	// the active-job list and the report are all reused, so a
	// steady-state Step allocates nothing. The returned *StepReport is
	// valid until the next Step call.
	sv      *lsSolver
	bg      *demandStore
	actives []scActiveJob
	rep     StepReport
}

// scActiveJob is the per-step record of one running SC/BG job.
type scActiveJob struct {
	run *scRun
	fn  int
	ph  workload.Phase
	ex  resources.Vector
}

// scRun tracks one running SC/BG job.
type scRun struct {
	id       int
	dep      *Deployment
	started  float64
	progress float64
	done     bool
}

// CompletedJob reports a finished SC/BG job.
type CompletedJob struct {
	ID   int
	Name string
	JCTS float64
}

// StepReport is the outcome of one Step.
type StepReport struct {
	Now       float64
	LS        []LSResult // aligned with LSDeployments()
	Completed []CompletedJob
	ActiveSC  int
	// ServerDemand[s] is the total resource demand exerted on server s
	// during the step (socket domains folded in) — the utilization
	// ground truth behind Figure 11(b).
	ServerDemand []resources.Vector
}

// NewStepper returns an empty stepper over the model's testbed.
func (m *Model) NewStepper() *Stepper {
	return &Stepper{m: m, dirty: true, sv: m.newSolver(), bg: newDemandStore(m.Testbed)}
}

// Now returns the current simulation time in seconds.
func (st *Stepper) Now() float64 { return st.now }

// AddLS registers a latency-sensitive deployment.
func (st *Stepper) AddLS(d *Deployment) error {
	if d.W.Class != workload.LS {
		return fmt.Errorf("perfmodel: AddLS on %v workload", d.W.Class)
	}
	if err := d.Validate(st.m.Testbed.NumServers()); err != nil {
		return err
	}
	st.ls = append(st.ls, d)
	st.dirty = true
	return nil
}

// RemoveLS removes the named LS deployment.
func (st *Stepper) RemoveLS(name string) bool {
	for i, d := range st.ls {
		if d.W.Name == name {
			st.ls = append(st.ls[:i], st.ls[i+1:]...)
			st.dirty = true
			return true
		}
	}
	return false
}

// LSDeployments exposes the registered LS deployments; callers may
// mutate QPS, Replicas and Placement but must call MarkDirty afterwards
// when placement or replica counts change.
func (st *Stepper) LSDeployments() []*Deployment { return st.ls }

// MarkDirty forces recomputation of the no-interference references
// (needed after placement or replica changes).
func (st *Stepper) MarkDirty() { st.dirty = true }

// AddSC starts an SC/BG job now and returns its id.
func (st *Stepper) AddSC(d *Deployment) (int, error) {
	if d.W.Class == workload.LS {
		return 0, fmt.Errorf("perfmodel: AddSC on LS workload")
	}
	if err := d.Validate(st.m.Testbed.NumServers()); err != nil {
		return 0, err
	}
	st.nextID++
	st.sc = append(st.sc, &scRun{id: st.nextID, dep: d, started: st.now})
	return st.nextID, nil
}

// ActiveSC returns the number of running SC/BG jobs.
func (st *Stepper) ActiveSC() int {
	n := 0
	for _, r := range st.sc {
		if !r.done {
			n++
		}
	}
	return n
}

// SCRunState is one running SC/BG job's checkpoint form; jobs are
// identified by the id AddSC returned.
type SCRunState struct {
	ID       int     `json:"id"`
	StartedS float64 `json:"started_s"`
	Progress float64 `json:"progress"`
}

// StepperState is the stepper's checkpoint form. LSRefs is serialized
// verbatim rather than recomputed on restore: the no-interference
// references are only refreshed when the dirty flag is set, so a
// resumed run recomputing them eagerly (under the current QPS instead
// of the QPS at the last MarkDirty) would diverge from the
// uninterrupted run.
type StepperState struct {
	NowS   float64      `json:"now_s"`
	NextID int          `json:"next_id"`
	Dirty  bool         `json:"dirty"`
	LSRefs []float64    `json:"ls_refs"`
	SC     []SCRunState `json:"sc"`
}

// ExportState snapshots the stepper's time, reference and job state.
// The LS deployments themselves are owned (and checkpointed) by the
// caller, which re-registers them via AddLS before RestoreState.
func (st *Stepper) ExportState() StepperState {
	out := StepperState{
		NowS:   st.now,
		NextID: st.nextID,
		Dirty:  st.dirty,
		LSRefs: append([]float64(nil), st.lsRefs...),
	}
	for _, run := range st.sc {
		if run.done {
			continue
		}
		out.SC = append(out.SC, SCRunState{ID: run.id, StartedS: run.started, Progress: run.progress})
	}
	return out
}

// RestoreState restores an ExportState snapshot. deps maps each job id
// to its (already restored) deployment; the caller must have AddLS'd
// the LS deployments in their original order first, so LSRefs lines up.
func (st *Stepper) RestoreState(s StepperState, deps map[int]*Deployment) error {
	if !s.Dirty && len(s.LSRefs) != len(st.ls) {
		return fmt.Errorf("perfmodel: stepper state has %d LS refs for %d deployments", len(s.LSRefs), len(st.ls))
	}
	runs := make([]*scRun, len(s.SC))
	for i, r := range s.SC {
		dep, ok := deps[r.ID]
		if !ok {
			return fmt.Errorf("perfmodel: stepper state job %d has no deployment", r.ID)
		}
		if r.ID > s.NextID {
			return fmt.Errorf("perfmodel: stepper state job id %d beyond next id %d", r.ID, s.NextID)
		}
		runs[i] = &scRun{id: r.ID, dep: dep, started: r.StartedS, progress: r.Progress}
	}
	st.now = s.NowS
	st.nextID = s.NextID
	st.dirty = s.Dirty
	st.lsRefs = append(st.lsRefs[:0], s.LSRefs...)
	st.sc = runs
	return nil
}

// Step advances the scenario by dt seconds and reports the LS QoS over
// the step plus any jobs that completed. A non-nil rnd adds measurement
// noise to the reported (not internal) values. The returned report and
// everything it references are scratch owned by the stepper, valid
// until the next Step call.
func (st *Stepper) Step(dt float64, rnd *rng.Rand) *StepReport {
	if st.dirty {
		st.lsRefs = st.m.idealRefsInto(st.sv, st.lsRefs[:0], st.ls)
		st.dirty = false
	}
	rep := &st.rep
	*rep = StepReport{
		Now:          st.now + dt,
		Completed:    rep.Completed[:0],
		ServerDemand: rep.ServerDemand,
	}

	// Demand from active SC jobs.
	bg := st.bg
	bg.reset()
	st.actives = st.actives[:0]
	extraInstances := 0
	for _, run := range st.sc {
		if run.done {
			continue
		}
		rep.ActiveSC++
		fn, _, ph := scPhase(&scState{dep: run.dep, progress: run.progress})
		ex := scExerted(run.dep, fn, &ph)
		bg.add(run.dep.Placement[fn], st.m.resolveSocket(run.dep, fn), run.dep.Protected, &ex)
		st.actives = append(st.actives, scActiveJob{run, fn, ph, ex})
		for _, r := range run.dep.Replicas {
			extraInstances += r
		}
	}

	// LS solve against that background.
	var demand *demandStore
	if len(st.ls) > 0 {
		sol := st.m.solveLSWithRefs(st.sv, st.ls, bg, extraInstances, false, st.lsRefs)
		demand = sol.demand
		rep.LS = sol.results
		if rnd != nil {
			for i := range rep.LS {
				r := &rep.LS[i]
				r.IPC = rnd.Jitter(r.IPC, st.m.Cfg.NoiseIPC)
				r.E2EMeanMs = rnd.Jitter(r.E2EMeanMs, st.m.Cfg.NoiseMean)
				r.E2EP99Ms = rnd.Jitter(r.E2EP99Ms, st.m.Cfg.NoiseP99)
			}
		}
	} else {
		demand = bg
	}

	// Aggregate per-server demand for utilization reporting. The dense
	// store's ascending slot order IS the sorted domain order (server
	// asc, socket asc with the server-wide domain first, unprotected
	// before protected), so a linear walk folds the demand in the same
	// fixed order the map-era sort produced — float addition is not
	// associative, and untouched slots contribute exact zeros.
	rep.ServerDemand = resize(rep.ServerDemand, st.m.Testbed.NumServers())
	for i := range rep.ServerDemand {
		rep.ServerDemand[i] = resources.Vector{}
	}
	stride2 := demand.sockStride * 2
	for idx := range demand.vecs {
		v := &demand.vecs[idx]
		server := idx / stride2
		serverWide := (idx/2)%demand.sockStride == 0
		cur := &rep.ServerDemand[server]
		for k := 0; k < int(resources.NumKinds); k++ {
			if socketScoped(resources.Kind(k)) != serverWide {
				cur[k] += v[k]
			}
		}
	}

	// Advance SC jobs.
	for _, a := range st.actives {
		d := a.run.dep
		fn := &d.W.Functions[a.fn]
		sc, sio := st.m.slowdown(d.Placement[a.fn], st.m.resolveSocket(d, a.fn),
			d.Protected, demand, &a.ex, &fn.Sensitivity, a.ph.SensScale)
		sigma := totalSlowdown(sc, sio)
		a.run.progress += dt / (d.W.SoloDurationS * sigma)
		if a.run.progress >= 1 {
			a.run.done = true
			jct := st.now + dt - a.run.started
			if rnd != nil {
				jct = rnd.Jitter(jct, st.m.Cfg.NoiseJCT)
			}
			rep.Completed = append(rep.Completed, CompletedJob{
				ID: a.run.id, Name: d.W.Name, JCTS: jct,
			})
		}
	}
	// Garbage-collect completed runs.
	alive := st.sc[:0]
	for _, run := range st.sc {
		if !run.done {
			alive = append(alive, run)
		}
	}
	st.sc = alive

	st.now += dt
	return rep
}
