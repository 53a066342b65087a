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
	LS        []LSResult // one per LS deployment, in AddLS order
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
	var cx slowCtx
	for _, a := range st.actives {
		d := a.run.dep
		fn := &d.W.Functions[a.fn]
		st.m.buildSlowCtx(&cx, demand, d.Placement[a.fn], st.m.resolveSocket(d, a.fn), d.Protected)
		sc, sio := st.m.slowdownCtx(&cx, demand, &a.ex, &fn.Sensitivity, a.ph.SensScale)
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
