package perfmodel

import (
	"gsight/internal/resources"
	"gsight/internal/workload"
)

// scState tracks one SC/BG job through the time-stepped co-execution.
type scState struct {
	dep      *Deployment
	progress float64 // [0, 1]
	done     bool
	jct      float64 // completion - start (seconds)
	// accumulators for the reported slowdown/IPC
	ipcSum  float64
	ipcTime float64
}

// stageOf maps overall job progress to the active function (SC
// pipelines execute their functions as sequential stages of equal
// share) and the progress within that stage.
func stageOf(w *workload.Workload, p float64) (fn int, local float64) {
	n := len(w.Functions)
	if n == 1 {
		return 0, p
	}
	scaled := p * float64(n)
	fn = int(scaled)
	if fn >= n {
		fn = n - 1
	}
	return fn, scaled - float64(fn)
}

// scPhase returns the function job st is executing at its current
// progress and the phase (index and value) within that function.
func scPhase(st *scState) (fn, phase int, ph workload.Phase) {
	fn, local := stageOf(st.dep.W, st.progress)
	ph, phase = st.dep.W.Functions[fn].PhaseAt(local)
	return fn, phase, ph
}

// scExerted is the demand deployment d exerts while its function fn is
// in phase ph.
func scExerted(d *Deployment, fn int, ph *workload.Phase) resources.Vector {
	return d.W.Functions[fn].Demand.Mul(ph.DemandScale).Scale(float64(d.Replicas[fn]))
}

// coActive is one SC job running in the current step. (job, fn, phase)
// identifies what it presents to the others; ph and ex are pure
// functions of that triple, sc and sigma of it and the segment's
// demand.
type coActive struct {
	job, fn, phase int
	ph             workload.Phase
	ex             resources.Vector
	sc, sigma      float64 // compute and total slowdown
}

// coScratch is coExecute's share of the solver scratch.
type coScratch struct {
	states  []scState
	accs    []LSResult // per-deployment sums over the window; / steps = the time average
	actives []coActive
	bg      *demandStore
	refs    []float64
	// steps counts co-execution time steps taken with this solver
	// (tests compare it with lsSolver.solves).
	steps int
}

// coExecute advances all SC/BG jobs (and samples the LS deployments)
// through time until every job completes or the horizon expires.
// It returns the SC states and the time-averaged LS results. The
// solver sv is borrowed scratch owned by the caller for the duration
// of the call; the returned states alias it.
//
// The loop steps through time but solves per segment: the background
// the LS fixed point runs against is reset() + add() of exactly the
// active list, in order, so while the list of (job, function, phase)
// stands still the background is the same bits, and
//   - solveLSWithRefs resets rho/sigma/svcMs/effQPS on entry, draws no
//     randomness and reads only (lsDeps, bg, extraInstances, lsRefs),
//     so an equal background gives an equal solution;
//   - slowdown is a pure function of (demand, ex, sensitivity,
//     ph.SensScale). The phase is part of the key because two phases
//     may share a DemandScale and differ in SensScale;
//   - nothing else solves on sv between two steps, so the previous
//     solution, which aliases sv's buffers, is still intact.
//
// A step inside a segment therefore reuses the segment's solution and
// slowdowns and only repeats the accumulation, in the order it always
// had — every sum sees the same operands in the same sequence. The
// memo is this call's locals plus sv; nothing is kept on the Model,
// which Evaluate's callers share between goroutines.
func (m *Model) coExecute(sv *lsSolver, scDeps, lsDeps []*Deployment) ([]scState, []LSResult) {
	co := &sv.co
	co.states = resize(co.states, len(scDeps))
	states := co.states
	horizon := m.Cfg.StepS
	extraInstances := 0
	for i, d := range scDeps {
		states[i] = scState{dep: d}
		end := d.StartDelayS + d.W.SoloDurationS*6
		if end > horizon {
			horizon = end
		}
		for _, r := range d.Replicas {
			extraInstances += r
		}
	}
	if horizon > m.Cfg.MaxHorizonS {
		horizon = m.Cfg.MaxHorizonS
	}

	co.refs = m.idealRefsInto(sv, co.refs[:0], lsDeps)
	for len(co.accs) < len(lsDeps) {
		co.accs = append(co.accs, LSResult{})
	}
	accs := co.accs[:len(lsDeps)]
	for i, d := range lsDeps {
		pf := resize(accs[i].PerFunc, len(d.W.Functions))
		clear(pf)
		accs[i] = LSResult{PerFunc: pf}
	}

	bg := co.bg
	co.actives = co.actives[:0]
	var sol lsSolveResult
	demand := bg // what the SC jobs contend with: bg, plus the LS demand once solved
	steps := 0   // steps taken, each one sample of every LS deployment
	dt := m.Cfg.StepS
	for t := 0.0; t < horizon; t += dt {
		// 1. The active SC jobs, and whether they are the previous
		// step's (the first step always opens a segment).
		same := steps > 0
		n := 0
		allDone := true
		for i := range states {
			st := &states[i]
			if st.done {
				continue
			}
			allDone = false
			if t+1e-9 < st.dep.StartDelayS {
				continue
			}
			fn, phase, ph := scPhase(st)
			if n == len(co.actives) {
				co.actives = append(co.actives, coActive{job: -1})
			}
			if a := &co.actives[n]; a.job != i || a.fn != fn || a.phase != phase {
				same = false
				*a = coActive{job: i, fn: fn, phase: phase, ph: ph, ex: scExerted(st.dep, fn, &ph)}
			}
			n++
		}
		if allDone {
			break
		}
		if n != len(co.actives) {
			same = false
			co.actives = co.actives[:n]
		}

		// 2. A new segment: rebuild the background, solve the LS fixed
		// point against it (its demand store feeds back into the SC
		// slowdowns) and take each job's slowdown.
		steps++
		if !same {
			bg.reset()
			for j := range co.actives {
				a := &co.actives[j]
				d := states[a.job].dep
				bg.add(d.Placement[a.fn], m.resolveSocket(d, a.fn), d.Protected, &a.ex)
			}
			if len(lsDeps) > 0 {
				sol = m.solveLSWithRefs(sv, lsDeps, bg, extraInstances, false, co.refs)
				demand = sol.demand
			}
			for j := range co.actives {
				a := &co.actives[j]
				d := states[a.job].dep
				sc, sio := m.slowdown(d.Placement[a.fn], m.resolveSocket(d, a.fn),
					d.Protected, demand, &a.ex, &d.W.Functions[a.fn].Sensitivity, a.ph.SensScale)
				a.sc, a.sigma = sc, totalSlowdown(sc, sio)
			}
		}

		// 3. Sample the LS deployments.
		if len(lsDeps) > 0 {
			for i := range accs {
				a := &accs[i]
				r := &sol.results[i]
				a.EffQPS += r.EffQPS
				a.IPC += r.IPC
				a.E2EMeanMs += r.E2EMeanMs
				a.E2EP99Ms += r.E2EP99Ms
				a.GatewayMeanMs += r.GatewayMeanMs
				for f := range r.PerFunc {
					p := &a.PerFunc[f]
					q := &r.PerFunc[f]
					p.Name = q.Name
					p.IPC += q.IPC
					p.Slowdown += q.Slowdown
					p.LocalMeanMs += q.LocalMeanMs
					p.LocalP99Ms += q.LocalP99Ms
					p.ArrivalQPS += q.ArrivalQPS
					p.Rho += q.Rho
				}
			}
		}

		// 4. Advance each active SC job at 1/(D*sigma).
		for j := range co.actives {
			a := &co.actives[j]
			st := &states[a.job]
			st.ipcSum += st.dep.W.Functions[a.fn].SoloIPC / a.sc * dt
			st.ipcTime += dt
			st.progress += dt / (st.dep.W.SoloDurationS * a.sigma)
			if st.progress >= 1 {
				st.progress = 1
				st.done = true
				st.jct = t + dt - st.dep.StartDelayS
			}
		}
	}
	// Jobs that never finished within the horizon report the horizon.
	for i := range states {
		st := &states[i]
		if !st.done {
			st.jct = horizon - st.dep.StartDelayS
			if st.jct < 0 {
				st.jct = 0
			}
		}
	}

	co.steps += steps
	if steps == 0 && len(lsDeps) > 0 {
		// No step was taken: fall back to a standalone solve.
		return states, detach(m.solveLS(sv, lsDeps, nil, 0, false).results)
	}
	results := make([]LSResult, len(lsDeps))
	n := float64(steps) // exact, and equal to a float counted up by ones
	for i := range results {
		a := &accs[i]
		r := LSResult{
			EffQPS:        a.EffQPS / n,
			IPC:           a.IPC / n,
			E2EMeanMs:     a.E2EMeanMs / n,
			E2EP99Ms:      a.E2EP99Ms / n,
			GatewayMeanMs: a.GatewayMeanMs / n,
			PerFunc:       make([]FuncPerf, len(a.PerFunc)),
		}
		for f := range a.PerFunc {
			p := a.PerFunc[f]
			r.PerFunc[f] = FuncPerf{
				Name:        p.Name,
				IPC:         p.IPC / n,
				Slowdown:    p.Slowdown / n,
				LocalMeanMs: p.LocalMeanMs / n,
				LocalP99Ms:  p.LocalP99Ms / n,
				ArrivalQPS:  p.ArrivalQPS / n,
				Rho:         p.Rho / n,
			}
		}
		results[i] = r
	}
	return states, results
}
