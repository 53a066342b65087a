package perfmodel

import (
	"math"

	"gsight/internal/resources"
	"gsight/internal/workload"
)

// FuncPerf is the modelled steady-state behaviour of one function of an
// LS workload.
type FuncPerf struct {
	Name        string
	IPC         float64 // instructions per cycle under the colocation
	Slowdown    float64 // service-time stretch from interference
	LocalMeanMs float64 // per-invocation latency incl. gateway + queueing
	LocalP99Ms  float64
	ArrivalQPS  float64 // effective invocation rate after throttling
	Rho         float64 // per-instance utilization
}

// lsState is the mutable fixed-point state of one LS deployment.
type lsState struct {
	dep     *Deployment
	effQPS  float64 // closed-loop damped offered load
	refE2E  float64 // ideal (no-interference) end-to-end mean, for damping
	topo    []int   // call-DAG topological order, fixed for the solve
	reach   []bool  // sync-reachable closure of the entry, fixed for the solve
	arrival []float64
	rho     []float64
	sigma   []float64 // total service-time stretch
	sigmaC  []float64 // compute component (drives IPC)
	svcMs   []float64
	exerted []resources.Vector // per-function total exerted demand
	sctx    []slowCtx          // per-function slowdown constants, fixed per solve
	perFunc []FuncPerf         // backing storage for the result's PerFunc
}

// lsSolver is the reusable scratch of the LS fixed point: states,
// demand store, DAG walks and result buffers all live here so repeated
// solves (every platform step) allocate nothing. A solver is owned by
// one caller at a time — the Stepper keeps its own; Evaluate borrows
// one from the model's pool. Results returned from a solve alias the
// solver's buffers and stay valid only until its next solve.
type lsSolver struct {
	states  []lsState
	demand  *demandStore
	visited []bool
	memo    []pathStats
	results []LSResult
	refs    []float64
	depBuf  [1]*Deployment
	co      coScratch
	// solves counts non-ideal fixed-point solves on this solver (tests
	// pin how many a co-execution needs).
	solves int
}

func (m *Model) newSolver() *lsSolver {
	return &lsSolver{demand: newDemandStore(m.Testbed), co: coScratch{bg: newDemandStore(m.Testbed)}}
}

// lsSolveResult carries the per-deployment outputs of one LS solve plus
// the demand the LS functions exert (needed by the SC co-execution).
// Both alias solver scratch: consume before the solver's next solve.
type lsSolveResult struct {
	results []LSResult
	demand  *demandStore
}

// LSResult is the modelled QoS of one LS deployment.
type LSResult struct {
	EffQPS        float64
	IPC           float64
	E2EMeanMs     float64
	E2EP99Ms      float64
	GatewayMeanMs float64
	PerFunc       []FuncPerf
}

// idealRefsInto computes each deployment's no-interference end-to-end
// mean — the reference for closed-loop damping — into dst. Callers
// that solve repeatedly (the stepper, the SC co-execution) compute
// these once and pass them to solveLSWithRefs.
func (m *Model) idealRefsInto(sv *lsSolver, dst []float64, deps []*Deployment) []float64 {
	dst = resize(dst, len(deps))
	for i, d := range deps {
		sv.depBuf[0] = d
		sol := m.solveLSWithRefs(sv, sv.depBuf[:1], nil, 0, true, nil)
		dst[i] = sol.results[0].E2EMeanMs
	}
	return dst
}

// solveLS runs the coupled fixed point for all LS deployments against a
// background demand store (from SC/BG jobs). When ideal is true the
// solve models each deployment alone on an empty cluster with
// interference disabled — the reference used by the closed-loop damping
// and by SLA definitions (§6.3).
func (m *Model) solveLS(sv *lsSolver, deps []*Deployment, bg *demandStore, extraInstances int, ideal bool) lsSolveResult {
	var refs []float64
	if !ideal {
		sv.refs = m.idealRefsInto(sv, sv.refs[:0], deps)
		refs = sv.refs
	}
	return m.solveLSWithRefs(sv, deps, bg, extraInstances, ideal, refs)
}

// solveLSWithRefs is solveLS with precomputed ideal references.
func (m *Model) solveLSWithRefs(sv *lsSolver, deps []*Deployment, bg *demandStore, extraInstances int, ideal bool, refs []float64) lsSolveResult {
	if cap(sv.states) < len(deps) {
		sv.states = append(sv.states[:cap(sv.states)], make([]lsState, len(deps)-cap(sv.states))...)
	}
	sv.states = sv.states[:len(deps)]
	for i, d := range deps {
		n := len(d.W.Functions)
		st := &sv.states[i]
		st.dep = d
		st.effQPS = d.QPS
		st.refE2E = 0
		st.topo = sv.topoInto(st.topo[:0], d.W)
		// The sync-reachable closure of the entry (Nested/Sequence
		// edges only) is pure topology — computed once here so the
		// per-iteration composeE2E calls don't re-derive it. The topo
		// order lists callers before callees, so one forward pass
		// closes the set.
		st.reach = resize(st.reach, n)
		for f := range st.reach {
			st.reach[f] = false
		}
		st.reach[d.W.Entry] = true
		for _, f := range st.topo {
			if !st.reach[f] {
				continue
			}
			for _, c := range d.W.Functions[f].Calls {
				if c.Mode == workload.Nested || c.Mode == workload.Sequence {
					st.reach[c.Callee] = true
				}
			}
		}
		st.arrival = resize(st.arrival, n)
		st.rho = resize(st.rho, n)
		st.sigma = resize(st.sigma, n)
		st.sigmaC = resize(st.sigmaC, n)
		st.svcMs = resize(st.svcMs, n)
		st.exerted = resize(st.exerted, n)
		st.perFunc = resize(st.perFunc, n)
		for f := 0; f < n; f++ {
			st.arrival[f] = 0
			st.rho[f] = 0.5
			st.sigma[f] = 1
			st.sigmaC[f] = 1
			st.svcMs[f] = d.W.Functions[f].BaseServiceMs
			st.exerted[f] = resources.Vector{}
		}
	}
	if refs != nil {
		for i := range sv.states {
			sv.states[i].refE2E = refs[i]
		}
	}

	totalInstances := extraInstances
	for _, d := range deps {
		for _, r := range d.Replicas {
			totalInstances += r
		}
	}

	var gwMean, gwP99 float64
	demand := sv.demand
	if ideal {
		// Ideal fast path. With interference off, sigma ≡ 1, so the
		// service times, the arrival propagation and the gateway
		// figures are invariant across fixed-point iterations — only
		// rho relaxes, and each rho relaxes toward a constant target
		// with no cross-function coupling. Running steps 2-4 once and
		// relaxing each rho in place applies bit-for-bit the same
		// float operations the full iteration loop would, in the same
		// order, so the results are byte-identical.
		for i := range sv.states {
			st := &sv.states[i]
			d := st.dep
			for f := range d.W.Functions {
				fn := &d.W.Functions[f]
				st.sigmaC[f] = 1
				st.sigma[f] = totalSlowdown(1, 1)
				st.svcMs[f] = fn.BaseServiceMs * st.sigma[f]
				if d.ColdStartFrac > 0 {
					st.svcMs[f] += fn.ColdStartMs * d.ColdStartFrac
				}
			}
		}
		for i := range sv.states {
			m.propagateArrivals(&sv.states[i])
		}
		gwMean, gwP99 = m.gateway(sv.states, totalInstances, true)
		const relax = 0.5
		for i := range sv.states {
			st := &sv.states[i]
			d := st.dep
			for f := range d.W.Functions {
				if st.svcMs[f] <= 0 {
					st.rho[f] = 0
					continue
				}
				cap := float64(d.Replicas[f]) * 1000 / st.svcMs[f]
				target := st.arrival[f] / cap
				rho := st.rho[f]
				for it := 0; it < m.Cfg.FixedPointIters; it++ {
					nr := rho + relax*(target-rho)
					if nr == rho {
						break
					}
					rho = nr
				}
				st.rho[f] = rho
			}
		}
		sv.results = sv.results[:0]
		if cap(sv.results) < len(sv.states) {
			sv.results = make([]LSResult, 0, len(sv.states))
		}
		out := lsSolveResult{demand: demand}
		for i := range sv.states {
			sv.results = append(sv.results, m.finishLS(sv, &sv.states[i], gwMean, gwP99))
		}
		out.results = sv.results
		return out
	}
	sv.solves++
	{
		// Pre-grow the demand store to its final stride, then freeze
		// the per-function slowdown contexts: placement, partitions and
		// capacity scales are constant for the whole solve, so the slot
		// indices and adjusted capacities are loop invariants of the
		// fixed point. Growing first matters — grow() remaps indices,
		// which would invalidate already-built contexts.
		if bg != nil && bg.sockStride > demand.sockStride {
			demand.grow(bg.sockStride)
		}
		for i := range sv.states {
			st := &sv.states[i]
			d := st.dep
			for f := range d.W.Functions {
				if s := m.resolveSocket(d, f); s+2 > demand.sockStride {
					demand.grow(s + 2)
				}
			}
		}
		for i := range sv.states {
			st := &sv.states[i]
			d := st.dep
			st.sctx = resize(st.sctx, len(d.W.Functions))
			for f := range d.W.Functions {
				cx := &st.sctx[f]
				m.buildSlowCtx(cx, demand, d.Placement[f], m.resolveSocket(d, f), d.Protected)
				fn := &d.W.Functions[f]
				cx.dem = fn.Demand
				cx.sens = fn.Sensitivity
				cx.repF = float64(d.Replicas[f])
				cx.rep1000 = cx.repF * 1000
				cx.baseMs = fn.BaseServiceMs
				cx.coldMs = fn.ColdStartMs
			}
		}
	}
	for iter := 0; iter < m.Cfg.FixedPointIters; iter++ {
		// 1. Exerted demand per function, scaled by utilization.
		demand.reset()
		demand.copyFrom(bg)
		floor := m.Cfg.IdleDemandFloor
		span := 1 - floor
		for i := range sv.states {
			st := &sv.states[i]
			for f := range st.sctx {
				cx := &st.sctx[f]
				level := floor + span*clamp01(st.rho[f])
				ex := &st.exerted[f]
				*ex = cx.dem.Scale(level * cx.repF)
				demand.addAt(int(cx.ski), int(cx.svi), ex)
			}
		}

		// 2. Interference slowdowns and service times.
		for i := range sv.states {
			st := &sv.states[i]
			d := st.dep
			for f := range st.sctx {
				cx := &st.sctx[f]
				sc, sio := m.slowdownCtx(cx, demand, &st.exerted[f], &cx.sens, 1)
				st.sigmaC[f] = sc
				st.sigma[f] = totalSlowdown(sc, sio)
				st.svcMs[f] = cx.baseMs * st.sigma[f]
				if d.ColdStartFrac > 0 {
					// Cold invocations pay the startup latency (§5.2).
					st.svcMs[f] += cx.coldMs * d.ColdStartFrac
				}
			}
		}

		// 3. Arrival propagation with saturation throttling.
		for i := range sv.states {
			m.propagateArrivals(&sv.states[i])
		}

		// 4. Gateway load.
		gwMean, gwP99 = m.gateway(sv.states, totalInstances, false)

		// 5. Utilizations and closed-loop damping. Both are relaxed
		// toward their new values so the fixed point converges
		// instead of oscillating between high- and low-pressure
		// states.
		const relax = 0.5
		changed := false
		for i := range sv.states {
			st := &sv.states[i]
			for f := range st.sctx {
				if st.svcMs[f] <= 0 {
					if st.rho[f] != 0 {
						changed = true
					}
					st.rho[f] = 0
					continue
				}
				// rep1000/svcMs is the same multiply-then-divide the
				// inline form performed; the multiply is just hoisted
				// to context-build time.
				cap := st.sctx[f].rep1000 / st.svcMs[f]
				nr := st.rho[f] + relax*(st.arrival[f]/cap-st.rho[f])
				if nr != st.rho[f] {
					changed = true
					st.rho[f] = nr
				}
			}
			if st.refE2E > 0 {
				e2e, _ := m.composeE2E(sv, st, gwMean, gwP99)
				excess := e2e/st.refE2E - 1
				if excess < 0 {
					excess = 0
				}
				target := st.dep.QPS / (1 + m.Cfg.ClosedLoopGamma*excess)
				nq := st.effQPS + relax*(target-st.effQPS)
				if nq != st.effQPS {
					changed = true
					st.effQPS = nq
				}
			}
		}
		// The iteration is a pure function of (rho, effQPS): if both
		// came out bitwise identical to their inputs, every remaining
		// iteration would reproduce exactly this state and these
		// gateway figures, so stopping here returns byte-identical
		// results to running all FixedPointIters.
		if !changed {
			break
		}
	}

	sv.results = sv.results[:0]
	if cap(sv.results) < len(sv.states) {
		sv.results = make([]LSResult, 0, len(sv.states))
	}
	out := lsSolveResult{demand: demand}
	for i := range sv.states {
		sv.results = append(sv.results, m.finishLS(sv, &sv.states[i], gwMean, gwP99))
	}
	out.results = sv.results
	return out
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Fresh capacity is zeroed; reused elements keep what the
// last user left.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// propagateArrivals walks the call DAG from the entry, throttling each
// callee's arrival rate by its caller's effective throughput — the
// mechanism of the paper's hotspot propagation (Observation 4): a
// saturated function starves its downstream functions, whose local
// latency therefore *drops*.
func (m *Model) propagateArrivals(st *lsState) {
	d := st.dep
	for f := range st.arrival {
		st.arrival[f] = 0
	}
	st.arrival[d.W.Entry] = st.effQPS
	for _, f := range st.topo {
		calls := d.W.Functions[f].Calls
		if len(calls) == 0 {
			// Leaf functions forward nothing; their throughput is
			// only ever consumed by callees.
			continue
		}
		lambda := st.arrival[f]
		cap := float64(d.Replicas[f]) * 1000 / st.svcMs[f]
		through := lambda
		if limit := 0.99 * cap; through > limit {
			through = limit
		}
		for _, c := range calls {
			st.arrival[c.Callee] += through
		}
	}
}

// topoInto fills out with the functions reachable from the entry in
// topological order (callers before callees), reusing the solver's
// visited scratch. TestTopoOrder pins it to the recursive reference.
func (sv *lsSolver) topoInto(out []int, w *workload.Workload) []int {
	n := len(w.Functions)
	sv.visited = resize(sv.visited, n)
	for i := range sv.visited {
		sv.visited[i] = false
	}
	out = sv.topoVisit(out, w, w.Entry)
	// reverse post-order = topological order
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func (sv *lsSolver) topoVisit(out []int, w *workload.Workload, i int) []int {
	if sv.visited[i] {
		return out
	}
	sv.visited[i] = true
	for _, c := range w.Functions[i].Calls {
		out = sv.topoVisit(out, w, c.Callee)
	}
	return append(out, i)
}

// gateway models the shared OpenFaaS-style frontend: every invocation
// passes through it; its service time degrades past ~110 instances
// (Figure 14) and when it must manage the waiting queues of saturated
// functions (§2.1, the second propagation mechanism).
func (m *Model) gateway(states []lsState, totalInstances int, ideal bool) (meanMs, p99Ms float64) {
	c := &m.Cfg
	var totalArrival, satLoad float64
	for i := range states {
		st := &states[i]
		for f := range st.arrival {
			totalArrival += st.arrival[f]
			// Below 90% utilization the clamped term is exactly
			// zero; adding arrival*0 never changes a non-negative
			// accumulator, so skip the multiply.
			if over := (st.rho[f] - 0.9) / 0.1; over > 0 {
				satLoad += st.arrival[f] * clamp01(over)
			}
		}
	}
	if totalArrival <= 0 {
		return c.GatewayBaseMs, c.GatewayBaseMs
	}
	svc := c.GatewayBaseMs
	if !ideal {
		if ex := (float64(totalInstances) - c.GatewayKneeInst) / c.GatewayInstSlope; ex > 0 {
			svc *= 1 + ex*ex
		}
		svc *= 1 + c.GatewaySatFactor*(satLoad/totalArrival)
	}
	rho := totalArrival * svc / 1000 / c.GatewayWorkers
	if rho > c.MaxRho {
		rho = c.MaxRho
	}
	meanMs = svc / (1 - rho)
	p99Ms = svc * (1 + c.QueueFactor*rho/(1-rho))
	return meanMs, p99Ms
}

// localMean returns function f's local mean latency: gateway wait plus
// M/M/1-style sojourn with an overload penalty.
func (m *Model) localMean(st *lsState, f int, gwMean float64) float64 {
	c := &m.Cfg
	rho := st.rho[f]
	rhat := rho
	if rhat > c.MaxRho {
		rhat = c.MaxRho
	}
	lat := st.svcMs[f] / (1 - rhat)
	if over := rho - 1; over > 0 {
		lat *= 1 + c.OverloadPenalty*over
	}
	return gwMean + lat
}

// localP99 returns function f's local 99th-percentile latency.
func (m *Model) localP99(st *lsState, f int, gwP99 float64) float64 {
	c := &m.Cfg
	rho := st.rho[f]
	rhat := rho
	if rhat > c.MaxRho {
		rhat = c.MaxRho
	}
	lat := st.svcMs[f] * (1 + c.QueueFactor*rhat/(1-rhat))
	if over := rho - 1; over > 0 {
		lat *= 1 + c.OverloadPenalty*over
	}
	return gwP99 + lat
}

// pathStats carries the mean latency and squared tail excess
// accumulated along a call path.
type pathStats struct {
	mean float64
	te2  float64 // sum of squared (p99 - mean) tail excesses
}

// composeE2E folds local latencies over the DAG: nested and sequence
// subtrees both extend the caller's end-to-end latency; async calls do
// not (they are the paper's non-critical path). Means add along the
// path; tail excesses compose in quadrature (independent stage tails),
// so the end-to-end p99 is mean + sqrt(sum of squared excesses). The
// memo lives in the solver scratch.
func (m *Model) composeE2E(sv *lsSolver, st *lsState, gwMean, gwP99 float64) (meanMs, p99Ms float64) {
	w := st.dep.W
	n := len(w.Functions)
	sv.memo = resize(sv.memo, n)
	// Walk the topological order backwards (callees before callers),
	// visiting the precomputed sync-reachable closure (st.reach — the
	// functions the recursive walk would visit; async callees are off
	// the critical path and contribute nothing). A reachable caller's
	// Nested/Sequence callees are reachable by closure and later in
	// topo order, so their path stats are ready when the caller folds
	// them — the recursion unrolls into a loop. Each visited
	// function's computation — including the Calls-order max folds —
	// is the same as the recursive form's, so the results are
	// bit-identical.
	for i := len(st.topo) - 1; i >= 0; i-- {
		f := st.topo[i]
		if !st.reach[f] {
			continue
		}
		var maxNested, maxSeq pathStats
		for _, c := range w.Functions[f].Calls {
			switch c.Mode {
			case workload.Nested:
				if v := sv.memo[c.Callee]; v.mean > maxNested.mean {
					maxNested = v
				}
			case workload.Sequence:
				if v := sv.memo[c.Callee]; v.mean > maxSeq.mean {
					maxSeq = v
				}
			}
		}
		mean := m.localMean(st, f, gwMean)
		te := m.localP99(st, f, gwP99) - mean
		sv.memo[f] = pathStats{
			mean: mean + maxNested.mean + maxSeq.mean,
			te2:  te*te + maxNested.te2 + maxSeq.te2,
		}
	}
	s := sv.memo[w.Entry]
	te := 0.0
	if s.te2 > 0 {
		te = math.Sqrt(s.te2)
	}
	return s.mean, s.mean + te
}

// finishLS assembles the LSResult from a converged state. The PerFunc
// slice aliases the state's scratch.
func (m *Model) finishLS(sv *lsSolver, st *lsState, gwMean, gwP99 float64) LSResult {
	d := st.dep
	res := LSResult{
		EffQPS:        st.effQPS,
		GatewayMeanMs: gwMean,
		PerFunc:       st.perFunc,
	}
	var ipcSum, wSum float64
	// Cold-start executions run with cold caches: the startup phase
	// retires instructions inefficiently, dragging the observed IPC.
	coldPenalty := 1 + 0.5*d.ColdStartFrac
	for f := range d.W.Functions {
		fn := &d.W.Functions[f]
		ipc := fn.SoloIPC / (st.sigmaC[f] * coldPenalty)
		res.PerFunc[f] = FuncPerf{
			Name:        fn.Name,
			IPC:         ipc,
			Slowdown:    st.sigma[f],
			LocalMeanMs: m.localMean(st, f, gwMean),
			LocalP99Ms:  m.localP99(st, f, gwP99),
			ArrivalQPS:  st.arrival[f],
			Rho:         st.rho[f],
		}
		w := fn.Demand[resources.CPU]
		ipcSum += ipc * w
		wSum += w
	}
	if wSum > 0 {
		res.IPC = ipcSum / wSum
	}
	res.E2EMeanMs, res.E2EP99Ms = m.composeE2E(sv, st, gwMean, gwP99)
	return res
}
