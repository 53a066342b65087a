package sched

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"gsight/internal/core"
	"gsight/internal/resources"
	"gsight/internal/telemetry"
	"gsight/internal/workload"
)

// SLA is a workload's quality-of-service contract for admission. The
// scheduler checks IPC floors (transformed from latency targets via the
// Figure 7 curve, §6.3) because the IPC model predicts more accurately
// than the tail-latency model.
type SLA struct {
	// MinIPC is the IPC floor; 0 means no requirement (BG jobs).
	MinIPC float64
	// MaxJCTFactor bounds an SC job's predicted JCT relative to its
	// solo duration; 0 means no requirement.
	MaxJCTFactor float64
}

// BatchJCTFactor is the batch-job JCT contract: a job's predicted JCT
// at most this factor over its solo duration. The simulator sets it on
// SC jobs only, the daemon's catalog on every SC and BG archetype, and
// Gsight checks it for any non-LS workload that carries it.
const BatchJCTFactor = 2.0

// Request asks for a placement of a workload's functions.
type Request struct {
	// Input describes the workload (profiles, class, load); its
	// Placement field is ignored and replaced by the scheduler.
	Input core.WorkloadInput
	SLA   SLA
	// SoloDurationS supports the JCT SLA check for SC jobs.
	SoloDurationS float64
	// Detail is every Place call's account of its decision, the
	// scheduler's part of the placement record: outcome and reason,
	// search effort, the accepted candidate's predictions and the
	// tier-0 context. The caller fills in the rest (who asked, which
	// cluster, where it landed) before logging it.
	Detail telemetry.PlacementDecision
}

// Deployed is a running workload the scheduler must not regress.
type Deployed struct {
	Input core.WorkloadInput
	SLA   SLA
}

// State is the scheduler's view of the cluster, the one placements are
// searched against and committed into, one request at a time: Propose,
// then Commit on success. Alongside its exported fields it keeps O(1)
// bookkeeping — online/active server counts, per-server function
// counts and a name index — maintained through the mutating methods. A
// state built as a literal, or whose fields were mutated directly,
// must call Recount() before it is used.
type State struct {
	// Caps[s] is server s's capacity.
	Caps []resources.Vector
	// Used[s] is server s's currently allocated resources.
	Used []resources.Vector
	// Running workloads with their placements and SLAs.
	Running []Deployed
	// Offline[s] excludes server s from placement (crashed or
	// cordoned); nil means every server is schedulable.
	Offline []bool

	// online and active are the server counts OnlineServers and
	// ActiveServers return: they are asked per placement, and a scan of
	// all servers would be ruinous at 10k.
	online int
	active int
	// funcs[s] counts the functions placed on server s. When the last
	// one leaves, Release sets Used[s] to exactly zero: subtracting
	// allocations in floating point can leave residue that would keep an
	// empty server active.
	funcs []int
	// nameIdx maps a workload name to its first index in Running,
	// matching Release's first-match semantics when names repeat; it
	// spares Release a linear scan over Running.
	nameIdx map[string]int
	// scr is the serial Propose's window scratch, allocated on first
	// use: a State cannot hold its own window sub-state by value.
	scr *proposeScratch
}

// Recount rebuilds the cached online/active counts, the per-server
// function counts and the name→index map from the current field values.
// Call it after mutating Used, Running or Offline directly (checkpoint
// restore, state refresh).
func (st *State) Recount() {
	st.online = 0
	for s := range st.Caps {
		if st.Offline == nil || !st.Offline[s] {
			st.online++
		}
	}
	st.active = 0
	for s := range st.Used {
		if !st.Used[s].IsZero() {
			st.active++
		}
	}
	st.funcs = resize(st.funcs, len(st.Caps))
	clear(st.funcs)
	for i := range st.Running {
		in := &st.Running[i].Input
		for f := range in.Profiles {
			st.funcs[in.Placement[f]]++
		}
	}
	if st.nameIdx == nil {
		st.nameIdx = make(map[string]int, len(st.Running))
	} else {
		clear(st.nameIdx)
	}
	for i := range st.Running {
		nm := st.Running[i].Input.Name
		if _, ok := st.nameIdx[nm]; !ok {
			st.nameIdx[nm] = i
		}
	}
}

// NumServers returns the cluster size.
func (st *State) NumServers() int { return len(st.Caps) }

// SetOffline marks server s as excluded from (or restored to)
// placement. Existing allocations on an offline server are untouched —
// evacuating them is the platform's job, not the scheduler's.
func (st *State) SetOffline(s int, down bool) {
	if st.Offline == nil {
		if !down {
			return
		}
		st.Offline = make([]bool, len(st.Caps))
	}
	if st.Offline[s] != down {
		if down {
			st.online--
		} else {
			st.online++
		}
	}
	st.Offline[s] = down
}

// SetCap repoints server s's capacity (fault-injection degradation).
func (st *State) SetCap(s int, v resources.Vector) {
	st.Caps[s] = v
}

// Online reports whether server s accepts placements.
func (st *State) Online(s int) bool {
	return st.Offline == nil || !st.Offline[s]
}

// OnlineServers counts the servers accepting placements.
func (st *State) OnlineServers() int { return st.online }

// ErrNoPlacement marks deterministic rejections: the cluster cannot
// host the request (no fit, or every feasible spread violates an SLA).
// Callers must not retry these — the same state yields the same answer.
var ErrNoPlacement = errors.New("sched: no feasible placement")

// Free returns server s's unallocated resources.
func (st *State) Free(s int) resources.Vector {
	return st.Caps[s].Sub(st.Used[s]).Clamped()
}

// AllocOf returns the total allocation a workload input requires per
// placed function (alloc x replicas).
func AllocOf(in *core.WorkloadInput, f int) resources.Vector {
	r := 1.0
	if in.Replicas != nil {
		r = float64(in.Replicas[f])
	}
	return in.Profiles[f].Alloc.Scale(r)
}

// Commit applies a placement to the state's bookkeeping.
func (st *State) Commit(in core.WorkloadInput, sla SLA) {
	for f := range in.Profiles {
		s := in.Placement[f]
		next := st.Used[s].Add(AllocOf(&in, f))
		st.funcs[s]++
		if st.Used[s].IsZero() && !next.IsZero() {
			st.active++
		}
		st.Used[s] = next
	}
	if _, ok := st.nameIdx[in.Name]; !ok {
		st.nameIdx[in.Name] = len(st.Running)
	}
	st.Running = append(st.Running, Deployed{Input: in, SLA: sla})
}

// IndexOf returns the first index of name in Running, -1 if absent.
func (st *State) IndexOf(name string) int {
	if i, ok := st.nameIdx[name]; ok {
		return i
	}
	return -1
}

// Release removes the named workload from the state. The splice keeps
// Running ordered because the running set's iteration order feeds the
// predictor's colocation queries.
func (st *State) Release(name string) bool {
	i := st.IndexOf(name)
	if i < 0 {
		return false
	}
	d := &st.Running[i]
	for f := range d.Input.Profiles {
		s := d.Input.Placement[f]
		next := st.Used[s].Sub(AllocOf(&d.Input, f)).Clamped()
		if st.funcs[s]--; st.funcs[s] == 0 {
			next = resources.Vector{}
		}
		if !st.Used[s].IsZero() && next.IsZero() {
			st.active--
		}
		st.Used[s] = next
	}
	st.Running = append(st.Running[:i], st.Running[i+1:]...)
	delete(st.nameIdx, name)
	// Indices past the splice shifted down by one; restore the
	// first-occurrence invariant for the moved entries (a name repeated
	// across the seam must keep its earliest index).
	for j := i; j < len(st.Running); j++ {
		nm := st.Running[j].Input.Name
		if cur, ok := st.nameIdx[nm]; !ok || cur > j {
			st.nameIdx[nm] = j
		}
	}
	return true
}

// ActiveServers counts servers with any allocation — the denominator of
// the paper's density objective ("minimum number of active servers").
func (st *State) ActiveServers() int { return st.active }

// Scheduler decides placements. Place reads st and must not mutate it
// — applying the returned placement is the caller's job (State.Commit).
type Scheduler interface {
	Name() string
	// Place returns a server index per function of req's workload.
	Place(st *State, req *Request) ([]int, error)
}

// insertionSort stably sorts ids in place with the given element-wise
// ordering — the same result as sort.SliceStable (a stable sort is
// uniquely determined by its comparator) without the reflection and
// closure allocations on the placement hot path.
func insertionSort(ids []int, less func(a, b int) bool) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && less(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// sortCutoff is the list length above which the schedulers switch from
// insertion sort (O(n²), but fastest on the paper's 8-server lists) to
// slices.SortFunc. Testbed-size clusters never cross it, so the legacy
// paths are untouched instruction for instruction.
const sortCutoff = 32

// sortIDs orders ids like insertionSort would, at any length. Above
// the cutoff it runs pdqsort — an unstable sort — under the comparator
// extended with an id tie-break. The call sites enumerate ids in
// ascending order before sorting, so stable-sort-on-ties and
// total-order-by-id are the same permutation; TestSortIDsMatchesInsertionSort
// pins the equivalence.
func sortIDs(ids []int, less func(a, b int) bool) {
	if len(ids) <= sortCutoff {
		insertionSort(ids, less)
		return
	}
	slices.SortFunc(ids, func(a, b int) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return cmp.Compare(a, b)
	})
}

// selectIDs partially sorts ids so that ids[:k] holds the k smallest
// elements in exactly the order a full sortIDs pass would leave them.
// less must be a strict total order over distinct ids (the two-tier
// comparator ends with an id tie-break, matching sortIDs' own tie
// rule, which is what makes the prefix identical to sort-then-
// truncate). Quickselect narrows the window containing the k-boundary
// in O(n) comparisons and only the k-prefix pays a sort — at 10k
// servers and K=32 this removes the O(n log n) candidate sort that
// dominated the pruned path's remaining shared cost.
func selectIDs(ids []int, k int, less func(a, b int) bool) {
	lo, hi := 0, len(ids)
	if k >= hi {
		sortIDs(ids, less)
		return
	}
	for hi-lo > sortCutoff {
		// Median-of-three pivot parked at hi-1. Pivot choice depends
		// only on element values and window positions, so the whole
		// selection is deterministic for a deterministic input.
		m := lo + (hi-lo)/2
		if less(ids[m], ids[lo]) {
			ids[m], ids[lo] = ids[lo], ids[m]
		}
		if less(ids[hi-1], ids[lo]) {
			ids[hi-1], ids[lo] = ids[lo], ids[hi-1]
		}
		if less(ids[m], ids[hi-1]) {
			ids[m], ids[hi-1] = ids[hi-1], ids[m]
		}
		p := ids[hi-1]
		i := lo
		for j := lo; j < hi-1; j++ {
			if less(ids[j], p) {
				ids[i], ids[j] = ids[j], ids[i]
				i++
			}
		}
		ids[i], ids[hi-1] = ids[hi-1], ids[i]
		switch {
		case i == k:
			// The pivot landed on the boundary: ids[:k] is exactly
			// the k smallest, membership settled.
			lo, hi = k, k
		case k < i:
			hi = i
		default:
			lo = i + 1
		}
	}
	// The window always straddles k (hi only shrinks to a partition
	// point > k, lo only grows to one <= k). If any of it lies below
	// the boundary, sorting the window settles prefix membership.
	if lo < k && lo < hi {
		insertionSort(ids[lo:hi], less)
	}
	sortIDs(ids[:k], less)
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

// decisionRecorder is the part of a scheduler that accounts for its
// decisions in counters and histograms. Embedded in every stock
// scheduler.
type decisionRecorder struct {
	ins telemetry.SchedulerInstruments
}

// finish counts one decision, d, and ends the span; it is a no-op when
// uninstrumented.
func (r *decisionRecorder) finish(span telemetry.Span, placement []int, d *telemetry.PlacementDecision) {
	r.ins.Placements.Inc()
	if placement == nil {
		r.ins.Failures.Inc()
	}
	if d.Outcome == "fallback" {
		r.ins.Fallbacks.Inc()
	}
	r.ins.SearchIterations.Observe(float64(d.SpreadLevels))
	r.ins.SLAChecks.Observe(float64(d.SLAChecks))
	span.End()
}

// ---- Gsight binary-search scheduler (§4) ----

// Gsight schedules with the predictor: it tries the densest placement
// (full overlap on the fewest active servers) and binary-searches the
// spatial overlap — doubling the spread whenever the predicted QoS of
// the new workload or any running workload violates its SLA. Per
// overlap level it evaluates exactly one candidate (max-demand function
// onto max-headroom server), giving the paper's O(MP log S) complexity.
//
// A Gsight value owns reusable placement scratch: it must not be copied
// after first use, and a single value must not serve concurrent Place
// calls. Give each goroutine its own scheduler (they may share the
// predictor, whose hot path is goroutine-safe).
type Gsight struct {
	Predictor core.QoSPredictor
	// Tier0 and TopK enable two-tier placement: when both are set and
	// the online-server count exceeds TopK, the tier-0 scorer ranks
	// candidates and the binary-search ladder runs over only the top-K
	// finalists. TopK <= 0 (K=∞) disables pruning entirely — the legacy
	// code path runs instruction for instruction. Set both before
	// Instrument so the prune counters register.
	Tier0 *core.Tier0
	TopK  int

	scratch placeScratch
	t0      tier0Scratch
	t0ins   telemetry.Tier0Instruments
	decisionRecorder
	benchFallback
}

// placeScratch is the per-scheduler reusable state of one Place call:
// every slice is overwritten before use, so nothing leaks between
// requests, and steady-state placement allocates only the returned
// placement slice.
type placeScratch struct {
	order      []int              // candidate server order
	free       []resources.Vector // headroom per server id during candidate()
	sortCPU    []float64          // free-CPU sort key per server id
	sortActive []bool             // activity sort key per server id
	candServer []bool             // servers touched by the candidate placement
	fnOrder    []int              // functions in descending CPU demand
	placement  []int              // candidate placement under construction
	inputs     []core.WorkloadInput
	slas       []SLA
	durations  []float64
	queries    []core.Query
	preds      []float64
	// candIPC/candJCT hold the latest SLA check's predictions for the
	// candidate workload itself (inputs[0]); an accepted placement
	// reports them through Request.Detail.
	candIPC float64
	candJCT float64
}

// CPU ceilings, as multiples of a server's capacity. Gsight's accurate
// interference predictions let it oversubscribe CPU well past nominal
// requests — the headroom request-based packers (BestFit, WorstFit)
// cannot safely use: without trustworthy interference predictions,
// exceeding requests is unsafe, so they pack Kubernetes-style.
const (
	gsightOversub  = 2.0
	requestOversub = 1.0
)

// NewGsight returns the predictor-guided scheduler.
func NewGsight(p core.QoSPredictor) *Gsight {
	return &Gsight{Predictor: p}
}

// Name implements Scheduler.
func (g *Gsight) Name() string { return "Gsight" }

// Instrument attaches a telemetry sink. Passing a nil sink (or never
// calling Instrument) leaves every decision and allocation
// bit-identical to the uninstrumented scheduler. The tier-0 prune
// counters register only when two-tier placement is configured, so
// reports from runs without pruning keep their legacy metrics snapshot.
func (g *Gsight) Instrument(s *telemetry.Sink) {
	g.ins = s.Scheduler(g.Name())
	if g.Tier0 != nil && g.TopK > 0 {
		g.t0ins = s.SchedulerTier0(g.Name())
	}
}

// Place implements Scheduler.
func (g *Gsight) Place(st *State, req *Request) ([]int, error) {
	if st.NumServers() == 0 {
		req.Detail = telemetry.PlacementDecision{Outcome: "error"}
		return nil, fmt.Errorf("sched: empty cluster")
	}
	span := telemetry.StartSpan(g.ins.PlaceSeconds)
	d := &req.Detail
	*d = telemetry.PlacementDecision{}
	out, err := g.search(st, req, d)
	if t0 := &g.t0; t0.active {
		d.Tier0Kept, d.Tier0Pruned = t0.kept, t0.pruned
		if len(out) > 0 {
			d.Tier0Score = t0.score[out[0]]
		}
	}
	g.finish(span, out, d)
	return out, err
}

// search is the binary search over spatial overlap. It accounts for
// the decision in d; Place records it.
func (g *Gsight) search(st *State, req *Request, d *telemetry.PlacementDecision) ([]int, error) {
	s := st.NumServers()
	// Candidate server order: online servers only, busiest (least free
	// CPU) first — packing onto already-active servers minimizes
	// active-server count.
	sc := &g.scratch
	sc.order = sc.order[:0]
	for i := 0; i < s; i++ {
		if st.Online(i) {
			sc.order = append(sc.order, i)
		}
	}
	g.t0.active = false
	if len(sc.order) == 0 {
		d.Outcome, d.Reason = "rejected", "no-fit"
		return nil, fmt.Errorf("%w: no online servers", ErrNoPlacement)
	}
	// Sort keys are cached per server id before sorting: Free() costs a
	// full vector subtract-and-clamp, and an O(n log n) comparator that
	// recomputes it dominates large-cluster placement. The keys are pure
	// per-server functions of the immutable snapshot, so the cached
	// comparison results — and the resulting permutation — are exactly
	// the legacy ones.
	sc.sortCPU = resize(sc.sortCPU, s)
	sc.sortActive = resize(sc.sortActive, s)
	for _, i := range sc.order {
		sc.sortCPU[i] = st.Free(i)[resources.CPU]
		sc.sortActive[i] = !st.Used[i].IsZero()
	}
	if g.Tier0 != nil && g.TopK > 0 && g.TopK < len(sc.order) {
		// Two-tier path: rank every candidate with the tier-0 score and
		// keep only the top-K finalists for the ladder below. The
		// composite comparator extends the legacy order with the tier-0
		// band, so K=∞ (or a K no smaller than the online count, which
		// skips this branch) reproduces the legacy permutation exactly.
		g.tier0Rank(st, req)
		t0 := &g.t0
		selectIDs(sc.order, g.TopK, func(a, b int) bool {
			if t0.rank[a] != t0.rank[b] {
				return t0.rank[a] < t0.rank[b]
			}
			if sc.sortActive[a] != sc.sortActive[b] {
				return sc.sortActive[a] // active servers first
			}
			if sc.sortCPU[a] != sc.sortCPU[b] {
				return sc.sortCPU[a] < sc.sortCPU[b]
			}
			return a < b
		})
		t0.active = true
		t0.kept = g.TopK
		t0.pruned = len(sc.order) - g.TopK
		sc.order = sc.order[:g.TopK]
		g.t0ins.Kept.Add(uint64(t0.kept))
		g.t0ins.Pruned.Add(uint64(t0.pruned))
	} else {
		sortIDs(sc.order, func(a, b int) bool {
			if sc.sortActive[a] != sc.sortActive[b] {
				return sc.sortActive[a] // active servers first
			}
			return sc.sortCPU[a] < sc.sortCPU[b]
		})
	}

	online := len(sc.order)
	var lastErr, fullErr error
	for k := 1; ; k *= 2 {
		if k > online {
			k = online
		}
		d.SpreadLevels++
		placement, err := g.candidate(st, req, sc.order[:k])
		if k == online {
			fullErr = err
		}
		if err == nil {
			ok, n, err := g.satisfies(st, req, placement)
			d.SLAChecks += n
			if err != nil {
				// The predictor cannot vet the candidate; the
				// caller's degradation rule decides what serves it.
				d.Outcome, d.Reason = "error", "predictor-error"
				return nil, err
			}
			if ok {
				d.Outcome, d.Reason = "placed", ""
				d.PredIPC, d.PredJCTS = sc.candIPC, sc.candJCT
				return append([]int(nil), placement...), nil
			}
			g.ins.SLARejections.Inc()
			d.Reason = "sla-violated"
			lastErr = fmt.Errorf("SLA violated at spread %d", k)
		} else {
			d.Reason = "no-fit"
			lastErr = err
		}
		if k == online {
			break
		}
	}
	// Full spread as last resort. The loop's final iteration already
	// built (or failed to build) the candidate over the complete order —
	// its verdict is fullErr and, on success, sc.placement still holds
	// that candidate (satisfies never mutates it) — so the legacy
	// re-evaluation of the same server set is skipped: degraded paths no
	// longer pay a second headroom scan for a result that cannot differ.
	if fullErr != nil {
		d.Outcome = "rejected"
		return nil, fmt.Errorf("%w: %v", ErrNoPlacement, lastErr)
	}
	d.Outcome = "fallback"
	return append([]int(nil), sc.placement...), nil
}

// candidate builds one placement over the given servers by the
// worst-fit rule. The returned slice is g.scratch.placement — valid
// until the next candidate call.
func (g *Gsight) candidate(st *State, req *Request, servers []int) ([]int, error) {
	n := len(req.Input.Profiles)
	sc := &g.scratch
	sc.placement = resize(sc.placement, n)
	sc.free = resize(sc.free, st.NumServers())
	sc.fnOrder = resize(sc.fnOrder, n)
	if f := worstFit(st, &req.Input, servers, gsightOversub, sc.free, sc.fnOrder, sc.placement); f >= 0 {
		return nil, fmt.Errorf("sched: function %d does not fit on %d servers", f, len(servers))
	}
	return sc.placement, nil
}

// worstFit is the one worst-fit rule: §4's per-level candidate and
// §6.1's WorstFit strawman. Functions go in descending CPU allocation,
// each onto the server of servers with the most free CPU that keeps
// memory within capacity and CPU within oversub × capacity; ties go to
// the earlier server in servers. free (indexed by server id), fnOrder
// and placement (one per function) are the caller's scratch; placement
// receives each function's server. It returns the first function that
// fits nowhere, or -1.
func worstFit(st *State, in *core.WorkloadInput, servers []int, oversub float64, free []resources.Vector, fnOrder, placement []int) int {
	for _, s := range servers {
		free[s] = st.Free(s)
	}
	for i := range fnOrder {
		fnOrder[i] = i
	}
	sortIDs(fnOrder, func(a, b int) bool {
		return AllocOf(in, a)[resources.CPU] > AllocOf(in, b)[resources.CPU]
	})
	for _, f := range fnOrder {
		alloc := AllocOf(in, f)
		best, bestFree := -1, -1.0
		for _, s := range servers {
			fr := free[s]
			used := st.Caps[s].Sub(fr).Add(alloc)
			if used[resources.Memory] > st.Caps[s][resources.Memory] {
				continue
			}
			if used[resources.CPU] > st.Caps[s][resources.CPU]*oversub {
				continue
			}
			if fr[resources.CPU] > bestFree {
				best, bestFree = s, fr[resources.CPU]
			}
		}
		if best == -1 {
			return f
		}
		placement[f] = best
		free[best] = free[best].Sub(alloc).Clamped()
	}
	return -1
}

// satisfies predicts the QoS of the new workload and of every running
// workload under the candidate placement and checks all SLAs. It also
// reports how many QoS predictions were issued (the decision trace's
// SLA-check count).
func (g *Gsight) satisfies(st *State, req *Request, placement []int) (bool, int, error) {
	sc := &g.scratch
	cand := req.Input
	cand.Placement = placement
	sc.candServer = sc.candServer[:0]
	for len(sc.candServer) < st.NumServers() {
		sc.candServer = append(sc.candServer, false)
	}
	for _, s := range placement {
		sc.candServer[s] = true
	}
	sc.inputs = append(sc.inputs[:0], cand)
	sc.slas = append(sc.slas[:0], req.SLA)
	sc.durations = append(sc.durations[:0], req.SoloDurationS)
	// Interference is local: only running workloads that share a server
	// with the candidate can be affected by (or affect) it. Filtering
	// keeps the colocation code small on large clusters.
	for _, d := range st.Running {
		overlaps := false
		for _, s := range d.Input.Placement {
			if sc.candServer[s] {
				overlaps = true
				break
			}
		}
		if !overlaps {
			continue
		}
		sc.inputs = append(sc.inputs, d.Input)
		sc.slas = append(sc.slas, d.SLA)
		sc.durations = append(sc.durations, d.Input.LifetimeS)
	}
	return g.checkAll(sc.inputs, sc.slas, sc.durations)
}

// needsJCT reports whether target i's JCT SLA applies.
func needsJCT(inputs []core.WorkloadInput, slas []SLA, durations []float64, i int) bool {
	return slas[i].MaxJCTFactor > 0 && durations[i] > 0 && inputs[i].Class != workload.LS
}

// checkAll verifies every workload's SLA under the colocation described
// by inputs, reporting the verdict and the number of QoS predictions
// asked for. All IPC checks (then all JCT checks) go out as one
// PredictBatchInto call each; a batch error other than
// ErrTooManyServers is the caller's predictor error.
func (g *Gsight) checkAll(inputs []core.WorkloadInput, slas []SLA, durations []float64) (bool, int, error) {
	sc := &g.scratch
	sc.candIPC, sc.candJCT = 0, 0
	sc.queries = sc.queries[:0]
	for i := range inputs {
		if slas[i].MinIPC > 0 {
			sc.queries = append(sc.queries, core.Query{Target: i, Inputs: inputs})
		}
	}
	nIPC := len(sc.queries)
	for i := range inputs {
		if needsJCT(inputs, slas, durations, i) {
			sc.queries = append(sc.queries, core.Query{Target: i, Inputs: inputs})
		}
	}
	checks := len(sc.queries)
	sc.preds = resize(sc.preds, checks)
	var err error
	if nIPC > 0 {
		err = g.Predictor.PredictBatchInto(core.IPCQoS, sc.queries[:nIPC], sc.preds[:nIPC])
	}
	if err == nil && checks > nIPC {
		err = g.Predictor.PredictBatchInto(core.JCTQoS, sc.queries[nIPC:], sc.preds[nIPC:])
	}
	if errors.Is(err, core.ErrTooManyServers) {
		// Beyond the code's spatial rows the predictor cannot see the
		// whole colocation (§6.4's scaling limit); fall back to
		// capacity-based acceptance for this candidate.
		return true, checks, nil
	}
	if err != nil {
		return false, checks, err
	}
	// The candidate workload is always inputs[0], so when it carries
	// an SLA its predictions head each batch section.
	if slas[0].MinIPC > 0 {
		sc.candIPC = sc.preds[0]
	}
	if needsJCT(inputs, slas, durations, 0) {
		sc.candJCT = sc.preds[nIPC]
	}
	k := 0
	for i := range inputs {
		if slas[i].MinIPC > 0 {
			if sc.preds[k] < slas[i].MinIPC {
				return false, checks, nil
			}
			k++
		}
	}
	for i := range inputs {
		if needsJCT(inputs, slas, durations, i) {
			if sc.preds[k] > durations[i]*slas[i].MaxJCTFactor {
				return false, checks, nil
			}
			k++
		}
	}
	return true, checks, nil
}

// ---- Best Fit (Pythia's policy) ----

// BestFit places each function on the feasible server with the least
// headroom ("smallest amount of headroom", §6.1), optionally checking
// an SLA with its predictor first. Like Gsight it owns reusable
// scratch: do not share one value across goroutines.
type BestFit struct {
	Predictor core.QoSPredictor // may be nil: pure bin-packing

	free   []resources.Vector
	inputs []core.WorkloadInput
	spread WorstFit // SLA-violation fallback, reused across calls
	decisionRecorder
}

// NewBestFit returns Pythia's placement policy around a predictor:
// request-based packing, no CPU oversubscription.
func NewBestFit(p core.QoSPredictor) *BestFit {
	return &BestFit{Predictor: p}
}

// Name implements Scheduler.
func (b *BestFit) Name() string { return "BestFit" }

// Instrument attaches a telemetry sink (nil-safe, decision-neutral).
func (b *BestFit) Instrument(s *telemetry.Sink) { b.ins = s.Scheduler(b.Name()) }

// Place implements Scheduler.
func (b *BestFit) Place(st *State, req *Request) ([]int, error) {
	span := telemetry.StartSpan(b.ins.PlaceSeconds)
	d := &req.Detail
	*d = telemetry.PlacementDecision{SpreadLevels: 1}
	out, err := b.search(st, req, d)
	b.finish(span, out, d)
	return out, err
}

// search is the best-fit packing; it accounts for the decision in d.
func (b *BestFit) search(st *State, req *Request, d *telemetry.PlacementDecision) ([]int, error) {
	in := &req.Input
	n := len(in.Profiles)
	placement := make([]int, n)
	b.free = resize(b.free, st.NumServers())
	for s := range b.free {
		b.free[s] = st.Free(s)
	}
	for f := 0; f < n; f++ {
		alloc := AllocOf(in, f)
		best, bestFree := -1, math.MaxFloat64
		for s := range b.free {
			if !st.Online(s) {
				continue
			}
			used := st.Caps[s].Sub(b.free[s]).Add(alloc)
			if used[resources.Memory] > st.Caps[s][resources.Memory] {
				continue
			}
			if used[resources.CPU] > st.Caps[s][resources.CPU]*requestOversub {
				continue
			}
			if b.free[s][resources.CPU] < bestFree {
				best, bestFree = s, b.free[s][resources.CPU]
			}
		}
		if best == -1 {
			d.Outcome, d.Reason = "rejected", "no-fit"
			return nil, fmt.Errorf("%w: best fit found no server for function %d", ErrNoPlacement, f)
		}
		placement[f] = best
		b.free[best] = b.free[best].Sub(alloc).Clamped()
	}
	if b.Predictor != nil && req.SLA.MinIPC > 0 {
		cand := req.Input
		cand.Placement = placement
		b.inputs = append(b.inputs[:0], cand)
		for i := range st.Running {
			b.inputs = append(b.inputs, st.Running[i].Input)
		}
		d.SLAChecks = 1
		ipc, err := b.Predictor.Predict(core.IPCQoS, 0, b.inputs)
		if err != nil {
			d.Outcome, d.Reason = "error", "predictor-error"
			return nil, err
		}
		if ipc < req.SLA.MinIPC {
			// Pythia's reaction: spread to the emptiest servers.
			b.ins.SLARejections.Inc()
			d.Outcome, d.Reason = "fallback", "sla-violated"
			spreadPlacement, err := b.spread.search(st, req)
			if err != nil {
				d.Outcome = "rejected"
			}
			return spreadPlacement, err
		}
		d.PredIPC = ipc
	}
	d.Outcome = "placed"
	return placement, nil
}

// ---- Worst Fit (the paper's strawman) ----

// WorstFit always schedules the function with the maximum resource
// requirement to the server with the maximum available resources.
type WorstFit struct {
	free    []resources.Vector
	fnOrder []int
	online  []int // online server ids, in id order
	decisionRecorder
}

// NewWorstFit returns the spreading strawman (request-based capacity).
func NewWorstFit() *WorstFit { return &WorstFit{} }

// Name implements Scheduler.
func (w *WorstFit) Name() string { return "WorstFit" }

// Instrument attaches a telemetry sink (nil-safe, decision-neutral).
func (w *WorstFit) Instrument(s *telemetry.Sink) { w.ins = s.Scheduler(w.Name()) }

// Place implements Scheduler.
func (w *WorstFit) Place(st *State, req *Request) ([]int, error) {
	span := telemetry.StartSpan(w.ins.PlaceSeconds)
	d := &req.Detail
	*d = telemetry.PlacementDecision{Outcome: "placed", SpreadLevels: 1}
	out, err := w.search(st, req)
	if err != nil {
		d.Outcome, d.Reason = "rejected", "no-fit"
	}
	w.finish(span, out, d)
	return out, err
}

// search is the worst-fit rule over every online server.
func (w *WorstFit) search(st *State, req *Request) ([]int, error) {
	n := len(req.Input.Profiles)
	placement := make([]int, n)
	w.free = resize(w.free, st.NumServers())
	w.fnOrder = resize(w.fnOrder, n)
	w.online = w.online[:0]
	for s := 0; s < st.NumServers(); s++ {
		if st.Online(s) {
			w.online = append(w.online, s)
		}
	}
	if f := worstFit(st, &req.Input, w.online, requestOversub, w.free, w.fnOrder, placement); f >= 0 {
		return nil, fmt.Errorf("%w: worst fit found no server for function %d", ErrNoPlacement, f)
	}
	return placement, nil
}

// StateFromProfiles builds an empty State over n servers of the given
// spec.
func StateFromProfiles(spec resources.ServerSpec, n int) *State {
	st := &State{Caps: make([]resources.Vector, n), Used: make([]resources.Vector, n)}
	for i := range st.Caps {
		st.Caps[i] = spec.Capacity
	}
	st.Recount()
	return st
}
