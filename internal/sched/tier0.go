package sched

import (
	"gsight/internal/core"
	"gsight/internal/metrics"
	"gsight/internal/resources"
)

// Two-tier placement: before the binary-search ladder pays for full
// IRFR prediction, the tier-0 scorer ranks every online server and the
// ladder then runs over only the top-K finalists. Scores come from a
// per-(archetype, server-load-bucket) cache keyed on the scorer's
// ingest generation — an observation batch absorbed by the predictor
// invalidates every cached score at once.
//
// Candidate ranking is a composite order: feasible servers whose
// tier-0 score clears the request's SLA threshold first, then feasible
// servers below it, then servers where not even the smallest function
// fits; within each band the legacy order (active first, least free
// CPU, id) is preserved, so pruning keeps the densest viable candidates
// and K=∞ remains exactly the legacy permutation.
//
// Everything here is a pure function of (archetype profiles, scorer
// generation, server load) — no wall clock, no RNG, no iteration over
// map order — so placements are byte-identical across reruns and
// across checkpoint/resume.

// tier0Buckets quantizes a server's CPU allocation (as a fraction of
// the oversubscription ceiling) for the score cache. 16 buckets over
// the full range keeps the table tiny while separating idle, busy and
// saturated servers.
const tier0Buckets = 16

// tier0Margin is the leniency factor on the SLA threshold: candidates
// scoring within 5% below it are demoted, not discarded — the full
// predictor still sees them if the pass band is smaller than K.
const tier0Margin = 0.95

// Candidate bands of the composite order.
const (
	tier0Pass   = 0 // fits and clears the SLA-derived score threshold
	tier0Demote = 1 // fits, but tier-0 predicts an SLA violation
	tier0NoFit  = 2 // not even the smallest function fits
)

// tier0Entry caches one archetype's reduced features and its per-load-
// bucket scores at one scorer generation.
type tier0Entry struct {
	gen    uint64
	capRef float64 // per-server CPU capacity the buckets were scaled by
	filled bool
	refIPC float64
	mix    [metrics.NumSelected]float64
	scores [tier0Buckets]float64
}

// tier0Scratch is the per-scheduler reusable state of tier-0 pruning.
// The entry cache persists across requests (archetype features are
// pure); rank/score are per-request, indexed by server id.
type tier0Scratch struct {
	cache map[string]*tier0Entry
	rank  []uint8
	score []float64
	// Per-request decision context for telemetry.
	active bool
	kept   int
	pruned int
}

// tier0Entry resolves (filling or refreshing) the score-cache entry for
// the request's archetype. capRef is the per-server CPU capacity the
// load buckets span; entries refresh whenever the scorer generation or
// the capacity reference moves.
func (g *Gsight) tier0Entry(req *Request, capRef float64) *tier0Entry {
	t0 := &g.t0
	if t0.cache == nil {
		t0.cache = make(map[string]*tier0Entry)
	}
	key, _ := core.BaseName(req.Input.Name)
	e := t0.cache[key]
	if e == nil {
		e = &tier0Entry{}
		e.mix, e.refIPC = core.Tier0TargetStats(req.Input.Profiles)
		t0.cache[key] = e
	}
	gen := g.Tier0.Gen()
	if !e.filled || e.gen != gen || e.capRef != capRef {
		for b := 0; b < tier0Buckets; b++ {
			load := (float64(b) + 0.5) / tier0Buckets * capRef * gsightOversub
			e.scores[b] = g.Tier0.Score(&e.mix, load)
		}
		e.gen, e.capRef, e.filled = gen, capRef, true
	}
	return e
}

// tier0Rank fills the per-server band and score arrays for every
// candidate in g.scratch.order. Allocation-free in steady state: the
// arrays are pooled scratch and the cache entry is reused until the
// scorer's generation moves.
func (g *Gsight) tier0Rank(st *State, req *Request) {
	t0 := &g.t0
	sc := &g.scratch
	n := st.NumServers()
	t0.rank = resize(t0.rank, n)
	t0.score = resize(t0.score, n)

	capRef := st.Caps[sc.order[0]][resources.CPU]
	e := g.tier0Entry(req, capRef)

	// SLA threshold in the scorer's solo-normalized ratio space. A
	// request without an IPC floor (or an unready scorer) passes every
	// feasible server — pruning then just truncates the legacy order.
	theta := 0.0
	if g.Tier0.Ready() && req.SLA.MinIPC > 0 && e.refIPC > 0 {
		theta = req.SLA.MinIPC / e.refIPC * tier0Margin
	}

	// Feasibility floor: the element-wise minimum allocation over the
	// request's functions. A server that cannot host even that much is
	// useless at any spread level (every function needs at least the
	// minimum in each dimension), so the test is exactly conservative —
	// it never demotes a server candidate() could still use.
	in := &req.Input
	minCPU, minMem := 0.0, 0.0
	for f := range in.Profiles {
		a := AllocOf(in, f)
		if f == 0 || a[resources.CPU] < minCPU {
			minCPU = a[resources.CPU]
		}
		if f == 0 || a[resources.Memory] < minMem {
			minMem = a[resources.Memory]
		}
	}

	for _, s := range sc.order {
		used := st.Used[s]
		capCPU := st.Caps[s][resources.CPU]
		frac := 0.0
		if ceil := capCPU * gsightOversub; ceil > 0 {
			frac = used[resources.CPU] / ceil
		}
		b := int(frac * tier0Buckets)
		if b >= tier0Buckets {
			b = tier0Buckets - 1
		}
		if b < 0 {
			b = 0
		}
		score := e.scores[b]
		t0.score[s] = score
		band := uint8(tier0Pass)
		if theta > 0 && score < theta {
			band = tier0Demote
		}
		if used[resources.Memory]+minMem > st.Caps[s][resources.Memory] ||
			used[resources.CPU]+minCPU > capCPU*gsightOversub {
			band = tier0NoFit
		}
		t0.rank[s] = band
	}
}
