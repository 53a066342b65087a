package sched

import (
	"context"
	"errors"
	"fmt"

	"gsight/internal/par"
)

// This file implements shared-state scheduling at scale: the path that
// takes the paper's 8-node placement search to thousands of servers
// without giving up the repository's determinism contract.
//
// The design follows the shared-state optimistic concurrency of
// cluster schedulers like Omega and arktos' partitioned global
// scheduler: placements are proposed against a frozen state and applied
// through a commit step that detects intervening commits at the
// granularity of the resource claimed. Two pieces:
//
//   - A proposal is one request placed against a bounded window of the
//     State. It remembers the window it accepted and the State's commit
//     sequence number it read at; it is stale exactly when a mutation
//     (Commit/Release/SetOffline/SetCap) has since stamped a server of
//     that window.
//   - PlacerPool places a batch with K workers: one parallel propose
//     phase against the frozen state, then one serial commit pass in
//     request order that re-proposes a stale proposal on the spot. The
//     result is serial Propose+Commit in request order by
//     construction, at any worker count and any batch split.
//
// Windows bound a proposal's reads: a request hashes to a preferred
// start position and is first offered a windowBase-server window from
// there, doubling ("spilling to neighbors") whenever the window has no
// feasible, SLA-clean placement, until the window covers the cluster.
// Every narrower window the ladder tried lies inside the accepted one,
// so the accepted window's stamps cover everything the proposal read.
// At cluster sizes up to windowBase the first window is already the
// full view, so testbed-size runs execute the single-state search
// instruction for instruction.

// windowBase is the initial placement window width. It equals the
// paper's testbed size, so clusters up to 8 servers place against the
// full view on the first attempt (the legacy-equivalence anchor).
const windowBase = 8

// proposeScratch is the reusable workspace of one proposal ladder: the
// projected window sub-state and the placement-translation arena.
type proposeScratch struct {
	sub     State
	offline []bool
	arena   []int
}

// proposal is one request's placement as read from the state: the
// accepted window, the sequence number it was read at and the outcome.
type proposal struct {
	start, width int    // accepted window ([0,n) when full view)
	seq          uint64 // state sequence number the window was read at

	placement []int
	outcome   string
	err       error
}

// Propose is the serial placement entry point the platform runner
// uses: the window ladder with the caller committing directly. At
// testbed sizes this is exactly s.Place against the state, and after
// the first call, which creates the scratch, it adds no allocations to
// that path.
func (st *State) Propose(s Scheduler, req *Request) ([]int, error) {
	if st.scr == nil {
		st.scr = new(proposeScratch)
	}
	var p proposal
	st.propose(s, req, st.scr, &p)
	return p.placement, p.err
}

// fnv32 is FNV-1a — the request-to-window hash. It depends only on
// the workload name, so a request targets the same home window at any
// worker count.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// propose runs the window ladder for one request and fills p with the
// outcome, the accepted window and the sequence number it was read at;
// req.Detail is left holding the accepted attempt's account, its
// spread levels and SLA checks summed over every attempt the ladder
// made.
//
// Ladder policy: start at the request's home window; widen on
// ErrNoPlacement (nothing fits / every feasible spread violates an
// SLA within the window) and on the "fallback" outcome (the window
// accepted only a last-resort full-spread — a wider window may still
// find an SLA-clean placement). "placed" and "degraded" accept
// immediately; non-placement errors (untrained predictor and the
// like) bubble to the caller, whose degraded-mode policy is not the
// ladder's business. Once the window covers the cluster the decision
// is final either way.
func (st *State) propose(s Scheduler, req *Request, scr *proposeScratch, p *proposal) {
	*p = proposal{seq: st.seq}
	n := st.NumServers()
	if n == 0 {
		p.err = fmt.Errorf("sched: empty cluster")
		return
	}
	h := int(fnv32(req.Input.Name) % uint32(n))
	levels, checks := 0, 0
	for w := windowBase; ; w *= 2 {
		full := w >= n
		var out []int
		var err error
		if full {
			// Full view: place directly against the state.
			p.start, p.width = 0, n
			out, err = s.Place(st, req)
		} else {
			p.start, p.width = h, w
			scr.project(st, h, w)
			out, err = s.Place(&scr.sub, req)
		}
		d := &req.Detail
		levels += d.SpreadLevels
		checks += d.SLAChecks
		d.SpreadLevels, d.SLAChecks = levels, checks
		p.outcome = d.Outcome
		if full {
			p.placement, p.err = out, err
			return
		}
		if err != nil {
			if errors.Is(err, ErrNoPlacement) {
				continue // spill to neighbors: double the window
			}
			p.err = err
			return
		}
		if d.Outcome == "fallback" {
			continue // window-local last resort; widen before settling
		}
		// Accept: translate window-local indices back to global.
		for f := range out {
			g := h + out[f]
			if g >= n {
				g -= n
			}
			out[f] = g
		}
		p.placement = out
		return
	}
}

// project builds the window sub-state [h, h+w) mod n into scr.sub.
// Capacities, usage and the online mask copy per server; running
// workloads project only when every function lives inside the window
// (their placements translate to window-local indices via the arena).
// Workloads that span the window edge still weigh in through the Used
// vectors of their in-window servers. The sub-state is read-only, so
// of the bookkeeping it carries only the online and active counts.
func (scr *proposeScratch) project(st *State, h, w int) {
	n := st.NumServers()
	sub := &scr.sub
	sub.Caps = resize(sub.Caps, w)
	sub.Used = resize(sub.Used, w)
	scr.offline = resize(scr.offline, w)
	sub.Offline = scr.offline
	sub.Running = sub.Running[:0]
	sub.online, sub.active = 0, 0
	scr.arena = scr.arena[:0]
	hasOffline := st.Offline != nil
	for i := 0; i < w; i++ {
		g := h + i
		if g >= n {
			g -= n
		}
		sub.Caps[i] = st.Caps[g]
		sub.Used[i] = st.Used[g]
		sub.Offline[i] = hasOffline && st.Offline[g]
		if !sub.Offline[i] {
			sub.online++
		}
		if !sub.Used[i].IsZero() {
			sub.active++
		}
	}
	for di := range st.Running {
		d := &st.Running[di]
		inside := true
		for f := range d.Input.Profiles {
			rel := d.Input.Placement[f] - h
			if rel < 0 {
				rel += n
			}
			if rel >= w {
				inside = false
				break
			}
		}
		if !inside {
			continue
		}
		base := len(scr.arena)
		for f := range d.Input.Profiles {
			rel := d.Input.Placement[f] - h
			if rel < 0 {
				rel += n
			}
			scr.arena = append(scr.arena, rel)
		}
		in := d.Input
		in.Placement = scr.arena[base:len(scr.arena):len(scr.arena)]
		sub.Running = append(sub.Running, Deployed{Input: in, SLA: d.SLA})
	}
}

// fresh reports whether no server of p's accepted window was touched
// since the proposal read it. The stamps are exact: a conflict is
// declared if and only if a server the proposal read was mutated.
func (st *State) fresh(p *proposal) bool {
	n := len(st.stamps)
	for i := 0; i < p.width; i++ {
		g := p.start + i
		if g >= n {
			g -= n
		}
		if st.stamps[g] > p.seq {
			return false
		}
	}
	return true
}

// PlaceResult is one request's outcome from PlacerPool.PlaceAll.
type PlaceResult struct {
	// Placement holds global server indices; nil when Err is set.
	Placement []int
	// Err is the scheduler's own error for this request, if any.
	Err error
	// Outcome mirrors the request's Detail.Outcome.
	Outcome string
	// Retries is 1 when the parallel proposal went stale and the
	// request was re-proposed in the commit pass, 0 otherwise.
	Retries int
}

// PlacerPool places request batches with K concurrent workers over
// one State. Each worker owns a scheduler instance (from the factory —
// scheduler scratch is not goroutine-safe, predictors may be shared)
// and a proposal scratch.
type PlacerPool struct {
	st      *State
	scheds  []Scheduler
	scratch []proposeScratch
}

// NewPlacerPool builds a pool of `workers` placers (clamped to >= 1)
// over st. factory must return a fresh Scheduler per call.
func NewPlacerPool(st *State, workers int, factory func() Scheduler) *PlacerPool {
	if workers < 1 {
		workers = 1
	}
	p := &PlacerPool{
		st:      st,
		scheds:  make([]Scheduler, workers),
		scratch: make([]proposeScratch, workers),
	}
	for i := range p.scheds {
		p.scheds[i] = factory()
	}
	return p
}

// PlaceAll places reqs and returns results lined up with them; each
// request's Detail holds its decision's account. The
// outcome — placements, errors, final state — is that of serial
// Propose+Commit over reqs in order, at any worker count and however a
// request stream is cut into batches:
//
//   - Propose phase: the workers propose every request against the
//     frozen state. A proposal is a pure function of (state, request),
//     so which worker computes it cannot matter.
//   - Commit pass: serial, in request order. A proposal whose window no
//     earlier request of the batch touched is, by that purity, exactly
//     what a serial run would have computed here, and is applied as
//     it stands. A stale one is re-proposed on the spot against the
//     current state — the serial computation itself — and applied.
//
// No request fails for contention: the only errors are the
// scheduler's own. Accepted placements are committed into the pool's
// State before PlaceAll returns.
func (p *PlacerPool) PlaceAll(reqs []*Request) []PlaceResult {
	results := make([]PlaceResult, len(reqs))
	props := make([]proposal, len(reqs))
	if nw := min(len(p.scheds), len(reqs)); nw <= 1 {
		for i, req := range reqs {
			p.st.propose(p.scheds[0], req, &p.scratch[0], &props[i])
		}
	} else {
		// Per-request slots: which worker proposes which request is
		// irrelevant.
		par.For(context.Background(), nw, len(reqs), func(w, i int) error {
			p.st.propose(p.scheds[w], reqs[i], &p.scratch[w], &props[i])
			return nil
		})
	}
	for i, req := range reqs {
		pr, res := &props[i], &results[i]
		if !p.st.fresh(pr) {
			p.st.propose(p.scheds[0], req, &p.scratch[0], pr)
			res.Retries = 1
		}
		res.Placement, res.Err, res.Outcome = pr.placement, pr.err, pr.outcome
		if pr.err == nil {
			in := req.Input
			in.Placement = pr.placement
			p.st.Commit(in, req.SLA)
		}
	}
	return results
}
