package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gsight/internal/core"
	"gsight/internal/resources"
)

// This file implements shared-state scheduling at scale: the path that
// takes the paper's 8-node placement search to thousands of servers
// without giving up the repository's determinism contract.
//
// The design follows the shared-state optimistic concurrency of
// cluster schedulers like Omega and arktos' partitioned global
// scheduler: placements are proposed against a frozen state and applied
// through a commit step that detects intervening commits at the
// granularity of the resource claimed. Three layers:
//
//   - ShardedState is one State plus one stamp per server: every
//     mutation (Commit/Release/SetOffline/SetCap) advances the commit
//     sequence number and stamps the servers it touches with it.
//   - Txn is one optimistic placement: Propose places against a
//     bounded window of the cluster and remembers the sequence number
//     it read at; Commit applies the placement unless a server of the
//     accepted window carries a later stamp, in which case it fails
//     with ErrTxnConflict and the caller re-proposes.
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

// ErrTxnConflict reports a stale transaction: between Propose and
// Commit a mutation touched a server the proposal read. The caller
// re-proposes against the current state.
var ErrTxnConflict = errors.New("sched: transaction conflict (stale stamp)")

// ShardedState is the shared scheduler state: one backing State
// (identical arithmetic to direct State use) plus one stamp per server
// for optimistic concurrency. All mutating methods are serial-commit
// entry points; concurrent proposals are read-only.
type ShardedState struct {
	st     State
	stamps []uint64 // stamps[s] is seq at the last mutation touching s
	seq    uint64   // commit sequence number, bumped by every mutation

	scr txnScratch // serial Propose scratch (not used by Begin/pool)
}

// ShardedStateFromProfiles builds a shared state over n servers of the
// given spec, mirroring StateFromProfiles. The third argument is
// ignored: it was a shard count, kept only because the frozen
// benchmark/ module passes one (ROADMAP item 4, the shim bullet).
func ShardedStateFromProfiles(spec resources.ServerSpec, n int, _ int) *ShardedState {
	ss := &ShardedState{st: *StateFromProfiles(spec, n), stamps: make([]uint64, n)}
	ss.st.Recount()
	return ss
}

// Base exposes the backing State for read access and for the recovery
// paths that patch state in place (checkpoint restore, post-crash
// refresh). After mutating Base()'s fields directly, call Recount —
// both the cached counts and the stamps must be refreshed.
func (ss *ShardedState) Base() *State { return &ss.st }

// Recount refreshes the cached counts after direct surgery on Base()
// and restamps every server (the surgery invalidates any outstanding
// proposal).
func (ss *ShardedState) Recount() {
	ss.st.Recount()
	ss.seq++
	for i := range ss.stamps {
		ss.stamps[i] = ss.seq
	}
}

// Commit applies a placement — State.Commit plus stamps on the touched
// servers.
func (ss *ShardedState) Commit(in core.WorkloadInput, sla SLA) {
	ss.seq++
	for f := range in.Profiles {
		ss.stamps[in.Placement[f]] = ss.seq
	}
	ss.st.Commit(in, sla)
}

// IndexOf returns the running-set index of the named workload (its
// first occurrence), -1 if it is not running: a map hit, like Release.
func (ss *ShardedState) IndexOf(name string) int { return ss.st.indexOf(name) }

// Release removes the named workload, stamping its servers.
func (ss *ShardedState) Release(name string) bool {
	i := ss.st.indexOf(name)
	if i < 0 {
		return false
	}
	ss.seq++
	d := &ss.st.Running[i]
	for f := range d.Input.Profiles {
		ss.stamps[d.Input.Placement[f]] = ss.seq
	}
	return ss.st.Release(name)
}

// SetOffline cordons or restores server s, stamping it.
func (ss *ShardedState) SetOffline(s int, down bool) {
	ss.seq++
	ss.stamps[s] = ss.seq
	ss.st.SetOffline(s, down)
}

// SetCap repoints server s's capacity (fault-injection degradation),
// stamping it.
func (ss *ShardedState) SetCap(s int, v resources.Vector) {
	ss.seq++
	ss.stamps[s] = ss.seq
	ss.st.Caps[s] = v
}

// Read-only conveniences for the controllers that hold a
// *ShardedState; schedulers read Base() directly.

func (ss *ShardedState) NumServers() int                  { return ss.st.NumServers() }
func (ss *ShardedState) Allocated(s int) resources.Vector { return ss.st.Used[s] }
func (ss *ShardedState) Free(s int) resources.Vector      { return ss.st.Free(s) }
func (ss *ShardedState) Online(s int) bool                { return ss.st.Online(s) }
func (ss *ShardedState) ActiveServers() int               { return ss.st.ActiveServers() }
func (ss *ShardedState) NumRunning() int                  { return len(ss.st.Running) }

// txnScratch is the reusable workspace of one proposal ladder: the
// projected window sub-state, the placement-translation arena and the
// outcome detail attached to requests whose caller passed none.
type txnScratch struct {
	sub     State
	offline []bool
	arena   []int
	detail  PlacementDetail
}

// Txn is one optimistic placement transaction. Propose records what
// was read (the accepted window and the sequence number it was read
// at); Commit validates and applies. A Txn is single-use per Propose:
// re-proposing after a conflict overwrites it in place.
type Txn struct {
	ss  *ShardedState
	req *Request
	scr *txnScratch // standalone transactions own scratch; pool txns borrow the worker's

	start, width int    // accepted window ([0,n) when full view)
	seq          uint64 // state sequence number the window was read at

	placement []int
	outcome   string
	err       error
	committed bool
}

// Begin opens a standalone transaction (tests, external drivers). The
// PlacerPool manages its own transactions and scratch.
func (ss *ShardedState) Begin() *Txn {
	return &Txn{ss: ss, scr: &txnScratch{}}
}

// Propose places req through s against the current state. It returns
// the proposed global placement; Commit applies it.
func (t *Txn) Propose(s Scheduler, req *Request) ([]int, error) {
	t.ss.propose(s, req, t.scr, t)
	return t.placement, t.err
}

// Commit applies the proposed placement unless the state moved under
// it. ErrTxnConflict means a mutation touched the accepted window
// since Propose — re-propose and retry.
func (t *Txn) Commit() error {
	if t.err != nil {
		return t.err
	}
	if t.committed {
		return fmt.Errorf("sched: transaction already committed")
	}
	if !t.ss.fresh(t) {
		return ErrTxnConflict
	}
	in := t.req.Input
	in.Placement = t.placement
	t.ss.Commit(in, t.req.SLA)
	t.committed = true
	return nil
}

// Propose is the serial placement entry point the platform runner
// uses: the window ladder with the caller committing directly. At
// testbed sizes this is exactly s.Place against the backing state, and
// it adds no allocations to that path.
func (ss *ShardedState) Propose(s Scheduler, req *Request) ([]int, error) {
	var t Txn
	ss.propose(s, req, &ss.scr, &t)
	return t.placement, t.err
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

// propose runs the window ladder for one request and fills t with the
// outcome, the accepted window and the sequence number it was read at.
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
func (ss *ShardedState) propose(s Scheduler, req *Request, scr *txnScratch, t *Txn) {
	*t = Txn{ss: ss, req: req, scr: t.scr, seq: ss.seq}
	n := ss.st.NumServers()
	if n == 0 {
		t.err = fmt.Errorf("sched: empty cluster")
		return
	}
	// Outcome inspection needs a detail record; lend the scratch one to
	// callers that passed none and restore their nil afterwards.
	callerDetail := req.Detail
	if callerDetail == nil {
		scr.detail = PlacementDetail{}
		req.Detail = &scr.detail
	}
	defer func() { req.Detail = callerDetail }()

	h := int(fnv32(req.Input.Name) % uint32(n))
	for w := windowBase; ; w *= 2 {
		if w >= n {
			// Full view: place directly against the backing state.
			t.start, t.width = 0, n
			t.placement, t.err = s.Place(&ss.st, req)
			t.outcome = req.Detail.Outcome
			return
		}
		t.start, t.width = h, w
		scr.project(ss, h, w)
		out, err := s.Place(&scr.sub, req)
		if err != nil {
			if errors.Is(err, ErrNoPlacement) {
				continue // spill to neighbors: double the window
			}
			t.err = err
			t.outcome = req.Detail.Outcome
			return
		}
		if req.Detail.Outcome == "fallback" {
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
		t.placement, t.outcome = out, req.Detail.Outcome
		return
	}
}

// project builds the window sub-state [h, h+w) mod n into scr.sub.
// Capacities, usage and the online mask copy per server; running
// workloads project only when every function lives inside the window
// (their placements translate to window-local indices via the arena).
// Workloads that span the window edge still weigh in through the Used
// vectors of their in-window servers.
func (scr *txnScratch) project(ss *ShardedState, h, w int) {
	n := ss.st.NumServers()
	sub := &scr.sub
	sub.Caps = resize(sub.Caps, w)
	sub.Used = resize(sub.Used, w)
	scr.offline = resize(scr.offline, w)
	sub.Offline = scr.offline
	sub.Running = sub.Running[:0]
	sub.counted = false
	scr.arena = scr.arena[:0]
	hasOffline := ss.st.Offline != nil
	for i := 0; i < w; i++ {
		g := h + i
		if g >= n {
			g -= n
		}
		sub.Caps[i] = ss.st.Caps[g]
		sub.Used[i] = ss.st.Used[g]
		sub.Offline[i] = hasOffline && ss.st.Offline[g]
	}
	for di := range ss.st.Running {
		d := &ss.st.Running[di]
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

// fresh reports whether no server of t's accepted window was touched
// since the proposal read it. The stamps are exact: a conflict is
// declared if and only if a server the proposal read was mutated.
func (ss *ShardedState) fresh(t *Txn) bool {
	n := len(ss.stamps)
	for i := 0; i < t.width; i++ {
		g := t.start + i
		if g >= n {
			g -= n
		}
		if ss.stamps[g] > t.seq {
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
	// Outcome mirrors PlacementDetail.Outcome.
	Outcome string
	// Retries is 1 when the parallel proposal went stale and the
	// request was re-proposed in the commit pass, 0 otherwise.
	Retries int
}

// PlacerPool places request batches with K concurrent workers over
// one ShardedState. Each worker owns a scheduler instance (from the
// factory — scheduler scratch is not goroutine-safe, predictors may
// be shared) and a proposal scratch.
type PlacerPool struct {
	ss      *ShardedState
	scheds  []Scheduler
	scratch []txnScratch
}

// NewPlacerPool builds a pool of `workers` placers (clamped to >= 1).
// factory must return a fresh Scheduler per call.
func NewPlacerPool(ss *ShardedState, workers int, factory func() Scheduler) *PlacerPool {
	if workers < 1 {
		workers = 1
	}
	p := &PlacerPool{
		ss:      ss,
		scheds:  make([]Scheduler, workers),
		scratch: make([]txnScratch, workers),
	}
	for i := range p.scheds {
		p.scheds[i] = factory()
	}
	return p
}

// PlaceAll places reqs and returns results lined up with them. The
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
// ShardedState before PlaceAll returns.
func (p *PlacerPool) PlaceAll(reqs []*Request) []PlaceResult {
	results := make([]PlaceResult, len(reqs))
	txns := make([]Txn, len(reqs))
	if nw := min(len(p.scheds), len(reqs)); nw <= 1 {
		for i, req := range reqs {
			p.ss.propose(p.scheds[0], req, &p.scratch[0], &txns[i])
		}
	} else {
		// Workers drain the batch through an atomic cursor into
		// per-request slots; assignment order is irrelevant.
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					p.ss.propose(p.scheds[w], reqs[i], &p.scratch[w], &txns[i])
				}
			}(w)
		}
		wg.Wait()
	}
	for i, req := range reqs {
		t, res := &txns[i], &results[i]
		if !p.ss.fresh(t) {
			p.ss.propose(p.scheds[0], req, &p.scratch[0], t)
			res.Retries = 1
		}
		res.Placement, res.Err, res.Outcome = t.placement, t.err, t.outcome
		if t.err == nil {
			in := req.Input
			in.Placement = t.placement
			p.ss.Commit(in, req.SLA)
		}
	}
	return results
}
