package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gsight/internal/core"
	"gsight/internal/resources"
)

// This file implements sharded shared-state scheduling: the scale path
// that takes the paper's 8-node placement search to thousands of
// servers without giving up the repository's determinism contract.
//
// The design follows the shared-state optimistic concurrency of
// cluster schedulers like Omega and arktos' partitioned global
// scheduler: placements are proposed against a read-only snapshot
// (ClusterView) and applied through a commit step that detects
// conflicting intervening commits by epoch comparison. Three layers:
//
//   - ShardedState wraps one State with per-server epoch stamps plus
//     per-shard epoch summaries over N contiguous cells of the server
//     set. Every mutation (Commit/Release/SetOffline/SetCap) bumps the
//     epochs of the servers it touches.
//   - Txn is one optimistic placement: Propose places against a
//     bounded window of the cluster, recording the epochs it read;
//     Commit re-checks those epochs and applies the placement, or
//     fails with ErrTxnConflict so the caller retries against the
//     refreshed state.
//   - PlacerPool drains a request queue with K concurrent placer
//     workers in deterministic bulk-synchronous rounds: parallel
//     propose against the frozen state, then serial commits in
//     request-seq order. Conflicts resolve by the (epoch, request-seq)
//     tie-break — the earliest sequence number always commits clean,
//     which both guarantees progress and makes same-seed runs
//     byte-identical at any shard and worker count.
//
// Windows, not shards, bound a proposal's view: a request hashes to a
// preferred start position and is first offered a windowBase-server
// window from there, doubling ("spilling to neighbors") whenever the
// window has no feasible, SLA-clean placement, until the window covers
// the cluster. The window geometry is deliberately expressed in
// servers rather than shard multiples so decisions do not depend on
// the shard count — shards partition only the epoch bookkeeping, and
// the per-server stamps keep conflict detection exact at any
// granularity. At cluster sizes up to windowBase the first window is
// already the full view, so testbed-size runs execute the legacy
// single-state search instruction for instruction.

// windowBase is the initial placement window width. It equals the
// paper's testbed size, so clusters up to 8 servers place against the
// full view on the first attempt (the legacy-equivalence anchor).
const windowBase = 8

// maxTxnAttempts bounds how many times a request is re-proposed after
// commit-time conflicts before it is rejected with ErrNoPlacement.
const maxTxnAttempts = 8

// ErrTxnConflict reports a stale transaction: between Propose and
// Commit another commit touched a server the proposal read. The caller
// re-proposes against the refreshed state (bounded by maxTxnAttempts).
var ErrTxnConflict = errors.New("sched: transaction conflict (stale epoch)")

// ShardedState is the scalable scheduler state: one backing State
// (identical arithmetic to the legacy path — shards=1 runs are
// bit-identical to direct State use) plus epoch bookkeeping for
// optimistic concurrency. All mutating methods are serial-commit
// entry points; concurrent proposals are read-only.
type ShardedState struct {
	st      State
	shards  int
	epochs  []uint64 // per-shard epoch summary (max of member servers)
	sepochs []uint64 // per-server epoch stamps (exact conflict unit)
	seq     uint64   // commit sequence number, bumped by every mutation

	scr txnScratch // serial Propose scratch (not used by Begin/pool)
}

// NewShardedState builds a sharded state over the given capacities.
// shards is clamped to [1, len(caps)].
func NewShardedState(caps []resources.Vector, shards int) *ShardedState {
	n := len(caps)
	if shards < 1 {
		shards = 1
	}
	if n > 0 && shards > n {
		shards = n
	}
	ss := &ShardedState{
		st: State{
			Caps: append([]resources.Vector(nil), caps...),
			Used: make([]resources.Vector, n),
		},
		shards:  shards,
		epochs:  make([]uint64, shards),
		sepochs: make([]uint64, n),
	}
	ss.st.Recount()
	return ss
}

// ShardedStateFromProfiles is the profile-spec convenience mirroring
// StateFromProfiles.
func ShardedStateFromProfiles(spec resources.ServerSpec, n, shards int) *ShardedState {
	caps := make([]resources.Vector, n)
	for i := range caps {
		caps[i] = spec.Capacity
	}
	return NewShardedState(caps, shards)
}

// Base exposes the backing State for read access and for the recovery
// paths that patch state in place (checkpoint restore, post-crash
// refresh). After mutating Base()'s fields directly, call Recount —
// both the cached counts and the epoch stamps must be refreshed.
func (ss *ShardedState) Base() *State { return &ss.st }

// Shards returns the shard count.
func (ss *ShardedState) Shards() int { return ss.shards }

// ShardOf maps a server index to its shard (contiguous balanced
// cells).
func (ss *ShardedState) ShardOf(s int) int { return s * ss.shards / len(ss.st.Caps) }

// Seq returns the commit sequence number (serialized in checkpoints).
func (ss *ShardedState) Seq() uint64 { return ss.seq }

// Epoch returns shard sh's current epoch.
func (ss *ShardedState) Epoch(sh int) uint64 { return ss.epochs[sh] }

// RawEpochs copies out the per-shard epochs for serialization.
func (ss *ShardedState) RawEpochs() []uint64 {
	return append([]uint64(nil), ss.epochs...)
}

// RestoreEpochs reinstates serialized epoch state after a checkpoint
// restore. A nil or mismatched epochs slice (older snapshot, different
// shard flag) degrades safely: every epoch is reset to seq, which
// invalidates nothing because no proposal survives a restore.
func (ss *ShardedState) RestoreEpochs(epochs []uint64, seq uint64) {
	ss.seq = seq
	if len(epochs) == ss.shards {
		copy(ss.epochs, epochs)
	} else {
		for i := range ss.epochs {
			ss.epochs[i] = seq
		}
	}
	for i := range ss.sepochs {
		ss.sepochs[i] = seq
	}
}

// Recount refreshes the cached counts after direct surgery on Base()
// and advances every epoch (the surgery invalidates any outstanding
// proposal).
func (ss *ShardedState) Recount() {
	ss.st.Recount()
	ss.seq++
	for i := range ss.epochs {
		ss.epochs[i] = ss.seq
	}
	for i := range ss.sepochs {
		ss.sepochs[i] = ss.seq
	}
}

// touch stamps server s with the current sequence number.
func (ss *ShardedState) touch(s int) {
	ss.sepochs[s] = ss.seq
	ss.epochs[ss.ShardOf(s)] = ss.seq
}

// Commit applies a placement — legacy State.Commit plus epoch stamps
// on the touched servers.
func (ss *ShardedState) Commit(in core.WorkloadInput, sla SLA) {
	ss.seq++
	for f := range in.Profiles {
		ss.touch(in.Placement[f])
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
		ss.touch(d.Input.Placement[f])
	}
	return ss.st.Release(name)
}

// SetOffline cordons or restores server s, stamping it.
func (ss *ShardedState) SetOffline(s int, down bool) {
	ss.seq++
	ss.touch(s)
	ss.st.SetOffline(s, down)
}

// SetCap repoints server s's capacity (fault-injection degradation),
// stamping it.
func (ss *ShardedState) SetCap(s int, v resources.Vector) {
	ss.seq++
	ss.touch(s)
	ss.st.Caps[s] = v
}

// ClusterView delegation: schedulers handed a *ShardedState read the
// backing state directly (viewState short-circuits the interface).

func (ss *ShardedState) NumServers() int                  { return ss.st.NumServers() }
func (ss *ShardedState) Capacity(s int) resources.Vector  { return ss.st.Caps[s] }
func (ss *ShardedState) Allocated(s int) resources.Vector { return ss.st.Used[s] }
func (ss *ShardedState) Free(s int) resources.Vector      { return ss.st.Free(s) }
func (ss *ShardedState) Online(s int) bool                { return ss.st.Online(s) }
func (ss *ShardedState) OnlineServers() int               { return ss.st.OnlineServers() }
func (ss *ShardedState) ActiveServers() int               { return ss.st.ActiveServers() }
func (ss *ShardedState) NumRunning() int                  { return len(ss.st.Running) }
func (ss *ShardedState) RunningAt(i int) Deployed         { return ss.st.Running[i] }
func (ss *ShardedState) sealed()                          {}

var (
	_ ClusterView = (*State)(nil)
	_ ClusterView = (*ShardedState)(nil)
)

// indexOf returns the first index of name in Running, -1 if absent —
// the map lookup when counted, the legacy scan otherwise.
func (st *State) indexOf(name string) int {
	if st.counted {
		if i, ok := st.nameIdx[name]; ok {
			return i
		}
		return -1
	}
	for i := range st.Running {
		if st.Running[i].Input.Name == name {
			return i
		}
	}
	return -1
}

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
// was read (window plus epoch stamps); Commit validates and applies.
// A Txn is single-use per Propose: re-proposing after a conflict
// overwrites it in place.
type Txn struct {
	ss  *ShardedState
	req *Request
	scr *txnScratch // standalone transactions own scratch; pool txns borrow the worker's

	start, width int      // accepted window ([0,n) when full view)
	stamps       []uint64 // per-server epochs read, window order
	shardBase    int      // shard of start
	shardStamps  []uint64 // per-shard epochs read, cell order from shardBase

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

// Propose places req through s against the current state, recording
// the epochs read. It returns the proposed global placement; Commit
// applies it.
func (t *Txn) Propose(s Scheduler, req *Request) ([]int, error) {
	t.ss.propose(s, req, t.scr, t, true)
	return t.placement, t.err
}

// Commit validates the proposal's epoch stamps and applies the
// placement. ErrTxnConflict means another commit touched the window
// since Propose — re-propose and retry (bounded by the caller).
func (t *Txn) Commit() error {
	if t.err != nil {
		return t.err
	}
	if t.committed {
		return fmt.Errorf("sched: transaction already committed")
	}
	if !t.ss.validate(t) {
		return ErrTxnConflict
	}
	in := t.req.Input
	in.Placement = t.placement
	t.ss.Commit(in, t.req.SLA)
	t.committed = true
	return nil
}

// Propose is the serial placement entry point the platform runner
// uses: the window ladder without transaction stamps (the caller
// commits directly; with no concurrent committers there is nothing to
// validate). At testbed sizes this is exactly a legacy s.Place against
// the backing state, and it adds no allocations to that path.
func (ss *ShardedState) Propose(s Scheduler, req *Request) ([]int, error) {
	var t Txn
	ss.propose(s, req, &ss.scr, &t, false)
	return t.placement, t.err
}

// fnv32 is FNV-1a — the request-to-window hash. It depends only on
// the workload name, so a request targets the same home window at any
// shard or worker count.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// propose runs the window ladder for one request and fills t with the
// outcome. capture records epoch stamps for Commit-time validation
// (skipped on the serial path).
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
func (ss *ShardedState) propose(s Scheduler, req *Request, scr *txnScratch, t *Txn, capture bool) {
	t.ss = ss
	t.req = req
	t.placement = nil
	t.outcome = ""
	t.err = nil
	t.committed = false
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
			out, err := s.Place(&ss.st, req)
			t.placement, t.err, t.outcome = out, err, req.Detail.Outcome
			if capture && t.err == nil {
				ss.capture(t)
			}
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
		if capture {
			ss.capture(t)
		}
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

// cellEnd returns the first server index of shard sh+1 (== n for the
// last shard).
func (ss *ShardedState) cellEnd(sh int) int {
	n := len(ss.st.Caps)
	return ((sh+1)*n + ss.shards - 1) / ss.shards
}

// capture records the epoch stamps of every server (and shard cell)
// the accepted window read.
func (ss *ShardedState) capture(t *Txn) {
	n := len(ss.st.Caps)
	t.stamps = resize(t.stamps, t.width)
	t.shardBase = ss.ShardOf(t.start % n)
	t.shardStamps = t.shardStamps[:0]
	i := 0
	for i < t.width {
		g := t.start + i
		if g >= n {
			g -= n
		}
		sh := ss.ShardOf(g)
		rel := sh - t.shardBase
		if rel < 0 {
			rel += ss.shards
		}
		if rel == len(t.shardStamps) {
			t.shardStamps = append(t.shardStamps, ss.epochs[sh])
		}
		span := ss.cellEnd(sh) - g
		if span > t.width-i {
			span = t.width - i
		}
		for k := 0; k < span; k++ {
			gg := g + k // within one cell, no wrap
			t.stamps[i+k] = ss.sepochs[gg]
		}
		i += span
	}
}

// validate re-checks a proposal's stamps against the current epochs.
// Per-shard epochs are the fast filter — an untouched cell is skipped
// in one comparison — and the per-server stamps decide exactly, so
// the verdict is independent of the shard count: a conflict is
// declared if and only if a server the proposal read was touched.
func (ss *ShardedState) validate(t *Txn) bool {
	n := len(ss.st.Caps)
	i := 0
	for i < t.width {
		g := t.start + i
		if g >= n {
			g -= n
		}
		sh := ss.ShardOf(g)
		rel := sh - t.shardBase
		if rel < 0 {
			rel += ss.shards
		}
		span := ss.cellEnd(sh) - g
		if span > t.width-i {
			span = t.width - i
		}
		if ss.epochs[sh] != t.shardStamps[rel] {
			for k := 0; k < span; k++ {
				if ss.sepochs[g+k] != t.stamps[i+k] {
					return false
				}
			}
		}
		i += span
	}
	return true
}

// PlaceResult is one request's outcome from a PlacerPool drain.
type PlaceResult struct {
	// Placement holds global server indices; nil when Err is set.
	Placement []int
	Err       error
	// Outcome mirrors PlacementDetail.Outcome for the final attempt.
	Outcome string
	// Retries counts commit-time conflicts before the final verdict.
	Retries int
	// Window is the accepted view width (NumServers for a full view).
	Window int
	// Seq is the commit sequence number of the applied placement.
	Seq uint64
}

// PlacerPool drains placement queues with K concurrent workers over
// one ShardedState. Each worker owns a scheduler instance (from the
// factory — scheduler scratch is not goroutine-safe, predictors may
// be shared) and a proposal scratch.
type PlacerPool struct {
	ss      *ShardedState
	workers int
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
		workers: workers,
		scheds:  make([]Scheduler, workers),
		scratch: make([]txnScratch, workers),
	}
	for i := range p.scheds {
		p.scheds[i] = factory()
	}
	return p
}

// Workers returns the worker count.
func (p *PlacerPool) Workers() int { return p.workers }

// PlaceAll drains the request queue: placements are proposed in
// parallel and committed serially, and the returned results line up
// with reqs. The run is deterministic at any worker count:
//
//   - Rounds are bulk-synchronous. During a round's propose phase the
//     state is frozen, so every proposal is a pure function of
//     (round-start state, request) — which worker computes it cannot
//     matter.
//   - Commits apply in ascending request order (the request-seq half
//     of the (epoch, request-seq) tie-break). A proposal whose stamps
//     went stale — an earlier request touched its window this round —
//     re-enters the next round; after maxTxnAttempts conflicts it is
//     rejected with ErrNoPlacement.
//   - The earliest pending request always validates against the
//     round-start state it was proposed on, so every round retires at
//     least one request: the drain terminates without timeouts.
//
// Accepted placements are committed into the pool's ShardedState
// before PlaceAll returns; rejections and scheduler errors are final.
func (p *PlacerPool) PlaceAll(reqs []*Request) []PlaceResult {
	n := len(reqs)
	results := make([]PlaceResult, n)
	if n == 0 {
		return results
	}
	txns := make([]Txn, n)
	attempts := make([]int, n)
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		// Propose phase: workers drain the pending queue through an
		// atomic cursor. Assignment order is irrelevant (proposals are
		// pure reads of the frozen state into per-request slots).
		nw := p.workers
		if nw > len(pending) {
			nw = len(pending)
		}
		if nw == 1 {
			for _, seq := range pending {
				p.ss.propose(p.scheds[0], reqs[seq], &p.scratch[0], &txns[seq], true)
			}
		} else {
			var cursor atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < nw; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for {
						i := int(cursor.Add(1)) - 1
						if i >= len(pending) {
							return
						}
						seq := pending[i]
						p.ss.propose(p.scheds[w], reqs[seq], &p.scratch[w], &txns[seq], true)
					}
				}(w)
			}
			wg.Wait()
		}
		// Commit phase: serial, ascending request seq.
		keep := pending[:0]
		for _, seq := range pending {
			t := &txns[seq]
			if t.err == nil && !p.ss.validate(t) {
				attempts[seq]++
				if attempts[seq] >= maxTxnAttempts {
					results[seq] = PlaceResult{
						Err:     fmt.Errorf("%w: conflict budget exhausted after %d attempts", ErrNoPlacement, attempts[seq]),
						Outcome: "rejected",
						Retries: attempts[seq],
						Window:  t.width,
					}
				} else {
					keep = append(keep, seq)
				}
				continue
			}
			if t.err != nil {
				// Deterministic failure against this round's state;
				// commits only add load, so it cannot succeed later.
				results[seq] = PlaceResult{
					Err:     t.err,
					Outcome: t.outcome,
					Retries: attempts[seq],
					Window:  t.width,
				}
				continue
			}
			in := reqs[seq].Input
			in.Placement = t.placement
			p.ss.Commit(in, reqs[seq].SLA)
			results[seq] = PlaceResult{
				Placement: t.placement,
				Outcome:   t.outcome,
				Retries:   attempts[seq],
				Window:    t.width,
				Seq:       p.ss.seq,
			}
		}
		pending = keep
	}
	return results
}
