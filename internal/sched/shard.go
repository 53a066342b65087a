package sched

import (
	"errors"
	"fmt"
)

// This file implements placement at scale: the path that takes the
// paper's 8-node placement search to thousands of servers without
// giving up the repository's determinism contract.
//
// Windows bound a placement's reads: a request hashes to a preferred
// start position and is first offered a windowBase-server window from
// there, doubling ("spilling to neighbors") whenever the window has no
// feasible, SLA-clean placement, until the window covers the cluster.
// Every caller places serially — Propose, then Commit on success — so
// each request reads the state every earlier one left. At cluster
// sizes up to windowBase the first window is already the full view,
// so testbed-size runs execute the single-state search instruction for
// instruction.

// windowBase is the initial placement window width. It equals the
// paper's testbed size, so clusters up to 8 servers place against the
// full view on the first attempt (the legacy-equivalence anchor).
const windowBase = 8

// proposeScratch is the reusable workspace of the window ladder: the
// projected window sub-state and the placement-translation arena.
type proposeScratch struct {
	sub     State
	offline []bool
	arena   []int
}

// Propose places one request against st through the window ladder and
// returns the placement in global server indices; the caller commits
// it. req.Detail is left holding the accepted attempt's account, its
// spread levels and SLA checks summed over every attempt the ladder
// made. At testbed sizes this is exactly s.Place against the state,
// and after the first call, which creates the scratch, it adds no
// allocations to that path.
//
// Ladder policy: start at the request's home window; widen on
// ErrNoPlacement (nothing fits / every feasible spread violates an
// SLA within the window) and on the "fallback" outcome (the window
// accepted only a last-resort full-spread — a wider window may still
// find an SLA-clean placement). "placed" accepts immediately;
// non-placement errors (a predictor error and the like) bubble to the
// caller, whose degradation rule (ProposeOrDegrade) is not the
// ladder's business. Once the window covers the cluster the decision
// is final either way.
func (st *State) Propose(s Scheduler, req *Request) ([]int, error) {
	n := st.NumServers()
	if n == 0 {
		return nil, fmt.Errorf("sched: empty cluster")
	}
	if st.scr == nil {
		st.scr = new(proposeScratch)
	}
	h := int(fnv32(req.Input.Name) % uint32(n))
	levels, checks := 0, 0
	for w := windowBase; ; w *= 2 {
		full := w >= n
		var out []int
		var err error
		if full {
			// Full view: place directly against the state.
			out, err = s.Place(st, req)
		} else {
			st.scr.project(st, h, w)
			out, err = s.Place(&st.scr.sub, req)
		}
		d := &req.Detail
		levels += d.SpreadLevels
		checks += d.SLAChecks
		d.SpreadLevels, d.SLAChecks = levels, checks
		if full {
			return out, err
		}
		if err != nil {
			if errors.Is(err, ErrNoPlacement) {
				continue // spill to neighbors: double the window
			}
			return nil, err
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
		return out, nil
	}
}

// fnv32 is FNV-1a — the request-to-window hash. It depends only on
// the workload name, so a request targets the same home window however
// the stream around it runs.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
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
