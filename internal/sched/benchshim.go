package sched

import "gsight/internal/resources"

// The frozen benchmark/ module (benchmark/placer.go and probes.go) is
// the only reason for this file: it still names the scheduler state
// ShardedState, builds it with a shard count, reads it through Base,
// sets a Fallback on its Gsight and places through a placer pool.
// Nothing else may use these names; the next change to the benchmark
// deletes the file.

// ShardedState is the old name of State.
type ShardedState = State

// ShardedStateFromProfiles is StateFromProfiles; the third argument (a
// shard count) is ignored.
func ShardedStateFromProfiles(spec resources.ServerSpec, n, _ int) *State {
	return StateFromProfiles(spec, n)
}

// Base returns st itself.
func (st *State) Base() *State { return st }

// benchFallback is the Fallback field the benchmark sets on Gsight.
// Nothing reads it: PlaceAll falls back to its own WorstFit.
type benchFallback struct{ Fallback *WorstFit }

// PlaceResult is one request's outcome from PlaceAll.
type PlaceResult struct {
	// Placement holds global server indices; nil when Err is set.
	Placement []int
	// Err is the scheduler's own error for this request, if any.
	Err error
}

// PlacerPool places request batches on one State with one scheduler
// and a WorstFit fallback.
type PlacerPool struct {
	st       *State
	s        Scheduler
	fallback *WorstFit
}

// NewPlacerPool builds a pool over st from one factory scheduler; the
// second argument (a worker count) is ignored.
func NewPlacerPool(st *State, _ int, factory func() Scheduler) *PlacerPool {
	return &PlacerPool{st: st, s: factory(), fallback: NewWorstFit()}
}

// PlaceAll is ProposeOrDegrade, then Commit on success, over reqs
// in order; it returns results lined up with them.
func (p *PlacerPool) PlaceAll(reqs []*Request) []PlaceResult {
	results := make([]PlaceResult, len(reqs))
	for i, req := range reqs {
		pl, err := p.st.ProposeOrDegrade(p.s, p.fallback, false, req)
		if pl == nil {
			results[i].Err = err
			continue
		}
		results[i].Placement = pl
		in := req.Input
		in.Placement = pl
		p.st.Commit(in, req.SLA)
	}
	return results
}
