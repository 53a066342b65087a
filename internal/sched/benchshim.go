package sched

import "gsight/internal/resources"

// The frozen benchmark/ module (benchmark/placer.go and probes.go) is
// the only reason for this file: it still names the scheduler state
// ShardedState, builds it with a shard count and reads it through Base.
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
