// testing.AllocsPerRun is exact only without the race runtime's shadow
// allocations, so this file is excluded from -race runs.

//go:build !race

package ml

import (
	"runtime/debug"
	"testing"
)

// TestWindowAbsorbAllocFree pins BenchmarkWindowAbsorb at 0 allocs/op:
// the ring overwrites its oldest slots in place.
func TestWindowAbsorbAllocFree(t *testing.T) {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	if got := testing.AllocsPerRun(200, windowAbsorbOp()); got != 0 {
		t.Fatalf("window absorb allocates %.1f allocs/op, budget is 0", got)
	}
}
