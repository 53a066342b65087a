package experiments

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"gsight/internal/core"
	"gsight/internal/scenario"
)

func TestForEachRunsAll(t *testing.T) {
	const n = 100
	var hits [n]int32
	if err := forEach(nil, n, func(i int) error {
		atomic.AddInt32(&hits[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
	if err := forEach(nil, 0, func(int) error { t.Fatal("fn called for n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := forEach(nil, 50, func(i int) error {
		switch i {
		case 7:
			return errA
		case 31:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("got %v, want lowest-index error %v", err, errA)
	}
}

// TestFig3aDeterministic guards the parallel-replica contract: the
// fanned-out grid must render byte-identically across runs at the same
// seed.
func TestFig3aDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated fig3a run is slow")
	}
	opt := Options{Seed: 42, Scale: 0.02}
	a, err := Fig3aVolatility(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig3aVolatility(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("fig3a not deterministic across parallel runs:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestCollectObsDeterministic: parallel labeling with pre-drawn
// colocations and noise streams must reproduce the sequential draw
// order exactly, at 1 worker and at 4.
func TestCollectObsDeterministic(t *testing.T) {
	run := func(procs int) []core.Observation {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		g := scenario.NewGenerator(scenario.Lab(), 7)
		obs, err := CollectObs(nil, g, core.LSSC, core.IPCQoS, 12, 3)
		if err != nil {
			t.Fatal(err)
		}
		return obs
	}
	a, b := run(1), run(4)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("observation counts: %d vs %d", len(a), len(b))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("observations differ between 1 and 4 workers")
	}
}
