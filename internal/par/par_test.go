package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForRunsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 100
		var hits [n]int32
		if err := For(context.Background(), workers, n, func(w, i int) error {
			if w < 0 || w >= workers {
				t.Errorf("worker id %d outside [0, %d)", w, workers)
			}
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForZeroRunsNothing(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		if err := For(context.Background(), workers, 0, func(int, int) error {
			t.Fatal("fn called for n=0")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		err := For(context.Background(), workers, 50, func(_, i int) error {
			switch i {
			case 7:
				return errA
			case 31:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want lowest-index error %v", workers, err, errA)
		}
	}
}

func TestForStopsOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := For(ctx, workers, 1000, func(_, i int) error {
			ran.Add(1)
			if i == 0 {
				cancel()
			}
			// Every call outlasts the cancel, so each worker holds at
			// most one index when it lands.
			<-ctx.Done()
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got > int32(workers) {
			t.Fatalf("workers=%d: %d calls ran, want at most one per worker", workers, got)
		}
	}
}
