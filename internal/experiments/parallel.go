package experiments

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gsight/internal/telemetry"
)

// poolIns is the worker pool's instrument set, swapped atomically so
// replica tasks already in flight never race a SetTelemetry call.
var poolIns atomic.Pointer[telemetry.PoolInstruments]

// SetTelemetry attaches the experiments worker pool to a sink; nil
// detaches it. Instrumentation is observation-only: the
// fan-out order, worker count and replica results are unchanged.
func SetTelemetry(s *telemetry.Sink) {
	if s == nil {
		poolIns.Store(nil)
		return
	}
	ins := s.Pool()
	poolIns.Store(&ins)
}

// forEach runs fn(0) … fn(n-1) on a bounded worker pool (GOMAXPROCS
// wide) and returns the lowest-index error, matching what a sequential
// loop would have surfaced. Cancelling ctx stops dispatching new
// indices; tasks already running finish (they are pure computations),
// and the call returns ctx.Err() when no task error outranks it.
//
// Determinism contract: fn(i) must write only to index i of pre-sized
// result slices, and any randomness it consumes must come from streams
// split sequentially BEFORE the fan-out (scenario.Generator.NoiseSplit,
// rng.Split). Under that contract a parallel run is byte-identical to
// the sequential one — assembly order is the index order, and each
// stream's draw sequence is fixed at split time.
func forEach(ctx context.Context, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	ins := poolIns.Load()
	run := fn
	var busy atomic.Int64 // summed task nanoseconds across workers
	var t0 time.Time
	if ins != nil {
		t0 = time.Now()
		ins.Runs.Inc()
		ins.Tasks.Add(uint64(n))
		ins.Workers.SetInt(workers)
		run = func(i int) error {
			ts := time.Now()
			err := fn(i)
			d := time.Since(ts)
			ins.TaskSeconds.Observe(d.Seconds())
			busy.Add(int64(d))
			return err
		}
	}
	err := forEachOn(ctx, workers, n, run)
	if ins != nil {
		if wall := time.Since(t0).Seconds(); wall > 0 {
			ins.Utilization.Observe(time.Duration(busy.Load()).Seconds() / (float64(workers) * wall))
		}
	}
	return err
}

// forEachOn is forEach's scheduling core over a fixed worker count.
func forEachOn(ctx context.Context, workers, n int, fn func(i int) error) error {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	// Lowest-index error first — the sequential contract — then the
	// cancellation itself.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
