package experiments

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"gsight/internal/par"
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

// forEach runs fn(0) … fn(n-1) on par.For, GOMAXPROCS wide, and
// returns its lowest-index error (or ctx.Err()), instrumented when a
// sink is attached. fn must follow par's determinism recipe: write only
// index i of pre-sized results and consume only randomness split
// sequentially before the fan-out (scenario.Generator.Draws, rng.Split),
// so a parallel run is byte-identical to the sequential one.
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
	run := func(_, i int) error { return fn(i) }
	var busy atomic.Int64 // summed task nanoseconds across workers
	var t0 time.Time
	if ins != nil {
		t0 = time.Now()
		ins.Runs.Inc()
		ins.Tasks.Add(uint64(n))
		ins.Workers.SetInt(workers)
		run = func(_, i int) error {
			ts := time.Now()
			err := fn(i)
			d := time.Since(ts)
			ins.TaskSeconds.Observe(d.Seconds())
			busy.Add(int64(d))
			return err
		}
	}
	err := par.For(ctx, workers, n, run)
	if ins != nil {
		if wall := time.Since(t0).Seconds(); wall > 0 {
			ins.Utilization.Observe(time.Duration(busy.Load()).Seconds() / (float64(workers) * wall))
		}
	}
	return err
}
