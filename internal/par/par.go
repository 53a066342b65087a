// Package par is the tree's one worker pool: For fans an index range
// out over a fixed number of goroutines with the error a sequential
// loop would have returned.
//
// Determinism recipe for callers: draw every random input serially, in
// the order a sequential loop would, before calling For; let fn(w, i)
// write only index i of pre-sized results (or state owned by worker w);
// assemble the results in index order afterwards. Output is then
// byte-identical at any worker count.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// For runs fn(w, i) for every i in [0, n) on at most workers goroutines
// (w < workers names the calling one), handing out indices in
// ascending order, and returns once every started call has. It returns
// the error of the lowest index that failed — what a sequential loop
// would have surfaced — or else ctx.Err(). Once ctx is cancelled or a
// call has failed, no further index is handed out; since indices go out
// in order, every index below a failure has still run.
func For(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	workers = max(1, min(workers, n))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	var mu sync.Mutex // guards errAt and first, the lowest failure so far
	errAt, first := n, error(nil)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if i < errAt {
						errAt, first = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}
