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
// (w == 0 is the calling one), handing out indices in ascending order,
// and returns once every started call has. It returns the error of the
// lowest index that failed — what a sequential loop would have
// surfaced — or else ctx.Err(). Once ctx is cancelled or a call has
// failed, no further index is handed out; since indices go out in
// order, every index below a failure has still run.
func For(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	workers = max(1, min(workers, n))
	s := &loop{ctx: ctx, n: n, fn: fn, errAt: n}
	for w := 1; w < workers; w++ {
		s.wg.Add(1)
		go func(w int) {
			defer s.wg.Done()
			s.work(w)
		}(w)
	}
	s.work(0)
	s.wg.Wait()
	if s.first != nil {
		return s.first
	}
	return ctx.Err()
}

// loop is what For's workers share, in one allocation.
type loop struct {
	ctx    context.Context
	n      int
	fn     func(w, i int) error
	next   atomic.Int64
	failed atomic.Bool
	wg     sync.WaitGroup
	mu     sync.Mutex // guards errAt and first, the lowest failure so far
	errAt  int
	first  error
}

// work is worker w: it runs fn on the next index until none is left,
// ctx is cancelled or a call has failed.
func (s *loop) work(w int) {
	for !s.failed.Load() && s.ctx.Err() == nil {
		i := int(s.next.Add(1)) - 1
		if i >= s.n {
			return
		}
		if err := s.fn(w, i); err != nil {
			s.mu.Lock()
			if i < s.errAt {
				s.errAt, s.first = i, err
			}
			s.mu.Unlock()
			s.failed.Store(true)
		}
	}
}
