package ml

import (
	"math/bits"
	"sync"
)

// fitScratch is the reusable working state of one tree fit: the row
// arena the recursion partitions, the rank buckets of the split search
// and the feature-subsample buffer live here, sized once per fit and
// recycled across fits through fitPool. The kernel is therefore
// allocation-free per node; the only per-tree allocations left are the
// structures the tree retains after fitting (nodes, importance).
//
// Ownership rule: a fitScratch belongs to exactly one Tree fit at a
// time. Trees never retain scratch state; fitFromWindow releases it to
// the pool before returning. Concurrent tree growth (Forest.growTrees)
// is safe because each fit draws its own scratch from the pool; the
// windowColumns all of them read is not written during the fan-out.
type fitScratch struct {
	// arena holds the window rows of the bootstrap (duplicates and all)
	// reaching the current subtree, stably partitioned in place as the
	// recursion descends: a node owns arena[lo:hi].
	arena []int32
	// spill is the right-half buffer of the stable partition.
	spill []int32
	// bkt, indexed by the searched column's dense rank, and occ, a bitmap
	// over the same index with a bit set where bkt is occupied, are the
	// split search's accumulators; both are all zero between searches —
	// each search clears what it occupied.
	bkt []bucket
	occ []uint64
	// ranks is occupied's result buffer.
	ranks []uint16
	// active lists the candidate columns with any variance in the
	// bootstrap, ascending; feat is the per-node partial-shuffle buffer
	// of sampleFeatures.
	active, feat []int
}

// bucket holds the count, Σy and Σy² of the node's rows that have one
// distinct value of the column.
type bucket struct {
	sum, sq float64
	n       int32
}

var fitPool = sync.Pool{New: func() interface{} { return new(fitScratch) }}

// grab returns s[:n], reusing capacity. A buffer that must grow is given
// a quarter of headroom, so the ones sized by a window that is still
// filling are not reallocated at every update. Fresh capacity is zeroed;
// reused elements keep what the last user left.
func grab[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// prepare sizes the scratch for a fit over n bootstrap samples of a
// w-row window (a column has at most w distinct values).
func (s *fitScratch) prepare(n, w int) {
	s.arena = grab(s.arena, n)
	s.spill = grab(s.spill, n)[:0]
	s.ranks = grab(s.ranks, n)[:0]
	s.bkt = grab(s.bkt, w)
	s.occ = grab(s.occ, (w+63)/64)
}

// occupied returns, ascending, the ranks that a search of a column of k
// distinct values has occupied, and clears s.occ.
func (s *fitScratch) occupied(k int) []uint16 {
	out := s.ranks[:0]
	words := s.occ[:(k+63)/64]
	for i, word := range words {
		for ; word != 0; word &= word - 1 {
			out = append(out, uint16(i<<6|bits.TrailingZeros64(word)))
		}
		words[i] = 0
	}
	return out
}
