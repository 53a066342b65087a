// Package sortx holds the repository's pattern-defeating quicksort
// transcription. The implementation is the standard library's pdqsort
// (sort.Slice / zsortfunc.go, itself after Orson Peters' pdqsort),
// written out for the one concrete shape a hot path needs: Ints sorts
// an []int under a caller comparator — the candidate ordering sort of
// the schedulers once server counts reach the thousands and insertion
// sort's O(n²) shows.
//
// The transcription is deliberately faithful to the standard library —
// same pivot selection, same pattern breaking, same insertion/heap
// fallbacks — so it performs the exact permutation sort.Slice with the
// equivalent comparator would, without the reflect-based swapper and
// its per-element allocations. pdqsort is not stable: callers that
// need a deterministic permutation on ties (every scheduler does —
// float accumulation order depends on it) must pass a comparator that
// is a total order, e.g. by breaking ties on the element value itself.
package sortx

import "math/bits"

// Ints sorts a ascending under less, which must be a strict weak
// ordering over the element values. For a deterministic permutation
// (pdqsort is unstable) less must induce a total order — break ties
// on the values themselves.
func Ints(a []int, less func(x, y int) bool) {
	n := len(a)
	pdqInts(a, less, 0, n, bits.Len(uint(n)))
}

// xorshift is the deterministic generator pdqsort uses to break
// adversarial patterns (seeded from the slice length, as in the
// standard library).
type xorshift uint64

func (r *xorshift) next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	return 1 << uint(bits.Len(uint(length)))
}

type sortHint int

const (
	hintUnknown sortHint = iota
	hintIncreasing
	hintDecreasing
)

// pdqInts sorts d[a:b] under less; limit is the number of allowed bad
// pivots before falling back to heapsort.
func pdqInts(d []int, less func(x, y int) bool, a, b, limit int) {
	const maxInsertion = 12

	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)

	for {
		length := b - a

		if length <= maxInsertion {
			insertionSortInts(d, less, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSortInts(d, less, a, b)
			return
		}

		// If the last partitioning was imbalanced, we need to break patterns.
		if !wasBalanced {
			breakPatternsInts(d, a, b)
			limit--
		}

		pivot, hint := choosePivotInts(d, less, a, b)
		if hint == hintDecreasing {
			reverseRangeInts(d, a, b)
			// The chosen pivot was pivot-a elements after the start of the array.
			// After reversing it is pivot-a elements before the end of the array.
			pivot = (b - 1) - (pivot - a)
			hint = hintIncreasing
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == hintIncreasing {
			if partialInsertionSortInts(d, less, a, b) {
				return
			}
		}

		// Probably the slice contains many duplicate elements, partition the
		// slice into elements equal to and elements greater than the pivot.
		if a > 0 && !less(d[a-1], d[pivot]) {
			a = partitionEqualInts(d, less, a, b, pivot)
			continue
		}

		mid, alreadyPartitioned := partitionInts(d, less, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			pdqInts(d, less, a, mid, limit)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			pdqInts(d, less, mid+1, b, limit)
			b = mid
		}
	}
}

func insertionSortInts(d []int, less func(x, y int) bool, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && less(d[j], d[j-1]); j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}

func siftDownInts(d []int, less func(x, y int) bool, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && less(d[first+child], d[first+child+1]) {
			child++
		}
		if !less(d[first+root], d[first+child]) {
			return
		}
		d[first+root], d[first+child] = d[first+child], d[first+root]
		root = child
	}
}

func heapSortInts(d []int, less func(x, y int) bool, a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownInts(d, less, i, hi, first)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		d[first], d[first+i] = d[first+i], d[first]
		siftDownInts(d, less, lo, i, first)
	}
}

func partitionInts(d []int, less func(x, y int) bool, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	d[a], d[pivot] = d[pivot], d[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for i <= j && less(d[i], d[a]) {
		i++
	}
	for i <= j && !less(d[j], d[a]) {
		j--
	}
	if i > j {
		d[j], d[a] = d[a], d[j]
		return j, true
	}
	d[i], d[j] = d[j], d[i]
	i++
	j--

	for {
		for i <= j && less(d[i], d[a]) {
			i++
		}
		for i <= j && !less(d[j], d[a]) {
			j--
		}
		if i > j {
			break
		}
		d[i], d[j] = d[j], d[i]
		i++
		j--
	}
	d[j], d[a] = d[a], d[j]
	return j, false
}

func partitionEqualInts(d []int, less func(x, y int) bool, a, b, pivot int) (newpivot int) {
	d[a], d[pivot] = d[pivot], d[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for {
		for i <= j && !less(d[a], d[i]) {
			i++
		}
		for i <= j && less(d[a], d[j]) {
			j--
		}
		if i > j {
			break
		}
		d[i], d[j] = d[j], d[i]
		i++
		j--
	}
	return i
}

func partialInsertionSortInts(d []int, less func(x, y int) bool, a, b int) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !less(d[i], d[i-1]) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		d[i], d[i-1] = d[i-1], d[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !less(d[j], d[j-1]) {
					break
				}
				d[j], d[j-1] = d[j-1], d[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !less(d[j], d[j-1]) {
					break
				}
				d[j], d[j-1] = d[j-1], d[j]
			}
		}
	}
	return false
}

func breakPatternsInts(d []int, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := nextPowerOfTwo(length)

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			d[idx], d[a+other] = d[a+other], d[idx]
		}
	}
}

func choosePivotInts(d []int, less func(x, y int) bool, a, b int) (pivot int, hint sortHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method.
			i = medianAdjacentInts(d, less, i, &swaps)
			j = medianAdjacentInts(d, less, j, &swaps)
			k = medianAdjacentInts(d, less, k, &swaps)
		}
		// Find the median among i, j, k and stores it into j.
		j = medianInts(d, less, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, hintIncreasing
	case maxSwaps:
		return j, hintDecreasing
	default:
		return j, hintUnknown
	}
}

func order2Ints(d []int, less func(x, y int) bool, a, b int, swaps *int) (int, int) {
	if less(d[b], d[a]) {
		*swaps++
		return b, a
	}
	return a, b
}

func medianInts(d []int, less func(x, y int) bool, a, b, c int, swaps *int) int {
	a, b = order2Ints(d, less, a, b, swaps)
	b, c = order2Ints(d, less, b, c, swaps)
	a, b = order2Ints(d, less, a, b, swaps)
	return b
}

func medianAdjacentInts(d []int, less func(x, y int) bool, a int, swaps *int) int {
	return medianInts(d, less, a-1, a, a+1, swaps)
}

func reverseRangeInts(d []int, a, b int) {
	i := a
	j := b - 1
	for i < j {
		d[i], d[j] = d[j], d[i]
		i++
		j--
	}
}
