package sortx

import (
	"sort"
	"testing"

	"gsight/internal/rng"
)

// cases enumerates the value shapes that drive pdqsort through its
// distinct strategies: random, heavy duplicates (partitionEqual),
// already sorted and reversed (partialInsertionSort), sawtooth
// (breakPatterns) and constant.
func cases(n int, r *rng.Rand) [][]float64 {
	random := make([]float64, n)
	dups := make([]float64, n)
	asc := make([]float64, n)
	desc := make([]float64, n)
	saw := make([]float64, n)
	flat := make([]float64, n)
	for i := 0; i < n; i++ {
		random[i] = r.Range(-100, 100)
		dups[i] = float64(int(r.Range(0, 4)))
		asc[i] = float64(i)
		desc[i] = float64(n - i)
		saw[i] = float64(i % 7)
		flat[i] = 1.5
	}
	return [][]float64{random, dups, asc, desc, saw, flat}
}

var sizes = []int{0, 1, 2, 3, 7, 12, 13, 40, 100, 257, 1000, 2048}

// TestIntsMatchesSortSlice checks Ints against sort.Slice under a
// total-order comparator (key, then element value on ties) over the
// same adversarial shapes. With a total order every correct sort —
// stable or not — produces one permutation, so the two must agree
// exactly.
func TestIntsMatchesSortSlice(t *testing.T) {
	r := rng.New(7)
	for _, n := range sizes {
		for ci, keys := range cases(n, r) {
			ids1 := make([]int, n)
			for i := range ids1 {
				ids1[i] = i
			}
			ids2 := append([]int(nil), ids1...)
			less := func(x, y int) bool {
				if keys[x] != keys[y] {
					return keys[x] < keys[y]
				}
				return x < y
			}
			Ints(ids1, less)
			sort.Slice(ids2, func(a, b int) bool { return less(ids2[a], ids2[b]) })
			for i := 0; i < n; i++ {
				if ids1[i] != ids2[i] {
					t.Fatalf("n=%d case=%d pos=%d: Ints %d != sort.Slice %d",
						n, ci, i, ids1[i], ids2[i])
				}
			}
		}
	}
}

// TestIntsSortsNonContiguousIDs exercises the schedulers' actual shape:
// the slice holds arbitrary server ids (not 0..n-1) and the comparator
// indexes side tables by value.
func TestIntsSortsNonContiguousIDs(t *testing.T) {
	r := rng.New(11)
	const n = 500
	key := make([]float64, 4*n)
	for i := range key {
		key[i] = float64(int(r.Range(0, 9)))
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = 4 * i // sparse ids into the key table
	}
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	want := append([]int(nil), ids...)
	less := func(x, y int) bool {
		if key[x] != key[y] {
			return key[x] < key[y]
		}
		return x < y
	}
	Ints(ids, less)
	sort.Slice(want, func(a, b int) bool { return less(want[a], want[b]) })
	for i := range ids {
		if ids[i] != want[i] {
			t.Fatalf("pos %d: got %d want %d", i, ids[i], want[i])
		}
	}
}
