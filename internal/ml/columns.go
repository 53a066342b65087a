package ml

import (
	"context"
	"slices"

	"gsight/internal/par"
)

// maxWindowRows is the largest training window the kernel accepts: a
// column's dense ranks are uint16, and a column can hold as many
// distinct values as the window has rows.
const maxWindowRows = 1 << 16

// windowColumns is a training window prepared for split search, shared
// read-only by every tree grown on it. feats lists the features with
// any variance across the window (ascending). For candidate column c,
// vals[c] holds feats[c]'s distinct values ascending and
// ranks[c*w : (c+1)*w] each window row's index into vals[c] — its dense
// rank — in logical (oldest-first) row order. Split search never reads
// a feature value: equal ranks are equal values, rank order is value
// order, and a threshold lies between two entries of vals[c] (cutBetween).
type windowColumns struct {
	feats []int
	ranks []uint16 // len(feats) × w
	vals  [][]float64
	y     []float64 // targets, aliased from the caller
	w     int       // window length (column stride of ranks)
	dim   int

	// build scratch, reused across builds.
	vary []bool
	und  []int
	work []rankWork
}

// rankWork is one rank-preparation worker's scratch: the gathered
// column, its sorted copy, and the arena the distinct values of the
// columns it ranks are appended to (their vals[c] are subslices of it).
type rankWork struct {
	col, sorted, vals []float64
}

// build prepares the window whose logical row i is (rows[i], y[i]).
// Candidates are found by one row-linear scan that retires a feature
// from the undecided set on its first mismatch against row 0; each
// candidate column is then ranked independently — gather, sort, dedupe,
// binary-search every row — on up to workers goroutines. Ranks
// and distinct values are functions of the column alone, so the result
// does not depend on the worker count.
func (wc *windowColumns) build(rows [][]float64, y []float64, workers int) error {
	w := len(rows)
	if w > maxWindowRows {
		return ErrWindowTooLarge
	}
	d := len(rows[0])
	wc.w, wc.dim, wc.y = w, d, y

	wc.vary = grab(wc.vary, d)
	clear(wc.vary)
	wc.und = grab(wc.und, d)
	und := wc.und
	for j := range und {
		und[j] = j
	}
	base := rows[0]
	for i := 1; i < w && len(und) > 0; i++ {
		row := rows[i]
		kept := und[:0]
		for _, j := range und {
			if row[j] != base[j] {
				wc.vary[j] = true
			} else {
				kept = append(kept, j)
			}
		}
		und = kept
	}
	wc.feats = wc.feats[:0]
	for j, v := range wc.vary {
		if v {
			wc.feats = append(wc.feats, j)
		}
	}

	nc := len(wc.feats)
	wc.ranks = grab(wc.ranks, nc*w)
	wc.vals = grab(wc.vals, nc)
	workers = max(1, min(workers, nc))
	for len(wc.work) < workers {
		wc.work = append(wc.work, rankWork{})
	}
	for g := range wc.work[:workers] {
		k := &wc.work[g]
		k.col = grab(k.col, w)
		k.sorted = grab(k.sorted, w)
		k.vals = k.vals[:0]
	}
	return par.For(context.Background(), workers, nc, func(g, c int) error {
		wc.rankColumn(rows, &wc.work[g], c)
		return nil
	})
}

// rankColumn fills vals[c] and column c's ranks using scratch k.
func (wc *windowColumns) rankColumn(rows [][]float64, k *rankWork, c int) {
	f := wc.feats[c]
	for i, row := range rows {
		k.col[i] = row[f]
	}
	copy(k.sorted, k.col)
	slices.Sort(k.sorted)
	// A growing append may move the arena; columns sliced earlier keep
	// the array they were written to, which nothing writes again.
	lo := len(k.vals)
	k.vals = append(k.vals, k.sorted[0])
	for _, v := range k.sorted[1:] {
		if v != k.vals[len(k.vals)-1] {
			k.vals = append(k.vals, v)
		}
	}
	vals := k.vals[lo:len(k.vals):len(k.vals)]
	wc.vals[c] = vals
	ranks := wc.ranks[c*wc.w : (c+1)*wc.w]
	for i, v := range k.col {
		// Lower bound within [0, len(vals)-1]: v is present, so the
		// answer never reaches len(vals) (and stays in range for NaN).
		a, b := 0, len(vals)-1
		for a < b {
			m := int(uint(a+b) >> 1)
			if vals[m] < v {
				a = m + 1
			} else {
				b = m
			}
		}
		ranks[i] = uint16(a)
	}
}
