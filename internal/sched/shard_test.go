package sched

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/workload"
)

// TestSortIDsMatchesInsertionSort proves the slices.SortFunc path
// produces the EXACT permutation insertionSort (stable) produces, at
// every size from the cutoff through pdqsort's own small-slice and
// ninther thresholds up to 4096, with heavy ties — the schedulers' float
// accumulation order rides on this. The call sites always enumerate
// ids in ascending order first, which the test mirrors: under that
// precondition the id tie-break reproduces stability.
func TestSortIDsMatchesInsertionSort(t *testing.T) {
	r := rng.New(5)
	sizes := []int{0, 1, 8, 32, 5000}
	for n := 33; n <= 4096; n += 1 + n/16 {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 4096)
	for i, n := range sizes {
		distinct := []float64{2, 5, 64}[i%3] // all tie-heavy, from two keys up
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(int(r.Range(0, distinct)))
		}
		a := make([]int, n)
		b := make([]int, n)
		for i := 0; i < n; i++ {
			a[i], b[i] = i, i // ascending ids, as at the call sites
		}
		less := func(x, y int) bool { return keys[x] < keys[y] }
		sortIDs(a, less)
		insertionSort(b, less)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d: sortIDs and insertionSort permutations differ", n)
		}
	}
}

// TestSelectIDsMatchesSortPrefix proves the quickselect used by the
// two-tier prune produces EXACTLY the k-prefix a full sortIDs pass
// would: byte-identical pruned placements depend on it. The comparator
// is tie-heavy and made total with an id tie-break, as at the call
// site.
func TestSelectIDsMatchesSortPrefix(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{1, 8, 33, 100, 1000, 5000} {
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(int(r.Range(0, 5))) // few distinct values: tie-heavy
		}
		less := func(x, y int) bool {
			if keys[x] != keys[y] {
				return keys[x] < keys[y]
			}
			return x < y
		}
		for _, k := range []int{1, 2, 4, 32, 33, n / 2, n - 1, n, n + 10} {
			if k < 1 {
				continue
			}
			a := make([]int, n)
			b := make([]int, n)
			for i := 0; i < n; i++ {
				a[i], b[i] = i, i
			}
			sortIDs(b, less)
			selectIDs(a, k, less)
			kk := k
			if kk > n {
				kk = n
			}
			if !reflect.DeepEqual(a[:kk], b[:kk]) {
				t.Fatalf("n=%d k=%d: selectIDs prefix differs from sorted prefix", n, k)
			}
		}
	}
}

// TestCountedBookkeepingMatchesScan drives a counted and an uncounted
// state through an identical operation sequence and checks the cached
// counts and map-based Release against the legacy scans after every
// step.
func TestCountedBookkeepingMatchesScan(t *testing.T) {
	const n = 24
	counted := StateFromProfiles(spec, n)
	counted.Recount()
	plain := StateFromProfiles(spec, n)

	check := func(step string) {
		t.Helper()
		scanOnline := plain.OnlineServers()
		scanActive := plain.ActiveServers()
		if counted.OnlineServers() != scanOnline {
			t.Fatalf("%s: online %d != scan %d", step, counted.OnlineServers(), scanOnline)
		}
		if counted.ActiveServers() != scanActive {
			t.Fatalf("%s: active %d != scan %d", step, counted.ActiveServers(), scanActive)
		}
	}

	r := rng.New(17)
	names := []string{}
	for i := 0; i < 60; i++ {
		switch r.Intn(4) {
		case 0, 1: // commit
			in := inputFor(workload.MatMul(), 0)
			in.Name = fmt.Sprintf("wl-%d", i)
			in.Placement = []int{r.Intn(n)}
			counted.Commit(in, SLA{})
			plain.Commit(in, SLA{})
			names = append(names, in.Name)
		case 2: // release (sometimes a missing name)
			nm := "absent"
			if len(names) > 0 && r.Intn(4) != 0 {
				k := r.Intn(len(names))
				nm = names[k]
				names = append(names[:k], names[k+1:]...)
			}
			a := counted.Release(nm)
			b := plain.Release(nm)
			if a != b {
				t.Fatalf("step %d: Release(%q) counted=%v plain=%v", i, nm, a, b)
			}
		case 3: // toggle a server
			s := r.Intn(n)
			down := r.Intn(2) == 0
			counted.SetOffline(s, down)
			plain.SetOffline(s, down)
		}
		check(fmt.Sprintf("step %d", i))
		if !reflect.DeepEqual(counted.Used, plain.Used) {
			t.Fatalf("step %d: Used diverged", i)
		}
		if len(counted.Running) != len(plain.Running) {
			t.Fatalf("step %d: Running diverged", i)
		}
	}
}

// TestShardedLegacyEquivalence: at testbed size (8 <= windowBase) a
// ShardedState run must be bit-identical to driving a plain State
// directly: same placements, same Used floats.
func TestShardedLegacyEquivalence(t *testing.T) {
	legacy := StateFromProfiles(spec, 8)
	ss := ShardedStateFromProfiles(spec, 8, 0)
	g1 := NewGsight(&stubPredictor{ipc: 2})
	g2 := NewGsight(&stubPredictor{ipc: 2})
	for i := 0; i < 12; i++ {
		in := inputFor(workload.MatMul(), 0)
		in.Name = fmt.Sprintf("wl-%d", i)
		req1 := &Request{Input: in, SLA: SLA{MinIPC: 0.5}}
		req2 := &Request{Input: in, SLA: SLA{MinIPC: 0.5}}
		p1, err1 := g1.Place(legacy, req1)
		p2, err2 := ss.Propose(g2, req2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("wl %d: err %v vs %v", i, err1, err2)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("wl %d: placement %v vs %v", i, p1, p2)
		}
		if err1 == nil {
			in1 := in
			in1.Placement = p1
			legacy.Commit(in1, req1.SLA)
			in2 := in
			in2.Placement = p2
			ss.Commit(in2, req2.SLA)
		}
		if i == 6 {
			legacy.Release("wl-2")
			ss.Release("wl-2")
		}
	}
	for s := 0; s < 8; s++ {
		for k := range legacy.Used[s] {
			if legacy.Used[s][k] != ss.Base().Used[s][k] {
				t.Fatalf("server %d kind %d: Used %v != %v (must be bit-identical)",
					s, k, ss.Base().Used[s][k], legacy.Used[s][k])
			}
		}
	}
}

// TestForcedTxnConflict commits two transactions that touch the same
// server: the first (lower request-seq) wins deterministically, the
// second fails with ErrTxnConflict and succeeds after re-proposing
// against the refreshed state.
func TestForcedTxnConflict(t *testing.T) {
	ss := ShardedStateFromProfiles(spec, 4, 0)
	g := NewGsight(&stubPredictor{ipc: 2})

	inA := inputFor(workload.MatMul(), 0)
	inA.Name = "txn-a"
	inB := inputFor(workload.MatMul(), 0)
	inB.Name = "txn-b"
	reqA := &Request{Input: inA, SLA: SLA{MinIPC: 0.5}}
	reqB := &Request{Input: inB, SLA: SLA{MinIPC: 0.5}}

	txA := ss.Begin()
	txB := ss.Begin()
	pA, err := txA.Propose(g, reqA)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := txB.Propose(g, reqB)
	if err != nil {
		t.Fatal(err)
	}
	// Proposed against the same snapshot, both pack the same server.
	if !reflect.DeepEqual(pA, pB) {
		t.Fatalf("same-snapshot proposals differ: %v vs %v", pA, pB)
	}
	if err := txA.Commit(); err != nil {
		t.Fatalf("first committer must win: %v", err)
	}
	if err := txB.Commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("stale transaction must conflict, got %v", err)
	}
	// Re-propose against the refreshed state, then commit cleanly.
	if _, err := txB.Propose(g, reqB); err != nil {
		t.Fatal(err)
	}
	if err := txB.Commit(); err != nil {
		t.Fatalf("retried transaction must commit: %v", err)
	}
	if got := len(ss.Base().Running); got != 2 {
		t.Fatalf("want 2 running workloads, got %d", got)
	}
	// A second commit of the same transaction is refused.
	if err := txB.Commit(); err == nil {
		t.Fatal("double commit must fail")
	}
}

// poolRequests builds a deterministic request mix: BG jobs and LS
// services with SLAs, names spread over the hash space.
func poolRequests(n int) []*Request {
	reqs := make([]*Request, n)
	for i := range reqs {
		var in = inputFor(workload.MatMul(), 0)
		if i%3 == 1 {
			in = inputFor(workload.ECommerce(), 0.4)
		}
		in.Name = fmt.Sprintf("pool-%03d", i)
		reqs[i] = &Request{Input: in, SLA: SLA{MinIPC: 0.5}, SoloDurationS: 60}
	}
	return reqs
}

// resultKey flattens a PlaceResult for byte-exact comparison.
func resultKey(r PlaceResult) string {
	e := ""
	if r.Err != nil {
		e = r.Err.Error()
	}
	return fmt.Sprintf("%v|%s|%d|%s", r.Placement, r.Outcome, r.Retries, e)
}

// TestPlacerPoolDeterminism: same requests — byte-identical results
// (retry counts included) and final state at every placer count.
func TestPlacerPoolDeterminism(t *testing.T) {
	const servers = 64
	var refKeys []string
	var refUsed []resources.Vector
	for _, placers := range []int{1, 2, 8} {
		ss := ShardedStateFromProfiles(spec, servers, 0)
		pool := NewPlacerPool(ss, placers, func() Scheduler {
			return NewGsight(&stubPredictor{ipc: 2})
		})
		results := pool.PlaceAll(poolRequests(48))
		keys := make([]string, len(results))
		for i, r := range results {
			keys[i] = resultKey(r)
		}
		if refKeys == nil {
			refKeys, refUsed = keys, ss.Base().Used
			continue
		}
		for i := range keys {
			if keys[i] != refKeys[i] {
				t.Fatalf("placers=%d req %d: result %q != reference %q", placers, i, keys[i], refKeys[i])
			}
		}
		for s := range refUsed {
			for k := range refUsed[s] {
				if ss.Base().Used[s][k] != refUsed[s][k] {
					t.Fatalf("placers=%d server %d kind %d: Used not bit-identical", placers, s, k)
				}
			}
		}
	}
}

// TestPlacerPoolCommitsAreConsistent cross-checks the pool's final
// state: summing every accepted placement's allocations must equal the
// state's Used exactly, and no placement may target an offline server.
func TestPlacerPoolCommitsAreConsistent(t *testing.T) {
	const servers = 96
	ss := ShardedStateFromProfiles(spec, servers, 0)
	ss.SetOffline(3, true)
	ss.SetOffline(70, true)
	pool := NewPlacerPool(ss, 4, func() Scheduler {
		return NewGsight(&stubPredictor{ipc: 2})
	})
	reqs := poolRequests(64)
	results := pool.PlaceAll(reqs)
	want := make([]resources.Vector, servers)
	placed := 0
	for i, r := range results {
		if r.Err != nil {
			continue
		}
		placed++
		in := reqs[i].Input
		if len(r.Placement) != len(in.Profiles) {
			t.Fatalf("req %d: placement len %d != %d functions", i, len(r.Placement), len(in.Profiles))
		}
		for f := range in.Profiles {
			s := r.Placement[f]
			if s < 0 || s >= servers {
				t.Fatalf("req %d: server %d out of range", i, s)
			}
			if s == 3 || s == 70 {
				t.Fatalf("req %d placed on offline server %d", i, s)
			}
			want[s] = want[s].Add(AllocOf(&in, f))
		}
	}
	if placed == 0 {
		t.Fatal("nothing placed")
	}
	for s := range want {
		for k := range want[s] {
			if math.Abs(want[s][k]-ss.Base().Used[s][k]) > 1e-9 {
				t.Fatalf("server %d kind %d: recomputed %v != state %v", s, k, want[s][k], ss.Base().Used[s][k])
			}
		}
	}
	if got := len(ss.Base().Running); got != placed {
		t.Fatalf("running %d != placed %d", got, placed)
	}
}

// TestWindowProjection pins the window ladder's geometry: placements
// proposed at scale translate back to global indices inside the home
// window, and a workload committed inside a window is visible to the
// next proposal that lands there (densification packs onto it).
func TestWindowProjection(t *testing.T) {
	const servers = 256
	ss := ShardedStateFromProfiles(spec, servers, 0)
	g := NewGsight(&stubPredictor{ipc: 2})

	in := inputFor(workload.MatMul(), 0)
	in.Name = "window-probe"
	req := &Request{Input: in, SLA: SLA{MinIPC: 0.5}}
	p1, err := ss.Propose(g, req)
	if err != nil {
		t.Fatal(err)
	}
	h := int(fnv32("window-probe") % uint32(servers))
	for _, s := range p1 {
		rel := s - h
		if rel < 0 {
			rel += servers
		}
		if rel >= windowBase {
			t.Fatalf("placement %d outside home window [%d,%d)", s, h, h+windowBase)
		}
	}
	in1 := in
	in1.Placement = p1
	ss.Commit(in1, req.SLA)

	// Same home window again: the committed workload must be seen, so
	// the packer lands on the same (now active) server.
	in2 := inputFor(workload.MatMul(), 0)
	in2.Name = "window-probe" // same hash, distinct deployment
	req2 := &Request{Input: in2, SLA: SLA{MinIPC: 0.5}}
	p2, err := ss.Propose(g, req2)
	if err != nil {
		t.Fatal(err)
	}
	if p2[0] != p1[0] {
		t.Fatalf("densification lost across window projection: %v then %v", p1, p2)
	}
	if ss.ActiveServers() != 1 {
		t.Fatalf("want 1 active server, got %d", ss.ActiveServers())
	}
}

// BenchmarkClusterCounts pins the satellite-bugfix delta: per-placement
// OnlineServers+ActiveServers on a 10k-server state, scanned vs
// counted. The scan is O(n) per call; the counted path is O(1).
func BenchmarkClusterCounts(b *testing.B) {
	const n = 10000
	run := func(b *testing.B, st *State) {
		sum := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum += st.OnlineServers() + st.ActiveServers()
		}
		if sum == 0 {
			b.Fatal("unexpected zero")
		}
	}
	b.Run("scan", func(b *testing.B) {
		st := StateFromProfiles(spec, n)
		st.SetOffline(1, true)
		run(b, st)
	})
	b.Run("counted", func(b *testing.B) {
		st := StateFromProfiles(spec, n)
		st.SetOffline(1, true)
		st.Recount()
		run(b, st)
	})
}

// BenchmarkReleaseLookup pins the Release name-lookup delta at a large
// running set: linear scan vs name→index map.
func BenchmarkReleaseLookup(b *testing.B) {
	const nServers, nRunning = 1024, 2048
	build := func(counted bool) *State {
		st := StateFromProfiles(spec, nServers)
		if counted {
			st.Recount()
		}
		for i := 0; i < nRunning; i++ {
			in := inputFor(workload.MatMul(), 0)
			in.Name = fmt.Sprintf("rel-%d", i)
			in.Placement = []int{i % nServers}
			st.Commit(in, SLA{})
		}
		return st
	}
	bench := func(b *testing.B, st *State) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Release near the tail (the scan's worst case), re-commit
			// to keep the set stable.
			nm := fmt.Sprintf("rel-%d", nRunning-1-(i%8))
			idx := st.indexOf(nm)
			if idx < 0 {
				b.Fatal("lost workload")
			}
			d := st.Running[idx]
			if !st.Release(nm) {
				b.Fatal("release failed")
			}
			st.Commit(d.Input, d.SLA)
		}
	}
	b.Run("scan", func(b *testing.B) { bench(b, build(false)) })
	b.Run("indexed", func(b *testing.B) { bench(b, build(true)) })
}
