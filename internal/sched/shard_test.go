package sched

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gsight/internal/core"
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

// TestCountedBookkeepingMatchesScan drives a state through a random
// operation sequence and checks the cached counts and the name index
// against scans of its fields after every step.
func TestCountedBookkeepingMatchesScan(t *testing.T) {
	const n = 24
	st := StateFromProfiles(spec, n)

	check := func(step string) {
		t.Helper()
		scanOnline, scanActive := 0, 0
		for s := range st.Caps {
			if st.Online(s) {
				scanOnline++
			}
			if !st.Used[s].IsZero() {
				scanActive++
			}
		}
		if st.OnlineServers() != scanOnline {
			t.Fatalf("%s: online %d != scan %d", step, st.OnlineServers(), scanOnline)
		}
		if st.ActiveServers() != scanActive {
			t.Fatalf("%s: active %d != scan %d", step, st.ActiveServers(), scanActive)
		}
		for i := range st.Running {
			nm := st.Running[i].Input.Name
			first := i
			for j := range st.Running[:i] {
				if st.Running[j].Input.Name == nm {
					first = j
					break
				}
			}
			if got := st.IndexOf(nm); got != first {
				t.Fatalf("%s: IndexOf(%q) = %d, scan finds %d", step, nm, got, first)
			}
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
			st.Commit(in, SLA{})
			names = append(names, in.Name)
		case 2: // release (sometimes a missing name)
			nm := "absent"
			if len(names) > 0 && r.Intn(4) != 0 {
				k := r.Intn(len(names))
				nm = names[k]
				names = append(names[:k], names[k+1:]...)
			}
			if got, want := st.Release(nm), nm != "absent"; got != want {
				t.Fatalf("step %d: Release(%q) = %v, want %v", i, nm, got, want)
			}
		case 3: // toggle a server
			st.SetOffline(r.Intn(n), r.Intn(2) == 0)
		}
		check(fmt.Sprintf("step %d", i))
		if len(st.Running) != len(names) {
			t.Fatalf("step %d: %d running, want %d", i, len(st.Running), len(names))
		}
	}
}

// TestReleaseEverythingLeavesNoActiveServer: after two thousand random
// placements and releases of a workload mix, releasing what is left
// must leave every server's Used at exactly zero and no server active —
// floating-point subtraction residue must not keep an empty server in
// the density denominator or first in the "active first" order.
func TestReleaseEverythingLeavesNoActiveServer(t *testing.T) {
	const n = 8
	st := StateFromProfiles(spec, n)
	mix := []*workload.Workload{workload.SocialNetwork(), workload.ECommerce(), workload.MatMul(),
		workload.KMeans(), workload.VideoProcessing(), workload.DD()}
	inputs := make([]core.WorkloadInput, len(mix))
	for i, w := range mix {
		inputs[i] = inputFor(w, 0.3+0.1*float64(i))
	}
	r := rng.New(5)
	var names []string
	for i := 0; i < 2000; i++ {
		if len(names) > 0 && r.Intn(2) == 0 {
			k := r.Intn(len(names))
			if !st.Release(names[k]) {
				t.Fatalf("release of running %s failed", names[k])
			}
			names = append(names[:k], names[k+1:]...)
			continue
		}
		in := inputs[r.Intn(len(inputs))]
		in.Name = fmt.Sprintf("%s#%d", in.Name, i)
		in.Placement = make([]int, len(in.Profiles))
		for f := range in.Placement {
			in.Placement[f] = r.Intn(n)
		}
		st.Commit(in, SLA{})
		names = append(names, in.Name)
	}
	for _, nm := range names {
		st.Release(nm)
	}
	if got := st.ActiveServers(); got != 0 {
		t.Errorf("%d servers active with nothing placed", got)
	}
	for s, used := range st.Used {
		if used != (resources.Vector{}) {
			t.Errorf("server %d holds %v with nothing placed", s, used)
		}
	}
}

// TestShardedLegacyEquivalence: at testbed size (8 <= windowBase) a
// run through the window ladder (Propose) must be bit-identical to
// calling Place on the state directly: same placements, same Used
// floats.
func TestShardedLegacyEquivalence(t *testing.T) {
	legacy := StateFromProfiles(spec, 8)
	st := StateFromProfiles(spec, 8)
	g1 := NewGsight(&stubPredictor{ipc: 2})
	g2 := NewGsight(&stubPredictor{ipc: 2})
	for i := 0; i < 12; i++ {
		in := inputFor(workload.MatMul(), 0)
		in.Name = fmt.Sprintf("wl-%d", i)
		req1 := &Request{Input: in, SLA: SLA{MinIPC: 0.5}}
		req2 := &Request{Input: in, SLA: SLA{MinIPC: 0.5}}
		p1, err1 := g1.Place(legacy, req1)
		p2, err2 := st.Propose(g2, req2)
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
			st.Commit(in2, req2.SLA)
		}
		if i == 6 {
			legacy.Release("wl-2")
			st.Release("wl-2")
		}
	}
	for s := 0; s < 8; s++ {
		for k := range legacy.Used[s] {
			if legacy.Used[s][k] != st.Used[s][k] {
				t.Fatalf("server %d kind %d: Used %v != %v (must be bit-identical)",
					s, k, st.Used[s][k], legacy.Used[s][k])
			}
		}
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

// TestPlacerPoolCommitsAreConsistent cross-checks the final state of
// the benchmark shim's serial PlaceAll: summing every accepted
// placement's allocations must equal the state's Used exactly, and no
// placement may target an offline server.
func TestPlacerPoolCommitsAreConsistent(t *testing.T) {
	const servers = 96
	st := StateFromProfiles(spec, servers)
	st.SetOffline(3, true)
	st.SetOffline(70, true)
	pool := NewPlacerPool(st, 4, func() Scheduler {
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
			if math.Abs(want[s][k]-st.Used[s][k]) > 1e-9 {
				t.Fatalf("server %d kind %d: recomputed %v != state %v", s, k, want[s][k], st.Used[s][k])
			}
		}
	}
	if got := len(st.Running); got != placed {
		t.Fatalf("running %d != placed %d", got, placed)
	}
}

// TestWindowProjection pins the window ladder's geometry: placements
// proposed at scale translate back to global indices inside the home
// window, and a workload committed inside a window is visible to the
// next proposal that lands there (densification packs onto it).
func TestWindowProjection(t *testing.T) {
	const servers = 256
	st := StateFromProfiles(spec, servers)
	g := NewGsight(&stubPredictor{ipc: 2})

	in := inputFor(workload.MatMul(), 0)
	in.Name = "window-probe"
	req := &Request{Input: in, SLA: SLA{MinIPC: 0.5}}
	p1, err := st.Propose(g, req)
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
	st.Commit(in1, req.SLA)

	// Same home window again: the committed workload must be seen, so
	// the packer lands on the same (now active) server.
	in2 := inputFor(workload.MatMul(), 0)
	in2.Name = "window-probe" // same hash, distinct deployment
	req2 := &Request{Input: in2, SLA: SLA{MinIPC: 0.5}}
	p2, err := st.Propose(g, req2)
	if err != nil {
		t.Fatal(err)
	}
	if p2[0] != p1[0] {
		t.Fatalf("densification lost across window projection: %v then %v", p1, p2)
	}
	if st.ActiveServers() != 1 {
		t.Fatalf("want 1 active server, got %d", st.ActiveServers())
	}
}
