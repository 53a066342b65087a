package sched

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/workload"
)

// serialReference is what PlaceAll must equal: Propose+Commit over reqs
// in order on one scheduler.
func serialReference(st *State, s Scheduler, reqs []*Request) []PlaceResult {
	out := make([]PlaceResult, len(reqs))
	for i, req := range reqs {
		p, err := st.Propose(s, req)
		out[i] = PlaceResult{Placement: p, Err: err, Outcome: req.Detail.Outcome}
		if err == nil {
			in := req.Input
			in.Placement = p
			st.Commit(in, req.SLA)
		}
	}
	return out
}

// sameDecisions compares what a caller can observe of two runs over
// the same requests — placements, outcomes, errors and the final state
// bit for bit — ignoring Retries, which legitimately depends on the
// batch split.
func sameDecisions(t *testing.T, label string, got, want []PlaceResult, gotSt, wantSt *State) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		g.Retries, w.Retries = 0, 0
		if resultKey(g) != resultKey(w) {
			t.Fatalf("%s: request %d: %s, serial reference %s", label, i, resultKey(g), resultKey(w))
		}
	}
	if !reflect.DeepEqual(gotSt.Used, wantSt.Used) {
		t.Fatalf("%s: final Used vectors differ from the serial reference", label)
	}
	if len(gotSt.Running) != len(wantSt.Running) {
		t.Fatalf("%s: running %d, serial reference %d", label, len(gotSt.Running), len(wantSt.Running))
	}
	for i, d := range wantSt.Running {
		if gotSt.Running[i].Input.Name != d.Input.Name {
			t.Fatalf("%s: running set order differs at %d", label, i)
		}
	}
}

// TestPlaceAllSmallClusterPlacesEverything is the regression test for
// the conflict budget: on the default 8-server cluster every proposal
// reads the full view, so each commit stales every later proposal of
// the batch. That is contention, not infeasibility — all 20 requests
// fit on an empty cluster and all 20 must be placed, exactly as 20
// serial Propose+Commit calls place them.
func TestPlaceAllSmallClusterPlacesEverything(t *testing.T) {
	mk := func() []*Request {
		reqs := make([]*Request, 20)
		for i := range reqs {
			in := inputFor(workload.MatMul(), 0)
			in.Name = fmt.Sprintf("small-%02d", i)
			in.Profiles[0].Alloc = resources.Vector{resources.CPU: 0.1, resources.Memory: 0.1}
			reqs[i] = &Request{Input: in, SLA: SLA{MinIPC: 0.5}}
		}
		return reqs
	}
	factory := func() Scheduler { return NewGsight(&stubPredictor{ipc: 2}) }
	refSt := StateFromProfiles(spec, 8)
	ref := serialReference(refSt, factory(), mk())
	for _, workers := range []int{1, 4} {
		st := StateFromProfiles(spec, 8)
		got := NewPlacerPool(st, workers, factory).PlaceAll(mk())
		for i, r := range got {
			if r.Err != nil || r.Outcome != "placed" {
				t.Fatalf("workers=%d: request %d on an empty cluster: outcome %q, err %v", workers, i, r.Outcome, r.Err)
			}
		}
		sameDecisions(t, fmt.Sprintf("workers=%d", workers), got, ref, st, refSt)
	}
}

// mixedStream draws n requests over the archetype mix of tier0Reqs,
// named archetype#run (the tier-0 cache's key convention) with runs
// spread over the hash space and SLAs drawn per request. A few are
// single functions asking for
// memory no server has, so the scheduler's own rejections are part of
// the stream.
func mixedStream(r *rng.Rand, n int) []*Request {
	protos := tier0Reqs()
	reqs := make([]*Request, n)
	for i := range reqs {
		req := *protos[r.Intn(len(protos))]
		req.Input.Name = fmt.Sprintf("%s#%d-%d", req.Input.Name, i, r.Intn(1<<20))
		if req.Input.Class == workload.LS {
			req.Input.QPSFrac = r.Range(0.1, 0.6)
		}
		// SLAs from strict to lax, so the ladder stops at every rung.
		req.SLA.MinIPC *= r.Range(0.25, 1)
		req.SLA.MaxJCTFactor *= r.Range(1, 8)
		if r.Intn(40) == 0 {
			huge := req.Input.Profiles[0]
			huge.Alloc[resources.Memory] = 10 * spec.Capacity[resources.Memory]
			req.Input.Name = fmt.Sprintf("huge#%d", i)
			req.Input.Profiles = []profile.Profile{huge}
			req.Input.Placement = []int{0}
			if req.Input.Replicas != nil {
				req.Input.Replicas = []int{1}
			}
		}
		reqs[i] = &req
	}
	return reqs
}

// fillThreeQuarters commits background jobs round-robin until the
// cluster's CPU is three-quarters allocated, with every fourth server
// left empty so windows see a mix of active and idle candidates.
func fillThreeQuarters(st *State) {
	n := st.NumServers()
	for s := 0; s < n; s++ {
		if s%4 == 3 {
			continue
		}
		in := inputFor(workload.MatMul(), 0)
		in.Name = fmt.Sprintf("fill-%d", s)
		in.Profiles[0].Alloc = spec.Capacity.Scale(0.75)
		in.Placement = []int{s}
		st.Commit(in, SLA{})
	}
	// A handful of multi-function residents whose SLAs the candidates
	// must not regress, straddling window edges.
	for i := 0; i < n/32; i++ {
		in := inputFor(workload.ECommerce(), 0.3)
		in.Name = fmt.Sprintf("resident-%d", i)
		for f := range in.Placement {
			in.Placement[f] = (i*32 + 3 + 4*f) % n
		}
		st.Commit(in, SLA{MinIPC: 0.3})
	}
}

// TestPlaceAllBatchSplitIndependence is the PlaceAll contract as a
// property: one seeded request stream on a three-quarters-full state,
// fed as one batch, as single-request batches and as three drawn
// splits, at several worker counts, decides exactly what serial
// Propose+Commit decides — placements, outcomes, errors, final state.
func TestPlaceAllBatchSplitIndependence(t *testing.T) {
	p := trainedSchedPredictor(t)
	const stream = 400
	for _, servers := range []int{256, 1000} {
		for _, topK := range []int{0, 6} {
			factory := func() Scheduler {
				g := NewGsight(p)
				g.Fallback = NewWorstFit()
				if topK > 0 {
					g.Tier0, g.TopK = p.Tier0(), topK
				}
				return g
			}
			mk := func() []*Request { return mixedStream(rng.Stream(11, "placeall-stream"), stream) }
			refSt := StateFromProfiles(spec, servers)
			fillThreeQuarters(refSt)
			ref := serialReference(refSt, factory(), mk())
			placed, rejected := 0, 0
			for _, r := range ref {
				if r.Err == nil {
					placed++
				} else if errors.Is(r.Err, ErrNoPlacement) {
					rejected++
				}
			}
			if placed < stream/2 || rejected == 0 {
				t.Fatalf("servers=%d topk=%d: stream does not exercise both verdicts (placed %d, rejected %d)", servers, topK, placed, rejected)
			}

			splits := [][]int{{stream}, nil}
			for i := 0; i < stream; i++ {
				splits[1] = append(splits[1], 1)
			}
			for k := 0; k < 3; k++ {
				r := rng.Stream(uint64(k), "placeall-split")
				var cut []int
				for left := stream; left > 0; {
					b := min(1+r.Intn(64), left)
					cut = append(cut, b)
					left -= b
				}
				splits = append(splits, cut)
			}
			for _, workers := range []int{1, 2, 7} {
				for si, cut := range splits {
					st := StateFromProfiles(spec, servers)
					fillThreeQuarters(st)
					pool := NewPlacerPool(st, workers, factory)
					reqs := mk()
					var got []PlaceResult
					for _, b := range cut {
						got = append(got, pool.PlaceAll(reqs[len(got):len(got)+b])...)
					}
					label := fmt.Sprintf("servers=%d topk=%d workers=%d split=%d", servers, topK, workers, si)
					sameDecisions(t, label, got, ref, st, refSt)
				}
			}
		}
	}
}

// TestTxnConflictIffWindowTouched is the stamp oracle: after random
// mutations following a proposal, the proposal goes stale exactly when
// a server of its accepted window was touched — checked against a
// brute-force touched set.
func TestTxnConflictIffWindowTouched(t *testing.T) {
	const servers = 96
	r := rng.Stream(23, "stamp-oracle")
	g := NewGsight(&stubPredictor{ipc: 2})
	conflicts, clean := 0, 0
	for trial := 0; trial < 300; trial++ {
		st := StateFromProfiles(spec, servers)
		var names []string
		touched := make([]bool, servers)
		mutate := func(record bool) {
			mark := func(s int) {
				if record {
					touched[s] = true
				}
			}
			switch k := r.Intn(4); {
			case k == 0 && len(names) > 0: // release
				i := r.Intn(len(names))
				d := st.Running[st.IndexOf(names[i])]
				for _, s := range d.Input.Placement {
					mark(s)
				}
				st.Release(names[i])
				names = append(names[:i], names[i+1:]...)
			case k == 1:
				s := r.Intn(servers)
				mark(s)
				st.SetOffline(s, r.Intn(2) == 0)
			case k == 2:
				s := r.Intn(servers)
				mark(s)
				st.SetCap(s, spec.Capacity.Scale(r.Range(0.5, 1)))
			default: // commit
				in := inputFor(workload.ECommerce(), 0.2)
				in.Name = fmt.Sprintf("bg-%d-%d", trial, len(names)+r.Intn(1<<20))
				for f := range in.Placement {
					in.Placement[f] = r.Intn(servers)
					mark(in.Placement[f])
				}
				st.Commit(in, SLA{})
				names = append(names, in.Name)
			}
		}
		for i := r.Intn(6); i > 0; i-- {
			mutate(false) // history before the proposal never conflicts
		}
		in := inputFor(workload.MatMul(), 0)
		in.Name = fmt.Sprintf("probe-%d", r.Intn(1<<20))
		var scr proposeScratch
		var p proposal
		st.propose(g, &Request{Input: in, SLA: SLA{MinIPC: 0.5}}, &scr, &p)
		if p.err != nil {
			t.Fatal(p.err)
		}
		for i := r.Intn(4); i > 0; i-- {
			mutate(true)
		}
		want := false
		for i := 0; i < p.width; i++ {
			want = want || touched[(p.start+i)%servers]
		}
		if got := !st.fresh(&p); got != want {
			t.Fatalf("trial %d: window [%d,+%d) touched=%v but stale=%v", trial, p.start, p.width, want, got)
		}
		if want {
			conflicts++
		} else {
			clean++
		}
	}
	if conflicts < 20 || clean < 20 {
		t.Fatalf("oracle is lopsided: %d conflicts, %d clean proposals", conflicts, clean)
	}
}
