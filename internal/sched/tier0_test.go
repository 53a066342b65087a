package sched

import (
	"reflect"
	"testing"

	"gsight/internal/core"
	"gsight/internal/workload"
)

// tier0Reqs is a mixed request sequence exercising LS (MinIPC) and SC
// (JCT) SLAs — the two threshold modes of the tier-0 ranker.
func tier0Reqs() []*Request {
	return []*Request{
		{Input: inputFor(workload.SocialNetwork(), 0.5), SLA: SLA{MinIPC: 0.4}},
		{Input: inputFor(workload.MatMul(), 0), SLA: SLA{MaxJCTFactor: 3}, SoloDurationS: 60},
		{Input: inputFor(workload.ECommerce(), 0.4), SLA: SLA{MinIPC: 0.4}},
		{Input: inputFor(workload.DD(), 0), SLA: SLA{MinIPC: 0.3, MaxJCTFactor: 4}, SoloDurationS: 45},
		{Input: inputFor(workload.MLServing(), 0.3), SLA: SLA{MinIPC: 0.4}},
		{Input: inputFor(workload.VideoProcessing(), 0), SLA: SLA{MaxJCTFactor: 3}, SoloDurationS: 30},
		{Input: inputFor(workload.FloatOp(), 0), SLA: SLA{MaxJCTFactor: 4}, SoloDurationS: 20},
		{Input: inputFor(workload.WebSearch(), 0.4), SLA: SLA{MinIPC: 0.4}},
	}
}

// runTwoTier drives one scheduler through the sequence on a fresh
// state, committing successes, and returns the placements (nil row for
// a rejected request).
func runTwoTier(t *testing.T, g *Gsight, servers int) [][]int {
	t.Helper()
	st := StateFromProfiles(spec, servers)
	var out [][]int
	for _, req := range tier0Reqs() {
		r := *req // Place mutates nothing, but keep requests reusable
		placement, err := g.Place(st, &r)
		if err != nil {
			out = append(out, nil)
			continue
		}
		in := r.Input
		in.Placement = placement
		st.Commit(in, r.SLA)
		out = append(out, placement)
	}
	return out
}

// TestTwoTierInfinityEquivalence is the tentpole invariant: with
// pruning disabled (K=0) or K at least the online server count, the
// two-tier scheduler's placements are byte-identical to the legacy
// scheduler's.
func TestTwoTierInfinityEquivalence(t *testing.T) {
	p := trainedSchedPredictor(t)
	legacy := runTwoTier(t, NewGsight(p), 16)
	for _, k := range []int{0, 16, 1000} {
		g := NewGsight(p)
		g.Tier0 = p.Tier0()
		g.TopK = k
		if got := runTwoTier(t, g, 16); !reflect.DeepEqual(got, legacy) {
			t.Fatalf("K=%d diverged from legacy:\n%v\nvs\n%v", k, got, legacy)
		}
	}
}

// TestTwoTierDeterministicAtEveryK: at every prune depth, repeated
// same-sequence runs place identically — and a warm score cache (second
// run on the same scheduler instance) must not change any decision
// versus a cold one (fresh instance).
func TestTwoTierDeterministicAtEveryK(t *testing.T) {
	p := trainedSchedPredictor(t)
	for _, k := range []int{2, 4, 8} {
		mk := func() *Gsight {
			g := NewGsight(p)
			g.Tier0 = p.Tier0()
			g.TopK = k
			return g
		}
		g := mk()
		cold := runTwoTier(t, g, 16)
		warm := runTwoTier(t, g, 16)
		fresh := runTwoTier(t, mk(), 16)
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("K=%d: warm-cache run diverged:\n%v\nvs\n%v", k, warm, cold)
		}
		if !reflect.DeepEqual(fresh, cold) {
			t.Fatalf("K=%d: fresh scheduler diverged:\n%v\nvs\n%v", k, fresh, cold)
		}
		for i, row := range cold {
			if row == nil {
				t.Fatalf("K=%d: request %d rejected on a 16-server cluster", k, i)
			}
		}
	}
}

// TestTwoTierPruneBookkeeping checks the per-request decision context:
// kept+pruned covers every online server, and the prune branch engages
// only when K is actually below the online count.
func TestTwoTierPruneBookkeeping(t *testing.T) {
	p := trainedSchedPredictor(t)
	g := NewGsight(p)
	g.Tier0 = p.Tier0()
	g.TopK = 4
	st := StateFromProfiles(spec, 16)
	req := &Request{Input: inputFor(workload.SocialNetwork(), 0.5), SLA: SLA{MinIPC: 0.4}}
	if _, err := g.Place(st, req); err != nil {
		t.Fatal(err)
	}
	if !g.t0.active || g.t0.kept != 4 || g.t0.pruned != 12 {
		t.Fatalf("prune bookkeeping active=%v kept=%d pruned=%d, want true/4/12",
			g.t0.active, g.t0.kept, g.t0.pruned)
	}
	g.TopK = 16 // K == online: prune branch must not engage
	if _, err := g.Place(st, req); err != nil {
		t.Fatal(err)
	}
	if g.t0.active {
		t.Fatal("prune engaged with K == online count")
	}
}

// TestTwoTierCacheInvalidationOnIngest: absorbing a new observation
// batch bumps the scorer generation, and the next placement refreshes
// the cached per-archetype scores.
func TestTwoTierCacheInvalidationOnIngest(t *testing.T) {
	p := trainedSchedPredictor(t)
	g := NewGsight(p)
	g.Tier0 = p.Tier0()
	g.TopK = 4
	st := StateFromProfiles(spec, 16)
	req := &Request{Input: inputFor(workload.SocialNetwork(), 0.5), SLA: SLA{MinIPC: 0.4}}
	if _, err := g.Place(st, req); err != nil {
		t.Fatal(err)
	}
	key, _ := core.BaseName(req.Input.Name)
	e := g.t0.cache[key]
	if e == nil || !e.filled {
		t.Fatal("placement did not fill the archetype's score-cache entry")
	}
	genBefore := e.gen
	if genBefore != p.Tier0().Gen() {
		t.Fatalf("cached generation %d, scorer at %d", genBefore, p.Tier0().Gen())
	}

	// Ingest: a flushed observation batch must invalidate the cache.
	in := []core.WorkloadInput{inputFor(workload.MatMul(), 0), inputFor(workload.DD(), 0)}
	for i := 0; i < 30; i++ {
		if err := p.Observe(core.IPCQoS, 0, in, 1.5-0.01*float64(i%4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(core.IPCQoS); err != nil {
		t.Fatal(err)
	}
	if p.Tier0().Gen() == genBefore {
		t.Fatal("observation ingest did not bump the scorer generation")
	}
	if _, err := g.Place(st, req); err != nil {
		t.Fatal(err)
	}
	if e.gen != p.Tier0().Gen() {
		t.Fatalf("entry still at generation %d after ingest moved the scorer to %d",
			e.gen, p.Tier0().Gen())
	}
}

// TestTwoTierCacheKeysPerArchetype: run-numbered names ("name#7") must
// share one cache entry per archetype.
func TestTwoTierCacheKeysPerArchetype(t *testing.T) {
	p := trainedSchedPredictor(t)
	g := NewGsight(p)
	g.Tier0 = p.Tier0()
	g.TopK = 4
	st := StateFromProfiles(spec, 16)
	for i := 0; i < 6; i++ {
		in := inputFor(workload.MatMul(), 0)
		in.Name = "matmul#" + string(rune('0'+i))
		req := &Request{Input: in, SLA: SLA{MaxJCTFactor: 3}, SoloDurationS: 60}
		if _, err := g.Place(st, req); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(g.t0.cache); n != 1 {
		t.Fatalf("6 runs of one archetype filled %d cache entries, want 1", n)
	}
}
