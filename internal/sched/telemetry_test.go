package sched

import (
	"reflect"
	"testing"

	"gsight/internal/telemetry"
	"gsight/internal/workload"
)

// placeSequence drives a scheduler through a fixed request sequence and
// returns every placement (nil entries for rejections) and every
// request's Detail.
func placeSequence(s Scheduler) ([][]int, []telemetry.PlacementDecision) {
	st := StateFromProfiles(spec, 6)
	var out [][]int
	var details []telemetry.PlacementDecision
	reqs := []*Request{
		{Input: inputFor(workload.MatMul(), 0), SLA: SLA{}},
		{Input: inputFor(workload.DD(), 0), SLA: SLA{MinIPC: 0.5}},
		{Input: inputFor(workload.ECommerce(), 0.5), SLA: SLA{MinIPC: 1}},
		{Input: inputFor(workload.SocialNetwork(), 0.4), SLA: SLA{MinIPC: 0.2}},
	}
	for _, req := range reqs {
		placement, err := s.Place(st, req)
		details = append(details, req.Detail)
		if err != nil {
			out = append(out, nil)
			continue
		}
		cp := append([]int(nil), placement...)
		out = append(out, cp)
		in := req.Input
		in.Placement = cp
		st.Commit(in, req.SLA)
	}
	return out, details
}

// TestTelemetryNopEquivalence pins the tentpole contract: instrumenting
// a scheduler — with a nil or a live sink — must leave every
// placement and every Detail bit-identical to the uninstrumented
// scheduler, and a live sink counts each Place call.
func TestTelemetryNopEquivalence(t *testing.T) {
	build := func(name string) func() Scheduler {
		switch name {
		case "Gsight":
			return func() Scheduler { return NewGsight(&stubPredictor{ipc: 0.8}) }
		case "BestFit":
			return func() Scheduler { return NewBestFit(&stubPredictor{ipc: 0.8}) }
		default:
			return func() Scheduler { return NewWorstFit() }
		}
	}
	for _, name := range []string{"Gsight", "BestFit", "WorstFit"} {
		mk := build(name)
		plain, plainDetails := placeSequence(mk())
		for i, d := range plainDetails {
			if d.Outcome == "" || d.SpreadLevels == 0 {
				t.Errorf("%s: request %d: Place left no account in Detail: %+v", name, i, d)
			}
		}

		nop := mk()
		nop.(interface{ Instrument(*telemetry.Sink) }).Instrument(nil)
		if got, details := placeSequence(nop); !reflect.DeepEqual(got, plain) || !reflect.DeepEqual(details, plainDetails) {
			t.Errorf("%s: nil-sink-instrumented decisions differ: %v %+v vs %v %+v", name, got, details, plain, plainDetails)
		}

		live := mk()
		sink := telemetry.New()
		live.(interface{ Instrument(*telemetry.Sink) }).Instrument(sink)
		if got, details := placeSequence(live); !reflect.DeepEqual(got, plain) || !reflect.DeepEqual(details, plainDetails) {
			t.Errorf("%s: live-instrumented decisions differ: %v %+v vs %v %+v", name, got, details, plain, plainDetails)
		}
		key := "sched_" + map[string]string{"Gsight": "gsight", "BestFit": "bestfit", "WorstFit": "worstfit"}[name] + "_placements_total"
		if n := sink.Registry.Snapshot().Counters[key]; n != 4 {
			t.Errorf("%s: %s = %d, want 4", name, key, n)
		}
	}
}

// TestDecisionDetailsReplayDeterministically: a fixed request sequence
// leaves the same Detail on every request, run after run. (The
// decision log the simulator writes from them is pinned in
// internal/platform.)
func TestDecisionDetailsReplayDeterministically(t *testing.T) {
	emit := func() []telemetry.PlacementDecision {
		_, details := placeSequence(NewGsight(&stubPredictor{ipc: 0.8}))
		return details
	}
	a, b := emit(), emit()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("details differ:\n%+v\n---\n%+v", a, b)
	}
	for i, d := range a {
		if d.Scheduler != "" || d.Workload != "" || d.Placement != nil || d.Servers != 0 {
			t.Errorf("request %d: the scheduler filled the caller's part of the record: %+v", i, d)
		}
	}
}

// TestDecisionOutcomes checks the outcome taxonomy: SLA-driven
// fallbacks and clean placements are labeled as such in Detail, and the
// counters agree with it.
func TestDecisionOutcomes(t *testing.T) {
	sink := telemetry.New()
	g := NewGsight(&stubPredictor{ipc: 0.1}) // SLA always violated
	g.Instrument(sink)
	st := StateFromProfiles(spec, 4)
	req := &Request{Input: inputFor(workload.ECommerce(), 0.5), SLA: SLA{MinIPC: 1}}
	if _, err := g.Place(st, req); err != nil {
		t.Fatal(err)
	}
	if d := req.Detail; d.Outcome != "fallback" || d.Reason != "sla-violated" || d.SpreadLevels == 0 || d.SLAChecks == 0 || d.Tier0Kept != 0 {
		t.Fatalf("expected an SLA fallback decision without tier-0 context, got %+v", d)
	}
	snap := sink.Registry.Snapshot()
	if snap.Counters["sched_gsight_fallbacks_total"] != 1 {
		t.Fatalf("fallback counter = %d", snap.Counters["sched_gsight_fallbacks_total"])
	}
	if snap.Counters["sched_gsight_sla_rejections_total"] == 0 {
		t.Fatal("SLA rejections not counted")
	}
	if h := snap.Histograms["sched_gsight_sla_checks"]; h.Count != 1 || h.Sum != float64(req.Detail.SLAChecks) {
		t.Fatalf("SLA-check histogram count %d sum %v, Detail.SLAChecks %d", h.Count, h.Sum, req.Detail.SLAChecks)
	}
}

// TestDecisionTier0Fields: a pruned decision carries its tier-0
// context in Detail — kept and pruned counts over the online servers
// and the score of the accepted placement's primary server — and an
// unpruned one carries none.
func TestDecisionTier0Fields(t *testing.T) {
	p := trainedSchedPredictor(t)
	g := NewGsight(p)
	g.Tier0 = p.Tier0()
	g.TopK = 4
	st := StateFromProfiles(spec, 16)
	req := &Request{Input: inputFor(workload.SocialNetwork(), 0.5), SLA: SLA{MinIPC: 0.4}}
	placement, err := g.Place(st, req)
	if err != nil {
		t.Fatal(err)
	}
	d := req.Detail
	if d.Tier0Kept != 4 || d.Tier0Pruned != 12 || d.Tier0Score != g.t0.score[placement[0]] {
		t.Fatalf("pruned decision's tier-0 context %d/%d/%v, want 4/12/%v",
			d.Tier0Kept, d.Tier0Pruned, d.Tier0Score, g.t0.score[placement[0]])
	}
	g.TopK = 16 // K == online: no pruning, no tier-0 context
	if _, err := g.Place(st, req); err != nil {
		t.Fatal(err)
	}
	if d := req.Detail; d.Tier0Kept != 0 || d.Tier0Pruned != 0 || d.Tier0Score != 0 {
		t.Fatalf("unpruned decision carries tier-0 context: %+v", d)
	}
}
