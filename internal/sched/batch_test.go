package sched

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"gsight/internal/core"
	"gsight/internal/ml"
	"gsight/internal/perfmodel"
	"gsight/internal/resources"
	"gsight/internal/scenario"
	"gsight/internal/workload"
)

// noBatch hides a predictor's batch path behind the plain interface,
// as the baseline predictors' wrappers do.
type noBatch struct{ core.QoSPredictor }

func trainedSchedPredictor(t *testing.T) *core.Predictor {
	t.Helper()
	m := perfmodel.New(resources.DefaultTestbed())
	scenario.FastConfig(m)
	g := scenario.NewGenerator(m, 42)
	var ipcObs, jctObs []core.Observation
	for i := 0; i < 30; i++ {
		sc := g.Colocation(core.LSSC, 2)
		samples, err := g.Label(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			o := core.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label}
			switch s.Kind {
			case core.IPCQoS:
				ipcObs = append(ipcObs, o)
			case core.JCTQoS:
				jctObs = append(jctObs, o)
			}
		}
	}
	p := core.NewPredictor(core.Config{
		Seed: 1,
		Factory: func(seed uint64) ml.Incremental {
			return ml.NewForest(ml.ForestConfig{Trees: 4, Seed: seed, Tree: ml.TreeConfig{MTry: 48}})
		},
	})
	if err := p.TrainObservations(core.IPCQoS, ipcObs); err != nil {
		t.Fatal(err)
	}
	if err := p.TrainObservations(core.JCTQoS, jctObs); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGsightBatchMatchesSequential drives two schedulers — one on the
// predictor's batch path, one on a predictor without PredictBatchInto,
// which Gsight serves through its one-Predict-per-query adapter —
// through the same request sequence. Batched predictions are
// bit-identical to single ones, so every placement and the candidate's
// recorded predictions (Detail.PredIPC/PredJCTS) must agree.
func TestGsightBatchMatchesSequential(t *testing.T) {
	p := trainedSchedPredictor(t)
	reqs := []*Request{
		{Input: inputFor(workload.SocialNetwork(), 0.5), SLA: SLA{MinIPC: 0.4}},
		{Input: inputFor(workload.MatMul(), 0), SLA: SLA{MaxJCTFactor: 3}, SoloDurationS: 60},
		{Input: inputFor(workload.ECommerce(), 0.4), SLA: SLA{MinIPC: 0.4}},
		{Input: inputFor(workload.DD(), 0), SLA: SLA{MinIPC: 0.3, MaxJCTFactor: 4}, SoloDurationS: 45},
		{Input: inputFor(workload.MLServing(), 0.3), SLA: SLA{MinIPC: 0.4}},
	}
	type decision struct {
		placement []int
		detail    PlacementDetail
	}
	run := func(pred core.QoSPredictor) []decision {
		st := StateFromProfiles(spec, 8)
		g := NewGsight(pred)
		var out []decision
		for _, req := range reqs {
			r := *req
			var d PlacementDetail
			r.Detail = &d
			placement, err := g.Place(st, &r)
			if err != nil {
				t.Fatal(err)
			}
			in := r.Input
			in.Placement = placement
			st.Commit(in, r.SLA)
			out = append(out, decision{placement, d})
		}
		return out
	}
	batched := run(p)
	sequential := run(noBatch{p})
	vetted := 0
	for i := range reqs {
		if !reflect.DeepEqual(batched[i], sequential[i]) {
			t.Fatalf("request %d: batched %+v vs sequential %+v", i, batched[i], sequential[i])
		}
		if batched[i].detail.PredIPC != 0 || batched[i].detail.PredJCTS != 0 {
			vetted++
		}
	}
	if vetted == 0 {
		t.Fatal("no placement recorded a candidate prediction; the comparison is vacuous")
	}
}

// failing is a predictor whose every prediction fails with err; the
// batch variant adds the PredictBatchInto fast path.
type failing struct {
	core.QoSPredictor
	err error
}

func (f failing) Predict(core.QoSKind, int, []core.WorkloadInput) (float64, error) {
	return 0, fmt.Errorf("%w: stub", f.err)
}

type failingBatch struct{ failing }

func (f failingBatch) PredictBatchInto(core.QoSKind, []core.Query, []float64) error {
	return fmt.Errorf("%w: stub", f.err)
}

// TestGsightPredictorErrorsWithAndWithoutBatch: a predictor error means
// the same to Place whichever way the SLA checks reach the predictor —
// ErrNotTrained and ErrUnavailable surface (errors.Is holds, outcome
// "error"), ErrTooManyServers accepts the candidate on capacity.
func TestGsightPredictorErrorsWithAndWithoutBatch(t *testing.T) {
	for _, cause := range []error{core.ErrNotTrained, core.ErrUnavailable, core.ErrTooManyServers} {
		var got [2]struct {
			placement []int
			err       error
			detail    PlacementDetail
		}
		for i, pred := range []core.QoSPredictor{failingBatch{failing{err: cause}}, failing{err: cause}} {
			st := StateFromProfiles(spec, 8)
			req := &Request{Input: inputFor(workload.SocialNetwork(), 0.5), SLA: SLA{MinIPC: 0.4}, Detail: &got[i].detail}
			got[i].placement, got[i].err = NewGsight(pred).Place(st, req)
		}
		if !reflect.DeepEqual(got[0].placement, got[1].placement) || got[0].detail != got[1].detail {
			t.Fatalf("%v: batch %+v vs loop %+v", cause, got[0], got[1])
		}
		for _, g := range got {
			if cause == core.ErrTooManyServers {
				if g.err != nil || g.detail.Outcome != "placed" || len(g.placement) == 0 {
					t.Fatalf("%v: want capacity acceptance, got %+v", cause, g)
				}
			} else if !errors.Is(g.err, cause) || g.detail.Outcome != "error" {
				t.Fatalf("%v: want the predictor error surfaced, got %+v", cause, g)
			}
		}
	}
}

// TestGsightPlaceDeterministic re-runs the same placement on one
// scheduler instance: scratch reuse must not leak state between calls,
// and returned placements must be freshly owned (not aliased scratch).
func TestGsightPlaceDeterministic(t *testing.T) {
	p := trainedSchedPredictor(t)
	g := NewGsight(p)
	st := StateFromProfiles(spec, 8)
	seed := inputFor(workload.MatMul(), 0)
	seed.Placement = []int{0}
	st.Commit(seed, SLA{MaxJCTFactor: 5})
	req := &Request{Input: inputFor(workload.SocialNetwork(), 0.5), SLA: SLA{MinIPC: 0.4}}
	first, err := g.Place(st, req)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]int(nil), first...)
	for round := 0; round < 5; round++ {
		got, err := g.Place(st, req)
		if err != nil {
			t.Fatal(err)
		}
		for f := range snapshot {
			if got[f] != snapshot[f] {
				t.Fatalf("round %d: placement drifted: %v vs %v", round, got, snapshot)
			}
		}
		// The earlier result must be unaffected by later Place calls.
		for f := range snapshot {
			if first[f] != snapshot[f] {
				t.Fatalf("round %d: prior placement mutated: %v vs %v", round, first, snapshot)
			}
		}
	}
}
