package sched

import (
	"errors"
	"fmt"
	"testing"

	"gsight/internal/core"
	"gsight/internal/workload"
)

// errPredictor fails every prediction with a fixed error.
type errPredictor struct{ err error }

func (e *errPredictor) TrainObservations(core.QoSKind, []core.Observation) error { return nil }
func (e *errPredictor) Predict(core.QoSKind, int, []core.WorkloadInput) (float64, error) {
	return 0, e.err
}
func (e *errPredictor) Observe(core.QoSKind, int, []core.WorkloadInput, float64) error { return nil }
func (e *errPredictor) Flush(core.QoSKind) error                                       { return nil }
func (e *errPredictor) Name() string                                                   { return "err" }
func (e *errPredictor) PredictBatchInto(k core.QoSKind, q []core.Query, out []float64) error {
	return predictEach(e, k, q, out)
}

func TestOfflineStateBookkeeping(t *testing.T) {
	st := StateFromProfiles(spec, 4)
	if st.OnlineServers() != 4 {
		t.Fatalf("online = %d, want 4", st.OnlineServers())
	}
	st.SetOffline(2, true)
	if st.Online(2) || st.OnlineServers() != 3 {
		t.Fatal("SetOffline did not cordon server 2")
	}
	if !st.Online(0) {
		t.Fatal("other servers must stay online")
	}
	st.SetOffline(2, false)
	if !st.Online(2) || st.OnlineServers() != 4 {
		t.Fatal("SetOffline(false) did not restore server 2")
	}
}

func TestSchedulersSkipOfflineServers(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Scheduler
	}{
		{"gsight", NewGsight(&stubPredictor{ipc: 99})},
		{"bestfit", NewBestFit(&stubPredictor{ipc: 99})},
		{"worstfit", NewWorstFit()},
	} {
		st := StateFromProfiles(spec, 4)
		st.SetOffline(0, true)
		st.SetOffline(2, true)
		req := &Request{Input: inputFor(workload.DD(), 0), SLA: SLA{MinIPC: 1}}
		placement, err := tc.s.Place(st, req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, srv := range placement {
			if srv == 0 || srv == 2 {
				t.Fatalf("%s: placed on offline server %d (%v)", tc.name, srv, placement)
			}
		}
	}
}

func TestAllOfflineIsNoPlacement(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Scheduler
	}{
		{"gsight", NewGsight(&stubPredictor{ipc: 99})},
		{"bestfit", NewBestFit(&stubPredictor{ipc: 99})},
		{"worstfit", NewWorstFit()},
	} {
		st := StateFromProfiles(spec, 2)
		st.SetOffline(0, true)
		st.SetOffline(1, true)
		req := &Request{Input: inputFor(workload.DD(), 0), SLA: SLA{}}
		if _, err := tc.s.Place(st, req); !errors.Is(err, ErrNoPlacement) {
			t.Fatalf("%s: err = %v, want ErrNoPlacement", tc.name, err)
		}
	}
}

func TestGsightFallbackOnPredictorError(t *testing.T) {
	g := NewGsight(&errPredictor{err: fmt.Errorf("%w: ipc", core.ErrNotTrained)})
	g.Fallback = NewWorstFit()
	st := StateFromProfiles(spec, 4)
	req := &Request{Input: inputFor(workload.DD(), 0), SLA: SLA{MinIPC: 1}}
	placement, err := g.Place(st, req)
	if err != nil {
		t.Fatalf("fallback should have served the placement: %v", err)
	}
	if len(placement) == 0 {
		t.Fatal("empty placement")
	}
}

func TestGsightPredictorErrorWithoutFallback(t *testing.T) {
	base := fmt.Errorf("%w: ipc", core.ErrNotTrained)
	g := NewGsight(&errPredictor{err: base})
	st := StateFromProfiles(spec, 4)
	req := &Request{Input: inputFor(workload.DD(), 0), SLA: SLA{MinIPC: 1}}
	if _, err := g.Place(st, req); !errors.Is(err, core.ErrNotTrained) {
		t.Fatalf("err = %v, want the predictor error preserved", err)
	}
}

func TestGsightFallbackRespectsOffline(t *testing.T) {
	g := NewGsight(&errPredictor{err: errors.New("boom")})
	g.Fallback = NewWorstFit()
	st := StateFromProfiles(spec, 3)
	st.SetOffline(1, true)
	req := &Request{Input: inputFor(workload.DD(), 0), SLA: SLA{MinIPC: 1}}
	placement, err := g.Place(st, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range placement {
		if srv == 1 {
			t.Fatalf("fallback placed on offline server: %v", placement)
		}
	}
}
