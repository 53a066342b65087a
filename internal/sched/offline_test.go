package sched

import (
	"errors"
	"fmt"
	"testing"

	"gsight/internal/core"
	"gsight/internal/workload"
)

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
	g := NewGsight(failing{err: fmt.Errorf("%w: ipc", core.ErrNotTrained)})
	st := StateFromProfiles(spec, 4)
	req := &Request{Input: inputFor(workload.DD(), 0), SLA: SLA{MinIPC: 1}}
	placement, err := st.ProposeOrDegrade(g, NewWorstFit(), false, req)
	if !errors.Is(err, core.ErrNotTrained) {
		t.Fatalf("err = %v, want the predictor error beside the placement", err)
	}
	if len(placement) == 0 {
		t.Fatal("fallback should have served the placement")
	}
	if req.Detail.Outcome != "degraded" || req.Detail.Scheduler != "WorstFit" {
		t.Fatalf("decision %s by %q, want degraded by WorstFit", req.Detail.Outcome, req.Detail.Scheduler)
	}
}
