package sched

import (
	"fmt"
	"reflect"
	"testing"

	"gsight/internal/resources"
	"gsight/internal/workload"
)

// TestPlaceAllSmallClusterPlacesEverything pins the benchmark shim's
// PlaceAll to serial placement on the default 8-server cluster, where
// every request reads the full view: all 20 requests fit on an empty
// cluster and all 20 are placed, with the placements, outcomes and
// final state of 20 Propose+Commit calls, at any worker count.
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
	g := factory()
	var ref [][]int
	for _, req := range mk() {
		p, err := refSt.Propose(g, req)
		if err != nil {
			t.Fatal(err)
		}
		in := req.Input
		in.Placement = p
		refSt.Commit(in, req.SLA)
		ref = append(ref, p)
	}
	for _, workers := range []int{1, 4} {
		st := StateFromProfiles(spec, 8)
		reqs := mk()
		for i, r := range NewPlacerPool(st, workers, factory).PlaceAll(reqs) {
			if out := reqs[i].Detail.Outcome; r.Err != nil || out != "placed" {
				t.Fatalf("workers=%d: request %d on an empty cluster: outcome %q, err %v", workers, i, out, r.Err)
			}
			if !reflect.DeepEqual(r.Placement, ref[i]) {
				t.Fatalf("workers=%d: request %d placed at %v, serial Propose+Commit at %v", workers, i, r.Placement, ref[i])
			}
		}
		if !reflect.DeepEqual(st.Used, refSt.Used) {
			t.Fatalf("workers=%d: final Used vectors differ from serial Propose+Commit", workers)
		}
	}
}
