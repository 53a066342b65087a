package sched

import (
	"errors"
	"testing"

	"gsight/internal/core"
	"gsight/internal/resources"
	"gsight/internal/telemetry"
	"gsight/internal/workload"
)

// flaky fails every Place with an error no caller expects.
type flaky struct{ calls int }

var errFlaky = errors.New("transient RPC failure")

func (f *flaky) Place(*State, *Request) ([]int, error) {
	f.calls++
	return nil, errFlaky
}
func (f *flaky) Name() string { return "flaky" }

// TestProposeOrDegrade drives each case of the degradation rule on
// a 4-server cluster and checks the whole answer: placement, error,
// the relabelled decision with the answering scheduler's name and both
// attempts' search counts, and whether the fallback was asked.
func TestProposeOrDegrade(t *testing.T) {
	untrained := failing{err: core.ErrNotTrained}
	// full leaves server 0 with its CPU taken: Gsight's 2× CPU ceiling
	// still fits a function there, WorstFit's request-based one does not.
	full := func(st *State) {
		in := inputFor(workload.DD(), 0)
		in.Name = "filler"
		in.Profiles[0].Alloc = resources.Vector{resources.CPU: spec.Capacity[resources.CPU]}
		st.Commit(in, SLA{})
	}
	offline := func(servers ...int) func(*State) {
		return func(st *State) {
			for _, s := range servers {
				st.SetOffline(s, true)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		primary Scheduler
		down    bool
		servers int
		setup   func(*State)
		// want
		placed          bool
		err             error // errors.Is target; nil wants no error
		outcome, reason string
		scheduler       string
		levels, checks  int
		fallbackAsked   bool
		avoid           []int // servers the placement must not use
	}{
		{name: "primary-places", primary: NewGsight(&stubPredictor{ipc: 99}),
			placed: true, outcome: "placed", scheduler: "Gsight", levels: 1, checks: 1},
		{name: "no-placement-is-final", primary: NewGsight(&stubPredictor{ipc: 99}),
			setup: offline(0, 1, 2, 3), err: ErrNoPlacement,
			outcome: "rejected", reason: "no-fit", scheduler: "Gsight"},
		{name: "predictor-error-degraded", primary: NewGsight(untrained),
			placed: true, err: core.ErrNotTrained, outcome: "degraded", reason: "predictor-error",
			scheduler: "WorstFit", levels: 2, checks: 1, fallbackAsked: true},
		{name: "bestfit-predictor-error-degraded", primary: NewBestFit(untrained),
			placed: true, err: core.ErrNotTrained, outcome: "degraded", reason: "predictor-error",
			scheduler: "WorstFit", levels: 2, checks: 1, fallbackAsked: true},
		{name: "predictor-error-fallback-no-fit", primary: NewGsight(untrained), servers: 1, setup: full,
			err: core.ErrNotTrained, outcome: "error", reason: "predictor-error",
			scheduler: "WorstFit", levels: 2, checks: 1, fallbackAsked: true},
		{name: "primary-down", primary: &flaky{}, down: true,
			placed: true, outcome: "degraded", reason: "predictor-unavailable",
			scheduler: "WorstFit", levels: 1, fallbackAsked: true},
		{name: "primary-down-fallback-no-fit", primary: &flaky{}, down: true, servers: 1, setup: full,
			err: ErrNoPlacement, outcome: "rejected", reason: "no-fit",
			scheduler: "WorstFit", levels: 1, fallbackAsked: true},
		{name: "scheduler-error", primary: &flaky{},
			placed: true, err: errFlaky, outcome: "degraded", reason: "scheduler-error",
			scheduler: "WorstFit", levels: 1, fallbackAsked: true},
		{name: "fallback-skips-offline", primary: NewGsight(untrained), setup: offline(0, 2),
			placed: true, err: core.ErrNotTrained, outcome: "degraded", reason: "predictor-error",
			scheduler: "WorstFit", levels: 2, checks: 1, fallbackAsked: true, avoid: []int{0, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.servers
			if n == 0 {
				n = 4
			}
			st := StateFromProfiles(spec, n)
			if tc.setup != nil {
				tc.setup(st)
			}
			sink := telemetry.New()
			fb := NewWorstFit()
			fb.Instrument(sink)
			req := &Request{Input: inputFor(workload.DD(), 0), SLA: SLA{MinIPC: 1}}
			placement, err := st.ProposeOrDegrade(tc.primary, fb, tc.down, req)

			if tc.placed != (placement != nil) {
				t.Fatalf("placement = %v, err = %v; want placed %v", placement, err, tc.placed)
			}
			if tc.err == nil && err != nil || tc.err != nil && !errors.Is(err, tc.err) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			d := req.Detail
			if d.Outcome != tc.outcome || d.Reason != tc.reason || d.Scheduler != tc.scheduler {
				t.Fatalf("decision %s/%s by %q, want %s/%s by %q", d.Outcome, d.Reason, d.Scheduler, tc.outcome, tc.reason, tc.scheduler)
			}
			if d.SpreadLevels != tc.levels || d.SLAChecks != tc.checks {
				t.Fatalf("spread levels %d, SLA checks %d; want %d, %d summed over both attempts", d.SpreadLevels, d.SLAChecks, tc.levels, tc.checks)
			}
			asked := sink.Registry.Snapshot().Counters["sched_worstfit_placements_total"] > 0
			if asked != tc.fallbackAsked {
				t.Fatalf("fallback asked = %v, want %v", asked, tc.fallbackAsked)
			}
			if f, ok := tc.primary.(*flaky); ok {
				want := 1 // asked once, never again
				if tc.down {
					want = 0
				}
				if f.calls != want {
					t.Fatalf("primary asked %d times, want %d", f.calls, want)
				}
			}
			for _, s := range placement {
				for _, off := range tc.avoid {
					if s == off {
						t.Fatalf("placed on offline server %d: %v", s, placement)
					}
				}
			}
		})
	}
}
