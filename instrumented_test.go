// Alloc-neutrality tests for the telemetry subsystem: instrumented hot
// paths must add zero allocations per operation over the nil-sink baseline.
// testing.AllocsPerRun is exact only without the race runtime's shadow
// allocations, so this file is excluded from -race runs; the functional
// equivalence tests in internal/sched cover the race configuration.

//go:build !race

package gsight

import (
	"io"
	"runtime/debug"
	"testing"

	"gsight/internal/core"
	"gsight/internal/resources"
	"gsight/internal/telemetry"
)

// pauseGC disables the collector for the duration of an AllocsPerRun
// measurement so pool evictions cannot masquerade as hot-path allocs.
func pauseGC(t *testing.T) {
	t.Helper()
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestSchedulingAllocNeutral pins the acceptance criterion for the
// scheduler: Place with a live sink and decision log allocates exactly
// what the nil-sink-instrumented scheduler does.
func TestSchedulingAllocNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor bootstrap is slow")
	}
	pauseGC(t)
	p, obs := trainedPredictor(t)
	spec := resources.DefaultServerSpec("alloc")

	measure := func(sink *telemetry.Sink) float64 {
		scheduler := NewScheduler(p)
		scheduler.Instrument(sink)
		st := schedState(spec)
		o := obs[0]
		req := &PlacementRequest{Input: o.Inputs[o.Target], SLA: SLA{MinIPC: 0.5}}
		return testing.AllocsPerRun(200, func() {
			if _, err := scheduler.Place(st, req); err != nil {
				t.Fatal(err)
			}
		})
	}

	nop := measure(nil)
	live := measure(telemetry.New().WithDecisions(io.Discard))
	if live > nop {
		t.Fatalf("instrumented Place allocates more than the nil sink: %.1f > %.1f allocs/op", live, nop)
	}
}

// TestSchedulingAllocBudget pins the absolute allocation budget of one
// placement decision — state construction, request and Place together,
// exactly the BenchmarkBinarySearchScheduling loop body — at 1
// alloc/op (the returned placement slice). Neutrality alone cannot
// catch escape-analysis regressions such as an interface call that
// forces the caller's State onto the heap; this budget does.
func TestSchedulingAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor bootstrap is slow")
	}
	pauseGC(t)
	p, obs := trainedPredictor(t)
	spec := resources.DefaultServerSpec("alloc")
	scheduler := NewScheduler(p)
	o := obs[0]
	allocs := testing.AllocsPerRun(200, func() {
		st := schedState(spec)
		req := &PlacementRequest{Input: o.Inputs[o.Target], SLA: SLA{MinIPC: 0.5}}
		if _, err := scheduler.Place(st, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("placement decision allocates %.1f allocs/op, budget is 1", allocs)
	}
}

// TestTwoTierAllocBudget pins the tier-0 prune path to the same 1
// alloc/op budget as the legacy path: ranking, the score-cache lookup
// and the top-K truncation must all run on pooled scratch.
// AllocsPerRun's warm-up call absorbs the one-time cache-entry fill.
func TestTwoTierAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor bootstrap is slow")
	}
	pauseGC(t)
	p, obs := trainedPredictor(t)
	spec := resources.DefaultServerSpec("alloc")
	scheduler := NewScheduler(p)
	scheduler.Tier0, scheduler.TopK = p.Tier0(), 4
	o := obs[0]
	allocs := testing.AllocsPerRun(200, func() {
		st := schedState(spec)
		req := &PlacementRequest{Input: o.Inputs[o.Target], SLA: SLA{MinIPC: 0.5}}
		if _, err := scheduler.Place(st, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("two-tier placement decision allocates %.1f allocs/op, budget is 1", allocs)
	}
}

// TestInferenceAllocNeutral pins the predictor side: single and batched
// inference stay allocation-free with telemetry enabled (matching the
// BENCH_gsight.json baseline of 0 allocs/op).
func TestInferenceAllocNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor bootstrap is slow")
	}
	pauseGC(t)
	p, obs := trainedPredictor(t)
	p.Instrument(telemetry.New().WithDecisions(io.Discard))
	o := obs[0]

	single := testing.AllocsPerRun(200, func() {
		if _, err := p.Predict(core.IPCQoS, o.Target, o.Inputs); err != nil {
			t.Fatal(err)
		}
	})
	if single != 0 {
		t.Fatalf("instrumented Predict allocates %.1f allocs/op, want 0", single)
	}

	queries := make([]core.Query, 8)
	out := make([]float64, len(queries))
	for i := range queries {
		q := obs[i%len(obs)]
		queries[i] = core.Query{Target: q.Target, Inputs: q.Inputs}
	}
	batched := testing.AllocsPerRun(200, func() {
		if err := p.PredictBatchInto(core.IPCQoS, queries, out); err != nil {
			t.Fatal(err)
		}
	})
	if batched != 0 {
		t.Fatalf("instrumented PredictBatchInto allocates %.1f allocs/op, want 0", batched)
	}
}

// TestInstrumentedOutputsIdentical pins bit-identity end to end at the
// root API: predictions from an instrumented predictor equal the
// uninstrumented ones exactly.
func TestInstrumentedOutputsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor bootstrap is slow")
	}
	plain, obs := trainedPredictor(t)
	inst, _ := trainedPredictor(t)
	inst.Instrument(telemetry.New().WithDecisions(io.Discard))
	for i := 0; i < 25; i++ {
		o := obs[i%len(obs)]
		a, err := plain.Predict(core.IPCQoS, o.Target, o.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := inst.Predict(core.IPCQoS, o.Target, o.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("obs %d: instrumented prediction %v != %v", i, b, a)
		}
	}
}
