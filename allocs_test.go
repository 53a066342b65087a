// Allocation budgets. `go test` is the repository's only allocation
// gate: each low-allocation micro-benchmark's loop body (its xxxOp in
// bench_test.go) runs here under testing.AllocsPerRun and fails above
// the allocs/op it is pinned at. A change that lowers a count lowers
// its budget with it. BenchmarkWindowAbsorb's budget lives in
// internal/ml (TestWindowAbsorbAllocFree). The same file holds the
// telemetry subsystem's neutrality tests: instrumented hot paths add
// zero allocations per operation over the nil-sink baseline.
// testing.AllocsPerRun is exact only without the race runtime's shadow
// allocations, so this file is excluded from -race runs; the functional
// equivalence tests in internal/sched cover the race configuration.

//go:build !race

package gsight

import (
	"fmt"
	"io"
	"runtime/debug"
	"testing"

	"gsight/internal/core"
	"gsight/internal/resources"
	"gsight/internal/telemetry"
)

// allocsPerOp measures op with testing.AllocsPerRun: one warm-up call,
// then 200 calls with iteration indexes 1…200. The collector is paused
// meanwhile so pool evictions cannot masquerade as hot-path allocs.
func allocsPerOp(op func(int)) float64 {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	i := 0
	return testing.AllocsPerRun(200, func() {
		op(i)
		i++
	})
}

// allocBudget fails t when op allocates more than budget times per call.
func allocBudget(t *testing.T, what string, budget float64, op func(int)) {
	t.Helper()
	if got := allocsPerOp(op); got > budget {
		t.Fatalf("%s allocates %.1f allocs/op, budget is %.0f", what, got, budget)
	}
}

// TestSchedulingAllocNeutral pins the acceptance criterion for the
// scheduler: Place with a live sink and decision log allocates exactly
// what the nil-sink-instrumented scheduler does.
func TestSchedulingAllocNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor bootstrap is slow")
	}
	p, obs := trainedPredictor(t)
	measure := func(sink *telemetry.Sink) float64 {
		scheduler := NewScheduler(p)
		scheduler.Instrument(sink)
		return allocsPerOp(schedulingOp(t, scheduler, obs))
	}
	nop := measure(nil)
	live := measure(telemetry.New().WithDecisions(io.Discard))
	if live > nop {
		t.Fatalf("instrumented Place allocates more than the nil sink: %.1f > %.1f allocs/op", live, nop)
	}
}

// TestSchedulingAllocBudget pins the absolute allocation budget of one
// placement decision — BenchmarkBinarySearchScheduling's and
// BenchmarkSchedulingInstrumented's loop body — at 1 alloc/op (the
// returned placement slice). Neutrality alone cannot catch
// escape-analysis regressions such as an interface call that forces
// the caller's State onto the heap; this budget does.
func TestSchedulingAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor bootstrap is slow")
	}
	p, obs := trainedPredictor(t)
	allocBudget(t, "placement decision", 1, schedulingOp(t, NewScheduler(p), obs))
	instrumented := NewScheduler(p)
	instrumented.Instrument(telemetry.New().WithDecisions(io.Discard))
	allocBudget(t, "instrumented placement decision", 1, schedulingOp(t, instrumented, obs))
}

// TestProposeAllocBudget pins BenchmarkShardedScheduling: a proposal
// through State.Propose costs what a direct Place does, 1 alloc/op.
func TestProposeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor bootstrap is slow")
	}
	p, obs := trainedPredictor(t)
	allocBudget(t, "State.Propose", 1, proposeOp(t, NewScheduler(p), obs))
}

// TestServedPlacementAllocBudget pins BenchmarkServedPlacement: the
// daemon committer's ProposeOrDegrade+Commit of one request with
// Gsight and a WorstFit fallback costs the returned placement, 1
// alloc/op.
func TestServedPlacementAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor bootstrap is slow")
	}
	p, obs := trainedPredictor(t)
	allocBudget(t, "served placement", 1, servedPlaceOp(t, p, obs, 8))
}

// TestTwoTierAllocBudget pins the tier-0 prune path to the same 1
// alloc/op budget as the legacy path: ranking, the score-cache lookup
// and the top-K truncation must all run on pooled scratch.
// AllocsPerRun's warm-up call absorbs the one-time cache-entry fill.
func TestTwoTierAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor bootstrap is slow")
	}
	p, obs := trainedPredictor(t)
	scheduler := NewScheduler(p)
	scheduler.Tier0, scheduler.TopK = p.Tier0(), 4
	allocBudget(t, "two-tier placement decision", 1, schedulingOp(t, scheduler, obs))
}

// TestTwoTierContendedAllocBudget pins BenchmarkTwoTierPlacement's
// pruned rows — 1 000 and 10 000 contended servers at K = 8 and 32 — at
// 1 alloc/op. The K=∞ rows run the legacy ladder and carry no budget.
func TestTwoTierContendedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor bootstrap is slow")
	}
	p, obs := trainedPredictor(t)
	spec := resources.DefaultServerSpec("bench")
	for _, n := range []int{1000, 10000} {
		st := contendedState(n, 8, obs, spec)
		for _, k := range []int{8, 32} {
			allocBudget(t, fmt.Sprintf("servers=%d/topk=%d", n, k), 1, twoTierOp(t, p, obs, st, k))
		}
	}
}

// TestInferenceAllocNeutral pins the predictor side: single and batched
// inference (BenchmarkInference, BenchmarkInferenceBatch) are
// allocation-free, and stay so with telemetry enabled. So is the
// Pythia baseline's, whose linear model standardizes in place.
func TestInferenceAllocNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor bootstrap is slow")
	}
	p, obs := trainedPredictor(t)
	single, batched := inferenceOp(t, p, obs), inferenceBatchOp(t, p, obs)
	allocBudget(t, "Predict", 0, single)
	allocBudget(t, "PredictBatchInto", 0, batched)
	pythia := core.NewPythia(1)
	if err := pythia.TrainObservations(core.IPCQoS, obs); err != nil {
		t.Fatal(err)
	}
	allocBudget(t, "Pythia Predict", 0, inferenceOp(t, pythia, obs))
	p.Instrument(telemetry.New().WithDecisions(io.Discard))
	allocBudget(t, "instrumented Predict", 0, single)
	allocBudget(t, "instrumented PredictBatchInto", 0, batched)
}

// TestEncodeAllocBudget pins BenchmarkEncode at 1 alloc/op: the fresh
// code vector it encodes into, as the predictor's Observe does.
func TestEncodeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor bootstrap is slow")
	}
	_, obs := trainedPredictor(t)
	allocBudget(t, "Coder.EncodeInto", 1, encodeOp(t, obs))
}

// TestScenarioEvaluationAllocBudget pins BenchmarkScenarioEvaluation at
// 9 allocs/op: one ground-truth evaluation of a two-workload colocation.
func TestScenarioEvaluationAllocBudget(t *testing.T) {
	allocBudget(t, "perfmodel Evaluate", 9, scenarioEvaluationOp(t))
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

// TestTracedPlatformAllocBudget bounds what recording costs a whole
// simulation: BenchmarkTracedPlatform's chaos run, decision log on,
// makes at most 36 allocations more than BenchmarkFaultyPlatform's, the
// same run with it off (645 against 609). The delta is the sink and
// the log themselves: every line is encoded into the stream's reused
// buffer, so it does not grow with the run. A run is a few megabytes,
// so this budget runs a few of them with the collector on.
func TestTracedPlatformAllocBudget(t *testing.T) {
	measure := func(traced bool) float64 {
		op := chaosRunOp(t, traced)
		return testing.AllocsPerRun(20, func() { op(0) })
	}
	plain, traced := measure(false), measure(true)
	if traced-plain > 36 {
		t.Fatalf("the decision log adds %.0f allocs to a chaos run (%.0f → %.0f), budget is 36", traced-plain, plain, traced)
	}
}
