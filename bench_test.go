package gsight

// One benchmark per table and figure of the paper's evaluation: each
// regenerates the artifact via the experiments harness at a reduced
// scale and reports headline metrics. Run the full-size reproduction
// with `gsight experiments` (-scale 1.0); these benches keep the
// whole pipeline exercised and timed under `go test -bench`.

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"gsight/internal/core"
	"gsight/internal/experiments"
	"gsight/internal/ml"
	"gsight/internal/perfmodel"
	"gsight/internal/resources"
	"gsight/internal/scenario"
	"gsight/internal/sched"
	"gsight/internal/serve"
	"gsight/internal/telemetry"
)

// benchOptions keeps bench iterations affordable while preserving every
// experiment's structure.
func benchOptions() experiments.Options {
	return experiments.Options{Seed: 42, Scale: 0.05}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(nil, id, benchOptions())
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s: empty report", id)
		}
		if i == 0 && testing.Verbose() {
			b.Logf("\n%s", rep.String())
		}
	}
}

// BenchmarkTable1Survey regenerates Table 1 (workload taxonomy).
func BenchmarkTable1Survey(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable3Correlations regenerates Table 3 (metric screening).
func BenchmarkTable3Correlations(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4Testbed regenerates Table 4 (testbed configuration).
func BenchmarkTable4Testbed(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig3aVolatility regenerates Figure 3(a): the 36
// partial-interference scenarios.
func BenchmarkFig3aVolatility(b *testing.B) { runExperiment(b, "fig3a") }

// BenchmarkFig3bTemporal regenerates Figure 3(b): LR+KMeans start-delay
// sweep.
func BenchmarkFig3bTemporal(b *testing.B) { runExperiment(b, "fig3b") }

// BenchmarkFig4Propagation regenerates Figure 4: hotspot and restoring
// propagation.
func BenchmarkFig4Propagation(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5ProfilingLevel regenerates Figure 5: function-level vs
// workload-level profiling.
func BenchmarkFig5ProfilingLevel(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig7Knee regenerates Figure 7: the latency-IPC curve.
func BenchmarkFig7Knee(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8Importance regenerates Figure 8: IRFR metric importance.
func BenchmarkFig8Importance(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9PredictionError regenerates Figure 9: the model/baseline
// error comparison across colocation kinds.
func BenchmarkFig9PredictionError(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10aConvergence regenerates Figure 10(a): serverless vs
// serverful convergence.
func BenchmarkFig10aConvergence(b *testing.B) { runExperiment(b, "fig10a") }

// BenchmarkFig10bStability regenerates Figure 10(b): post-convergence
// stability.
func BenchmarkFig10bStability(b *testing.B) { runExperiment(b, "fig10b") }

// BenchmarkFig10cMultiWorkload regenerates Figure 10(c): error vs the
// number of colocated workloads.
func BenchmarkFig10cMultiWorkload(b *testing.B) { runExperiment(b, "fig10c") }

// BenchmarkFig11Scheduling regenerates Figure 11: density/utilization
// under the three schedulers.
func BenchmarkFig11Scheduling(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12SLA regenerates Figure 12: SLA guarantee ratios.
func BenchmarkFig12SLA(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13Recovery regenerates Figure 13: concept-shift recovery.
func BenchmarkFig13Recovery(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14Overhead regenerates Figure 14: online running cost.
func BenchmarkFig14Overhead(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkExtPCA runs the §6.4 PCA ablation.
func BenchmarkExtPCA(b *testing.B) { runExperiment(b, "ext-pca") }

// BenchmarkExtColdStart runs the §5.2 cold-start-aware prediction study.
func BenchmarkExtColdStart(b *testing.B) { runExperiment(b, "ext-coldstart") }

// BenchmarkExtIsolation runs the §6.3 isolation-orthogonality study.
func BenchmarkExtIsolation(b *testing.B) { runExperiment(b, "ext-isolation") }

// BenchmarkExtResilience runs the fault-injection study: the platform
// under every named fault scenario vs the healthy baseline.
func BenchmarkExtResilience(b *testing.B) { runExperiment(b, "ext-resilience") }

// BenchmarkExtSoak runs the long-horizon soak: scaled trace replay
// (rate and time factors) through the allocation-free step loop.
func BenchmarkExtSoak(b *testing.B) { runExperiment(b, "ext-soak") }

// BenchmarkExtScale runs the scale ladder (8 to 10k servers) under
// Gsight and the baselines — the placements/sec column in its report
// is the headline number.
func BenchmarkExtScale(b *testing.B) { runExperiment(b, "ext-scale") }

// BenchmarkExtTwoTier runs the prune-depth sweep: QoS-density lost vs
// placement throughput gained as tier-0 pruning tightens K.
func BenchmarkExtTwoTier(b *testing.B) { runExperiment(b, "ext-twotier") }

// ---- micro-benchmarks of the paper's operational costs (§6.4) ----

func trainedPredictor(b testing.TB) (*core.Predictor, []core.Observation) {
	b.Helper()
	m := scenario.Lab()
	g := scenario.NewGenerator(m, 42)
	var obs []core.Observation
	for i := 0; i < 120; i++ {
		sc := g.Colocation(core.LSSC, 2)
		samples, err := g.Label(sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range samples {
			if s.Kind == core.IPCQoS {
				obs = append(obs, core.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label})
			}
		}
	}
	p := core.NewPredictor(core.Config{Seed: 1, UpdateEvery: 1 << 30})
	if err := p.TrainObservations(core.IPCQoS, obs); err != nil {
		b.Fatal(err)
	}
	return p, obs
}

// Several micro-benchmarks below take their loop body from an xxxOp
// function: the body as a function of the iteration index. The
// benchmark calls it b.N times and allocs_test.go runs the same body
// under testing.AllocsPerRun, so an allocation budget and the benchmark
// it pins cannot drift apart.

// runOp warms op once outside the measurement, then times b.N calls.
func runOp(b *testing.B, op func(int)) {
	op(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// inferenceOp is one QoS inference, cycling through the observations.
func inferenceOp(tb testing.TB, p *core.Predictor, obs []core.Observation) func(int) {
	return func(i int) {
		o := obs[i%len(obs)]
		if _, err := p.Predict(core.IPCQoS, o.Target, o.Inputs); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkInference measures one QoS inference — the paper reports
// 3.48 ms per inference on its testbed.
func BenchmarkInference(b *testing.B) {
	p, obs := trainedPredictor(b)
	runOp(b, inferenceOp(b, p, obs))
}

// inferenceBatchOp is one batched inference over 16 queries.
func inferenceBatchOp(tb testing.TB, p *core.Predictor, obs []core.Observation) func(int) {
	const batch = 16
	queries := make([]core.Query, batch)
	out := make([]float64, batch)
	for i := range queries {
		o := obs[i%len(obs)]
		queries[i] = core.Query{Target: o.Target, Inputs: o.Inputs}
	}
	return func(int) {
		if err := p.PredictBatchInto(core.IPCQoS, queries, out); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkInferenceBatch measures batched QoS inference over 16
// queries at a time — the scheduler's per-candidate check shape.
func BenchmarkInferenceBatch(b *testing.B) {
	p, obs := trainedPredictor(b)
	runOp(b, inferenceBatchOp(b, p, obs))
}

// BenchmarkIncrementalUpdate measures one batched incremental model
// update — the paper reports 24.784 ms per update.
func BenchmarkIncrementalUpdate(b *testing.B) {
	p, obs := trainedPredictor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 20; j++ {
			o := obs[(i*20+j)%len(obs)]
			if err := p.Observe(core.IPCQoS, o.Target, o.Inputs, o.Label); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.Flush(core.IPCQoS); err != nil {
			b.Fatal(err)
		}
	}
}

// encodeOp is one spatial-temporal interference coding.
func encodeOp(tb testing.TB, obs []core.Observation) func(int) {
	coder := core.DefaultCoder()
	return func(i int) {
		o := obs[i%len(obs)]
		x := make([]float64, coder.Dim())
		if err := coder.EncodeInto(x, o.Target, o.Inputs); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkEncode measures the spatial-temporal interference coding.
func BenchmarkEncode(b *testing.B) {
	_, obs := trainedPredictor(b)
	runOp(b, encodeOp(b, obs))
}

// scenarioEvaluationOp is one ground-truth evaluation of a two-workload
// colocation, cycling through 16 of them.
func scenarioEvaluationOp(tb testing.TB) func(int) {
	m := scenario.Lab()
	g := scenario.NewGenerator(m, 42)
	scenarios := make([]*perfmodel.Scenario, 16)
	for i := range scenarios {
		scenarios[i] = g.Colocation(core.LSSC, 2)
	}
	return func(i int) {
		if _, err := m.Evaluate(scenarios[i%len(scenarios)], nil); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkScenarioEvaluation measures one ground-truth evaluation of a
// two-workload colocation on the simulated testbed.
func BenchmarkScenarioEvaluation(b *testing.B) {
	runOp(b, scenarioEvaluationOp(b))
}

// BenchmarkNewCatalog measures the daemon's start-up calibration —
// profiling the pools and building the three latency-IPC curves on the
// FastConfig lab — which every serve.New pays: fresh start, crash
// restore and the standby's takeover.
func BenchmarkNewCatalog(b *testing.B) {
	lab := scenario.Lab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := serve.NewCatalog(lab, 42); len(c.Names()) == 0 {
			b.Fatal("empty catalog")
		}
	}
}

// benchForestDataset encodes the observation set once into a
// paper-shaped design matrix (2580-dimensional codes).
func benchForestDataset(b *testing.B) ml.Dataset {
	b.Helper()
	_, obs := trainedPredictor(b)
	coder := core.DefaultCoder()
	var ds ml.Dataset
	for _, o := range obs {
		x := make([]float64, coder.Dim())
		if err := coder.EncodeInto(x, o.Target, o.Inputs); err != nil {
			b.Fatal(err)
		}
		ds.Append(x, o.Label)
	}
	return ds
}

// BenchmarkForestTraining measures IRFR training on a paper-shaped
// dataset with a single worker — the raw single-thread kernel, run at
// width 1 so the number is comparable across machines.
func BenchmarkForestTraining(b *testing.B) {
	ds := benchForestDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := ml.NewForest(ml.ForestConfig{Trees: 8, Seed: uint64(i), Tree: ml.TreeConfig{MTry: 96}})
		u, err := f.BeginUpdate(ds.X, ds.Y)
		if err != nil {
			b.Fatal(err)
		}
		u.Run(1)
		if err := f.FinishUpdate(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestTrainingParallel is the same training load with the
// default worker pool (GOMAXPROCS-wide), measuring the parallel-growth
// speedup over BenchmarkForestTraining. The grown forest is
// byte-identical to the serial one (TestForestParallelFitByteIdentical).
func BenchmarkForestTrainingParallel(b *testing.B) {
	ds := benchForestDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := ml.NewForest(ml.ForestConfig{Trees: 8, Seed: uint64(i), Tree: ml.TreeConfig{MTry: 96}})
		if err := f.Fit(ds.X, ds.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootstrapFit measures the predictor's bootstrap fit at
// `gsight sim -train 200`'s shape — the IPC design matrix of 200 LS+SC
// scenarios (≈ 445 rows × 2836 features) under IRFRFactory's forest
// (40 trees, MTry 96, default worker pool): the largest stage of daemon
// and simulator start-up, and the kernel of every learner flush.
func BenchmarkBootstrapFit(b *testing.B) {
	m := scenario.Lab()
	g := scenario.NewGenerator(m, 42)
	coder := core.DefaultCoder()
	var ds ml.Dataset
	for _, o := range bootstrapIPCObservations(b, g, 200) {
		x := make([]float64, coder.Dim())
		if err := coder.EncodeInto(x, o.Target, o.Inputs); err != nil {
			b.Fatal(err)
		}
		ds.Append(x, o.Label)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := ml.NewForest(ml.ForestConfig{Trees: 40, Seed: uint64(i), Tree: ml.TreeConfig{MTry: 96}})
		if err := f.Fit(ds.X, ds.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// checkpointBenchState is the learner state the two checkpoint
// benchmarks share: what `gsight serve` holds at the end of the repository
// benchmark's `learning` workload — the IPC and JCT samples of 1 000
// LS+SC colocations in the forests' windows (≈ 2 200 and ≈ 1 000 rows
// of 2 836 features), 40 trees a kind, the tier-0 ring holding every
// IPC row, a part-filled pending buffer. Built once: two forest fits.
var checkpointBenchState struct {
	once sync.Once
	pred *core.Predictor
	err  error
}

func checkpointSizedPredictor(b *testing.B) *core.Predictor {
	b.Helper()
	st := &checkpointBenchState
	st.once.Do(func() {
		m := scenario.Lab()
		g := scenario.NewGenerator(m, 42)
		byKind := map[core.QoSKind][]core.Observation{}
		for i := 0; i < 1000; i++ {
			samples, err := g.Label(g.Colocation(core.LSSC, 2+g.Rand().Intn(2)))
			if err != nil {
				st.err = err
				return
			}
			for _, s := range samples {
				byKind[s.Kind] = append(byKind[s.Kind], core.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label})
			}
		}
		p := core.NewPredictor(core.Config{Seed: 1})
		for _, kind := range []core.QoSKind{core.IPCQoS, core.JCTQoS} {
			obs := byKind[kind]
			if st.err = p.TrainObservations(kind, obs[:len(obs)-30]); st.err != nil {
				return
			}
			for _, o := range obs[len(obs)-30:] {
				if st.err = p.Observe(kind, o.Target, o.Inputs, o.Label); st.err != nil {
					return
				}
			}
		}
		st.pred = p
	})
	if st.err != nil {
		b.Fatal(st.err)
	}
	return st.pred
}

// BenchmarkPredictorCheckpoint measures writing the learner down: one
// CheckpointState of the learning-sized predictor, which every serve
// snapshot and every platform checkpoint pays. state_bytes is the size
// of what it returns.
func BenchmarkPredictorCheckpoint(b *testing.B) {
	p := checkpointSizedPredictor(b)
	b.ReportAllocs()
	b.ResetTimer()
	size := 0
	for i := 0; i < b.N; i++ {
		state, err := p.CheckpointState()
		if err != nil {
			b.Fatal(err)
		}
		size = len(state)
	}
	b.ReportMetric(float64(size), "state_bytes")
}

// BenchmarkPredictorRestore measures reading it back: RestoreCheckpoint
// of that state into a same-configured predictor, validation included —
// the learner's share of a restart or a standby takeover.
func BenchmarkPredictorRestore(b *testing.B) {
	state, err := checkpointSizedPredictor(b).CheckpointState()
	if err != nil {
		b.Fatal(err)
	}
	fresh := core.NewPredictor(core.Config{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fresh.RestoreCheckpoint(state); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(state)), "state_bytes")
}

// schedulingOp is one placement decision on an empty 8-server state:
// state copy, request and Place together. The copy is made inline, not
// by a helper: Place does not retain it, so it stays on the stack. The
// closure is copied wherever schedulingOp inlines, and the copy does
// not inline its own calls, so a helper's result would be
// heap-allocated — three allocations over the 1 alloc/op budget. The
// copy shares the template's counted bookkeeping, which Place only
// reads.
func schedulingOp(tb testing.TB, scheduler *sched.Gsight, obs []core.Observation) func(int) {
	empty := sched.StateFromProfiles(resources.DefaultServerSpec("bench"), 8)
	return func(i int) {
		st := *empty
		o := obs[i%len(obs)]
		req := &PlacementRequest{Input: o.Inputs[o.Target], SLA: SLA{MinIPC: 0.5}}
		if _, err := scheduler.Place(&st, req); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkBinarySearchScheduling measures one placement decision of
// the §4 scheduler (the paper reports "a few milliseconds").
func BenchmarkBinarySearchScheduling(b *testing.B) {
	p, obs := trainedPredictor(b)
	runOp(b, schedulingOp(b, NewScheduler(p), obs))
}

// BenchmarkSchedulingInstrumented is BenchmarkBinarySearchScheduling
// with a live telemetry sink and decision log attached: same placements,
// and the alloc-neutrality contract (pinned by TestSchedulingAllocNeutral)
// keeps allocs/op identical to the uninstrumented baseline.
func BenchmarkSchedulingInstrumented(b *testing.B) {
	p, obs := trainedPredictor(b)
	scheduler := NewScheduler(p)
	scheduler.Instrument(telemetry.New().WithDecisions(io.Discard))
	runOp(b, schedulingOp(b, scheduler, obs))
}

// proposeOp is one placement proposal through State.Propose on an
// 8-server state, where it is exactly a direct Place against the state.
func proposeOp(tb testing.TB, scheduler *sched.Gsight, obs []core.Observation) func(int) {
	ss := sched.StateFromProfiles(resources.DefaultServerSpec("bench"), 8)
	// One reusable request: inside propose the scheduler is an
	// interface, so a per-iteration literal would escape and charge
	// the caller's allocation to the propose path under test.
	req := &PlacementRequest{SLA: SLA{MinIPC: 0.5}}
	return func(i int) {
		o := obs[i%len(obs)]
		req.Input = o.Inputs[o.Target]
		if _, err := ss.Propose(scheduler, req); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkShardedScheduling measures one placement proposal through
// State.Propose at testbed size. Its budget is
// BenchmarkBinarySearchScheduling's 1 alloc/op (the returned placement
// slice).
func BenchmarkShardedScheduling(b *testing.B) {
	p, obs := trainedPredictor(b)
	b.ReportAllocs()
	runOp(b, proposeOp(b, NewScheduler(p), obs))
}

// servedPlaceOp is the daemon committer's per-placement work on an
// n-server state: ProposeOrDegrade with Gsight and a WorstFit
// fallback, then Commit. The placed workload is released again so
// every iteration starts from the empty state. One reusable request,
// as in proposeOp.
func servedPlaceOp(tb testing.TB, p *core.Predictor, obs []core.Observation, n int) func(int) {
	st := sched.StateFromProfiles(resources.DefaultServerSpec("bench"), n)
	scheduler, fallback := NewScheduler(p), NewWorstFit()
	req := &PlacementRequest{SLA: SLA{MinIPC: 0.5}}
	return func(i int) {
		o := obs[i%len(obs)]
		req.Input = o.Inputs[o.Target]
		pl, err := st.ProposeOrDegrade(scheduler, fallback, false, req)
		if err != nil {
			tb.Fatal(err)
		}
		in := req.Input
		in.Placement = pl
		st.Commit(in, req.SLA)
		if !st.Release(in.Name) {
			tb.Fatal("release failed")
		}
	}
}

// BenchmarkServedPlacement measures the committer's per-placement
// Propose+Commit on the 8-server testbed.
func BenchmarkServedPlacement(b *testing.B) {
	p, obs := trainedPredictor(b)
	b.ReportAllocs()
	runOp(b, servedPlaceOp(b, p, obs, 8))
}

// BenchmarkShardedPlacement measures the same Propose+Commit (and
// release) at cluster scale: 1k and 10k servers. Requests hash to a
// fixed-size home window, so ns/op is bounded by window size rather
// than server count; placements/s is the headline throughput number.
func BenchmarkShardedPlacement(b *testing.B) {
	p, obs := trainedPredictor(b)
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			runOp(b, servedPlaceOp(b, p, obs, n))
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "placements/s")
		})
	}
}

// contendedState builds an n-server cluster where every server except
// each idleEvery-th holds one latency-sensitive antagonist workload —
// the worst case for the spread ladder, and the scenario the two-tier
// prune exists for (DESIGN.md §15).
func contendedState(n, idleEvery int, obs []core.Observation, spec resources.ServerSpec) *sched.State {
	caps := make([]resources.Vector, n)
	for i := range caps {
		caps[i] = spec.Capacity
	}
	st := &sched.State{Caps: caps, Used: make([]resources.Vector, n)}
	st.Recount()
	for i := 0; i < n; i++ {
		if i%idleEvery == 0 {
			continue
		}
		o := obs[i%len(obs)]
		ant := o.Inputs[o.Target]
		ant.Name = fmt.Sprintf("bg-%d", i)
		ant.Placement = make([]int, len(ant.Profiles))
		for f := range ant.Placement {
			ant.Placement[f] = i
		}
		st.Commit(ant, SLA{})
	}
	return st
}

// twoTierOp is one tight-MinIPC placement of obs[0]'s target workload
// on st, pruned to the top-k tier-0 finalists (k = 0: the legacy K=∞
// ladder).
func twoTierOp(tb testing.TB, p *core.Predictor, obs []core.Observation, st *sched.State, k int) func(int) {
	scheduler := NewScheduler(p)
	scheduler.Tier0, scheduler.TopK = p.Tier0(), k
	o := obs[0]
	req := &PlacementRequest{Input: o.Inputs[o.Target], SLA: SLA{MinIPC: 0.98}}
	return func(int) {
		if _, err := scheduler.Place(st, req); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkTwoTierPlacement measures two-tier pruned placement against
// the legacy K=∞ ladder on a contended cluster: 7 of every 8 servers
// hold a latency-sensitive antagonist and the request carries a tight
// MinIPC, so the legacy spread ladder pays 10+ levels of candidate
// scans and inference before it finds a fit, while the pruned path
// places among the tier-0 finalists at level one. The pruned rows'
// steady state is pinned at 1 alloc/op (TestTwoTierContendedAllocBudget).
func BenchmarkTwoTierPlacement(b *testing.B) {
	p, obs := trainedPredictor(b)
	spec := resources.DefaultServerSpec("bench")
	for _, n := range []int{1000, 10000} {
		st := contendedState(n, 8, obs, spec)
		for _, k := range []int{8, 32, 0} {
			name := fmt.Sprintf("%d", k)
			if k == 0 {
				name = "inf"
			}
			b.Run(fmt.Sprintf("servers=%d/topk=%s", n, name), func(b *testing.B) {
				b.ReportAllocs()
				runOp(b, twoTierOp(b, p, obs, st, k))
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "placements/s")
			})
		}
	}
}

// BenchmarkFaultyPlatform measures the platform's fault path: a short
// trace-driven run under the "chaos" scenario (crash + straggler +
// cold-start storm + predictor outage), exercising evacuation, capacity
// rescaling and degraded-mode placement end to end.
func BenchmarkFaultyPlatform(b *testing.B) {
	runOp(b, chaosRunOp(b, false))
}

// BenchmarkTracedPlatform is BenchmarkFaultyPlatform with a whole
// recording attached (the decision log, lifecycle events and step
// samples included, draining to io.Discard): the same chaos run, so its
// delta against BenchmarkFaultyPlatform is the whole-run cost of
// enabled recording. TestTracedPlatformAllocBudget bounds the
// allocation delta; the time delta is not gated, because on a shared
// host it is smaller than the two runs' spread.
func BenchmarkTracedPlatform(b *testing.B) {
	runOp(b, chaosRunOp(b, true))
}

// chaosRunOp is one run of BenchmarkFaultyPlatform — two services and
// three batch workloads for two simulated hours under the "chaos"
// scenario — and, when traced, of BenchmarkTracedPlatform.
func chaosRunOp(tb testing.TB, traced bool) func(int) {
	cat := Catalog()
	const durationS = 2 * 3600
	chaos, err := FaultScenario("chaos", 42, durationS, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return func(int) {
		var sink *telemetry.Sink
		if traced {
			sink = telemetry.New().WithDecisions(io.Discard)
		}
		st, err := RunPlatform(nil, PlatformConfig{
			Model:     NewTestbedModel(),
			Scheduler: NewWorstFit(),
			Services: []PlatformService{
				{W: cat["social-network"], Pattern: DefaultTracePattern(250), SLA: SLA{MinIPC: 0.9}},
				{W: cat["e-commerce"], Pattern: DefaultTracePattern(350), SLA: SLA{MinIPC: 1.0}},
			},
			SCPool:          []*Workload{cat["matmul"], cat["dd"], cat["float-op"]},
			SCMeanIntervalS: 200,
			DurationS:       durationS,
			Seed:            42,
			Faults:          chaos,
			Telemetry:       sink,
		})
		if err != nil {
			tb.Fatal(err)
		}
		if st.FaultEvents == 0 {
			tb.Fatal("chaos run injected no faults")
		}
		if traced && sink.Decisions.Stream().Records() <= uint64(st.Steps) {
			tb.Fatal("recorder captured nothing")
		}
	}
}

// BenchmarkPlatformStep measures the per-step cost of the platform
// loop on a healthy (fault-free) two-service run — autoscaling, the
// incremental stepper, SLA monitoring and batch-job turnover, without
// the fault-path work BenchmarkFaultyPlatform adds. The headline
// number is the ns/step metric; ns/op times the whole run.
func BenchmarkPlatformStep(b *testing.B) {
	cat := Catalog()
	const durationS = 2 * 3600
	totalSteps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := RunPlatform(nil, PlatformConfig{
			Model:     NewTestbedModel(),
			Scheduler: NewWorstFit(),
			Services: []PlatformService{
				{W: cat["social-network"], Pattern: DefaultTracePattern(250), SLA: SLA{MinIPC: 0.9}},
				{W: cat["e-commerce"], Pattern: DefaultTracePattern(350), SLA: SLA{MinIPC: 1.0}},
			},
			SCPool:          []*Workload{cat["matmul"], cat["dd"]},
			SCMeanIntervalS: 200,
			DurationS:       durationS,
			Seed:            42,
		})
		if err != nil {
			b.Fatal(err)
		}
		totalSteps += st.Steps
	}
	b.StopTimer()
	if totalSteps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalSteps), "ns/step")
	}
}

// benchedIDs is the static list of experiment ids with a Benchmark*
// runExperiment wrapper above. Adding an experiment to the registry
// without benchmarking it (or removing one and leaving a stale bench)
// fails TestBenchRegistryCoverage — keep this list in lockstep with the
// Benchmark functions.
var benchedIDs = []string{
	"table1", "table3", "table4",
	"fig3a", "fig3b", "fig4", "fig5", "fig7", "fig8", "fig9",
	"fig10a", "fig10b", "fig10c", "fig11", "fig12", "fig13", "fig14",
	"ext-pca", "ext-coldstart", "ext-isolation",
	"ext-resilience", "ext-soak", "ext-scale", "ext-twotier",
}

// TestBenchRegistryCoverage pins the registry and the bench list to
// each other: every registered experiment must have a Benchmark*
// wrapper (tracked in benchedIDs) and every benched id must still be
// registered.
func TestBenchRegistryCoverage(t *testing.T) {
	benched := map[string]bool{}
	for _, id := range benchedIDs {
		if benched[id] {
			t.Errorf("duplicate benched id %q", id)
		}
		benched[id] = true
	}
	registered := map[string]bool{}
	for _, id := range experiments.IDs() {
		registered[id] = true
		if !benched[id] {
			t.Errorf("experiment %q has no Benchmark* wrapper: add one and list it in benchedIDs", id)
		}
	}
	for _, id := range benchedIDs {
		if !registered[id] {
			t.Errorf("benched id %q is no longer registered: remove its Benchmark* wrapper", id)
		}
	}
	if _, err := experiments.Run(nil, "nope-bogus", benchOptions()); err == nil {
		t.Fatal("bogus id resolved")
	}
	for _, id := range experiments.IDs() {
		if !strings.HasPrefix(id, "table") && !strings.HasPrefix(id, "fig") && !strings.HasPrefix(id, "ext-") {
			t.Errorf("unexpected experiment id %q", id)
		}
	}
}
