package gsight

// One benchmark per table and figure of the paper's evaluation: each
// regenerates the artifact via the experiments harness at a reduced
// scale and reports headline metrics. Run the full-size reproduction
// with cmd/gsight-experiments (-scale 1.0); these benches keep the
// whole pipeline exercised and timed under `go test -bench`.

import (
	"fmt"
	"io"
	"os"
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
	"gsight/internal/sim"
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

// BenchmarkExtScale runs the shared-state scale ladder (8 to 10k
// servers) under Gsight and the baselines — the placements/sec column
// in its report is the headline number.
func BenchmarkExtScale(b *testing.B) { runExperiment(b, "ext-scale") }

// BenchmarkExtTwoTier runs the prune-depth sweep: QoS-density lost vs
// placement throughput gained as tier-0 pruning tightens K.
func BenchmarkExtTwoTier(b *testing.B) { runExperiment(b, "ext-twotier") }

// ---- micro-benchmarks of the paper's operational costs (§6.4) ----

func trainedPredictor(b testing.TB) (*core.Predictor, []core.Observation) {
	b.Helper()
	m := perfmodel.New(resources.DefaultTestbed())
	scenario.FastConfig(m)
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

// BenchmarkInference measures one QoS inference — the paper reports
// 3.48 ms per inference on its testbed.
func BenchmarkInference(b *testing.B) {
	p, obs := trainedPredictor(b)
	// Warm the predictor's scratch pools outside the measurement.
	if _, err := p.Predict(core.IPCQoS, obs[0].Target, obs[0].Inputs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := obs[i%len(obs)]
		if _, err := p.Predict(core.IPCQoS, o.Target, o.Inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferenceBatch measures batched QoS inference over 16
// queries at a time — the scheduler's per-candidate check shape.
func BenchmarkInferenceBatch(b *testing.B) {
	p, obs := trainedPredictor(b)
	const batch = 16
	queries := make([]core.Query, batch)
	out := make([]float64, batch)
	for i := range queries {
		o := obs[i%len(obs)]
		queries[i] = core.Query{Target: o.Target, Inputs: o.Inputs}
	}
	if err := p.PredictBatchInto(core.IPCQoS, queries, out); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.PredictBatchInto(core.IPCQoS, queries, out); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkEncode measures the spatial-temporal interference coding.
func BenchmarkEncode(b *testing.B) {
	_, obs := trainedPredictor(b)
	coder := core.DefaultCoder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := obs[i%len(obs)]
		if _, err := coder.Encode(o.Target, o.Inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioEvaluation measures one ground-truth evaluation of a
// two-workload colocation on the simulated testbed.
func BenchmarkScenarioEvaluation(b *testing.B) {
	m := perfmodel.New(resources.DefaultTestbed())
	scenario.FastConfig(m)
	g := scenario.NewGenerator(m, 42)
	scenarios := make([]*perfmodel.Scenario, 16)
	for i := range scenarios {
		scenarios[i] = g.Colocation(core.LSSC, 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Evaluate(scenarios[i%len(scenarios)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewCatalog measures the daemon's start-up calibration —
// profiling the pools and building the three latency-IPC curves on the
// FastConfig lab — which every serve.New pays: fresh start, crash
// restore and the standby's takeover.
func BenchmarkNewCatalog(b *testing.B) {
	lab := perfmodel.New(resources.DefaultTestbed())
	scenario.FastConfig(lab)
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
		x, err := coder.Encode(o.Target, o.Inputs)
		if err != nil {
			b.Fatal(err)
		}
		ds.Append(x, o.Label)
	}
	return ds
}

// BenchmarkForestTraining measures IRFR training on a paper-shaped
// dataset with a single worker — the raw single-thread kernel, pinned
// to Workers:1 so the number is comparable across machines.
func BenchmarkForestTraining(b *testing.B) {
	ds := benchForestDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := ml.NewForest(ml.ForestConfig{Trees: 8, Seed: uint64(i), Workers: 1, Tree: ml.TreeConfig{MTry: 96}})
		if err := f.Fit(ds.X, ds.Y); err != nil {
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
// `gsight-sim -train 200`'s shape — the IPC design matrix of 200 LS+SC
// scenarios (≈ 445 rows × 2836 features) under IRFRFactory's forest
// (40 trees, MTry 96, default worker pool): the largest stage of daemon
// and simulator start-up, and the kernel of every learner flush.
func BenchmarkBootstrapFit(b *testing.B) {
	m := perfmodel.New(resources.DefaultTestbed())
	scenario.FastConfig(m)
	g := scenario.NewGenerator(m, 42)
	coder := core.DefaultCoder()
	var ds ml.Dataset
	for _, o := range bootstrapIPCObservations(b, g, 200) {
		x, err := coder.Encode(o.Target, o.Inputs)
		if err != nil {
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
// benchmarks share: what gsight-serve holds at the end of the repository
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
		m := perfmodel.New(resources.DefaultTestbed())
		scenario.FastConfig(m)
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

// BenchmarkBinarySearchScheduling measures one placement decision of
// the §4 scheduler (the paper reports "a few milliseconds").
func BenchmarkBinarySearchScheduling(b *testing.B) {
	p, obs := trainedPredictor(b)
	spec := resources.DefaultServerSpec("bench")
	scheduler := NewScheduler(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := schedState(spec)
		o := obs[i%len(obs)]
		req := &PlacementRequest{Input: o.Inputs[o.Target], SLA: SLA{MinIPC: 0.5}}
		if _, err := scheduler.Place(st, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulingInstrumented is BenchmarkBinarySearchScheduling
// with a live telemetry sink and decision log attached: same placements,
// and the alloc-neutrality contract (pinned by TestSchedulingAllocNeutral)
// keeps allocs/op identical to the uninstrumented baseline.
func BenchmarkSchedulingInstrumented(b *testing.B) {
	p, obs := trainedPredictor(b)
	spec := resources.DefaultServerSpec("bench")
	scheduler := NewScheduler(p)
	scheduler.Instrument(NewTelemetry().WithDecisions(io.Discard))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := schedState(spec)
		o := obs[i%len(obs)]
		req := &PlacementRequest{Input: o.Inputs[o.Target], SLA: SLA{MinIPC: 0.5}}
		if _, err := scheduler.Place(st, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedScheduling measures one placement proposal through
// the shared state's Propose path at testbed size, where it is exactly
// a direct Place against the backing state. The budget is the same
// 1 alloc/op (the returned placement slice); benchhist -check gates it
// against the history alongside BenchmarkBinarySearchScheduling.
func BenchmarkShardedScheduling(b *testing.B) {
	p, obs := trainedPredictor(b)
	spec := resources.DefaultServerSpec("bench")
	scheduler := NewScheduler(p)
	ss := sched.ShardedStateFromProfiles(spec, 8, 0)
	// One reusable request: inside propose the scheduler is an
	// interface, so a per-iteration literal would escape and charge
	// the caller's allocation to the propose path under test.
	req := &PlacementRequest{SLA: SLA{MinIPC: 0.5}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := obs[i%len(obs)]
		req.Input = o.Inputs[o.Target]
		if _, err := ss.Propose(scheduler, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedPlacement measures the full propose/commit/release
// cycle at cluster scale: 1k and 10k servers. Requests hash to a
// fixed-size home window, so ns/op is bounded by window size rather
// than server count; placements/s is the headline throughput number
// recorded in BENCH_gsight.json.
func BenchmarkShardedPlacement(b *testing.B) {
	p, obs := trainedPredictor(b)
	spec := resources.DefaultServerSpec("bench")
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			scheduler := NewScheduler(p)
			ss := sched.ShardedStateFromProfiles(spec, n, 0)
			names := make([]string, 256)
			for i := range names {
				names[i] = fmt.Sprintf("bench-%03d", i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := obs[i%len(obs)]
				in := o.Inputs[o.Target]
				in.Name = names[i%len(names)]
				req := &PlacementRequest{Input: in, SLA: SLA{MinIPC: 0.5}}
				pl, err := ss.Propose(scheduler, req)
				if err != nil {
					b.Fatal(err)
				}
				in.Placement = pl
				ss.Commit(in, req.SLA)
				if !ss.Release(in.Name) {
					b.Fatal("release failed")
				}
			}
			b.StopTimer()
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

// BenchmarkTwoTierPlacement measures two-tier pruned placement against
// the legacy K=∞ ladder on a contended cluster: 7 of every 8 servers
// hold a latency-sensitive antagonist and the request carries a tight
// MinIPC, so the legacy spread ladder pays 10+ levels of candidate
// scans and inference before it finds a fit, while the pruned path
// places among the tier-0 finalists at level one. Steady state must
// stay within the low-alloc budget (see scripts/bench.sh check).
func BenchmarkTwoTierPlacement(b *testing.B) {
	p, obs := trainedPredictor(b)
	spec := resources.DefaultServerSpec("bench")
	o := obs[0]
	target := o.Inputs[o.Target]
	for _, n := range []int{1000, 10000} {
		st := contendedState(n, 8, obs, spec)
		for _, k := range []int{8, 32, 0} {
			name := fmt.Sprintf("%d", k)
			if k == 0 {
				name = "inf"
			}
			b.Run(fmt.Sprintf("servers=%d/topk=%s", n, name), func(b *testing.B) {
				opts := []Option{}
				if k > 0 {
					opts = append(opts, WithTopK(k))
				}
				scheduler := NewScheduler(p, opts...)
				req := &PlacementRequest{Input: target, SLA: SLA{MinIPC: 0.98}}
				if _, err := scheduler.Place(st, req); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := scheduler.Place(st, req); err != nil {
						b.Fatal(err)
					}
				}
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
	cat := Catalog()
	const durationS = 2 * 3600
	chaos, err := FaultScenario("chaos", 42, durationS, 8)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
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
			StepS:           30,
			Seed:            42,
			Faults:          chaos,
		})
		if err != nil {
			b.Fatal(err)
		}
		if st.FaultEvents == 0 {
			b.Fatal("chaos run injected no faults")
		}
	}
}

// BenchmarkTracedPlatform is BenchmarkFaultyPlatform with the full
// observability recorder attached (lifecycle trace + flight recorder +
// prediction-quality tracking, all draining to io.Discard): the same
// chaos run, so the ns/op delta against BenchmarkFaultyPlatform is the
// whole-run cost of enabled recording. The contract is <15% overhead;
// scripts/bench.sh runs both so the pair lands in the history file.
func BenchmarkTracedPlatform(b *testing.B) {
	cat := Catalog()
	const durationS = 2 * 3600
	chaos, err := FaultScenario("chaos", 42, durationS, 8)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rec := NewRecorder(RecorderConfig{
			Trace: io.Discard, Flight: io.Discard, Servers: 8, StepS: 30,
		})
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
			StepS:           30,
			Seed:            42,
			Faults:          chaos,
			Obs:             rec,
		})
		if err != nil {
			b.Fatal(err)
		}
		if st.FaultEvents == 0 {
			b.Fatal("chaos run injected no faults")
		}
		if rec.Trace().Stream().Records() == 0 || rec.Flight().Stream().Records() == 0 {
			b.Fatal("recorder captured nothing")
		}
	}
}

// BenchmarkEngineStep measures one event dispatch through the
// time-wheel engine at a steady population of self-rescheduling timers
// — the event-queue half of the platform step loop. Expected 0
// allocs/op: fired events recycle through the engine's free list.
func BenchmarkEngineStep(b *testing.B) {
	var e sim.Engine
	const timers = 64
	for i := 0; i < timers; i++ {
		// Incommensurate periods keep the wheel slots churning instead
		// of batching every timer into one slot.
		d := 1.0 + float64(i)*0.37
		var fn func()
		fn = func() { e.After(d, fn) }
		e.After(d, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("engine ran dry")
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
			StepS:           30,
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

// schedState builds a flat 8-server state. The composite literal stays
// stack-allocatable inside benchmark loops (Place takes the *State and
// does not retain it), which the alloc-budget tests rely on.
func schedState(spec resources.ServerSpec) *sched.State {
	caps := make([]resources.Vector, 8)
	for i := range caps {
		caps[i] = spec.Capacity
	}
	return &sched.State{Caps: caps, Used: make([]resources.Vector, 8)}
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

// historyBenches are the start-up micro-benchmarks whose trajectory
// BENCH_gsight.json must keep: scripts/bench.sh has to run them.
var historyBenches = []string{"BenchmarkScenarioEvaluation", "BenchmarkNewCatalog", "BenchmarkBootstrapFit",
	"BenchmarkPredictorCheckpoint", "BenchmarkPredictorRestore"}

// TestBenchRegistryCoverage pins the registry and the bench list to
// each other: every registered experiment must have a Benchmark*
// wrapper (tracked in benchedIDs) and every benched id must still be
// registered. It also pins historyBenches to scripts/bench.sh.
func TestBenchRegistryCoverage(t *testing.T) {
	script, err := os.ReadFile("scripts/bench.sh")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range historyBenches {
		if !strings.Contains(string(script), name+"$") {
			t.Errorf("scripts/bench.sh does not run %s", name)
		}
	}
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
