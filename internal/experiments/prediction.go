package experiments

import (
	"context"
	"fmt"

	"gsight/internal/core"
	"gsight/internal/metrics"
	"gsight/internal/perfmodel"
	"gsight/internal/profile"
	"gsight/internal/rng"
	"gsight/internal/scenario"
	"gsight/internal/sched"
	"gsight/internal/stats"
	"gsight/internal/workload"
)

// Table3Correlations regenerates Table 3: the Pearson and Spearman
// correlations between each candidate metric (collected under
// colocation) and the workload's performance, which drive the
// 16-metric feature screening of §3.2.
func Table3Correlations(ctx context.Context, opt Options) (*Report, error) {
	g := scenario.NewGenerator(scenario.Lab(), opt.Seed)
	m := g.Model
	nScen := opt.n(400, 80)

	// Collect (co-run metric vector, performance) pairs per deployed
	// LS workload: performance is the IPC ratio to solo.
	series := make([][]float64, metrics.NumCandidates)
	var perf []float64
	for i := 0; i < nScen; i++ {
		sc := g.Colocation(core.LSSC, 2+g.Rand().Intn(2))
		res, err := m.Evaluate(sc, g.Rand().Split())
		if err != nil {
			return nil, err
		}
		for di, d := range sc.Deployments {
			if d.W.Class != workload.LS {
				continue
			}
			r := res.Deployments[di]
			ps, ok := g.Store.Get(d.W.Name)
			if !ok {
				continue
			}
			merged := profile.Merged(ps)
			// aggregate slowdown from the per-function results
			var sigmaC, rate float64
			for _, pf := range r.PerFunc {
				sigmaC += pf.Slowdown
			}
			sigmaC /= float64(len(r.PerFunc))
			if d.QPS > 0 {
				rate = r.EffQPS / d.QPS
			} else {
				rate = 1
			}
			load := 1.0
			if d.W.MaxQPS > 0 {
				load = d.QPS / d.W.MaxQPS
			}
			co := profile.CoRun(profile.ScaleLoad(merged.Metrics, load), sigmaC, 1, rate)
			noise := g.Rand().Split()
			for mi := 0; mi < int(metrics.NumCandidates); mi++ {
				// per-window collection noise, as a real 1 Hz perf
				// sampling run exhibits
				series[mi] = append(series[mi], noise.Jitter(co[metrics.ID(mi)], 0.03))
			}
			solo := merged.Metrics[metrics.IPC]
			perf = append(perf, r.IPC/solo)
		}
	}

	r := &Report{
		ID:      "table3",
		Title:   "Correlation between metrics and performance",
		Columns: []string{"metric", "Pearson", "Spearman", "screened"},
	}
	selected := map[metrics.ID]bool{}
	for _, id := range metrics.Selected() {
		selected[id] = true
	}
	for mi := 0; mi < int(metrics.NumCandidates); mi++ {
		id := metrics.ID(mi)
		pear, err := stats.Pearson(series[mi], perf)
		if err != nil {
			return nil, err
		}
		spear, err := stats.Spearman(series[mi], perf)
		if err != nil {
			return nil, err
		}
		mark := "kept"
		if !selected[id] {
			mark = "dropped (|corr|<0.1)"
		}
		r.AddRow(id.String(), f2(pear), f2(spear), mark)
	}
	r.AddNote("the paper keeps 16 of 19 candidates, dropping those with |corr| < 0.1 (our screening drops mlp, memory-io, tx)")
	return r, nil
}

// trainVariants builds the five Gsight model variants of Figures 5
// and 9.
func trainVariants(seed uint64) []core.QoSPredictor {
	return []core.QoSPredictor{
		core.NewVariant("IKNN", core.IKNNFactory, seed+1),
		core.NewVariant("ILR", core.ILRFactory, seed+2),
		core.NewPredictor(core.Config{Seed: seed + 3}), // IRFR
		core.NewVariant("ISVR", core.ISVRFactory, seed+4),
		core.NewVariant("IMLP", core.IMLPFactory, seed+5),
	}
}

// Fig5ProfilingLevel regenerates Figure 5: prediction error
// distributions under function-level vs workload-level profiling,
// trained on the multi-function feature-generation and e-commerce
// workloads and evaluated on the social network, across five learning
// models.
func Fig5ProfilingLevel(ctx context.Context, opt Options) (*Report, error) {
	g := scenario.NewGenerator(scenario.Lab(), opt.Seed)
	// Restrict the generator's LS pool so training never sees the
	// social network.
	g.LSPool = []*workload.Workload{workload.ECommerce()}
	// Strong interferers: the which-function attribution is the signal
	// under study, so the corunners must matter when they land.
	g.SCPool = []*workload.Workload{
		workload.FeatureGeneration(), workload.MatMul(), workload.VideoProcessing(),
	}
	nTrain := opt.n(900, 150)
	nTest := opt.n(200, 40)

	type labeled struct {
		fn core.Observation // function-level encoding inputs
		wl core.Observation // workload-level encoding inputs
	}
	// Targeted-colocation scenarios: the corunner lands exactly beside
	// one randomly chosen function of the LS target — the paper's
	// spatially-varied partial interference, where workload-level
	// profiling cannot tell which function is being squeezed.
	m := g.Model
	collect := func(scenarios int, ls *workload.Workload) ([]labeled, error) {
		var out []labeled
		for i := 0; i < scenarios; i++ {
			d := perfmodel.SpreadDeployment(ls, m.Testbed)
			d.QPS = ls.MaxQPS * g.Rand().Range(0.45, 0.65)
			co := g.SCPool[g.Rand().Intn(len(g.SCPool))]
			c := perfmodel.Beside(co, d, g.Rand().Intn(len(ls.Functions)))
			sc := &perfmodel.Scenario{Deployments: []*perfmodel.Deployment{d, c}}
			samples, err := g.Label(sc)
			if err != nil {
				return nil, err
			}
			for _, s := range samples {
				if s.Kind != core.IPCQoS || s.Inputs[s.Target].Class != workload.LS {
					continue
				}
				// workload-level twin: every input merged
				wlInputs := make([]core.WorkloadInput, len(s.Inputs))
				for j, in := range s.Inputs {
					ps, _ := g.Store.Get(in.Name)
					dep := sc.Deployments[j]
					wlInputs[j] = scenario.InputWorkloadLevel(dep, profile.Merged(ps))
				}
				out = append(out, labeled{
					fn: core.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label},
					wl: core.Observation{Target: s.Target, Inputs: wlInputs, Label: s.Label},
				})
			}
		}
		return out, nil
	}

	// The paper trains on multi-function workload traces (its
	// feature-generation and e-commerce) and evaluates on the unseen
	// social network: generalization rides on the function-level
	// profiles. Two multi-function training targets give the model
	// enough distinct function archetypes to learn the
	// profile -> degradation mapping it must transfer.
	train, err := collect(nTrain/2, workload.ECommerce())
	if err != nil {
		return nil, err
	}
	trainML, err := collect(nTrain/2, workload.MLServing())
	if err != nil {
		return nil, err
	}
	train = append(train, trainML...)
	test, err := collect(nTest, workload.SocialNetwork())
	if err != nil {
		return nil, err
	}
	split := func(ls []labeled, fn bool) []core.Observation {
		out := make([]core.Observation, len(ls))
		for i, l := range ls {
			if fn {
				out[i] = l.fn
			} else {
				out[i] = l.wl
			}
		}
		return out
	}

	r := &Report{
		ID:      "fig5",
		Title:   "Function-level vs workload-level profiling (IPC error on unseen social network)",
		Columns: []string{"model", "fn-level median", "fn-level mean", "wl-level median", "wl-level mean", "wl/fn median"},
	}
	var fnMedians, wlMedians []float64
	// One fresh variant set learns function-level codes, the other
	// workload-level ones.
	fnPreds, wlPreds := trainVariants(opt.Seed), trainVariants(opt.Seed)
	for i, name := range []string{"IKNN", "ILR", "IRFR", "ISVR", "IMLP"} {
		pf := fnPreds[i]
		if err := pf.TrainObservations(core.IPCQoS, split(train, true)); err != nil {
			return nil, err
		}
		fnErrs, err := ErrsOf(pf, core.IPCQoS, split(test, true))
		if err != nil {
			return nil, err
		}
		pw := wlPreds[i]
		if err := pw.TrainObservations(core.IPCQoS, split(train, false)); err != nil {
			return nil, err
		}
		wlErrs, err := ErrsOf(pw, core.IPCQoS, split(test, false))
		if err != nil {
			return nil, err
		}
		fnMed, wlMed := stats.Median(fnErrs), stats.Median(wlErrs)
		fnMedians = append(fnMedians, fnMed)
		wlMedians = append(wlMedians, wlMed)
		r.AddRow(name, pct(fnMed), pct(stats.Mean(fnErrs)), pct(wlMed), pct(stats.Mean(wlErrs)),
			f2(wlMed/fnMed))
	}
	r.AddNote("paper: function-level medians are ~2x lower (up to 4x) than workload-level; measured mean ratio %.1fx",
		stats.Mean(wlMedians)/stats.Mean(fnMedians))
	return r, nil
}

// Fig7Knee regenerates Figure 7: the latency-IPC correlation curve of
// an LS service, with its knee.
func Fig7Knee(ctx context.Context, opt Options) (*Report, error) {
	m := scenario.Lab()
	sn := workload.SocialNetwork()
	curve := sched.BuildCurve(m, sn, opt.n(400, 80), opt.Seed)
	pts := curve.Points()

	r := &Report{
		ID:      "fig7",
		Title:   "Latency-IPC curve for the social network (bucketed)",
		Columns: []string{"IPC bucket", "samples", "mean p99 (ms)", "p99 CoV"},
	}
	lo, hi := pts[0].IPC, pts[len(pts)-1].IPC
	const buckets = 8
	width := (hi - lo) / buckets
	for b := 0; b < buckets; b++ {
		var lats []float64
		for _, p := range pts {
			if p.IPC >= lo+float64(b)*width && p.IPC < lo+float64(b+1)*width+1e-12 {
				lats = append(lats, p.P99Ms)
			}
		}
		if len(lats) == 0 {
			continue
		}
		r.AddRow(fmt.Sprintf("%.2f-%.2f", lo+float64(b)*width, lo+float64(b+1)*width),
			fmt.Sprintf("%d", len(lats)), f1(stats.Mean(lats)), f2(stats.CoV(lats)))
	}
	minIPC, ok := curve.MinIPCFor(sn.SLAp99Ms)
	if ok {
		r.AddNote("SLA transform: p99 <= %.0f ms maps to IPC >= %.2f (§6.3's latency->IPC conversion)", sn.SLAp99Ms, minIPC)
	}
	// Knee: the lowest IPC quartile lives in an exploded, volatile
	// latency regime; the highest quartile sits in a tight band that
	// the SLA transform can invert (Figure 7's message).
	q := len(pts) / 4
	if q > 0 {
		var loLat, hiLat []float64
		for i := 0; i < q; i++ {
			loLat = append(loLat, pts[i].P99Ms)
			hiLat = append(hiLat, pts[len(pts)-1-i].P99Ms)
		}
		r.AddNote("knee: mean p99 %.0f ms (CoV %.2f) in the lowest IPC quartile vs %.0f ms (CoV %.2f) in the highest",
			stats.Mean(loLat), stats.CoV(loLat), stats.Mean(hiLat), stats.CoV(hiLat))
	}
	return r, nil
}

// Fig8Importance regenerates Figure 8: the impurity-based importance of
// the 16 input metrics in the trained IRFR model.
func Fig8Importance(ctx context.Context, opt Options) (*Report, error) {
	g := scenario.NewGenerator(scenario.Lab(), opt.Seed)
	all, err := CollectObs(ctx, g, core.LSSC, core.IPCQoS, opt.n(700, 120), 3)
	if err != nil {
		return nil, err
	}
	// The scheduling model predicts LS QoS; importance is reported for
	// it (SC-target samples would make disk contention look
	// informative through dd's own JCT).
	var obs []core.Observation
	for _, o := range all {
		if o.Inputs[o.Target].Class == workload.LS {
			obs = append(obs, o)
		}
	}
	p := core.NewPredictor(core.Config{Seed: opt.Seed})
	if err := p.TrainObservations(core.IPCQoS, obs); err != nil {
		return nil, err
	}
	imp := p.MetricImportance(core.IPCQoS)
	r := &Report{
		ID:      "fig8",
		Title:   "Impurity-based importance of the 16 metrics (IRFR, IPC model)",
		Columns: []string{"metric", "importance"},
	}
	sel := metrics.Selected()
	minIdx := 0
	for i, id := range sel {
		r.AddRow(id.String(), fmt.Sprintf("%.4f", imp[i]))
		if imp[i] < imp[minIdx] {
			minIdx = i
		}
	}
	r.AddNote("least informative input: %s (paper: disk IO is the one uninformative metric)", sel[minIdx])
	return r, nil
}

// Fig9PredictionError regenerates Figure 9: IPC and tail-latency (JCT
// for SC+SC/BG) prediction errors of the five Gsight model variants and
// the Pythia/ESP baselines across the three colocation forms.
func Fig9PredictionError(ctx context.Context, opt Options) (*Report, error) {
	g := scenario.NewGenerator(scenario.Lab(), opt.Seed)
	r := &Report{
		ID:      "fig9",
		Title:   "Prediction error by model and colocation",
		Columns: []string{"colocation", "QoS", "IKNN", "ILR", "IRFR", "ISVR", "IMLP", "Pythia", "ESP"},
	}
	nScen := opt.n(2500, 250)
	kinds := []struct {
		colo core.ColocationKind
		qos  []core.QoSKind
	}{
		{core.LSLS, []core.QoSKind{core.IPCQoS, core.TailLatencyQoS}},
		{core.LSSC, []core.QoSKind{core.IPCQoS, core.TailLatencyQoS}},
		{core.SCSC, []core.QoSKind{core.IPCQoS, core.JCTQoS}},
	}
	var irfrLSSC float64
	for _, k := range kinds {
		for _, qos := range k.qos {
			obs, err := CollectObs(ctx, g, k.colo, qos, nScen, 3)
			if err != nil {
				return nil, err
			}
			// The paper's Figure 9 predicts the latency-sensitive
			// workload's QoS in LS-bearing colocations (SC corunners
			// are judged by JCT, the SC+SC/BG row).
			if k.colo != core.SCSC {
				filtered := obs[:0]
				for _, o := range obs {
					if o.Inputs[o.Target].Class == workload.LS {
						filtered = append(filtered, o)
					}
				}
				obs = filtered
			}
			train, test := TrainTest(obs, 5)
			preds := trainVariants(opt.Seed)
			preds = append(preds, core.NewPythia(opt.Seed+10), core.NewESP(opt.Seed+11))
			row := []string{k.colo.String(), qos.String()}
			for pi, p := range preds {
				if err := p.TrainObservations(qos, train); err != nil {
					return nil, err
				}
				e, err := mapeOf(p, qos, test)
				if err != nil {
					return nil, err
				}
				row = append(row, pct(e))
				if pi == 2 && k.colo == core.LSSC && qos == core.IPCQoS {
					irfrLSSC = e
					errs, err := ErrsOf(p, qos, test)
					if err != nil {
						return nil, err
					}
					lo, hi, err := stats.BootstrapCI(errs, 1000, 0.95, rng.Stream(opt.Seed, "fig9-ci"))
					if err == nil {
						r.AddNote("IRFR LS+SC/BG IPC error 95%% bootstrap CI: [%s, %s]", pct(lo), pct(hi))
					}
				}
			}
			r.AddRow(row...)
		}
	}
	r.AddNote("IRFR IPC error under LS+SC/BG: %s (paper: 1.71%%); paper finds IRFR best, Pythia/ESP clearly worse, tail latency hardest", pct(irfrLSSC))
	return r, nil
}

// convergenceTrack trains a fresh IRFR predictor incrementally in
// batches and records the test error after each cumulative sample
// count.
func convergenceTrack(p core.QoSPredictor, train, test []core.Observation, checkpoints []int) ([]float64, error) {
	var errs []float64
	prev := 0
	for _, cp := range checkpoints {
		if cp > len(train) {
			cp = len(train)
		}
		batch := train[prev:cp]
		prev = cp
		if len(batch) > 0 {
			for _, o := range batch {
				if err := p.Observe(core.IPCQoS, o.Target, o.Inputs, o.Label); err != nil {
					return nil, err
				}
			}
			if err := p.Flush(core.IPCQoS); err != nil {
				return nil, err
			}
		}
		e, err := mapeOf(p, core.IPCQoS, test)
		if err != nil {
			return nil, err
		}
		errs = append(errs, e)
	}
	return errs, nil
}

// Fig10aConvergence regenerates Figure 10(a): incremental-learning
// convergence with serverless (function-level) vs serverful
// (workload-level) samples.
func Fig10aConvergence(ctx context.Context, opt Options) (*Report, error) {
	g := scenario.NewGenerator(scenario.Lab(), opt.Seed)
	nScen := opt.n(2500, 260)
	checkFracs := []float64{1. / 8, 2. / 8, 3. / 8, 4. / 8, 5. / 8, 6. / 8, 7. / 8, 1}

	var fnObs, wlObs []core.Observation
	for i := 0; i < nScen; i++ {
		sc := g.Colocation(core.LSSC, 2)
		samples, err := g.Label(sc)
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			if s.Kind != core.IPCQoS {
				continue
			}
			fnObs = append(fnObs, core.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label})
			wl := make([]core.WorkloadInput, len(s.Inputs))
			for j, in := range s.Inputs {
				ps, _ := g.Store.Get(in.Name)
				wl[j] = scenario.InputWorkloadLevel(sc.Deployments[j], profile.Merged(ps))
			}
			wlObs = append(wlObs, core.Observation{Target: s.Target, Inputs: wl, Label: s.Label})
		}
	}
	fnTrain, fnTest := TrainTest(fnObs, 6)
	wlTrain, wlTest := TrainTest(wlObs, 6)
	var checkpoints []int
	for _, f := range checkFracs {
		checkpoints = append(checkpoints, int(f*float64(len(fnTrain))))
	}

	fnErrs, err := convergenceTrack(core.NewPredictor(core.Config{Seed: opt.Seed, UpdateEvery: 1 << 30}), fnTrain, fnTest, checkpoints)
	if err != nil {
		return nil, err
	}
	wlErrs, err := convergenceTrack(core.NewPredictor(core.Config{Seed: opt.Seed + 1, UpdateEvery: 1 << 30}), wlTrain, wlTest, checkpoints)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:      "fig10a",
		Title:   "Incremental convergence: serverless (function-level) vs serverful (workload-level)",
		Columns: []string{"samples", "serverless error", "serverful error"},
	}
	for i, cp := range checkpoints {
		r.AddRow(fmt.Sprintf("%d", cp), pct(fnErrs[i]), pct(wlErrs[i]))
	}
	// Convergence speedup: samples the serverful track needs to reach
	// the serverless error at the first checkpoint.
	speedup := float64(len(wlTrain)) / float64(checkpoints[0])
	for i, e := range wlErrs {
		if e <= fnErrs[0] {
			speedup = float64(checkpoints[i]) / float64(checkpoints[0])
			break
		}
	}
	r.AddNote("paper: serverless errors 3.41/2.55/2.09%% at 1k/2k/3k vs serverful 6.5/4.74/3.75%%; convergence >=3x faster")
	r.AddNote("measured convergence advantage: serverful needs >=%.1fx the samples to match the first serverless checkpoint", speedup)
	return r, nil
}

// Fig10bStability regenerates Figure 10(b): error stability of IRFR as
// samples accumulate.
func Fig10bStability(ctx context.Context, opt Options) (*Report, error) {
	g := scenario.NewGenerator(scenario.Lab(), opt.Seed)
	obs, err := CollectObs(ctx, g, core.LSSC, core.IPCQoS, opt.n(3600, 350), 2)
	if err != nil {
		return nil, err
	}
	train, test := TrainTest(obs, 6)
	var checkpoints []int
	for f := 1; f <= 6; f++ {
		checkpoints = append(checkpoints, len(train)*f/6)
	}
	errs, err := convergenceTrack(core.NewPredictor(core.Config{Seed: opt.Seed, UpdateEvery: 1 << 30}), train, test, checkpoints)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "fig10b",
		Title:   "IRFR stability after convergence",
		Columns: []string{"samples", "error"},
	}
	for i, cp := range checkpoints {
		r.AddRow(fmt.Sprintf("%d", cp), pct(errs[i]))
	}
	last, first := errs[len(errs)-1], errs[0]
	r.AddNote("paper: error stays below 2.09%% after 3k samples, approaching 1%% at 9k; measured %.2f%% -> %.2f%%", 100*first, 100*last)
	if last > first {
		r.AddNote("warning: error did not improve with more samples")
	}
	return r, nil
}

// Fig10cMultiWorkload regenerates Figure 10(c): prediction error vs the
// number of colocated workloads.
func Fig10cMultiWorkload(ctx context.Context, opt Options) (*Report, error) {
	g := scenario.NewGenerator(scenario.Lab(), opt.Seed)
	nScen := opt.n(1800, 150)

	ks := []int{2, 4, 6, 8, 10}
	byK := map[int][]core.Observation{}
	var all []core.Observation
	for _, k := range ks {
		for i := 0; i < nScen/5+1; i++ {
			sc := g.Colocation(core.LSLS, k)
			samples, err := g.Label(sc)
			if err != nil {
				return nil, err
			}
			for _, s := range samples {
				if s.Kind != core.IPCQoS {
					continue
				}
				o := core.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label}
				byK[k] = append(byK[k], o)
				all = append(all, o)
			}
		}
	}
	var train []core.Observation
	test := map[int][]core.Observation{}
	for _, k := range ks { // not the map: the training order decides the forest
		tr, te := TrainTest(byK[k], 5)
		train = append(train, tr...)
		test[k] = te
	}
	p := core.NewPredictor(core.Config{Seed: opt.Seed})
	if err := p.TrainObservations(core.IPCQoS, train); err != nil {
		return nil, err
	}

	r := &Report{
		ID:      "fig10c",
		Title:   "Prediction error vs number of colocated workloads (LS+LS, IPC)",
		Columns: []string{"workloads", "test samples", "error"},
	}
	var worst float64
	for _, k := range ks {
		e, err := mapeOf(p, core.IPCQoS, test[k])
		if err != nil {
			return nil, err
		}
		if e > worst {
			worst = e
		}
		r.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%d", len(test[k])), pct(e))
	}
	r.AddNote("paper: error stays below 3%% for any number of colocated workloads; measured worst %.2f%%", 100*worst)
	return r, nil
}

// Fig13Recovery regenerates Figure 13: the predictor trained only on
// I/O-intensive workloads mispredicts CPU-intensive ones badly, then
// recovers after ~1k incremental samples.
func Fig13Recovery(ctx context.Context, opt Options) (*Report, error) {
	m := scenario.Lab()
	ioGen := scenario.NewGenerator(m, opt.Seed)
	ioGen.LSPool = []*workload.Workload{workload.SocialNetwork(), workload.ECommerce()}
	ioGen.SCPool = []*workload.Workload{workload.DD(), workload.Iperf(), workload.DataPipeline()}
	cpuGen := scenario.NewGenerator(m, opt.Seed+1)
	cpuGen.LSPool = []*workload.Workload{workload.MLServing()}
	cpuGen.SCPool = []*workload.Workload{workload.MatMul(), workload.FloatOp(), workload.VideoProcessing()}

	ioObs, err := CollectObs(ctx, ioGen, core.LSSC, core.IPCQoS, opt.n(900, 150), 2)
	if err != nil {
		return nil, err
	}
	cpuObs, err := CollectObs(ctx, cpuGen, core.LSSC, core.IPCQoS, opt.n(900, 200), 2)
	if err != nil {
		return nil, err
	}
	cpuTrain, cpuTest := TrainTest(cpuObs, 4)

	// Two arms: the paper's absolute-target model (its 43.9% shift is
	// exactly the 1.6x IPC scale difference between the regimes), and
	// this reproduction's default ratio-normalized model, which
	// largely absorbs the shift — an ablation of the normalization.
	abs := core.NewPredictor(core.Config{Seed: opt.Seed, UpdateEvery: 1 << 30, AbsoluteTargets: true})
	norm := core.NewPredictor(core.Config{Seed: opt.Seed, UpdateEvery: 1 << 30})
	for _, p := range []*core.Predictor{abs, norm} {
		if err := p.TrainObservations(core.IPCQoS, ioObs); err != nil {
			return nil, err
		}
	}
	absBefore, err := mapeOf(abs, core.IPCQoS, cpuTest)
	if err != nil {
		return nil, err
	}
	normBefore, err := mapeOf(norm, core.IPCQoS, cpuTest)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:      "fig13",
		Title:   "Concept-shift recovery: trained on I/O-intensive, predicting CPU-intensive",
		Columns: []string{"incremental samples", "absolute targets (paper's model)", "ratio-normalized (this repo's default)"},
	}
	r.AddRow("0", pct(absBefore), pct(normBefore))
	var absAfter float64
	batches := 4
	for b := 0; b < batches; b++ {
		lo, hi := b*len(cpuTrain)/batches, (b+1)*len(cpuTrain)/batches
		for _, o := range cpuTrain[lo:hi] {
			if err := abs.Observe(core.IPCQoS, o.Target, o.Inputs, o.Label); err != nil {
				return nil, err
			}
			if err := norm.Observe(core.IPCQoS, o.Target, o.Inputs, o.Label); err != nil {
				return nil, err
			}
		}
		for _, p := range []*core.Predictor{abs, norm} {
			if err := p.Flush(core.IPCQoS); err != nil {
				return nil, err
			}
		}
		absAfter, err = mapeOf(abs, core.IPCQoS, cpuTest)
		if err != nil {
			return nil, err
		}
		normAfter, err := mapeOf(norm, core.IPCQoS, cpuTest)
		if err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprintf("%d", hi), pct(absAfter), pct(normAfter))
	}
	r.AddNote("paper: 43.9%% error before the update, 4.6%% after ~1k samples; measured (absolute mode) %.1f%% -> %.1f%%", 100*absBefore, 100*absAfter)
	r.AddNote("ablation: ratio normalization absorbs most of the regime shift up front (%.1f%% before any update)", 100*normBefore)
	return r, nil
}
