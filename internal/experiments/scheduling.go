package experiments

import (
	"context"
	"fmt"
	"time"

	"gsight/internal/baselines"
	"gsight/internal/core"
	"gsight/internal/perfmodel"
	"gsight/internal/platform"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/sched"
	"gsight/internal/stats"
	"gsight/internal/trace"
	"gsight/internal/workload"
)

// scheduleStudy runs the trace-driven platform under the three
// schedulers of §6.3 — Gsight (binary-search, Gsight predictor), Best
// Fit (Pythia's policy and predictor), and Worst Fit — and returns the
// per-scheduler stats.
func scheduleStudy(ctx context.Context, opt Options) (map[string]*platform.Stats, error) {
	m, g := newLab(opt)

	// Train the two predictors on the same bootstrap dataset.
	obs, err := collectObs(ctx, g, core.LSSC, core.IPCQoS, opt.n(1200, 180), 3)
	if err != nil {
		return nil, err
	}
	jctObs, err := collectObs(ctx, g, core.SCSC, core.JCTQoS, opt.n(500, 80), 2)
	if err != nil {
		return nil, err
	}
	gsightP := core.NewPredictor(core.Config{Seed: opt.Seed})
	if err := gsightP.TrainObservations(core.IPCQoS, obs); err != nil {
		return nil, err
	}
	if err := gsightP.TrainObservations(core.JCTQoS, jctObs); err != nil {
		return nil, err
	}
	pythiaP := baselines.NewPythia(opt.Seed + 1)
	if err := pythiaP.TrainObservations(core.IPCQoS, obs); err != nil {
		return nil, err
	}
	if err := pythiaP.TrainObservations(core.JCTQoS, jctObs); err != nil {
		return nil, err
	}

	// SLAs via the Figure 7 latency->IPC transform.
	services := func() []platform.LSService {
		var out []platform.LSService
		lsPool := []*workload.Workload{
			workload.SocialNetwork(), workload.ECommerce(), workload.MLServing(),
		}
		floors := sched.CalibrateMinIPC(m, lsPool, opt.n(250, 60), opt.Seed)
		for i, w := range lsPool {
			p := trace.DefaultPattern(w.MaxQPS * 0.42)
			// Softer diurnal swing than the default: the paper's
			// cluster keeps headroom at peak; saturating all eight
			// nodes would flatten every scheduler into full spread.
			p.DiurnalAmp = 0.30
			p.PhaseShift = float64(i) * 7200
			out = append(out, platform.LSService{
				W:       w,
				Pattern: p,
				SLA:     sched.SLA{MinIPC: floors[i]},
			})
		}
		return out
	}

	scPool := []*workload.Workload{
		workload.MatMul(), workload.DD(), workload.Iperf(),
		workload.VideoProcessing(), workload.FloatOp(),
		workload.FeatureGeneration(), workload.DataPipeline(),
		workload.IoTCollector(), workload.Monitor(),
	}

	duration := 86400 * opt.Scale
	if duration < 7200 {
		duration = 7200
	}
	// The three scheduler runs are independent: each gets its own model,
	// scheduler (placement scratch is per-scheduler) and service set, all
	// built sequentially, and platform.Run derives its randomness from
	// Seed. They fan out across the worker pool with no shared mutable
	// state — the per-run predictors are only read during placement.
	entries := []struct {
		name string
		s    sched.Scheduler
	}{
		{"Gsight", sched.NewGsight(gsightP)},
		{"Pythia", sched.NewBestFit(pythiaP)},
		{"WorstFit", sched.NewWorstFit()},
	}
	svcSets := make([][]platform.LSService, len(entries))
	for i := range entries {
		svcSets[i] = services()
	}
	results := make([]*platform.Stats, len(entries))
	err = forEach(ctx, len(entries), func(i int) error {
		st, err := platform.Run(ctx, platform.Config{
			Model:           perfmodel.New(m.Testbed),
			Scheduler:       entries[i].s,
			Services:        svcSets[i],
			SCPool:          scPool,
			SCMeanIntervalS: 180,
			DurationS:       duration,
			StepS:           30,
			Seed:            opt.Seed,
		})
		if err != nil {
			return fmt.Errorf("experiments: %s run: %w", entries[i].name, err)
		}
		st.SchedulerName = entries[i].name
		results[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]*platform.Stats{}
	for i, entry := range entries {
		out[entry.name] = results[i]
	}
	return out, nil
}

// cdfRow summarizes a series for the Figure 11 CDFs.
func cdfRow(name string, xs []float64) []string {
	if len(xs) == 0 {
		return []string{name, "-", "-", "-", "-", "-"}
	}
	s := stats.Summarize(xs)
	return []string{name, f2(s.Mean), f2(stats.Percentile(xs, 10)), f2(s.Median), f2(stats.Percentile(xs, 90)), f2(s.Max)}
}

// Fig11Scheduling regenerates Figure 11: function density, CPU
// utilization and memory utilization under the three schedulers.
func Fig11Scheduling(ctx context.Context, opt Options) (*Report, error) {
	runs, err := scheduleStudy(ctx, opt)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "fig11",
		Title:   "Scheduling results: density and utilization (per-step series summary)",
		Columns: []string{"series", "mean", "p10", "median", "p90", "max"},
	}
	for _, name := range []string{"Gsight", "Pythia", "WorstFit"} {
		st := runs[name]
		r.AddRow(cdfRow(name+" density (inst/core)", st.Density)...)
	}
	for _, name := range []string{"Gsight", "Pythia", "WorstFit"} {
		st := runs[name]
		r.AddRow(cdfRow(name+" CPU util", st.CPUUtil)...)
	}
	for _, name := range []string{"Gsight", "Pythia", "WorstFit"} {
		st := runs[name]
		r.AddRow(cdfRow(name+" mem util", st.MemUtil)...)
	}
	for _, name := range []string{"Gsight", "Pythia", "WorstFit"} {
		st := runs[name]
		r.AddRow(cdfRow(name+" QoS-compliant density", st.GoodDensity)...)
	}
	gg, pg, wg := stats.Mean(runs["Gsight"].GoodDensity), stats.Mean(runs["Pythia"].GoodDensity), stats.Mean(runs["WorstFit"].GoodDensity)
	r.AddNote("QoS-compliant density (density x in-SLA fraction): Gsight +%.1f%% vs Pythia, +%.1f%% vs WorstFit — the abstract's \"improve density while guaranteeing QoS\"",
		100*(gg/pg-1), 100*(gg/wg-1))
	gd, pd, wd := stats.Mean(runs["Gsight"].Density), stats.Mean(runs["Pythia"].Density), stats.Mean(runs["WorstFit"].Density)
	gc, pc, wc := stats.Mean(runs["Gsight"].CPUUtil), stats.Mean(runs["Pythia"].CPUUtil), stats.Mean(runs["WorstFit"].CPUUtil)
	gm, pm, wm := stats.Mean(runs["Gsight"].MemUtil), stats.Mean(runs["Pythia"].MemUtil), stats.Mean(runs["WorstFit"].MemUtil)
	r.AddNote("density: Gsight +%.1f%% vs Pythia, +%.1f%% vs WorstFit (paper: +18.79%% / +48.48%%)",
		100*(gd/pd-1), 100*(gd/wd-1))
	r.AddNote("CPU util: Gsight +%.1f%% vs Pythia, +%.1f%% vs WorstFit (paper: +30.02%% / +67.51%%)",
		100*(gc/pc-1), 100*(gc/wc-1))
	r.AddNote("memory util: Gsight +%.1f%% vs Pythia, +%.1f%% vs WorstFit (paper: +31.04%% / +76.91%%)",
		100*(gm/pm-1), 100*(gm/wm-1))
	r.AddNote("mean active servers: Gsight %.1f, Pythia %.1f, WorstFit %.1f (of 8)",
		stats.Mean(runs["Gsight"].ActiveServers), stats.Mean(runs["Pythia"].ActiveServers),
		stats.Mean(runs["WorstFit"].ActiveServers))
	r.AddNote("migrations: Gsight %d, Pythia %d, WorstFit %d; cold starts: %d/%d/%d",
		runs["Gsight"].Migrations, runs["Pythia"].Migrations, runs["WorstFit"].Migrations,
		runs["Gsight"].ColdStarts, runs["Pythia"].ColdStarts, runs["WorstFit"].ColdStarts)
	return r, nil
}

// Fig12SLA regenerates Figure 12: the fraction of time each LS service
// stays within its SLA under Gsight scheduling.
func Fig12SLA(ctx context.Context, opt Options) (*Report, error) {
	runs, err := scheduleStudy(ctx, opt)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "fig12",
		Title:   "SLA guarantee ratio over the trace-driven run",
		Columns: []string{"scheduler", "workload", "SLA p99 (ms)", "within-SLA time"},
	}
	slaOf := map[string]float64{
		"social-network": workload.SocialNetwork().SLAp99Ms,
		"e-commerce":     workload.ECommerce().SLAp99Ms,
	}
	for _, name := range []string{"Gsight", "Pythia", "WorstFit"} {
		st := runs[name]
		for _, w := range []string{"social-network", "e-commerce"} {
			r.AddRow(name, w, f0(slaOf[w]), pct(st.SLARatio(w)))
		}
	}
	r.AddNote("paper (Gsight): social network within SLA 95.39%% of the time, e-commerce 93.33%%")
	r.AddNote("measured Gsight: social network %s, e-commerce %s",
		pct(runs["Gsight"].SLARatio("social-network")), pct(runs["Gsight"].SLARatio("e-commerce")))
	return r, nil
}

// Fig14Overhead regenerates Figure 14: the online running cost —
// inference and incremental-update wall-clock, and the per-component
// breakdown of scheduling operations as the instance count grows.
func Fig14Overhead(ctx context.Context, opt Options) (*Report, error) {
	m, g := newLab(opt)

	obs, err := collectObs(ctx, g, core.LSSC, core.IPCQoS, opt.n(600, 120), 3)
	if err != nil {
		return nil, err
	}
	p := core.NewPredictor(core.Config{Seed: opt.Seed, UpdateEvery: 100})
	train, test := trainTest(obs, 5)
	if err := p.TrainObservations(core.IPCQoS, train); err != nil {
		return nil, err
	}

	// Inference latency.
	iter := opt.n(300, 60)
	t0 := time.Now()
	count := 0
	for count < iter {
		for _, o := range test {
			_, err := p.Predict(core.IPCQoS, o.Target, o.Inputs)
			if err != nil {
				return nil, err
			}
			count++
			if count >= iter {
				break
			}
		}
	}
	inferMs := float64(time.Since(t0).Microseconds()) / 1000 / float64(iter)

	// Incremental update latency (per batched update of 100).
	t0 = time.Now()
	updates := 0
	for _, o := range train {
		if err := p.Observe(core.IPCQoS, o.Target, o.Inputs, o.Label); err != nil {
			return nil, err
		}
		if p.SamplesSeen(core.IPCQoS)%100 == 0 {
			updates++
		}
		if updates >= 3 {
			break
		}
	}
	updateTotal := time.Since(t0)
	if updates == 0 {
		updates = 1
	}
	updateMs := float64(updateTotal.Microseconds()) / 1000 / float64(updates)

	r := &Report{
		ID:    "fig14",
		Title: "Online running cost and scalability",
		Columns: []string{"instances", "forwarding (ms)", "scheduling (ms)", "instance start (ms)",
			"resource alloc (ms)"},
	}

	// Component breakdown vs instance count: forwarding through the
	// gateway model, scheduling decision wall-clock, cold-start time,
	// and per-instance resource-allocation actuation (~2 ms of cgroup
	// + RDT programming per instance).
	sn := workload.SocialNetwork()
	spec := m.Testbed.Servers[0]
	for _, instances := range []int{10, 40, 80, 110, 140, 170} {
		// forwarding: per-invocation gateway latency at this scale
		gwBase := m.Cfg.GatewayBaseMs
		ex := (float64(instances) - m.Cfg.GatewayKneeInst) / m.Cfg.GatewayInstSlope
		gw := gwBase
		if ex > 0 {
			gw *= 1 + ex*ex
		}
		// scheduling decision: place a workload onto a cluster with
		// that many instances resident, measured.
		st := sched.StateFromProfiles(spec, m.Testbed.NumServers())
		seedIn := platformInput(sn, instances, spec)
		st.Commit(seedIn, sched.SLA{})
		gs := sched.NewGsight(p)
		req := &sched.Request{Input: platformInput(workload.ECommerce(), 6, spec), SLA: sched.SLA{MinIPC: 0.5}}
		t0 := time.Now()
		if _, err := gs.Place(st, req); err != nil {
			return nil, err
		}
		schedMs := float64(time.Since(t0).Microseconds()) / 1000
		// instance start: mean cold start across the workload's functions
		var cold float64
		for _, f := range sn.Functions {
			cold += f.ColdStartMs
		}
		cold /= float64(len(sn.Functions))
		r.AddRow(fmt.Sprintf("%d", instances), f2(gw), f2(schedMs), f0(cold), f2(2.0))
	}
	r.AddNote("measured inference %.2f ms (paper: 3.48 ms), incremental update %.1f ms per batch (paper: 24.78 ms)", inferMs, updateMs)
	r.AddNote("forwarding degrades sharply past ~%d instances — the paper's gateway bottleneck at ~120", int(m.Cfg.GatewayKneeInst))
	return r, nil
}

// platformInput builds a scheduler input whose replica counts sum to
// roughly the requested instance total.
func platformInput(w *workload.Workload, instances int, spec resources.ServerSpec) core.WorkloadInput {
	in := core.WorkloadInput{
		Name:      w.Name,
		Class:     w.Class,
		Profiles:  profile.WorkloadProfiles(w, spec, nil),
		Placement: make([]int, len(w.Functions)),
		Replicas:  make([]int, len(w.Functions)),
		QPSFrac:   0.5,
	}
	per := instances / len(w.Functions)
	if per < 1 {
		per = 1
	}
	for f := range w.Functions {
		in.Replicas[f] = per
	}
	return in
}
