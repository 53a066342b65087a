package experiments

import (
	"context"
	"fmt"

	"gsight/internal/core"
	"gsight/internal/faults"
	"gsight/internal/perfmodel"
	"gsight/internal/platform"
	"gsight/internal/sched"
	"gsight/internal/stats"
	"gsight/internal/trace"
	"gsight/internal/workload"
)

// ExtResilience quantifies how the platform behaves under injected
// faults: the same Gsight-scheduled trace-driven run is repeated under
// each named fault scenario (node crashes, stragglers, cold-start
// storms, predictor outages and their combination) and compared to the
// healthy baseline on SLA-guarantee ratio, density, QoS-compliant
// density and the resilience counters. The paper evaluates scheduling
// on a healthy cluster; this extension measures how far prediction-led
// packing degrades — and how gracefully — when the cluster misbehaves.
func ExtResilience(ctx context.Context, opt Options) (*Report, error) {
	m, g := newLab(opt)

	obs, err := collectObs(ctx, g, core.LSSC, core.IPCQoS, opt.n(900, 150), 3)
	if err != nil {
		return nil, err
	}
	jctObs, err := collectObs(ctx, g, core.SCSC, core.JCTQoS, opt.n(400, 70), 2)
	if err != nil {
		return nil, err
	}
	p := core.NewPredictor(core.Config{Seed: opt.Seed})
	if err := p.TrainObservations(core.IPCQoS, obs); err != nil {
		return nil, err
	}
	if err := p.TrainObservations(core.JCTQoS, jctObs); err != nil {
		return nil, err
	}

	services := func() []platform.LSService {
		var out []platform.LSService
		lsPool := []*workload.Workload{
			workload.SocialNetwork(), workload.ECommerce(), workload.MLServing(),
		}
		floors := sched.CalibrateMinIPC(m, lsPool, opt.n(250, 60), opt.Seed)
		for i, w := range lsPool {
			pat := trace.DefaultPattern(w.MaxQPS * 0.42)
			pat.DiurnalAmp = 0.30
			pat.PhaseShift = float64(i) * 7200
			out = append(out, platform.LSService{W: w, Pattern: pat, SLA: sched.SLA{MinIPC: floors[i]}})
		}
		return out
	}
	scPool := []*workload.Workload{
		workload.MatMul(), workload.DD(), workload.VideoProcessing(),
		workload.FeatureGeneration(), workload.DataPipeline(),
	}

	duration := 43200 * opt.Scale
	if duration < 7200 {
		duration = 7200
	}
	scenarios := append([]string{"baseline"}, faults.Names()...)
	schedules := make([]*faults.Schedule, len(scenarios))
	for i, name := range scenarios {
		if name == "baseline" {
			continue
		}
		fs, err := faults.Scenario(name, opt.Seed, duration, m.Testbed.NumServers())
		if err != nil {
			return nil, err
		}
		schedules[i] = fs
	}
	svcSets := make([][]platform.LSService, len(scenarios))
	for i := range scenarios {
		svcSets[i] = services()
	}
	results := make([]*platform.Stats, len(scenarios))
	err = forEach(ctx, len(scenarios), func(i int) error {
		st, err := platform.Run(ctx, platform.Config{
			Model:           perfmodel.New(m.Testbed),
			Scheduler:       sched.NewGsight(p),
			Services:        svcSets[i],
			SCPool:          scPool,
			SCMeanIntervalS: 180,
			DurationS:       duration,
			StepS:           30,
			Seed:            opt.Seed,
			Faults:          schedules[i],
		})
		if err != nil {
			return fmt.Errorf("experiments: resilience %s run: %w", scenarios[i], err)
		}
		results[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:    "ext-resilience",
		Title: "Fault injection: SLA and density under partial cluster failures (Gsight scheduler)",
		Columns: []string{"scenario", "SLA ratio", "density", "QoS density",
			"degraded steps", "displaced", "rejected", "faults"},
	}
	slaRatio := meanSLARatio
	base := results[0]
	for i, name := range scenarios {
		st := results[i]
		r.AddRow(name, pct(slaRatio(st)), f2(stats.Mean(st.Density)), f2(stats.Mean(st.GoodDensity)),
			fmt.Sprintf("%d/%d", st.DegradedSteps, st.Steps),
			fmt.Sprintf("%d", st.DisplacedServices+st.DisplacedJobs),
			fmt.Sprintf("%d", st.RejectedJobs), fmt.Sprintf("%d", st.FaultEvents))
	}
	for i, name := range scenarios {
		if name == "baseline" {
			continue
		}
		st := results[i]
		dSLA := 100 * (slaRatio(st) - slaRatio(base))
		dDen := 0.0
		if b := stats.Mean(base.Density); b > 0 {
			dDen = 100 * (stats.Mean(st.Density)/b - 1)
		}
		r.AddNote("%s: SLA ratio %+.1f pp, density %+.1f%% vs healthy baseline", name, dSLA, dDen)
	}
	for i, name := range scenarios {
		for _, d := range results[i].Degraded {
			r.AddNote("%s: degraded [%.0fs, %.0fs) (%s)", name, d.StartS, d.EndS, d.Reason)
		}
	}
	r.AddNote("every faulty run completed: crashes displace services through the scheduler, predictor outages degrade to WorstFit placements instead of failing the run")
	return r, nil
}
