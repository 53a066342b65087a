package experiments

import (
	"context"
	"fmt"

	"gsight/internal/faults"
	"gsight/internal/perfmodel"
	"gsight/internal/platform"
	"gsight/internal/scenario"
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
	boot, err := newBootstrap(ctx, opt, opt.n(900, 150), opt.n(400, 70))
	if err != nil {
		return nil, err
	}
	m := scenario.Lab()
	scPool := []*workload.Workload{
		workload.MatMul(), workload.DD(), workload.VideoProcessing(),
		workload.FeatureGeneration(), workload.DataPipeline(),
	}

	duration := max(43200*opt.Scale, 7200)
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
	floors := lsFloors(m, opt)
	results := make([]*platform.Stats, len(scenarios))
	err = forEach(ctx, len(scenarios), func(i int) error {
		st, err := platform.Run(ctx, platform.Config{
			Model:           perfmodel.New(m.Testbed),
			Scheduler:       sched.NewGsight(boot.gsight),
			Services:        platform.LSServices(caseLoad, caseDiurnalAmp, trace.Scaling{}, floors),
			SCPool:          scPool,
			SCMeanIntervalS: 180,
			DurationS:       duration,
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

// caseLoad and caseDiurnalAmp are the LS services' offered load (a
// fraction of MaxQPS) and diurnal swing in Figures 11 and 12's case
// study and the fault-injection runs: a softer swing than the default,
// because the paper's cluster keeps headroom at peak and saturating all
// eight nodes would flatten every scheduler into full spread.
const caseLoad, caseDiurnalAmp = 0.42, 0.30

// lsFloors calibrates workload.LSPool's IPC floors by the Figure 7
// latency->IPC transform. The calibration depends on the lab, the pool
// and the seed alone, so an experiment calibrates once and hands the
// floors to each run's service set.
func lsFloors(m *perfmodel.Model, opt Options) []float64 {
	return sched.CalibrateMinIPC(m, workload.LSPool(), opt.n(250, 60), opt.Seed)
}
