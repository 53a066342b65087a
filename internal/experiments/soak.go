package experiments

import (
	"context"
	"fmt"
	"time"

	"gsight/internal/core"
	"gsight/internal/perfmodel"
	"gsight/internal/platform"
	"gsight/internal/sched"
	"gsight/internal/stats"
	"gsight/internal/trace"
	"gsight/internal/workload"
)

// ExtSoak is the long-horizon soak: the trace-driven platform replays
// multi-day horizons with the trace.Scaling knob turned up — the rate
// factor multiplies every service's offered load (and its MaxQPS
// ceiling, so the diurnal shape survives the clamp) and the time
// factor compresses the trace clock so each simulated day carries
// several days of diurnal/weekly structure. The scaled variants push
// hundreds of millions of invocations per simulated day through the
// step loop, which only stays affordable because the loop is
// allocation-free; wall-clock steps/s is reported alongside SLA and
// density so throughput regressions surface as experiment output.
func ExtSoak(ctx context.Context, opt Options) (*Report, error) {
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

	// The rate factor is bounded by placement feasibility: the initial
	// deployment sizes replicas at RateAt(0)*1.1 and each function's
	// replica block must fit one server, so services designed near
	// MaxQPS tolerate roughly a 2x rate before deployment fails. Extra
	// volume beyond that comes from time compression, which raises the
	// trace-days replayed per simulated day without touching the
	// instantaneous load.
	variants := []struct {
		name string
		sc   trace.Scaling
	}{
		{"baseline", trace.Scaling{}},
		{"rate x2", trace.Scaling{RateFactor: 2}},
		{"rate x2, time x8", trace.Scaling{RateFactor: 2, TimeFactor: 8}},
	}

	duration := 172800 * opt.Scale // two simulated days at full scale
	if duration < 7200 {
		duration = 7200
	}
	days := duration / 86400

	r := &Report{
		ID:    "ext-soak",
		Title: "Long-horizon soak: scaled trace replay through the allocation-free step loop",
		Columns: []string{"scenario", "Minv/day", "steps", "steps/s wall",
			"SLA ratio", "density"},
	}

	// Variants run sequentially — parallel runs would share cores and
	// make the wall-clock steps/s column meaningless.
	for _, v := range variants {
		var services []platform.LSService
		lsPool := []*workload.Workload{
			workload.SocialNetwork(), workload.ECommerce(), workload.MLServing(),
		}
		floors := sched.CalibrateMinIPC(m, lsPool, opt.n(250, 60), opt.Seed)
		for i, w := range lsPool {
			pat := trace.DefaultPattern(w.MaxQPS * 0.6)
			pat.PhaseShift = float64(i) * 7200
			if !v.sc.IsZero() {
				pat = v.sc.Apply(pat)
				w = w.Clone()
				w.MaxQPS *= v.sc.Rate()
			}
			services = append(services, platform.LSService{W: w, Pattern: pat, SLA: sched.SLA{MinIPC: floors[i]}})
		}
		t0 := time.Now()
		st, err := platform.Run(ctx, platform.Config{
			Model:           perfmodel.New(m.Testbed),
			Scheduler:       sched.NewGsight(p),
			Services:        services,
			SCPool:          []*workload.Workload{workload.MatMul(), workload.DD()},
			SCMeanIntervalS: 300,
			DurationS:       duration,
			StepS:           30,
			Seed:            opt.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: soak %s run: %w", v.name, err)
		}
		wall := time.Since(t0).Seconds()
		sps := 0.0
		if wall > 0 {
			sps = float64(st.Steps) / wall
		}
		r.AddRow(v.name, f1(st.Invocations/1e6/days), fmt.Sprintf("%d", st.Steps),
			f0(sps), pct(meanSLARatio(st)), f2(stats.Mean(st.Density)))
		if !v.sc.IsZero() {
			r.AddNote("%s: %.1fM invocations replayed over %.2f simulated days (%.1f trace-days of diurnal structure)",
				v.name, st.Invocations/1e6, days, days*v.sc.Time())
		}
	}
	r.AddNote("rate scaling multiplies both the offered load and MaxQPS, so autoscaling tracks the scaled diurnal curve instead of saturating at the unscaled ceiling")
	return r, nil
}

// meanSLARatio averages the per-service SLA-guarantee ratio of a run.
func meanSLARatio(st *platform.Stats) float64 {
	sum, n := 0.0, 0
	for name := range st.SLAOK {
		sum += st.SLARatio(name)
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}
