package cli

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"time"

	"gsight/internal/core"
	"gsight/internal/faults"
	"gsight/internal/perfmodel"
	"gsight/internal/platform"
	"gsight/internal/resources"
	"gsight/internal/scenario"
	"gsight/internal/sched"
	"gsight/internal/stats"
	"gsight/internal/telemetry"
	"gsight/internal/trace"
	"gsight/internal/workload"
)

// simCmd is `gsight sim`: the trace-driven serverless platform
// simulation under a chosen scheduler, printing density, utilization
// and SLA statistics — the §6.3 case study as a tool. Progress goes to
// stderr; the report on stdout stays pipeable. SIGINT/SIGTERM cancel
// the run cleanly: open files are flushed before exiting.
//
// A run is a pure function of its flags, so it recovers by re-running:
// every output is rewritten from t = 0, byte-identical.
//
// -decision-log records a run for `gsight inspect`: placements, job
// lifecycles, faults, prediction samples and one step sample per
// platform step, in simulation time only (same-seed runs are
// byte-identical). `gsight inspect trace` renders it as a Perfetto
// trace.
type simCmd struct {
	runEnv
	scheduler, faults    string
	hours                float64
	train, servers, topk int
	seed                 uint64
	scaling              trace.Scaling
}

func bindSim(fs *flag.FlagSet) func([]string) error {
	c := &simCmd{}
	fs.StringVar(&c.scheduler, "scheduler", "gsight", "gsight, bestfit (Pythia), worstfit")
	fs.Float64Var(&c.hours, "hours", 24, "simulated duration")
	fs.IntVar(&c.train, "train", 800, "bootstrap scenarios for the predictor")
	fs.Uint64Var(&c.seed, "seed", 42, "seed")
	fs.StringVar(&c.faults, "faults", "", "fault schedule: a named scenario ("+strings.Join(faults.Names(), ", ")+") or a JSON schedule file")
	fs.String("checkpoint-dir", "", "ignored: still accepted because benchmark/sim.go passes it (ROADMAP 18(a) drops it)")
	fs.Float64Var(&c.scaling.RateFactor, "rate-scale", 1, "multiply every service's invocation rate (and its MaxQPS ceiling) for soak runs")
	fs.Float64Var(&c.scaling.TimeFactor, "time-scale", 1, "compress the diurnal/weekly trace clock: k replays k days of rate structure per simulated day")
	fs.IntVar(&c.servers, "servers", 0, "cluster size (0 = the paper's 8-node testbed)")
	fs.IntVar(&c.topk, "topk", 0, "two-tier placement: tier-0 score prunes candidates to the top K before full prediction (0 = K=∞, pruning off)")
	c.logFlags(fs)
	c.outputFlags(fs)
	return func([]string) error {
		if c.train < 1 && (c.scheduler == "gsight" || c.scheduler == "bestfit") {
			return fmt.Errorf("-train %d: the %s scheduler needs at least 1 bootstrap scenario", c.train, c.scheduler)
		}
		return c.run(c.simulate)
	}
}

func (c *simCmd) simulate(ctx context.Context) error {
	tb := resources.DefaultTestbed()
	if c.servers > 0 {
		tb = resources.NewTestbed(c.servers)
	}

	// Gsight learns online (§5): its predictor is attached as the
	// platform's online learner, so step-boundary observations flow
	// into the incremental forest. The baselines stay offline.
	var pred, onlinePred core.QoSPredictor
	var scheduler sched.Scheduler
	switch c.scheduler {
	case "gsight":
		p := core.NewPredictor(core.Config{Seed: c.seed})
		pred, onlinePred = p, p
		g := sched.NewGsight(p)
		if c.topk > 0 {
			g.Tier0 = p.Tier0()
			g.TopK = c.topk
		}
		scheduler = g
	case "bestfit":
		p := core.NewPythia(c.seed)
		pred = p
		scheduler = sched.NewBestFit(p)
	case "worstfit":
		scheduler = sched.NewWorstFit()
	default:
		return fmt.Errorf("unknown scheduler %q", c.scheduler)
	}
	if in, ok := scheduler.(interface{ Instrument(*telemetry.Sink) }); ok {
		in.Instrument(c.sink)
	}
	if p, ok := onlinePred.(*core.Predictor); ok {
		p.Instrument(c.sink) // the offline baseline stays uninstrumented
	}

	durationS := c.hours * 3600
	var schedule *faults.Schedule
	if c.faults != "" {
		var err error
		if strings.HasSuffix(c.faults, ".json") {
			schedule, err = faults.LoadFile(c.faults)
		} else {
			schedule, err = faults.Scenario(c.faults, c.seed, durationS, tb.NumServers())
		}
		if err != nil {
			return err // faults package errors are self-describing
		}
		c.infof("fault schedule %q: %d events", schedule.Name, len(schedule.Events))
	}

	// Only the predicting schedulers train and read the §6.3 IPC floors;
	// WorstFit places by capacity alone, so its services keep zero
	// floors and it skips both. Training and SLA-curve calibration run
	// on the paper's 8-node lab whatever the cluster size.
	var floors []float64
	if pred != nil {
		lab := scenario.Lab()
		c.infof("bootstrapping %s's predictor on %d scenarios...", scheduler.Name(), c.train)
		t0 := time.Now()
		if err := scenario.NewGenerator(lab, c.seed).Bootstrap(ctx, pred, c.train); err != nil {
			return err
		}
		c.infof("trained in %v", time.Since(t0).Round(time.Millisecond))
		floors = sched.CalibrateMinIPC(lab, workload.LSPool(), 250, c.seed)
	}
	if !c.scaling.IsZero() {
		c.infof("trace scaling: rate x%.1f, time x%.1f", c.scaling.Rate(), c.scaling.Time())
	}

	c.infof("running %.0fh trace-driven simulation under %s...", c.hours, scheduler.Name())
	t0 := time.Now()
	st, err := platform.Run(ctx, platform.Config{
		Model:           perfmodel.New(tb),
		Scheduler:       scheduler,
		Services:        platform.LSServices(0.6, 0, c.scaling, floors),
		SCPool:          workload.TracePool(),
		SCMeanIntervalS: 150,
		DurationS:       durationS,
		Seed:            c.seed,
		Telemetry:       c.sink,
		Faults:          schedule,
		Predictor:       onlinePred,
	})
	if err != nil {
		return fmt.Errorf("simulation: %w", err)
	}
	c.infof("simulated in %v (%d steps)", time.Since(t0).Round(time.Millisecond), st.Steps)

	fmt.Printf("function density (inst/core): mean %.3f, p50 %.3f, p90 %.3f\n",
		stats.Mean(st.Density), stats.Median(st.Density), stats.Percentile(st.Density, 90))
	fmt.Printf("CPU utilization:              mean %.3f, p50 %.3f, p90 %.3f\n",
		stats.Mean(st.CPUUtil), stats.Median(st.CPUUtil), stats.Percentile(st.CPUUtil, 90))
	fmt.Printf("memory utilization:           mean %.3f, p50 %.3f, p90 %.3f\n",
		stats.Mean(st.MemUtil), stats.Median(st.MemUtil), stats.Percentile(st.MemUtil, 90))
	fmt.Println()
	for _, n := range sortedKeys(st.SLAOK) {
		fmt.Printf("SLA guarantee %-16s %.2f%% of the time\n", n+":", 100*st.SLARatio(n))
	}
	fmt.Printf("\ncold starts %d, reactive migrations %d, scale-out reschedules %d, jobs rejected %d\n",
		st.ColdStarts, st.Migrations, st.Reschedules, st.RejectedJobs)
	fmt.Printf("scheduling wall-clock: %v over %d placements\n",
		st.SchedulingTime.Round(time.Millisecond), st.Placements)
	totalJobs := 0
	for _, jcts := range st.JCTs {
		totalJobs += len(jcts)
	}
	fmt.Printf("batch jobs completed: %d\n", totalJobs)
	if st.FaultEvents > 0 || len(st.Degraded) > 0 {
		fmt.Printf("\nfaults: %d events, %d services displaced, %d jobs displaced\n",
			st.FaultEvents, st.DisplacedServices, st.DisplacedJobs)
		fmt.Printf("degraded: %d placements via fallback, %d/%d steps in degraded mode\n",
			st.DegradedPlacements, st.DegradedSteps, st.Steps)
		for _, d := range st.Degraded {
			fmt.Printf("degraded window [%.0fs, %.0fs): %s\n", d.StartS, d.EndS, d.Reason)
		}
	}

	degraded := make([]map[string]interface{}, 0, len(st.Degraded))
	for _, d := range st.Degraded {
		degraded = append(degraded, map[string]interface{}{
			"start_s": d.StartS, "end_s": d.EndS, "reason": d.Reason,
		})
	}
	config := map[string]interface{}{
		"scheduler": scheduler.Name(),
		"hours":     c.hours,
		"train":     c.train,
		"seed":      c.seed,
		"faults":    c.faults,
	}
	if c.topk > 0 {
		// Recorded only when set so K=∞ reports stay byte-identical
		// to the pre-two-tier format.
		config["topk"] = c.topk
	}
	return c.report("gsight-sim", config, map[string]interface{}{
		"steps":               st.Steps,
		"mean_density":        stats.Mean(st.Density),
		"mean_cpu_util":       stats.Mean(st.CPUUtil),
		"cold_starts":         st.ColdStarts,
		"migrations":          st.Migrations,
		"reschedules":         st.Reschedules,
		"rejected_jobs":       st.RejectedJobs,
		"placements":          st.Placements,
		"jobs_completed":      totalJobs,
		"fault_events":        st.FaultEvents,
		"displaced_services":  st.DisplacedServices,
		"displaced_jobs":      st.DisplacedJobs,
		"degraded_placements": st.DegradedPlacements,
		"degraded_steps":      st.DegradedSteps,
		"degraded_intervals":  degraded,
	})
}
