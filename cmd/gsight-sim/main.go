// Command gsight-sim runs the trace-driven serverless platform
// simulation under a chosen scheduler and prints density, utilization
// and SLA statistics — the §6.3 case study as a tool. Progress goes to
// stderr; the report on stdout stays pipeable. SIGINT/SIGTERM cancel
// the run cleanly: open files are flushed before exiting.
//
// Usage:
//
//	gsight-sim [-scheduler gsight|bestfit|worstfit] [-hours 24]
//	           [-train 800] [-seed 42] [-v|-quiet]
//	           [-faults chaos|node-crash|...|schedule.json]
//	           [-checkpoint-dir ckpt] [-checkpoint-interval 1800] [-resume]
//	           [-debug-addr :6060] [-report run.json] [-decision-log run.jsonl]
//	           [-trace trace.json] [-record dir]
//
// With -checkpoint-dir the controller snapshots its full state
// periodically and logs every decision to a write-ahead log between
// snapshots. A run killed at any point (including by an injected
// controller-crash fault, exit code 3) can be rerun with -resume and
// the same flags: it picks up from the newest valid snapshot and the
// final report and decision log are byte-identical to an uninterrupted
// run.
//
// -trace writes an invocation-lifecycle trace in Chrome trace-event
// JSON (loadable in Perfetto or chrome://tracing). -record captures the
// full observability bundle into a directory — trace.json plus
// flight.bin, the step-sampled flight recording gsight-inspect reads.
// Both streams are simulation-time only (same-seed runs are
// byte-identical) and checkpoint-aware: every snapshot fsyncs them up to
// the offsets it records, and on -resume the platform cuts them back to
// those offsets and continues seamlessly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"gsight/internal/baselines"
	"gsight/internal/core"
	"gsight/internal/faults"
	"gsight/internal/logx"
	"gsight/internal/obs"
	"gsight/internal/perfmodel"
	"gsight/internal/persist"
	"gsight/internal/platform"
	"gsight/internal/resources"
	"gsight/internal/scenario"
	"gsight/internal/sched"
	"gsight/internal/stats"
	"gsight/internal/telemetry"
	"gsight/internal/trace"
	"gsight/internal/workload"
)

func main() {
	schedName := flag.String("scheduler", "gsight", "gsight, bestfit (Pythia), worstfit")
	hours := flag.Float64("hours", 24, "simulated duration")
	trainScen := flag.Int("train", 800, "bootstrap scenarios for the predictor")
	seed := flag.Uint64("seed", 42, "seed")
	verbose := flag.Bool("v", false, "verbose progress")
	quiet := flag.Bool("quiet", false, "errors only")
	faultsFlag := flag.String("faults", "", "fault schedule: a named scenario ("+strings.Join(faults.Names(), ", ")+") or a JSON schedule file")
	checkpointDir := flag.String("checkpoint-dir", "", "write crash-consistent checkpoints to this directory")
	checkpointInterval := flag.Float64("checkpoint-interval", 1800, "seconds of simulated time between snapshots")
	resume := flag.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir (fresh start if none)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	reportPath := flag.String("report", "", "write a JSON run report to this file")
	decisionPath := flag.String("decision-log", "", "write the JSONL decision log to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace-event (Perfetto) lifecycle trace to this file")
	recordDir := flag.String("record", "", "record the observability bundle (trace.json, flight.bin) into this directory")
	rateScale := flag.Float64("rate-scale", 1, "multiply every service's invocation rate (and its MaxQPS ceiling) for soak runs")
	timeScale := flag.Float64("time-scale", 1, "compress the diurnal/weekly trace clock: k replays k days of rate structure per simulated day")
	servers := flag.Int("servers", 0, "cluster size (0 = the paper's 8-node testbed)")
	topk := flag.Int("topk", 0, "two-tier placement: tier-0 score prunes candidates to the top K before full prediction (0 = K=∞, pruning off)")
	flag.Parse()

	log := logx.Default(*verbose, *quiet)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// run (not main) owns the deferred cleanups, so a failure exits
	// through them — buffered decision logs land on disk either way.
	if err := run(ctx, log, options{
		scheduler:     *schedName,
		hours:         *hours,
		trainScen:     *trainScen,
		seed:          *seed,
		faults:        *faultsFlag,
		checkpointDir: *checkpointDir,
		checkpointInt: *checkpointInterval,
		resume:        *resume,
		debugAddr:     *debugAddr,
		reportPath:    *reportPath,
		decisionPath:  *decisionPath,
		tracePath:     *tracePath,
		recordDir:     *recordDir,
		scaling:       trace.Scaling{RateFactor: *rateScale, TimeFactor: *timeScale},
		servers:       *servers,
		topk:          *topk,
	}); err != nil {
		log.Errorf("%v", err)
		// A deliberate controller crash is distinguishable from real
		// failures so retry loops can rerun with -resume.
		if errors.Is(err, platform.ErrControllerCrashed) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// simStepS is the platform step interval; the flight recorder stamps
// it into its header so recordings are self-describing.
const simStepS = 30

type options struct {
	scheduler     string
	hours         float64
	trainScen     int
	seed          uint64
	faults        string
	checkpointDir string
	checkpointInt float64
	resume        bool
	debugAddr     string
	reportPath    string
	decisionPath  string
	tracePath     string
	recordDir     string
	scaling       trace.Scaling
	servers       int
	topk          int
}

func run(ctx context.Context, log *logx.Logger, opt options) error {
	// Resuming? Peek at the newest valid snapshot before touching the
	// output files or the predictor: it decides whether the files are
	// continued or created and whether bootstrap training is skipped (the
	// restored predictor state supersedes it).
	var resumeMeta *platform.CheckpointMeta
	if opt.resume {
		if opt.checkpointDir == "" {
			return fmt.Errorf("-resume requires -checkpoint-dir")
		}
		meta, err := platform.PeekCheckpoint(opt.checkpointDir)
		switch {
		case err == nil:
			resumeMeta = meta
			log.Infof("resuming from checkpoint seq %d (sim t=%.0fs, step %d)",
				meta.Seq, meta.SimTimeS, meta.Step)
		case errors.Is(err, persist.ErrNoSnapshot):
			log.Infof("no checkpoint in %s; starting fresh", opt.checkpointDir)
		default:
			return fmt.Errorf("checkpoint: %w", err)
		}
	}

	sink := telemetry.New()
	// openOut opens one checkpoint-aware output file (decision log,
	// trace, flight recording): as it stands when resuming — the platform
	// cuts it back to the snapshot's offset — and empty otherwise. When
	// run returns, however it returns, the streams over the files are
	// flushed and then the files closed, so a failed or interrupted run
	// still leaves whole records on disk.
	var (
		files   []*os.File
		streams []*telemetry.Stream
	)
	openOut := func(path string) (*os.File, error) {
		flag := os.O_RDWR | os.O_CREATE
		if resumeMeta == nil {
			flag |= os.O_TRUNC
		}
		f, err := os.OpenFile(path, flag, 0o644)
		if err == nil {
			files = append(files, f)
		}
		return f, err
	}
	defer func() {
		for _, st := range streams {
			if err := st.Flush(); err != nil {
				log.Errorf("%v", err)
			}
		}
		for _, f := range files {
			if err := f.Close(); err != nil {
				log.Errorf("%v", err)
			}
		}
	}()
	// Observability recording paths: -trace writes the lifecycle trace
	// alone, -record captures the full bundle (trace + flight recording)
	// into a directory gsight-inspect can read back. The directory is
	// created first so other outputs (like -decision-log) can point
	// into it.
	tracePath, flightPath := opt.tracePath, ""
	if opt.recordDir != "" {
		if err := os.MkdirAll(opt.recordDir, 0o755); err != nil {
			return fmt.Errorf("record dir: %w", err)
		}
		if tracePath == "" {
			tracePath = filepath.Join(opt.recordDir, "trace.json")
		}
		flightPath = filepath.Join(opt.recordDir, "flight.bin")
	}
	if opt.decisionPath != "" {
		f, err := openOut(opt.decisionPath)
		if err != nil {
			return fmt.Errorf("decision log: %w", err)
		}
		sink.WithDecisions(f)
		streams = append(streams, sink.Decisions.Stream())
	}
	if opt.debugAddr != "" {
		addr, err := telemetry.ServeDebug(opt.debugAddr, sink.Registry)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		log.Infof("debug server on http://%s (metrics, expvar, pprof)", addr)
	}

	// The platform runs on the (possibly scaled) testbed; bootstrap
	// training and SLA-curve calibration stay on the paper's 8-node lab
	// — the interference code layout is 8-row, and profiles/curves are
	// per-server-spec, not per-cluster-size.
	tb := resources.DefaultTestbed()
	if opt.servers > 0 {
		tb = resources.NewTestbed(opt.servers)
	}
	m := perfmodel.New(tb)
	scenario.FastConfig(m)
	lab := m
	if tb.NumServers() != resources.DefaultTestbed().NumServers() {
		lab = perfmodel.New(resources.DefaultTestbed())
		scenario.FastConfig(lab)
	}
	g := scenario.NewGenerator(lab, opt.seed)

	var recorder *obs.Recorder
	if tracePath != "" || flightPath != "" {
		obsCfg := obs.Config{Servers: m.Testbed.NumServers(), StepS: simStepS}
		if tracePath != "" {
			f, err := openOut(tracePath)
			if err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			obsCfg.Trace = f
		}
		if flightPath != "" {
			f, err := openOut(flightPath)
			if err != nil {
				return fmt.Errorf("flight recording: %w", err)
			}
			obsCfg.Flight = f
		}
		recorder = obs.New(obsCfg)
		streams = append(streams, recorder.Trace().Stream(), recorder.Flight().Stream())
	}

	var pred core.QoSPredictor
	var scheduler sched.Scheduler
	needTraining := true
	switch opt.scheduler {
	case "gsight":
		p := core.NewPredictor(core.Config{Seed: opt.seed})
		pred = p
		g := sched.NewGsight(p)
		if opt.topk > 0 {
			g.Tier0 = p.Tier0()
			g.TopK = opt.topk
		}
		scheduler = g
	case "bestfit":
		p := baselines.NewPythia(opt.seed)
		pred = p
		scheduler = sched.NewBestFit(p)
	case "worstfit":
		scheduler = sched.NewWorstFit()
		needTraining = false
	default:
		return fmt.Errorf("unknown scheduler %q", opt.scheduler)
	}
	if in, ok := scheduler.(interface{ Instrument(*telemetry.Sink) }); ok {
		in.Instrument(sink)
	}
	if in, ok := pred.(interface{ Instrument(*telemetry.Sink) }); ok {
		in.Instrument(sink)
	}
	// Gsight learns online (§5): attach its predictor so step-boundary
	// observations flow into the incremental forest — and so checkpoints
	// carry the full learning state. The baselines stay offline; on
	// resume they re-train, which is deterministic and reproduces the
	// exact pre-crash state.
	var onlinePred core.QoSPredictor
	if _, ok := pred.(core.Checkpointable); ok {
		onlinePred = pred
	}

	durationS := opt.hours * 3600
	var schedule *faults.Schedule
	if opt.faults != "" {
		var err error
		if strings.HasSuffix(opt.faults, ".json") {
			schedule, err = faults.LoadFile(opt.faults)
		} else {
			schedule, err = faults.Scenario(opt.faults, opt.seed, durationS, m.Testbed.NumServers())
		}
		if err != nil {
			return err // faults package errors are self-describing
		}
		log.Infof("fault schedule %q: %d events", schedule.Name, len(schedule.Events))
	}

	if resumeMeta != nil && onlinePred != nil {
		// The snapshot carries the predictor's full online-learning
		// state; bootstrap training would be discarded by the restore.
		needTraining = false
	}
	if needTraining {
		log.Infof("bootstrapping %s's predictor on %d scenarios...", scheduler.Name(), opt.trainScen)
		t0 := time.Now()
		if err := g.Bootstrap(ctx, pred, opt.trainScen); err != nil {
			return err
		}
		log.Infof("trained in %v", time.Since(t0).Round(time.Millisecond))
	}

	var services []platform.LSService
	lsPool := []*workload.Workload{
		workload.SocialNetwork(), workload.ECommerce(), workload.MLServing(),
	}
	floors := sched.CalibrateMinIPC(lab, lsPool, 250, opt.seed)
	for i, w := range lsPool {
		p := trace.DefaultPattern(w.MaxQPS * 0.6)
		p.PhaseShift = float64(i) * 7200
		if !opt.scaling.IsZero() {
			// Soak mode: scale the offered rate and the clamp it is
			// capped against together, so the scaled diurnal shape
			// survives instead of flattening at the old ceiling.
			p = opt.scaling.Apply(p)
			w = w.Clone()
			w.MaxQPS *= opt.scaling.Rate()
		}
		services = append(services, platform.LSService{W: w, Pattern: p, SLA: sched.SLA{MinIPC: floors[i]}})
	}
	if !opt.scaling.IsZero() {
		log.Infof("trace scaling: rate x%.1f, time x%.1f", opt.scaling.Rate(), opt.scaling.Time())
	}

	log.Infof("running %.0fh trace-driven simulation under %s...", opt.hours, scheduler.Name())
	t0 := time.Now()
	st, err := platform.Run(ctx, platform.Config{
		Model:     perfmodel.New(m.Testbed),
		Scheduler: scheduler,
		Services:  services,
		SCPool: []*workload.Workload{
			workload.MatMul(), workload.DD(), workload.Iperf(),
			workload.VideoProcessing(), workload.FloatOp(),
			workload.FeatureGeneration(), workload.DataPipeline(),
			workload.IoTCollector(), workload.Monitor(),
		},
		SCMeanIntervalS: 150,
		DurationS:       durationS,
		StepS:           simStepS,
		Seed:            opt.seed,
		Telemetry:       sink,
		Faults:          schedule,
		Predictor:       onlinePred,
		Obs:             recorder,
		Checkpoint: platform.CheckpointConfig{
			Dir:       opt.checkpointDir,
			IntervalS: opt.checkpointInt,
			Resume:    opt.resume,
		},
	})
	if err != nil {
		if errors.Is(err, platform.ErrControllerCrashed) {
			return fmt.Errorf("simulation: %w (rerun with -resume to continue)", err)
		}
		return fmt.Errorf("simulation: %w", err)
	}
	log.Infof("simulated in %v (%d steps)", time.Since(t0).Round(time.Millisecond), st.Steps)
	if recorder != nil {
		if err := recorder.Err(); err != nil {
			return fmt.Errorf("observability recording: %w", err)
		}
		log.Infof("recorded %d trace events, %d flight frames",
			recorder.Trace().Stream().Records(), recorder.Flight().Stream().Records())
	}

	fmt.Printf("function density (inst/core): mean %.3f, p50 %.3f, p90 %.3f\n",
		stats.Mean(st.Density), stats.Median(st.Density), stats.Percentile(st.Density, 90))
	fmt.Printf("CPU utilization:              mean %.3f, p50 %.3f, p90 %.3f\n",
		stats.Mean(st.CPUUtil), stats.Median(st.CPUUtil), stats.Percentile(st.CPUUtil, 90))
	fmt.Printf("memory utilization:           mean %.3f, p50 %.3f, p90 %.3f\n",
		stats.Mean(st.MemUtil), stats.Median(st.MemUtil), stats.Percentile(st.MemUtil, 90))
	fmt.Println()
	var names []string
	for n := range st.SLAOK {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
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
		fmt.Printf("degraded: %d placements via fallback, %d/%d steps in degraded mode, %d retries\n",
			st.DegradedPlacements, st.DegradedSteps, st.Steps, st.PlacementRetries)
		for _, d := range st.Degraded {
			fmt.Printf("degraded window [%.0fs, %.0fs): %s\n", d.StartS, d.EndS, d.Reason)
		}
	}

	if opt.reportPath != "" {
		degraded := make([]map[string]interface{}, 0, len(st.Degraded))
		for _, d := range st.Degraded {
			degraded = append(degraded, map[string]interface{}{
				"start_s": d.StartS, "end_s": d.EndS, "reason": d.Reason,
			})
		}
		config := map[string]interface{}{
			"scheduler": scheduler.Name(),
			"hours":     opt.hours,
			"train":     opt.trainScen,
			"seed":      opt.seed,
			"faults":    opt.faults,
		}
		if opt.topk > 0 {
			// Recorded only when set so K=∞ reports stay byte-identical
			// to the pre-two-tier format.
			config["topk"] = opt.topk
		}
		rep := sink.Report("gsight-sim", config,
			map[string]interface{}{
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
				"placement_retries":   st.PlacementRetries,
				"degraded_intervals":  degraded,
			})
		if err := telemetry.WriteRunReport(opt.reportPath, rep); err != nil {
			return fmt.Errorf("run report: %w", err)
		}
		log.Infof("run report written to %s", opt.reportPath)
	}
	return nil
}
