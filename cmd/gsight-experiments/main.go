// Command gsight-experiments regenerates the paper's tables and
// figures on the simulated testbed and prints paper-vs-measured notes.
// Progress goes to stderr; the reports on stdout (or -o) stay pipeable.
// SIGINT/SIGTERM cancel the remaining experiments cleanly: finished
// reports are still emitted and open files flushed before exiting.
//
// Usage:
//
//	gsight-experiments [-scale 1.0] [-seed 42] [-run fig3a,fig9|all]
//	                   [-parallel] [-list] [-v|-quiet]
//	                   [-debug-addr :6060] [-report run.json]
//	                   [-decision-log run.jsonl]
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"gsight/internal/experiments"
	"gsight/internal/logx"
	"gsight/internal/telemetry"
)

func main() {
	scale := flag.Float64("scale", 1.0, "effort scale: 1.0 = paper-size runs, 0.2 = quick")
	seed := flag.Uint64("seed", 42, "experiment seed (all results reproduce bit-identically per seed)")
	run := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	format := flag.String("format", "text", "output format: text or markdown")
	out := flag.String("o", "", "write output to this file instead of stdout")
	parallel := flag.Bool("parallel", false, "run the selected experiments concurrently (output order and contents unchanged)")
	verbose := flag.Bool("v", false, "verbose progress")
	quiet := flag.Bool("quiet", false, "errors only")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	reportPath := flag.String("report", "", "write a JSON run report to this file")
	decisionPath := flag.String("decision-log", "", "write the JSONL decision log to this file")
	servers := flag.Int("servers", 0, "ext-scale: run a single server-count rung instead of the 8/256/1k/10k ladder")
	placers := flag.Int("placers", 0, "ext-scale: concurrent placer workers (0 = auto; results identical at any count)")
	topk := flag.Int("topk", 0, "ext-twotier: run a single top-K rung instead of the 4/8/16/32/\u221e sweep (0 = full sweep)")
	flag.Parse()
	if *format != "text" && *format != "markdown" {
		fmt.Fprintf(os.Stderr, "gsight-experiments: unknown -format %q (want text or markdown)\n", *format)
		os.Exit(2)
	}

	log := logx.Default(*verbose, *quiet)

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ok := runAll(ctx, log, config{
		scale: *scale, seed: *seed, run: *run, format: *format, out: *out,
		parallel: *parallel, debugAddr: *debugAddr, reportPath: *reportPath,
		decisionPath: *decisionPath, servers: *servers, placers: *placers, topk: *topk,
	})
	if !ok {
		os.Exit(1)
	}
}

type config struct {
	scale        float64
	seed         uint64
	run          string
	format       string
	out          string
	parallel     bool
	debugAddr    string
	reportPath   string
	decisionPath string
	servers      int
	placers      int
	topk         int
}

// runAll executes the selected experiments and emits their reports; it
// returns false when any experiment failed (cancellation included).
// Deferred cleanups (output file close) run before main decides the
// exit code.
func runAll(ctx context.Context, log *logx.Logger, cfg config) bool {
	tel := telemetry.New()
	if cfg.decisionPath != "" {
		f, err := os.Create(cfg.decisionPath)
		if err != nil {
			log.Errorf("decision log: %v", err)
			return false
		}
		bw := bufio.NewWriter(f)
		defer func() {
			bw.Flush()
			f.Close()
		}()
		tel.WithDecisions(bw)
	}
	experiments.SetTelemetry(tel)
	if cfg.debugAddr != "" {
		addr, err := telemetry.ServeDebug(cfg.debugAddr, tel.Registry)
		if err != nil {
			log.Errorf("debug server: %v", err)
			return false
		}
		log.Infof("debug server on http://%s (metrics, expvar, pprof)", addr)
	}

	sink := io.Writer(os.Stdout)
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			log.Errorf("%v", err)
			return false
		}
		defer f.Close()
		sink = f
	}

	var ids []string
	if cfg.run == "all" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(cfg.run, ",")
	}
	opt := experiments.Options{
		Seed: cfg.seed, Scale: cfg.scale,
		Servers: cfg.servers, Placers: cfg.placers,
		TopK: cfg.topk,
	}
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}

	// Each experiment builds its own model and generator, so runs are
	// independent; -parallel fans them out and reports are still emitted
	// in id order with per-seed bit-identical contents.
	type outcome struct {
		rep  *experiments.Report
		err  error
		took time.Duration
	}
	log.Infof("running %d experiments at scale %.2f (seed %d)...", len(ids), cfg.scale, cfg.seed)
	tAll := time.Now()
	results := make([]outcome, len(ids))
	runOne := func(i int) {
		log.Debugf("running %s...", ids[i])
		t0 := time.Now()
		rep, err := experiments.Run(ctx, ids[i], opt)
		results[i] = outcome{rep, err, time.Since(t0).Round(time.Millisecond)}
		log.Debugf("%s done in %v", ids[i], results[i].took)
	}
	if cfg.parallel {
		var wg sync.WaitGroup
		for i := range ids {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runOne(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range ids {
			if ctx.Err() != nil {
				results[i] = outcome{nil, ctx.Err(), 0}
				continue
			}
			runOne(i)
		}
	}
	log.Infof("all experiments finished in %v", time.Since(tAll).Round(time.Millisecond))

	failed, cancelled := 0, 0
	var drev telemetry.ExperimentRun
	logOutcome := func(id, status string) {
		drev = telemetry.ExperimentRun{ID: id, Status: status}
		tel.Decisions.Experiment(&drev)
	}
	for i, id := range ids {
		res := results[i]
		if errors.Is(res.err, context.Canceled) {
			logOutcome(id, "cancelled")
			cancelled++
			continue
		}
		if res.err != nil {
			log.Errorf("%s: %v", id, res.err)
			logOutcome(id, "failed")
			failed++
			continue
		}
		logOutcome(id, "ok")
		if cfg.format == "markdown" {
			fmt.Fprintf(sink, "%s\n*(regenerated in %v at scale %.2f, seed %d)*\n\n", res.rep.Markdown(), res.took, cfg.scale, cfg.seed)
		} else {
			fmt.Fprintf(sink, "%s\n(%s took %v)\n\n", res.rep.String(), id, res.took)
		}
	}
	if cancelled > 0 {
		log.Errorf("interrupted: %d experiments cancelled", cancelled)
	}

	if cfg.reportPath != "" {
		rep := tel.Report("gsight-experiments",
			map[string]interface{}{
				"run":      strings.Join(ids, ","),
				"scale":    cfg.scale,
				"seed":     cfg.seed,
				"parallel": cfg.parallel,
			},
			map[string]interface{}{
				"experiments": len(ids),
				"failed":      failed,
				"cancelled":   cancelled,
			})
		if err := telemetry.WriteRunReport(cfg.reportPath, rep); err != nil {
			log.Errorf("run report: %v", err)
			return false
		}
		log.Infof("run report written to %s", cfg.reportPath)
	}
	return failed == 0 && cancelled == 0
}
