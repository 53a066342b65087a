package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"gsight/internal/experiments"
	"gsight/internal/par"
	"gsight/internal/telemetry"
)

// experimentsCmd is `gsight experiments`: it regenerates the paper's
// tables and figures on the simulated testbed and prints
// paper-vs-measured notes. Progress goes to stderr; the reports on
// stdout (or -o) stay pipeable. SIGINT/SIGTERM cancel the remaining
// experiments cleanly: finished reports are still emitted and open
// files flushed before exiting. Any failed or cancelled experiment
// exits 1; an unknown -format exits 2.
type experimentsCmd struct {
	runEnv
	opt                  experiments.Options
	runList, format, out string
	list, parallel       bool
}

func bindExperiments(fs *flag.FlagSet) func([]string) error {
	c := &experimentsCmd{}
	fs.Float64Var(&c.opt.Scale, "scale", 1.0, "effort scale: 1.0 = paper-size runs, 0.2 = quick")
	fs.Uint64Var(&c.opt.Seed, "seed", 42, "experiment seed (all results reproduce bit-identically per seed)")
	fs.StringVar(&c.runList, "run", "all", "comma-separated experiment ids, or 'all'")
	fs.BoolVar(&c.list, "list", false, "list experiment ids and exit")
	fs.StringVar(&c.format, "format", "text", "output format: text or markdown")
	fs.StringVar(&c.out, "o", "", "write output to this file instead of stdout")
	fs.BoolVar(&c.parallel, "parallel", false, "run the selected experiments concurrently (output order and contents unchanged)")
	fs.IntVar(&c.opt.Servers, "servers", 0, "ext-scale: run a single server-count rung instead of the 8/256/1k/10k ladder")
	fs.IntVar(&c.opt.TopK, "topk", 0, "ext-twotier: run a single top-K rung instead of the 4/8/16/32/∞ sweep (0 = full sweep)")
	c.logFlags(fs)
	c.outputFlags(fs)
	return func([]string) error {
		if c.format != "text" && c.format != "markdown" {
			return &exitError{code: 2, err: fmt.Errorf("unknown -format %q (want text or markdown)", c.format)}
		}
		if c.list {
			for _, id := range experiments.IDs() {
				fmt.Println(id)
			}
			return nil
		}
		return c.run(c.runAll)
	}
}

// runAll executes the selected experiments and emits their reports.
func (c *experimentsCmd) runAll(ctx context.Context) error {
	experiments.SetTelemetry(c.sink)
	w := io.Writer(os.Stdout)
	if c.out != "" {
		f, err := c.create(c.out)
		if err != nil {
			return err
		}
		w = f
	}

	var ids []string
	if c.runList == "all" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(c.runList, ",")
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
	c.infof("running %d experiments at scale %.2f (seed %d)...", len(ids), c.opt.Scale, c.opt.Seed)
	tAll := time.Now()
	results := make([]outcome, len(ids))
	workers := 1
	if c.parallel {
		workers = len(ids)
	}
	err := par.For(ctx, workers, len(ids), func(_, i int) error {
		c.debugf("running %s...", ids[i])
		t0 := time.Now()
		rep, err := experiments.Run(ctx, ids[i], c.opt)
		results[i] = outcome{rep, err, time.Since(t0).Round(time.Millisecond)}
		c.debugf("%s done in %v", ids[i], results[i].took)
		return nil
	})
	// par.For starts no id once ctx is cancelled: those report its error.
	for i := range results {
		if results[i].rep == nil && results[i].err == nil {
			results[i].err = err
		}
	}
	c.infof("all experiments finished in %v", time.Since(tAll).Round(time.Millisecond))

	failed, cancelled := 0, 0
	var drev telemetry.ExperimentRun
	logOutcome := func(id, status string) {
		drev = telemetry.ExperimentRun{ID: id, Status: status}
		c.sink.Decisions.Experiment(&drev)
	}
	for i, id := range ids {
		res := results[i]
		if errors.Is(res.err, context.Canceled) {
			logOutcome(id, "cancelled")
			cancelled++
			continue
		}
		if res.err != nil {
			c.errorf("%s: %v", id, res.err)
			logOutcome(id, "failed")
			failed++
			continue
		}
		logOutcome(id, "ok")
		if c.format == "markdown" {
			fmt.Fprintf(w, "%s\n*(regenerated in %v at scale %.2f, seed %d)*\n\n", res.rep.Markdown(), res.took, c.opt.Scale, c.opt.Seed)
		} else {
			fmt.Fprintf(w, "%s\n(%s took %v)\n\n", res.rep.String(), id, res.took)
		}
	}
	if cancelled > 0 {
		c.errorf("interrupted: %d experiments cancelled", cancelled)
	}

	err = c.report("gsight-experiments",
		map[string]interface{}{
			"run":      strings.Join(ids, ","),
			"scale":    c.opt.Scale,
			"seed":     c.opt.Seed,
			"parallel": c.parallel,
		},
		map[string]interface{}{
			"experiments": len(ids),
			"failed":      failed,
			"cancelled":   cancelled,
		})
	if err == nil && failed+cancelled > 0 {
		err = &exitError{code: 1}
	}
	return err
}
