package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"gsight/internal/metrics"
	"gsight/internal/perfmodel"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/trace"
	"gsight/internal/workload"
)

// workloadCmd is `gsight workload`: it validates a JSON workload
// definition and reports how the system will see it: the call-path
// structure, critical path, solo-run profile (the per-function table of
// every model input metric, what the paper's perf/pqos collector would
// report, §3.2), default replica sizing, and — optionally — a quick
// interference characterization against the catalog micro-benchmarks
// (a one-workload Figure 3(a)).
//
//	gsight workload -file app.json [-characterize]
//	gsight workload -catalog social-network [-characterize]
//	gsight workload -export social-network      # print a catalog entry as JSON
type workloadCmd struct {
	runEnv
	file, catalog, export string
	characterize          bool
	scaling               trace.Scaling
}

func bindWorkload(fs *flag.FlagSet) func([]string) error {
	c := &workloadCmd{}
	fs.StringVar(&c.file, "file", "", "JSON workload definition to validate")
	fs.StringVar(&c.catalog, "catalog", "", "inspect a catalog workload instead")
	fs.StringVar(&c.export, "export", "", "print a catalog workload as JSON and exit")
	fs.BoolVar(&c.characterize, "characterize", false, "run the micro-benchmark interference sweep")
	fs.Float64Var(&c.scaling.RateFactor, "rate-scale", 1, "project invocation volume with rates multiplied by this factor")
	fs.Float64Var(&c.scaling.TimeFactor, "time-scale", 1, "project invocation volume with the trace clock compressed by this factor")
	c.logFlags(fs)
	return func([]string) error { return c.run(c.describe) }
}

func (c *workloadCmd) describe(ctx context.Context) error {
	if c.export != "" {
		w, ok := workload.Catalog()[c.export]
		if !ok {
			return fmt.Errorf("unknown catalog workload %q", c.export)
		}
		return workload.WriteJSON(os.Stdout, w)
	}

	var w *workload.Workload
	switch {
	case c.file != "":
		var err error
		w, err = workload.LoadJSONFile(c.file)
		if err != nil {
			return fmt.Errorf("invalid workload: %w", err)
		}
	case c.catalog != "":
		var ok bool
		w, ok = workload.Catalog()[c.catalog]
		if !ok {
			return fmt.Errorf("unknown catalog workload %q", c.catalog)
		}
	default:
		return errors.New("pass -file <def.json>, -catalog <name> or -export <name>")
	}

	fmt.Printf("workload %q (%s) — valid\n", w.Name, w.Class)
	if w.Class == workload.LS {
		fmt.Printf("  SLA: p99 <= %.0f ms at up to %.0f qps\n", w.SLAp99Ms, w.MaxQPS)
	} else {
		fmt.Printf("  solo duration %.0f s x %d instances\n", w.SoloDurationS, w.Instances)
	}
	fmt.Printf("  %d functions, critical path:", w.NumFunctions())
	for _, i := range w.CriticalPath() {
		fmt.Printf(" %s", w.Functions[i].Name)
	}
	fmt.Println()

	spec := resources.DefaultServerSpec("validator")
	ps := profile.WorkloadProfiles(w, spec, nil)
	fmt.Printf("\nsolo-run profile (%d model inputs):\n", len(metrics.Selected()))
	fmt.Printf("  %-22s", "metric")
	for _, p := range ps {
		fmt.Printf("  %12s", p.Function[:min(len(p.Function), 12)])
	}
	fmt.Println()
	for _, id := range metrics.Selected() {
		fmt.Printf("  %-22s", id)
		for _, p := range ps {
			fmt.Printf("  %12.3f", p.Metrics[id])
		}
		fmt.Println()
	}

	if w.Class == workload.LS {
		p := c.scaling.Apply(trace.DefaultPattern(w.MaxQPS * 0.6))
		daily := 0.0
		const stepS = 60.0
		for t := 0.0; t < 86400; t += stepS {
			daily += p.RateAt(t) * stepS
		}
		if c.scaling.IsZero() {
			fmt.Printf("\nprojected volume under the default diurnal pattern: %.2fM invocations/day\n", daily/1e6)
		} else {
			fmt.Printf("\nprojected volume at rate x%.1f, time x%.1f: %.2fM invocations/day\n",
				c.scaling.Rate(), c.scaling.Time(), daily/1e6)
		}

		fmt.Println("\nreplica sizing at max load:")
		total := 0
		for f := range w.Functions {
			n := perfmodel.LSReplicasFor(w, f, w.MaxQPS)
			total += n
			fmt.Printf("  %-22s %d instances\n", w.Functions[f].Name, n)
		}
		fmt.Printf("  total: %d instances\n", total)
	}

	if !c.characterize {
		return nil
	}
	fmt.Println("\ninterference characterization (micro-benchmark beside each function):")
	m := perfmodel.New(resources.DefaultTestbed())
	solo := perfmodel.SpreadDeployment(w, m.Testbed)
	base, err := m.Evaluate(&perfmodel.Scenario{Deployments: []*perfmodel.Deployment{solo}}, nil)
	if err != nil {
		return err
	}
	fmt.Printf("  %-22s", "beside")
	for _, mb := range workload.MicroBenchmarks() {
		fmt.Printf("  %16s", mb.Name)
	}
	fmt.Println()
	for f := range w.Functions {
		if err := ctx.Err(); err != nil {
			return err
		}
		fmt.Printf("  %-22s", w.Functions[f].Name)
		for _, mb := range workload.MicroBenchmarks() {
			d := perfmodel.SpreadDeployment(w, m.Testbed)
			res, err := m.Evaluate(&perfmodel.Scenario{Deployments: []*perfmodel.Deployment{d, perfmodel.Beside(mb, d, f)}}, nil)
			if err != nil {
				return err
			}
			if w.Class == workload.LS {
				fmt.Printf("  %15.1fms", res.Deployments[0].E2EP99Ms)
			} else {
				fmt.Printf("  %15.1fs ", res.Deployments[0].JCTS)
			}
		}
		fmt.Println()
	}
	if w.Class == workload.LS {
		fmt.Printf("  (solo: %.1f ms p99)\n", base.Deployments[0].E2EP99Ms)
	} else {
		fmt.Printf("  (solo: %.1f s JCT)\n", base.Deployments[0].JCTS)
	}
	return nil
}
