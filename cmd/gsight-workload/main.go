// Command gsight-workload validates a JSON workload definition and
// reports how the system will see it: the call-path structure, critical
// path, solo-run profile (the per-function table of every model input
// metric, what the paper's perf/pqos collector would report, §3.2),
// default replica sizing, and — optionally — a
// quick interference characterization against the catalog
// micro-benchmarks (a one-workload Figure 3(a)).
//
// Usage:
//
//	gsight-workload -file app.json [-characterize]
//	gsight-workload -catalog social-network [-characterize]
//	gsight-workload -export social-network      # print a catalog entry as JSON
package main

import (
	"flag"
	"fmt"
	"os"

	"gsight/internal/logx"
	"gsight/internal/metrics"
	"gsight/internal/perfmodel"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/telemetry"
	"gsight/internal/trace"
	"gsight/internal/workload"
)

var log *logx.Logger

func main() {
	file := flag.String("file", "", "JSON workload definition to validate")
	catalogName := flag.String("catalog", "", "inspect a catalog workload instead")
	export := flag.String("export", "", "print a catalog workload as JSON and exit")
	characterize := flag.Bool("characterize", false, "run the micro-benchmark interference sweep")
	rateScale := flag.Float64("rate-scale", 1, "project invocation volume with rates multiplied by this factor")
	timeScale := flag.Float64("time-scale", 1, "project invocation volume with the trace clock compressed by this factor")
	verbose := flag.Bool("v", false, "verbose progress")
	quiet := flag.Bool("quiet", false, "errors only")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address")
	flag.Parse()

	log = logx.Default(*verbose, *quiet)
	if *debugAddr != "" {
		addr, err := telemetry.ServeDebug(*debugAddr, nil)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		log.Infof("debug server on http://%s (expvar, pprof)", addr)
	}

	if *export != "" {
		w, ok := workload.Catalog()[*export]
		if !ok {
			fatal("unknown catalog workload %q", *export)
		}
		if err := workload.WriteJSON(os.Stdout, w); err != nil {
			fatal("%v", err)
		}
		return
	}

	var w *workload.Workload
	switch {
	case *file != "":
		var err error
		w, err = workload.LoadJSONFile(*file)
		if err != nil {
			fatal("invalid workload: %v", err)
		}
	case *catalogName != "":
		var ok bool
		w, ok = workload.Catalog()[*catalogName]
		if !ok {
			fatal("unknown catalog workload %q", *catalogName)
		}
	default:
		fatal("pass -file <def.json>, -catalog <name> or -export <name>")
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
		fmt.Printf("  %12s", trunc(p.Function, 12))
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
		sc := trace.Scaling{RateFactor: *rateScale, TimeFactor: *timeScale}
		p := sc.Apply(trace.DefaultPattern(w.MaxQPS * 0.6))
		daily := 0.0
		const stepS = 60.0
		for t := 0.0; t < 86400; t += stepS {
			daily += p.RateAt(t) * stepS
		}
		if sc.IsZero() {
			fmt.Printf("\nprojected volume under the default diurnal pattern: %.2fM invocations/day\n", daily/1e6)
		} else {
			fmt.Printf("\nprojected volume at rate x%.1f, time x%.1f: %.2fM invocations/day\n",
				sc.Rate(), sc.Time(), daily/1e6)
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

	if *characterize {
		fmt.Println("\ninterference characterization (micro-benchmark beside each function):")
		m := perfmodel.New(resources.DefaultTestbed())
		solo := deploy(w, m)
		base, err := m.Evaluate(&perfmodel.Scenario{Deployments: []*perfmodel.Deployment{solo}}, nil)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("  %-22s", "beside")
		for _, mb := range workload.MicroBenchmarks() {
			fmt.Printf("  %16s", mb.Name)
		}
		fmt.Println()
		for f := range w.Functions {
			fmt.Printf("  %-22s", w.Functions[f].Name)
			for _, mb := range workload.MicroBenchmarks() {
				d := deploy(w, m)
				c := perfmodel.NewDeployment(mb.Clone())
				for cf := range c.Placement {
					c.Placement[cf] = d.Placement[f]
					c.Socket[cf] = d.Socket[f]
				}
				res, err := m.Evaluate(&perfmodel.Scenario{Deployments: []*perfmodel.Deployment{d, c}}, nil)
				if err != nil {
					fatal("%v", err)
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
	}
}

func deploy(w *workload.Workload, m *perfmodel.Model) *perfmodel.Deployment {
	d := perfmodel.SpreadDeployment(w, m.Testbed)
	if w.Class == workload.LS {
		d.QPS = w.MaxQPS / 2
	}
	return d
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

func fatal(format string, args ...interface{}) {
	log.Fatalf(format, args...)
}
