package experiments

import (
	"context"
	"fmt"

	"gsight/internal/perfmodel"
	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/scenario"
	"gsight/internal/stats"
	"gsight/internal/workload"
)

// Table1Survey regenerates Table 1: the serverless workload taxonomy
// with the catalog's representatives per class.
func Table1Survey(ctx context.Context, opt Options) (*Report, error) {
	r := &Report{
		ID:      "table1",
		Title:   "Serverless workload survey (BG / SC / LS)",
		Columns: []string{"class", "description", "catalog workloads"},
	}
	desc := map[workload.Class]string{
		workload.BG: "triggered or scheduled intermittently; no latency requirements",
		workload.SC: "minute-level processing times; millisecond changes are trivial",
		workload.LS: "frequent invocations; millisecond latency increases degrade UX",
	}
	for _, c := range []workload.Class{workload.BG, workload.SC, workload.LS} {
		var names []string
		for _, w := range workload.ByClass(c) {
			names = append(names, w.Name)
		}
		r.AddRow(c.String(), desc[c], fmt.Sprintf("%v", names))
	}
	r.AddNote("paper examples — BG: IoT collection, monitoring; SC: bigdata, linear algebra; LS: web search, e-commerce, social networks")
	return r, nil
}

// Table4Testbed regenerates Table 4: the simulated testbed
// configuration.
func Table4Testbed(ctx context.Context, _ Options) (*Report, error) {
	tb := resources.DefaultTestbed()
	s := tb.Servers[0]
	r := &Report{
		ID:      "table4",
		Title:   "Experimental testbed configuration",
		Columns: []string{"component", "specification"},
	}
	r.AddRow("CPU model", "Intel Xeon E7-4820v4 (simulated)")
	r.AddRow("Number of sockets", fmt.Sprintf("%d", s.Sockets))
	r.AddRow("Processor base freq.", fmt.Sprintf("%.2f GHz", s.BaseFreqGHz))
	r.AddRow("Physical cores", f0(s.Capacity[resources.CPU]))
	r.AddRow("Shared LLC size", fmt.Sprintf("%.0f MB per socket", s.Capacity[resources.LLC]))
	r.AddRow("Memory capacity", fmt.Sprintf("%.0f GB", s.Capacity[resources.Memory]))
	r.AddRow("Memory bandwidth", fmt.Sprintf("%.0f GB/s", s.Capacity[resources.MemBW]))
	r.AddRow("Network", fmt.Sprintf("%.0f Gb/s", s.Capacity[resources.Network]))
	r.AddRow("Disk throughput", fmt.Sprintf("%.0f MB/s (SSD)", s.Capacity[resources.Disk]))
	r.AddRow("Number of nodes", fmt.Sprintf("%d", tb.NumServers()))
	return r, nil
}

// Fig3aVolatility regenerates Figure 3(a): the 99th-percentile latency,
// latency CoV and IPC of the social-network message-posting workflow
// under the 36 partial-interference scenarios (4 micro-benchmarks x 9
// functions).
func Fig3aVolatility(ctx context.Context, opt Options) (*Report, error) {
	m := scenario.Lab()
	sn := workload.SocialNetwork()
	trials := opt.n(20, 6)

	r := &Report{
		ID:      "fig3a",
		Title:   "Partial-interference volatility: micro-benchmark x function",
		Columns: []string{"corunner", "beside", "p99 (ms)", "CoV", "IPC"},
	}
	evalRepeated := func(deps func() []*perfmodel.Deployment, seedOff uint64) (p99, cov, ipc float64) {
		var p99s, ipcs []float64
		for t := 0; t < trials; t++ {
			res, err := m.Evaluate(&perfmodel.Scenario{Deployments: deps()},
				rng.Stream(opt.Seed+seedOff, fmt.Sprintf("fig3a-%d", t)))
			if err != nil {
				continue
			}
			p99s = append(p99s, res.Deployments[0].E2EP99Ms)
			ipcs = append(ipcs, res.Deployments[0].IPC)
		}
		return stats.Mean(p99s), stats.CoV(p99s), stats.Mean(ipcs)
	}

	soloP99, soloCoV, soloIPC := evalRepeated(func() []*perfmodel.Deployment {
		return []*perfmodel.Deployment{perfmodel.SpreadDeployment(sn, m.Testbed)}
	}, 0)
	r.AddRow("(solo)", "-", f1(soloP99), f2(soloCoV), f2(soloIPC))

	// The 36 grid cells draw from per-cell seed-derived streams and the
	// shared model is read-only under Evaluate, so they fan out freely;
	// rows are assembled in grid order afterwards.
	micros := workload.MicroBenchmarks()
	nFn := sn.NumFunctions()
	type cell struct{ p99, cov, ipc float64 }
	cells := make([]cell, len(micros)*nFn)
	if err := forEach(ctx, len(cells), func(idx int) error {
		mi, f := idx/nFn, idx%nFn
		p99, cov, ipc := evalRepeated(func() []*perfmodel.Deployment {
			d := perfmodel.SpreadDeployment(sn, m.Testbed)
			return []*perfmodel.Deployment{d, perfmodel.Beside(micros[mi], d, f)}
		}, uint64(100+mi*16+f))
		cells[idx] = cell{p99, cov, ipc}
		return nil
	}); err != nil {
		return nil, err
	}
	var minP99, maxP99 = soloP99, soloP99
	var entryP99, followP99 float64
	for mi, micro := range micros {
		for f := 0; f < nFn; f++ {
			c := cells[mi*nFn+f]
			r.AddRow(micro.Name, fmt.Sprintf("fn%d %s", f+1, sn.Functions[f].Name),
				f1(c.p99), f2(c.cov), f2(c.ipc))
			if c.p99 < minP99 {
				minP99 = c.p99
			}
			if c.p99 > maxP99 {
				maxP99 = c.p99
			}
			if micro.Name == "matmul" && f == 0 {
				entryP99 = c.p99
			}
			if micro.Name == "matmul" && f == 8 {
				followP99 = c.p99
			}
		}
	}
	r.AddNote("p99 spread across scenarios: %.1fx (paper reports up to 7x)", maxP99/minP99)
	r.AddNote("matmul beside get-followers vs compose-post: %.1fx (paper: ~3x)", followP99/entryP99)
	return r, nil
}

// Fig3bTemporal regenerates Figure 3(b): LR and KMeans JCTs when KMeans
// starts with delays g1..g7 = 0..360 s in 60 s steps, both bound to one
// server socket.
func Fig3bTemporal(ctx context.Context, opt Options) (*Report, error) {
	m := scenario.Lab()
	m.Cfg.StepS = 2 // fine-grained phases matter here
	r := &Report{
		ID:      "fig3b",
		Title:   "Temporal overlap: LR + KMeans JCT vs start delay",
		Columns: []string{"config", "delay (s)", "LR JCT (s)", "KMeans JCT (s)"},
	}
	var lrJCTs []float64
	for g := 0; g < 7; g++ {
		lr := perfmodel.NewDeployment(workload.LogisticRegression())
		km := perfmodel.NewDeployment(workload.KMeans())
		km.StartDelayS = float64(g * 60)
		res, err := m.Evaluate(&perfmodel.Scenario{Deployments: []*perfmodel.Deployment{lr, km}},
			rng.Stream(opt.Seed, fmt.Sprintf("fig3b-%d", g)))
		if err != nil {
			return nil, err
		}
		lrJCT := res.Deployments[0].JCTS
		lrJCTs = append(lrJCTs, lrJCT)
		r.AddRow(fmt.Sprintf("g%d", g+1), f0(km.StartDelayS), f1(lrJCT), f1(res.Deployments[1].JCTS))
	}
	peak, peakAt := lrJCTs[0], 0
	for g, v := range lrJCTs {
		if v > peak {
			peak, peakAt = v, g
		}
	}
	r.AddNote("LR solo JCT: 429 s; measured peak at g%d with %.0f s, min %.0f s (paper: rises 429->785 to g4, then falls)",
		peakAt+1, peak, stats.Min(lrJCTs))
	return r, nil
}

// Fig4Propagation regenerates Figure 4: per-function p99 under
// interference at fn1 (compose-post) and fn6 (compose-and-upload), and
// after local control moves the corunner to another socket.
func Fig4Propagation(ctx context.Context, opt Options) (*Report, error) {
	m := scenario.Lab()
	sn := workload.SocialNetwork()

	base := perfmodel.SpreadDeployment(sn, m.Testbed)
	bres, err := m.Evaluate(&perfmodel.Scenario{Deployments: []*perfmodel.Deployment{base}}, nil)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:      "fig4",
		Title:   "Hotspot and restoring propagation (p99 per function, ms)",
		Columns: []string{"function", "baseline", "interf@fn1", "control@fn1", "interf@fn6", "control@fn6"},
	}
	run := func(target, socket int) (*perfmodel.DeploymentResult, error) {
		d := perfmodel.SpreadDeployment(sn, m.Testbed)
		c := perfmodel.NewDeployment(workload.MatMul())
		c.Placement[0] = d.Placement[target]
		if socket < 0 {
			c.Socket[0] = d.Socket[target]
		} else {
			c.Socket[0] = socket
		}
		res, err := m.Evaluate(&perfmodel.Scenario{Deployments: []*perfmodel.Deployment{d, c}}, nil)
		if err != nil {
			return nil, err
		}
		return &res.Deployments[0], nil
	}
	i1, err := run(0, -1)
	if err != nil {
		return nil, err
	}
	c1, err := run(0, 2) // empty socket: local control
	if err != nil {
		return nil, err
	}
	i6, err := run(5, -1)
	if err != nil {
		return nil, err
	}
	c6, err := run(5, 2)
	if err != nil {
		return nil, err
	}
	for f := 0; f < sn.NumFunctions(); f++ {
		r.AddRow(fmt.Sprintf("fn%d %s", f+1, sn.Functions[f].Name),
			f1(bres.Deployments[0].PerFunc[f].LocalP99Ms),
			f1(i1.PerFunc[f].LocalP99Ms), f1(c1.PerFunc[f].LocalP99Ms),
			f1(i6.PerFunc[f].LocalP99Ms), f1(c6.PerFunc[f].LocalP99Ms))
	}
	relief := 0
	for f := 1; f < sn.NumFunctions(); f++ {
		if i1.PerFunc[f].LocalP99Ms < bres.Deployments[0].PerFunc[f].LocalP99Ms {
			relief++
		}
	}
	r.AddNote("interference at fn1 raised its p99 %.1fx while %d/8 other functions dropped (paper: all others drop)",
		i1.PerFunc[0].LocalP99Ms/bres.Deployments[0].PerFunc[0].LocalP99Ms, relief)
	r.AddNote("local control restores fn1 to %.2fx baseline and lifts the others back (restoring propagation)",
		c1.PerFunc[0].LocalP99Ms/bres.Deployments[0].PerFunc[0].LocalP99Ms)
	return r, nil
}
