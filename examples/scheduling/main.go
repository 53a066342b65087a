// Scheduling walkthrough on the scheduler-state API (DESIGN.md §14):
// trains Gsight, places a request stream one request at a time at 1024
// servers, then runs the §6.3 platform bake-off — Gsight's
// binary-search scheduler vs Pythia's Best Fit and Worst Fit — plus a
// chaos-fault rerun to show graceful degradation. Everything here uses
// only the root gsight package.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"gsight"
)

func main() {
	ctx := context.Background()
	model := gsight.NewTestbedModel()
	gen := gsight.NewGenerator(model, 42)
	cat := gsight.Catalog()

	// Bootstrap the predictors.
	fmt.Println("bootstrapping predictors on 400 labeled colocations...")
	var ipcObs, jctObs []gsight.Observation
	for i := 0; i < 400; i++ {
		sc := gen.Colocation(gsight.LSSC, 2)
		samples, err := gen.Label(sc)
		if err != nil {
			log.Fatal(err)
		}
		for _, s := range samples {
			o := gsight.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label}
			switch s.Kind {
			case gsight.IPCQoS:
				ipcObs = append(ipcObs, o)
			case gsight.JCTQoS:
				jctObs = append(jctObs, o)
			}
		}
	}
	gsightPred := gsight.NewPredictor(gsight.PredictorConfig{Seed: 42})
	must(gsightPred.TrainObservations(gsight.IPCQoS, ipcObs))
	must(gsightPred.TrainObservations(gsight.JCTQoS, jctObs))
	pythiaPred := gsight.NewPythia(43)
	must(pythiaPred.TrainObservations(gsight.IPCQoS, ipcObs))

	// request builds a placement request from a labeled observation's
	// target workload, renamed so each request is a distinct tenant.
	request := func(i int, name string) *gsight.PlacementRequest {
		o := ipcObs[i%len(ipcObs)]
		in := o.Inputs[o.Target]
		in.Name = name
		return &gsight.PlacementRequest{Input: in, SLA: gsight.SLA{MinIPC: 0.5}}
	}

	// -- Placement at cluster scale -------------------------------
	// 1024 servers, one request at a time, the daemon's way:
	// ProposeOrDegrade (Gsight's Propose, with WorstFit serving
	// what its predictor cannot vet), then Commit on success. Requests
	// hash to a fixed-size home window and spill outward only on
	// rejection, so per-placement cost is bounded by window size, not
	// cluster size.
	fmt.Println("\n== serial placement on a 1024-server cluster ==")
	big := gsight.NewSchedulerState(gsight.NewScaledTestbedModel(1024))
	scheduler, fallback := gsight.NewScheduler(gsightPred), gsight.NewWorstFit()
	const n = 512
	placed := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		req := request(i, fmt.Sprintf("tenant-%03d", i))
		p, _ := big.ProposeOrDegrade(scheduler, fallback, false, req) // req.Detail says why not
		if p == nil {
			continue
		}
		in := req.Input
		in.Placement = p
		big.Commit(in, req.SLA)
		placed++
	}
	elapsed := time.Since(t0)
	fmt.Printf("  placed %d/%d requests in %v (%.0f placements/s)\n",
		placed, n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	fmt.Printf("  servers: %d online, %d hosting work\n",
		big.OnlineServers(), big.ActiveServers())

	// -- Platform bake-off (§6.3 in miniature) ----------------------
	// SLAs via the latency->IPC transform (Figure 7).
	services := func() []gsight.PlatformService {
		var out []gsight.PlatformService
		for i, name := range []string{"social-network", "e-commerce"} {
			w := cat[name]
			curve := gsight.BuildCurve(model, w, 200, uint64(50+i))
			minIPC, _ := curve.MinIPCFor(w.SLAp99Ms)
			p := gsight.DefaultTracePattern(w.MaxQPS * 0.55)
			p.PhaseShift = float64(i) * 7200
			out = append(out, gsight.PlatformService{W: w, Pattern: p, SLA: gsight.SLA{MinIPC: minIPC}})
		}
		return out
	}

	const durationS = 4 * 3600
	chaos, err := gsight.FaultScenario("chaos", 42, durationS, 8)
	if err != nil {
		log.Fatal(err)
	}

	for _, entry := range []struct {
		name   string
		s      gsight.Scheduler
		faults *gsight.FaultSchedule
	}{
		{"Gsight (binary-search)", gsight.NewScheduler(gsightPred), nil},
		{"Pythia (best fit)", gsight.NewBestFit(pythiaPred), nil},
		{"Worst Fit (spread)", gsight.NewWorstFit(), nil},
		{"Gsight under chaos faults", gsight.NewScheduler(gsightPred), chaos},
	} {
		st, err := gsight.RunPlatform(ctx, gsight.PlatformConfig{
			Model:     gsight.NewTestbedModel(),
			Scheduler: entry.s,
			Services:  services(),
			SCPool: []*gsight.Workload{
				cat["matmul"], cat["dd"], cat["video-processing"], cat["float-op"],
			},
			SCMeanIntervalS: 180,
			DurationS:       durationS,
			Seed:            42,
			Faults:          entry.faults,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n== %s ==\n", entry.name)
		fmt.Printf("  density  mean %.3f inst/core (p90 %.3f)\n",
			mean(st.Density), percentile(st.Density, 90))
		fmt.Printf("  CPU util mean %.3f, memory util mean %.3f\n",
			mean(st.CPUUtil), mean(st.MemUtil))
		fmt.Printf("  SLA: social-network %.1f%%, e-commerce %.1f%%\n",
			100*st.SLARatio("social-network"), 100*st.SLARatio("e-commerce"))
		fmt.Printf("  cold starts %d, reactive migrations %d\n", st.ColdStarts, st.Migrations)
		if entry.faults != nil {
			fmt.Printf("  faults: %d events, %d services + %d jobs displaced, %d degraded placements\n",
				st.FaultEvents, st.DisplacedServices, st.DisplacedJobs, st.DegradedPlacements)
			for _, d := range st.Degraded {
				fmt.Printf("  degraded [%.0fs, %.0fs): %s\n", d.StartS, d.EndS, d.Reason)
			}
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
