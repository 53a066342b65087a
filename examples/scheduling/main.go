// Scheduling walkthrough on the shared-state API (DESIGN.md §14):
// trains Gsight, places a two-request batch whose second proposal goes
// stale and is re-proposed at commit, places a request stream through
// the concurrent placer pool at 1024 servers, then runs the §6.3 platform bake-off — Gsight's
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

	// -- Optimistic batch placement ---------------------------------
	// A batch is proposed against one snapshot and committed in request
	// order: a proposal whose window an earlier commit touched is
	// re-proposed against the fresh state. On the 8-server testbed
	// every proposal reads the whole cluster, so tenant-b's goes stale.
	fmt.Println("\n== optimistic batch placement ==")
	state := gsight.NewSchedulerState(model)
	batch := gsight.NewPlacerPool(state, 2,
		func() gsight.Scheduler { return gsight.NewScheduler(gsightPred) })
	for i, r := range batch.PlaceAll([]*gsight.PlacementRequest{
		request(0, "tenant-a"), request(0, "tenant-b"),
	}) {
		must(r.Err)
		fmt.Printf("  tenant-%c committed at servers %v (%d re-proposed)\n", 'a'+i, r.Placement, r.Retries)
	}

	// -- The placer pool at cluster scale ---------------------------
	// 1024 servers, 4 concurrent placers. Requests hash to a
	// fixed-size home window and spill outward only on rejection, so
	// per-placement cost is bounded by window size, not cluster size —
	// and results are those of serial placement at any placer count.
	fmt.Println("\n== placer pool on a 1024-server cluster ==")
	big := gsight.NewSchedulerState(gsight.NewScaledTestbedModel(1024))
	pool := gsight.NewPlacerPool(big, 4,
		func() gsight.Scheduler { return gsight.NewScheduler(gsightPred) })
	reqs := make([]*gsight.PlacementRequest, 512)
	for i := range reqs {
		reqs[i] = request(i, fmt.Sprintf("tenant-%03d", i))
	}
	t0 := time.Now()
	results := pool.PlaceAll(reqs)
	elapsed := time.Since(t0)
	placed, retries := 0, 0
	for _, r := range results {
		if r.Err == nil {
			placed++
		}
		retries += r.Retries
	}
	fmt.Printf("  placed %d/%d requests in %v (%.0f placements/s, %d re-proposed at commit)\n",
		placed, len(reqs), elapsed.Round(time.Millisecond),
		float64(len(reqs))/elapsed.Seconds(), retries)
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
