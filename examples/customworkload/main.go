// Custom workloads end-to-end: define an application declaratively in
// JSON, profile it, predict its QoS beside a catalog aggressor, and
// persist the profiles and trained model for the next controller
// restart — the operational loop a production Gsight deployment runs.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"gsight"
	"gsight/internal/persist"
	"gsight/internal/profile"
	"gsight/internal/scenario"
	"gsight/internal/workload"
)

const appJSON = `{
  "name": "ticket-shop",
  "class": "LS",
  "entry": "storefront",
  "sla_p99_ms": 150,
  "max_qps": 400,
  "functions": [
    {
      "name": "storefront",
      "demand": {"cpu": 0.9, "memory_gb": 0.25, "llc_mb": 1.8, "membw_gbps": 1.2, "network_gbps": 0.4, "disk_mbps": 1},
      "sensitivity": {"cpu": 0.5, "memory_gb": 0.1, "llc_mb": 0.45, "membw_gbps": 0.4, "network_gbps": 0.3, "disk_mbps": 0.05},
      "solo_ipc": 1.28,
      "base_service_ms": 6,
      "cold_start_ms": 400,
      "calls": [{"callee": "inventory", "mode": "nested"}, {"callee": "audit", "mode": "async"}]
    },
    {
      "name": "inventory",
      "demand": {"cpu": 1.3, "memory_gb": 0.4, "llc_mb": 3.2, "membw_gbps": 2.1, "network_gbps": 0.25, "disk_mbps": 5},
      "sensitivity": {"cpu": 0.6, "memory_gb": 0.15, "llc_mb": 0.65, "membw_gbps": 0.55, "network_gbps": 0.2, "disk_mbps": 0.1},
      "solo_ipc": 1.07,
      "base_service_ms": 9,
      "cold_start_ms": 550,
      "calls": [{"callee": "payments", "mode": "sequence"}]
    },
    {
      "name": "payments",
      "demand": {"cpu": 0.6, "memory_gb": 0.2, "llc_mb": 1.0, "membw_gbps": 0.7, "network_gbps": 0.35, "disk_mbps": 2},
      "sensitivity": {"cpu": 0.45, "memory_gb": 0.1, "llc_mb": 0.3, "membw_gbps": 0.3, "network_gbps": 0.35, "disk_mbps": 0.05},
      "solo_ipc": 1.3,
      "base_service_ms": 5,
      "cold_start_ms": 380
    },
    {
      "name": "audit",
      "demand": {"cpu": 0.2, "memory_gb": 0.1, "llc_mb": 0.4, "membw_gbps": 0.3, "network_gbps": 0.1, "disk_mbps": 12},
      "sensitivity": {"cpu": 0.2, "memory_gb": 0.05, "llc_mb": 0.15, "membw_gbps": 0.15, "network_gbps": 0.1, "disk_mbps": 0.35},
      "solo_ipc": 0.92,
      "base_service_ms": 3,
      "cold_start_ms": 300
    }
  ]
}`

func main() {
	// 1. Parse the declarative workload definition.
	app, err := workload.ParseJSON(strings.NewReader(appJSON))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %q: %d functions, critical path %v\n",
		app.Name, app.NumFunctions(), pathNames(app))

	// 2. Solo-run profile it and persist the profiles.
	model := gsight.NewTestbedModel()
	store := profile.NewStore()
	store.ProfileWorkload(app, model.Testbed.Servers[0], nil)
	dir, err := os.MkdirTemp("", "gsight-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	storePath := filepath.Join(dir, "profiles.json")
	if err := persist.SaveStoreFile(storePath, store, []string{app.Name}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiles persisted to %s\n", filepath.Base(storePath))

	// 3. Train a predictor on colocations that include the new app.
	gen := gsight.NewGenerator(model, 11)
	gen.LSPool = append(gen.LSPool, app)
	gen.Store.Put(app.Name, mustGet(store, app.Name))
	var obs []gsight.Observation
	collect := func(sc *gsight.Scenario) {
		samples, err := gen.Label(sc)
		if err != nil {
			log.Fatal(err)
		}
		for _, s := range samples {
			if s.Kind == gsight.IPCQoS {
				obs = append(obs, gsight.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label})
			}
		}
	}
	for i := 0; i < 200; i++ {
		collect(gen.Colocation(gsight.LSSC, 2))
	}
	// Plus targeted colocations: aggressors placed exactly beside each
	// of the new app's functions at varying loads, as the paper's
	// characterization study does.
	for i := 0; i < 150; i++ {
		d := gsight.SpreadDeployment(app, model.Testbed)
		d.QPS = app.MaxQPS * (0.3 + 0.5*float64(i%5)/4)
		co := gsight.Catalog()["matmul"].Clone()
		if i%2 == 1 {
			co = gsight.Catalog()["video-processing"].Clone()
		}
		c := gsight.NewDeployment(co)
		target := (i / 2) % app.NumFunctions()
		c.Placement[0] = d.Placement[target]
		c.Socket[0] = d.Socket[target]
		collect(&gsight.Scenario{Deployments: []*gsight.Deployment{d, c}})
	}
	pred := gsight.NewPredictor(gsight.PredictorConfig{Seed: 11})
	if err := pred.TrainObservations(gsight.IPCQoS, obs); err != nil {
		log.Fatal(err)
	}

	// 4. Predict the new app's IPC beside matmul and verify against
	//    the testbed ground truth.
	d := gsight.SpreadDeployment(app, model.Testbed)
	d.QPS = app.MaxQPS * 0.5
	mm := gsight.NewDeployment(gsight.Catalog()["matmul"].Clone())
	mm.Placement[0] = d.Placement[1] // beside inventory
	mm.Socket[0] = d.Socket[1]
	inputs := []gsight.WorkloadInput{
		scenario.InputFrom(d, mustGet(store, app.Name)),
		scenario.InputFrom(mm, mustGet2(gen, "matmul")),
	}
	predicted, err := pred.Predict(gsight.IPCQoS, 0, inputs)
	if err != nil {
		log.Fatal(err)
	}
	truth, err := model.Evaluate(&gsight.Scenario{Deployments: []*gsight.Deployment{d, mm}}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ticket-shop IPC beside matmul: predicted %.3f, measured %.3f\n",
		predicted, truth.Deployments[0].IPC)

	// 5. Persist the trained predictor the way the controllers do — the
	//    binary checkpoint their snapshots carry; a restarted controller
	//    restores it and keeps predicting without retraining.
	blob, err := pred.CheckpointState()
	if err != nil {
		log.Fatal(err)
	}
	restarted := gsight.NewPredictor(gsight.PredictorConfig{Seed: 11})
	if err := restarted.RestoreCheckpoint(blob); err != nil {
		log.Fatal(err)
	}
	again, err := restarted.Predict(gsight.IPCQoS, 0, inputs)
	if err != nil {
		log.Fatal(err)
	}
	if again != predicted {
		log.Fatalf("restored predictor predicts %v, the original %v", again, predicted)
	}
	fmt.Printf("model survives restart: same prediction, %d KB on disk\n", len(blob)/1024)
}

func pathNames(w *workload.Workload) []string {
	var names []string
	for _, i := range w.CriticalPath() {
		names = append(names, w.Functions[i].Name)
	}
	return names
}

func mustGet(s *profile.Store, name string) []profile.Profile {
	ps, ok := s.Get(name)
	if !ok {
		log.Fatalf("no profiles for %s", name)
	}
	return ps
}

func mustGet2(g *gsight.Generator, name string) []profile.Profile {
	ps, ok := g.Store.Get(name)
	if !ok {
		log.Fatalf("no profiles for %s", name)
	}
	return ps
}
