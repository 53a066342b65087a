// Command gsight-train generates a labeled colocation dataset on the
// simulated testbed, trains a chosen predictor incrementally, and
// reports its error curve — the paper's Figure 10 pipeline as a tool.
// Progress goes to stderr; the error curve on stdout stays pipeable.
//
// Usage:
//
//	gsight-train [-model irfr|iknn|ilr|isvr|imlp|pythia|esp]
//	             [-colocation lssc|lsls|scsc] [-qos ipc|p99|jct]
//	             [-scenarios 1000] [-seed 42] [-v|-quiet]
//	             [-save model.ckpt] [-load model.ckpt]
//	             [-debug-addr :6060] [-report run.json] [-decision-log run.jsonl]
//
// -save writes the trained predictor's full online-learning state to a
// checksummed checkpoint file; -load restores one (the predictor must
// be the same model and configuration) and continues training
// incrementally on the newly labeled data instead of fitting from
// scratch. Only checkpointable models (irfr) support either.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"gsight/internal/baselines"
	"gsight/internal/core"
	"gsight/internal/logx"
	"gsight/internal/perfmodel"
	"gsight/internal/persist"
	"gsight/internal/resources"
	"gsight/internal/scenario"
	"gsight/internal/telemetry"
)

func main() {
	model := flag.String("model", "irfr", "predictor: irfr, iknn, ilr, isvr, imlp, pythia, esp")
	colo := flag.String("colocation", "lssc", "colocation kind: lsls, lssc, scsc")
	qosName := flag.String("qos", "ipc", "QoS target: ipc, p99, jct")
	scenarios := flag.Int("scenarios", 1000, "number of colocation scenarios to label")
	seed := flag.Uint64("seed", 42, "seed")
	savePath := flag.String("save", "", "write the trained predictor's checkpoint to this file")
	loadPath := flag.String("load", "", "restore a predictor checkpoint before training")
	verbose := flag.Bool("v", false, "verbose progress")
	quiet := flag.Bool("quiet", false, "errors only")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	reportPath := flag.String("report", "", "write a JSON run report to this file")
	decisionPath := flag.String("decision-log", "", "write the JSONL decision log to this file")
	flag.Parse()

	log := logx.Default(*verbose, *quiet)

	sink := telemetry.New()
	if *decisionPath != "" {
		f, err := os.Create(*decisionPath)
		if err != nil {
			log.Fatalf("decision log: %v", err)
		}
		bw := bufio.NewWriter(f)
		defer func() {
			bw.Flush()
			f.Close()
		}()
		sink.WithDecisions(bw)
	}
	if *debugAddr != "" {
		addr, err := telemetry.ServeDebug(*debugAddr, sink.Registry)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		log.Infof("debug server on http://%s (metrics, expvar, pprof)", addr)
	}

	kinds := map[string]core.ColocationKind{"lsls": core.LSLS, "lssc": core.LSSC, "scsc": core.SCSC}
	colocation, ok := kinds[*colo]
	if !ok {
		log.Fatalf("unknown colocation %q", *colo)
	}
	qosKinds := map[string]core.QoSKind{"ipc": core.IPCQoS, "p99": core.TailLatencyQoS, "jct": core.JCTQoS}
	qos, ok := qosKinds[*qosName]
	if !ok {
		log.Fatalf("unknown qos %q", *qosName)
	}
	var pred core.QoSPredictor
	switch *model {
	case "irfr":
		pred = core.NewPredictor(core.Config{Seed: *seed})
	case "iknn":
		pred = baselines.NewGsightVariant("Gsight-IKNN", baselines.IKNNFactory, *seed)
	case "ilr":
		pred = baselines.NewGsightVariant("Gsight-ILR", baselines.ILRFactory, *seed)
	case "isvr":
		pred = baselines.NewGsightVariant("Gsight-ISVR", baselines.ISVRFactory, *seed)
	case "imlp":
		pred = baselines.NewGsightVariant("Gsight-IMLP", baselines.IMLPFactory, *seed)
	case "pythia":
		pred = baselines.NewPythia(*seed)
	case "esp":
		pred = baselines.NewESP(*seed)
	default:
		log.Fatalf("unknown model %q", *model)
	}
	if in, ok := pred.(interface{ Instrument(*telemetry.Sink) }); ok {
		in.Instrument(sink)
	}

	ckpt, checkpointable := pred.(core.Checkpointable)
	if (*savePath != "" || *loadPath != "") && !checkpointable {
		log.Fatalf("model %q does not support checkpoints (-save/-load need irfr)", pred.Name())
	}
	loaded := false
	if *loadPath != "" {
		data, err := os.ReadFile(*loadPath)
		if err != nil {
			log.Fatalf("load checkpoint: %v", err)
		}
		_, payload, err := persist.DecodeSnapshot(data)
		if err != nil {
			log.Fatalf("load checkpoint %s: %v", *loadPath, err)
		}
		_, blob, err := persist.SplitPayload(payload)
		if err != nil {
			log.Fatalf("load checkpoint %s: %v", *loadPath, err)
		}
		if err := ckpt.RestoreCheckpoint(blob); err != nil {
			log.Fatalf("load checkpoint %s: %v", *loadPath, err)
		}
		loaded = true
		log.Infof("restored predictor state from %s", *loadPath)
	}

	m := perfmodel.New(resources.DefaultTestbed())
	scenario.FastConfig(m)
	g := scenario.NewGenerator(m, *seed)

	log.Infof("generating %d %s scenarios on the simulated testbed...", *scenarios, colocation)
	t0 := time.Now()
	var obs []core.Observation
	for _, d := range g.Draws(colocation, *scenarios, 3) {
		samples, err := g.LabelWith(d.Scenario, d.Noise)
		if err != nil {
			log.Fatalf("labeling: %v", err)
		}
		for _, s := range samples {
			if s.Kind == qos {
				obs = append(obs, core.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label})
			}
		}
	}
	log.Infof("labeled %d observations in %v", len(obs), time.Since(t0).Round(time.Millisecond))

	var train, test []core.Observation
	for i, o := range obs {
		if (i+1)%5 == 0 {
			test = append(test, o)
		} else {
			train = append(train, o)
		}
	}

	// Incremental training in quarters, reporting the error trajectory.
	log.Infof("training %s incrementally (%d train, %d test)", pred.Name(), len(train), len(test))
	const stages = 4
	finalErr := 0.0
	for s := 0; s < stages; s++ {
		lo, hi := s*len(train)/stages, (s+1)*len(train)/stages
		t0 = time.Now()
		// A restored predictor keeps learning incrementally: a batch Fit
		// would discard the loaded state.
		if s == 0 && !loaded {
			if err := pred.TrainObservations(qos, train[lo:hi]); err != nil {
				log.Fatalf("train: %v", err)
			}
		} else {
			for _, o := range train[lo:hi] {
				if err := pred.Observe(qos, o.Target, o.Inputs, o.Label); err != nil {
					log.Fatalf("observe: %v", err)
				}
			}
			if err := pred.Flush(qos); err != nil {
				log.Fatalf("flush: %v", err)
			}
		}
		trainDur := time.Since(t0)
		sum, n := 0.0, 0
		for _, o := range test {
			if o.Label == 0 {
				continue
			}
			got, err := pred.Predict(qos, o.Target, o.Inputs)
			if err != nil {
				log.Fatalf("predict: %v", err)
			}
			e := (got - o.Label) / o.Label
			if e < 0 {
				e = -e
			}
			sum += e
			n++
		}
		finalErr = 100 * sum / float64(n)
		fmt.Printf("  after %4d samples: error %.2f%% (stage took %v)\n",
			hi, finalErr, trainDur.Round(time.Millisecond))
	}

	if *savePath != "" {
		raw, err := ckpt.CheckpointState()
		if err != nil {
			log.Fatalf("save checkpoint: %v", err)
		}
		// Same layout as the controllers' snapshots, so gsight-inspect
		// snapshot reads it: a JSON section saying where it came from,
		// then the predictor blob.
		ctl, err := json.Marshal(map[string]any{
			"tool": "gsight-train", "model": pred.Name(), "colocation": *colo,
			"qos": *qosName, "scenarios": *scenarios, "seed": *seed,
		})
		if err != nil {
			log.Fatalf("save checkpoint: %v", err)
		}
		data, err := persist.EncodeSnapshot(1, persist.FramePayload(ctl, raw))
		if err != nil {
			log.Fatalf("save checkpoint: %v", err)
		}
		if err := persist.WriteFileAtomic(*savePath, data, 0o644); err != nil {
			log.Fatalf("save checkpoint %s: %v", *savePath, err)
		}
		log.Infof("predictor checkpoint written to %s", *savePath)
	}

	if *reportPath != "" {
		rep := sink.Report("gsight-train",
			map[string]interface{}{
				"model":      pred.Name(),
				"colocation": *colo,
				"qos":        *qosName,
				"scenarios":  *scenarios,
				"seed":       *seed,
			},
			map[string]interface{}{
				"observations":        len(obs),
				"train_samples":       len(train),
				"test_samples":        len(test),
				"final_error_percent": finalErr,
			})
		if err := telemetry.WriteRunReport(*reportPath, rep); err != nil {
			log.Fatalf("run report: %v", err)
		}
		log.Infof("run report written to %s", *reportPath)
	}
}
