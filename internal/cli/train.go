package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"gsight/internal/core"
	"gsight/internal/experiments"
	"gsight/internal/persist"
	"gsight/internal/scenario"
)

// trainCmd is `gsight train`: it generates a labeled colocation dataset
// on the simulated testbed, trains a chosen predictor incrementally,
// and reports its error curve — the paper's Figure 10 pipeline as a
// tool. Progress goes to stderr; the error curve on stdout stays
// pipeable.
//
// -save writes the trained predictor's full online-learning state to a
// checksummed checkpoint file; -load restores one (the predictor must
// be the same model and configuration) and continues training
// incrementally on the newly labeled data instead of fitting from
// scratch. Only checkpointable models (irfr) support either.
type trainCmd struct {
	runEnv
	model, colo, qos, savePath, loadPath string
	scenarios                            int
	seed                                 uint64
}

func bindTrain(fs *flag.FlagSet) func([]string) error {
	c := &trainCmd{}
	fs.StringVar(&c.model, "model", "irfr", "predictor: irfr, iknn, ilr, isvr, imlp, pythia, esp")
	fs.StringVar(&c.colo, "colocation", "lssc", "colocation kind: lsls, lssc, scsc")
	fs.StringVar(&c.qos, "qos", "ipc", "QoS target: ipc, p99, jct")
	fs.IntVar(&c.scenarios, "scenarios", 1000, "number of colocation scenarios to label")
	fs.Uint64Var(&c.seed, "seed", 42, "seed")
	fs.StringVar(&c.savePath, "save", "", "write the trained predictor's checkpoint to this file")
	fs.StringVar(&c.loadPath, "load", "", "restore a predictor checkpoint before training")
	c.logFlags(fs)
	c.outputFlags(fs)
	return func([]string) error { return c.run(c.train) }
}

func (c *trainCmd) train(ctx context.Context) error {
	kinds := map[string]core.ColocationKind{"lsls": core.LSLS, "lssc": core.LSSC, "scsc": core.SCSC}
	colocation, ok := kinds[c.colo]
	if !ok {
		return fmt.Errorf("unknown colocation %q", c.colo)
	}
	qosKinds := map[string]core.QoSKind{"ipc": core.IPCQoS, "p99": core.TailLatencyQoS, "jct": core.JCTQoS}
	qos, ok := qosKinds[c.qos]
	if !ok {
		return fmt.Errorf("unknown qos %q", c.qos)
	}
	// Only the paper's IRFR is instrumented and checkpointed.
	var pred core.QoSPredictor
	var ckpt *core.Predictor
	switch c.model {
	case "irfr":
		ckpt = core.NewPredictor(core.Config{Seed: c.seed})
		ckpt.Instrument(c.sink)
		pred = ckpt
	case "iknn":
		pred = core.NewVariant("Gsight-IKNN", core.IKNNFactory, c.seed)
	case "ilr":
		pred = core.NewVariant("Gsight-ILR", core.ILRFactory, c.seed)
	case "isvr":
		pred = core.NewVariant("Gsight-ISVR", core.ISVRFactory, c.seed)
	case "imlp":
		pred = core.NewVariant("Gsight-IMLP", core.IMLPFactory, c.seed)
	case "pythia":
		pred = core.NewPythia(c.seed)
	case "esp":
		pred = core.NewESP(c.seed)
	default:
		return fmt.Errorf("unknown model %q", c.model)
	}
	if (c.savePath != "" || c.loadPath != "") && ckpt == nil {
		return fmt.Errorf("model %q does not support checkpoints (-save/-load need irfr)", pred.Name())
	}

	loaded := false
	if c.loadPath != "" {
		data, err := os.ReadFile(c.loadPath)
		if err != nil {
			return fmt.Errorf("load checkpoint: %w", err)
		}
		_, payload, err := persist.DecodeSnapshot(data)
		if err != nil {
			return fmt.Errorf("load checkpoint %s: %w", c.loadPath, err)
		}
		_, blob, err := persist.SplitPayload(payload)
		if err != nil {
			return fmt.Errorf("load checkpoint %s: %w", c.loadPath, err)
		}
		if err := ckpt.RestoreCheckpoint(blob); err != nil {
			return fmt.Errorf("load checkpoint %s: %w", c.loadPath, err)
		}
		loaded = true
		c.infof("restored predictor state from %s", c.loadPath)
	}

	g := scenario.NewGenerator(scenario.Lab(), c.seed)

	c.infof("generating %d %s scenarios on the simulated testbed...", c.scenarios, colocation)
	t0 := time.Now()
	obs, err := experiments.CollectObs(ctx, g, colocation, qos, c.scenarios, 3)
	if err != nil {
		return fmt.Errorf("labeling: %w", err)
	}
	c.infof("labeled %d observations in %v", len(obs), time.Since(t0).Round(time.Millisecond))
	train, test := experiments.TrainTest(obs, 5)

	// Incremental training in quarters, reporting the error trajectory.
	c.infof("training %s incrementally (%d train, %d test)", pred.Name(), len(train), len(test))
	const stages = 4
	finalErr := 0.0
	for s := 0; s < stages; s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo, hi := s*len(train)/stages, (s+1)*len(train)/stages
		t0 = time.Now()
		// A restored predictor keeps learning incrementally: a batch Fit
		// would discard the loaded state.
		if s == 0 && !loaded {
			if err := pred.TrainObservations(qos, train[lo:hi]); err != nil {
				return fmt.Errorf("train: %w", err)
			}
		} else {
			for _, o := range train[lo:hi] {
				if err := pred.Observe(qos, o.Target, o.Inputs, o.Label); err != nil {
					return fmt.Errorf("observe: %w", err)
				}
			}
			if err := pred.Flush(qos); err != nil {
				return fmt.Errorf("flush: %w", err)
			}
		}
		trainDur := time.Since(t0)
		errs, err := experiments.ErrsOf(pred, qos, test)
		if err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		sum := 0.0
		for _, e := range errs {
			sum += e
		}
		finalErr = 100 * sum / float64(len(errs))
		fmt.Printf("  after %4d samples: error %.2f%% (stage took %v)\n",
			hi, finalErr, trainDur.Round(time.Millisecond))
	}

	if c.savePath != "" {
		raw, err := ckpt.CheckpointState()
		if err != nil {
			return fmt.Errorf("save checkpoint: %w", err)
		}
		// Same layout as the controllers' snapshots, so `gsight inspect
		// snapshot` reads it: a JSON section saying where it came from,
		// then the predictor blob.
		ctl, err := json.Marshal(map[string]any{
			"tool": "gsight-train", "model": pred.Name(), "colocation": c.colo,
			"qos": c.qos, "scenarios": c.scenarios, "seed": c.seed,
		})
		if err != nil {
			return fmt.Errorf("save checkpoint: %w", err)
		}
		data, err := persist.EncodeSnapshot(1, persist.FramePayload(ctl, raw))
		if err != nil {
			return fmt.Errorf("save checkpoint: %w", err)
		}
		if err := persist.WriteFileAtomic(c.savePath, data, 0o644); err != nil {
			return fmt.Errorf("save checkpoint %s: %w", c.savePath, err)
		}
		c.infof("predictor checkpoint written to %s", c.savePath)
	}

	return c.report("gsight-train",
		map[string]interface{}{
			"model":      pred.Name(),
			"colocation": c.colo,
			"qos":        c.qos,
			"scenarios":  c.scenarios,
			"seed":       c.seed,
		},
		map[string]interface{}{
			"observations":        len(obs),
			"train_samples":       len(train),
			"test_samples":        len(test),
			"final_error_percent": finalErr,
		})
}
