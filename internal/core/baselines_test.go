package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"gsight/internal/core"
	"gsight/internal/scenario"
)

// buildObs generates a small labeled observation set shared by the tests.
func buildObs(t *testing.T, kind core.QoSKind, n int) []core.Observation {
	t.Helper()
	m := scenario.Lab()
	g := scenario.NewGenerator(m, 7)
	var obs []core.Observation
	for len(obs) < n {
		sc := g.Colocation(core.LSSC, 2)
		samples, err := g.Label(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if s.Kind == kind {
				obs = append(obs, core.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label})
			}
		}
	}
	return obs
}

// comparison lists the comparison predictors' constructors with the
// seeds TestBaselineBytes pins them at.
var comparison = []func() *core.Predictor{
	func() *core.Predictor { return core.NewESP(1) },
	func() *core.Predictor { return core.NewPythia(2) },
	func() *core.Predictor { return core.NewVariant("IKNN", core.IKNNFactory, 3) },
	func() *core.Predictor { return core.NewVariant("ILR", core.ILRFactory, 4) },
	func() *core.Predictor { return core.NewVariant("ISVR", core.ISVRFactory, 5) },
	func() *core.Predictor { return core.NewVariant("IMLP", core.IMLPFactory, 6) },
}

// TestBaselineBytes pins what ESP, Pythia and the four model variants
// predict, bit for bit: each trains on 100 IPC and 100 JCT
// observations, observes 30 more of each and flushes, then predicts 30
// held-out ones of each kind. The digests are sha256 over the
// little-endian float64 bits of those predictions, IPC then JCT; they
// were taken from the implementation before these predictors were
// core.Predictors (a feature-predictor skeleton of their own and a
// log-target model wrapper), so they pin that the move changed no
// model byte. Batch predictions must equal per-query ones, and a second
// TrainObservations must be ErrTrained.
func TestBaselineBytes(t *testing.T) {
	want := map[string]string{
		"ESP":    "e34e896441c6670dea0793d1eef86cb9037387f08d4749e9f66004f82e11fc1d",
		"Pythia": "ba6903a2154c5c06342b802d8864faf4bae7fdba862a6949ac03da762809b004",
		"IKNN":   "1c422178837a4a442490bba5ac35b9e89ec692bbc5414bb40bf228e13bdf2cb9",
		"ILR":    "58a1bc2f96c9dab196384fb9c11957e6e94ff5b7dad321f2260022bb0d5fb2b1",
		"ISVR":   "d4d4952854ddf257414e787a3e00dd40d41adef776e3ea8bf0138dba67e3489c",
		"IMLP":   "0122af732269ce40a2ef4b14629d43ca1b37a553dc976368f37390837d624ab4",
	}
	sets := map[core.QoSKind][]core.Observation{
		core.IPCQoS: buildObs(t, core.IPCQoS, 160),
		core.JCTQoS: buildObs(t, core.JCTQoS, 160),
	}
	for _, mk := range comparison {
		p := mk()
		h := sha256.New()
		for _, kind := range []core.QoSKind{core.IPCQoS, core.JCTQoS} {
			obs := sets[kind]
			if err := p.TrainObservations(kind, obs[:100]); err != nil {
				t.Fatal(err)
			}
			if err := p.TrainObservations(kind, obs[:100]); !errors.Is(err, core.ErrTrained) {
				t.Fatalf("%s %v: second TrainObservations returned %v, want ErrTrained", p.Name(), kind, err)
			}
			for _, o := range obs[100:130] {
				if err := p.Observe(kind, o.Target, o.Inputs, o.Label); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Flush(kind); err != nil {
				t.Fatal(err)
			}
			held := obs[130:]
			queries := make([]core.Query, len(held))
			for i, o := range held {
				queries[i] = core.Query{Target: o.Target, Inputs: o.Inputs}
			}
			batch := make([]float64, len(held))
			if err := p.PredictBatchInto(kind, queries, batch); err != nil {
				t.Fatal(err)
			}
			for i, o := range held {
				v, err := p.Predict(kind, o.Target, o.Inputs)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(batch[i]) != math.Float64bits(v) {
					t.Fatalf("%s %v query %d: batch %v != single %v", p.Name(), kind, i, batch[i], v)
				}
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[p.Name()] {
			t.Errorf("%s: predictions hash to %s, want %s", p.Name(), got, want[p.Name()])
		}
	}
}

func TestBaselineLifecycle(t *testing.T) {
	obs := buildObs(t, core.IPCQoS, 80)
	for _, p := range []*core.Predictor{core.NewESP(1), core.NewPythia(2)} {
		if _, err := p.Predict(core.IPCQoS, 0, obs[0].Inputs); !errors.Is(err, core.ErrNotTrained) {
			t.Fatalf("%s: untrained predict returned %v, want ErrNotTrained", p.Name(), err)
		}
		if err := p.TrainObservations(core.IPCQoS, obs[:60]); err != nil {
			t.Fatalf("%s: train: %v", p.Name(), err)
		}
		got, err := p.Predict(core.IPCQoS, obs[60].Target, obs[60].Inputs)
		if err != nil {
			t.Fatalf("%s: predict: %v", p.Name(), err)
		}
		if got <= 0 || got > 10 {
			t.Fatalf("%s: implausible IPC prediction %v", p.Name(), got)
		}
		for i := 60; i < 70; i++ {
			if err := p.Observe(core.IPCQoS, obs[i].Target, obs[i].Inputs, obs[i].Label); err != nil {
				t.Fatalf("%s: observe: %v", p.Name(), err)
			}
		}
		if err := p.Flush(core.IPCQoS); err != nil {
			t.Fatalf("%s: flush: %v", p.Name(), err)
		}
		if p.SamplesSeen(core.IPCQoS) != 70 {
			t.Fatalf("%s: %d samples seen, want 70", p.Name(), p.SamplesSeen(core.IPCQoS))
		}
		if p.Tier0() != nil || p.MetricImportance(core.IPCQoS) != nil {
			t.Fatalf("%s: a tier-0 scorer or importance profile over a row that is not the interference code", p.Name())
		}
	}
}

func TestBaselineNames(t *testing.T) {
	if core.NewESP(1).Name() != "ESP" {
		t.Fatal("ESP name")
	}
	if core.NewPythia(1).Name() != "Pythia" {
		t.Fatal("Pythia name")
	}
	v := core.NewVariant("Gsight-IKNN", core.IKNNFactory, 3)
	if v.Name() != "Gsight-IKNN" {
		t.Fatal("variant name")
	}
}

func TestBaselinesAreWorseThanGsightOnPartialInterference(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three predictors")
	}
	// The paper's central comparison: on spatially-varied partial
	// interference, workload-level baselines cannot tell where the
	// overlap happens, so their error exceeds Gsight's.
	obsAll := buildObs(t, core.IPCQoS, 900)
	train, test := obsAll[:800], obsAll[800:]

	gs := core.NewPredictor(core.Config{Seed: 1})
	esp := core.NewESP(2)
	pythia := core.NewPythia(3)
	mape := func(p core.QoSPredictor) float64 {
		if err := p.TrainObservations(core.IPCQoS, train); err != nil {
			t.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, o := range test {
			if o.Label == 0 {
				continue
			}
			got, err := p.Predict(core.IPCQoS, o.Target, o.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			e := (got - o.Label) / o.Label
			if e < 0 {
				e = -e
			}
			sum += e
			n++
		}
		return sum / float64(n)
	}
	eGsight := mape(gs)
	eESP := mape(esp)
	ePythia := mape(pythia)
	t.Logf("IPC MAPE: Gsight=%.2f%% ESP=%.2f%% Pythia=%.2f%%", 100*eGsight, 100*eESP, 100*ePythia)
	if eGsight >= eESP {
		t.Errorf("Gsight (%.3f) should beat ESP (%.3f)", eGsight, eESP)
	}
	if eGsight >= ePythia {
		t.Errorf("Gsight (%.3f) should beat Pythia (%.3f)", eGsight, ePythia)
	}
}

func TestGsightVariantLifecycle(t *testing.T) {
	obs := buildObs(t, core.IPCQoS, 60)
	v := core.NewVariant("Gsight-ILR", core.ILRFactory, 4)
	if err := v.TrainObservations(core.IPCQoS, obs[:50]); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Predict(core.IPCQoS, obs[50].Target, obs[50].Inputs); err != nil {
		t.Fatal(err)
	}
}
