package core

import (
	"gsight/internal/metrics"
	"gsight/internal/ml"
	"gsight/internal/resources"
	"gsight/internal/workload"
)

// The state-of-the-art comparison predictors of the paper's evaluation
// (§6.1, Table 2): ESP (Mishra et al., ICAC'17) and Pythia (Xu et al.,
// Middleware'18). Both are honest reimplementations of the published
// designs' information diets — workload-level features with no spatial
// or temporal overlap coding — which is precisely why they trail Gsight
// on partial interference (Figure 9): neither can tell where functions
// overlap nor when, nor capture call-path propagation. Each is a
// Predictor on its own encoder, learning raw labels.

// NewESP builds the ESP baseline: a machine-learning predictor that
// only consumes four microarchitecture metrics per workload — IPC, L2
// and L3 access behaviour, and memory bandwidth — as the paper notes
// ("ESP only uses four microarchitecture metrics during model
// training"). Placement and timing are invisible to it.
func NewESP(seed uint64) *Predictor {
	return newPredictor(Config{AbsoluteTargets: true}, "ESP", espCode{}, func(k QoSKind) ml.Incremental {
		return ml.NewForest(ml.ForestConfig{Trees: 40, Seed: seed + uint64(k)})
	})
}

// NewPythia builds the Pythia baseline: a lightweight linear regression
// over workload-level contention features — the published design's
// core. It cannot express the nonlinear, spatially-varied interference
// surface, and in the scheduling case study it pairs with Best Fit.
func NewPythia(seed uint64) *Predictor {
	return newPredictor(Config{AbsoluteTargets: true}, "Pythia", pythiaCode{}, func(k QoSKind) ml.Incremental {
		return ml.NewLinear(seed + uint64(k))
	})
}

// NewVariant builds a Gsight predictor named name on a non-default
// learning model — the IKNN/ILR/ISVR/IMLP rows of Figures 5 and 9.
func NewVariant(name string, factory ModelFactory, seed uint64) *Predictor {
	p := NewPredictor(Config{Factory: factory, Seed: seed})
	p.name = name
	return p
}

// Factories for the model-comparison variants.
var (
	// IKNNFactory is the incremental k-nearest-neighbours variant.
	IKNNFactory ModelFactory = func(seed uint64) ml.Incremental { return ml.NewKNN(8) }
	// ILRFactory is the incremental linear-regression variant.
	ILRFactory ModelFactory = func(seed uint64) ml.Incremental { return ml.NewLinear(seed) }
	// ISVRFactory is the incremental support-vector-regression variant.
	ISVRFactory ModelFactory = func(seed uint64) ml.Incremental { return ml.NewSVR(seed) }
	// IMLPFactory is the incremental multilayer-perceptron variant.
	IMLPFactory ModelFactory = func(seed uint64) ml.Incremental { return ml.NewMLP(seed) }
)

// espMetrics are the four metrics ESP reads per workload.
var espMetrics = [...]metrics.ID{metrics.IPC, metrics.L2MPKI, metrics.L3MPKI, metrics.MemIO}

// espCode is ESP's row: the target's espMetrics, then their sums over
// the corunners.
type espCode struct{}

func (espCode) Dim() int { return 2 * len(espMetrics) }

func (espCode) EncodeInto(x []float64, target int, ws []WorkloadInput) error {
	clear(x)
	for i := range ws {
		m := mergeWorkload(&ws[i])
		if i == target {
			for j, id := range espMetrics {
				x[j] = m[id]
			}
		} else {
			for j, id := range espMetrics {
				x[len(espMetrics)+j] += m[id]
			}
		}
	}
	return nil
}

// pythiaCode is Pythia's row: the target's full metric vector, the
// corunners' summed vectors, then the target's load.
type pythiaCode struct{}

const nMetrics = int(metrics.NumCandidates)

func (pythiaCode) Dim() int { return 2*nMetrics + 1 }

func (pythiaCode) EncodeInto(x []float64, target int, ws []WorkloadInput) error {
	clear(x)
	for i := range ws {
		m := mergeWorkload(&ws[i])
		if i == target {
			copy(x, m[:])
			x[2*nMetrics] = ws[i].QPSFrac
		} else {
			for j := 0; j < nMetrics; j++ {
				x[nMetrics+j] += m[j]
			}
		}
	}
	return nil
}

// rateMetrics follow a latency-sensitive workload's offered load, as in
// Gsight's coder.
var rateMetrics = [...]metrics.ID{
	metrics.CPUUtil, metrics.NetBW, metrics.RX, metrics.TX,
	metrics.DiskIO, metrics.ContextSwitches, metrics.MemIO,
}

// mergeWorkload flattens a workload's per-function profiles into one
// CPU-demand-weighted metric vector — the workload-level view both
// baselines operate on. It is metrics.Mix over the profiles, without
// the slices.
func mergeWorkload(w *WorkloadInput) metrics.Vector {
	weight := func(f int) float64 {
		wt := w.Profiles[f].Demand[resources.CPU]
		if w.Replicas != nil {
			wt *= float64(w.Replicas[f])
		}
		if wt <= 0 {
			wt = 1e-6
		}
		return wt
	}
	total := 0.0
	for f := range w.Profiles {
		total += weight(f)
	}
	var v metrics.Vector
	for f := range w.Profiles {
		v = v.Add(w.Profiles[f].Metrics.Scale(weight(f) / total))
	}
	if w.Class == workload.LS && w.QPSFrac > 0 {
		for _, id := range rateMetrics {
			v[id] *= w.QPSFrac
		}
	}
	return v
}
