package core

import (
	"gsight/internal/metrics"
	"gsight/internal/ml"
	"gsight/internal/profile"
	"gsight/internal/resources"
)

// Tier0 is the cheap first tier of the two-tier prediction path: a
// ridge model over a ~34-feature reduction of the same colocation
// codes the forest trains on. The scheduler uses it to rank candidate
// servers and prune to a top-K shortlist before paying for full IRFR
// inference — the pattern the Alibaba scoring work and C-Koordinator
// use to make interference-aware placement tractable at cluster scale.
//
// The reduction collapses a colocation to "what the target sees on its
// servers, on average": the target's CPU-demand-weighted 16-metric
// profile mix, the corunner CPU allocation sharing those servers, and
// their interactions. The label is the same solo-normalized IPC ratio
// the forest learns, so a score is directly comparable to an SLA's
// MinIPC/soloIPC threshold.
//
// Predictor.Tier0 builds it from the IPC forest's window; from then on
// it ingests every IPC observation batch the forest ingests (same
// online window, same recency horizon) and bumps a generation counter
// on each ingest — the scheduler-side score caches key on that counter,
// which is the "explicit invalidation on observation ingest". All state
// is a pure function of the observation stream: no RNG, no clock, so
// cached scores are byte-identical across reruns.
type Tier0 struct {
	coder Coder
	ridge *ml.Ridge
	gen   uint64
	proj  [Tier0Dim]float64 // ingest-path scratch; single writer
}

// Tier-0 feature layout: bias, target 16-metric mix, corunner CPU on
// the target's servers, and load×mix interaction terms.
const (
	tier0Bias  = 0
	tier0Mix   = 1
	tier0Load  = tier0Mix + metrics.NumSelected
	tier0Cross = tier0Load + 1
	// Tier0Dim is the tier-0 scorer's feature dimension.
	Tier0Dim = tier0Cross + metrics.NumSelected
)

// tier0Window mirrors ml.ForestConfig's default incremental window so
// both tiers forget at the same horizon.
const tier0Window = 12000

// tier0Lambda is the ridge L2 strength. The projected features are in
// profile-metric units (O(1) after normalization), so a small constant
// regularizer suffices.
const tier0Lambda = 1e-3

func newTier0(c Coder) *Tier0 {
	return &Tier0{coder: c, ridge: ml.NewRidge(Tier0Dim, tier0Window, tier0Lambda)}
}

// Ready reports whether the scorer has a solved fit behind it. An
// unready scorer scores everything identically (zero), which the
// scheduler treats as "no tier-0 opinion".
func (t *Tier0) Ready() bool { return t != nil && t.ridge.Trained() }

// Gen returns the ingest generation. Any cached score computed at an
// older generation is stale.
func (t *Tier0) Gen() uint64 {
	if t == nil {
		return 0
	}
	return t.gen
}

// projectInto reduces one full colocation code to the tier-0 features:
// CPU-allocation-weighted averages over the target's server rows, so a
// workload spread over four servers and one packed on a single server
// land in the same feature scale.
func (t *Tier0) projectInto(x []float64, out []float64) {
	c := t.coder
	for i := range out {
		out[i] = 0
	}
	agg := c.aggSlot()
	cpu := int(resources.CPU)
	var wsum float64
	for s := 0; s < c.NumServers; s++ {
		w := x[c.rFeatureIndex(0, s, cpu)]
		if w <= 0 {
			continue
		}
		wsum += w
		for col := 0; col < metrics.NumSelected; col++ {
			out[tier0Mix+col] += w * x[c.UFeatureIndex(0, s, col)]
		}
		out[tier0Load] += w * x[c.rFeatureIndex(agg, s, cpu)]
	}
	out[tier0Bias] = 1
	if wsum > 0 {
		inv := 1 / wsum
		for col := 0; col < metrics.NumSelected; col++ {
			out[tier0Mix+col] *= inv
		}
		out[tier0Load] *= inv
	}
	load := out[tier0Load]
	for col := 0; col < metrics.NumSelected; col++ {
		out[tier0Cross+col] = load * out[tier0Mix+col]
	}
}

// train rebuilds the scorer from (X, Y) alone: a restored IPC window.
func (t *Tier0) train(X [][]float64, Y []float64) {
	t.ridge.Reset()
	t.absorb(X, Y)
}

// absorb folds one observation batch in and refreshes the fit. Always
// bumps the generation: even a batch that leaves the model untrained
// invalidates downstream score caches.
func (t *Tier0) absorb(X [][]float64, Y []float64) {
	for i := range Y {
		t.projectInto(X[i], t.proj[:])
		t.ridge.Observe(t.proj[:], Y[i])
	}
	t.ridge.Refresh()
	t.gen++
}

// Tier0TargetStats reduces an archetype's solo-run profiles to its
// tier-0 target features: the CPU-demand-weighted 16-metric mix and the
// solo IPC reference (the same reference refFor normalizes labels by).
// Profiles are taken at reference load — per-request QPS and replica
// scaling are deliberately ignored so the result is a pure function of
// the archetype, which is what lets scores be cached per archetype and
// recomputed identically after a crash/resume.
func Tier0TargetStats(profiles []profile.Profile) (mix [metrics.NumSelected]float64, refIPC float64) {
	var wsum, ipc float64
	for f := range profiles {
		p := &profiles[f]
		w := p.Demand[resources.CPU]
		if w <= 0 {
			w = 1e-6
		}
		sel := p.Metrics.Select()
		for i, v := range sel {
			mix[i] += w * v
		}
		ipc += w * p.Metrics[metrics.IPC]
		wsum += w
	}
	if wsum > 0 {
		inv := 1 / wsum
		for i := range mix {
			mix[i] *= inv
		}
		ipc *= inv
	}
	if ipc <= 0 {
		ipc = 1
	}
	return mix, ipc
}

// Score predicts the solo-normalized IPC ratio of a target with the
// given profile mix against corunnerCPU cores of co-located allocation.
// Allocation-free; safe for concurrent use (read-only on model state).
// Returns 0 until Ready.
func (t *Tier0) Score(mix *[metrics.NumSelected]float64, corunnerCPU float64) float64 {
	var phi [Tier0Dim]float64
	phi[tier0Bias] = 1
	phi[tier0Load] = corunnerCPU
	for i, v := range mix {
		phi[tier0Mix+i] = v
		phi[tier0Cross+i] = corunnerCPU * v
	}
	return t.ridge.Predict(phi[:])
}
