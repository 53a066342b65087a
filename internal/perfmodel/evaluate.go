package perfmodel

import (
	"fmt"

	"gsight/internal/rng"
	"gsight/internal/workload"
)

// DeploymentResult is the modelled QoS of one deployment in a scenario.
type DeploymentResult struct {
	Name  string
	Class workload.Class
	// IPC is the CPU-demand-weighted mean IPC across the workload's
	// functions (the paper's LS prediction target alongside tail
	// latency; also reported for SC).
	IPC float64
	// LS observables.
	EffQPS    float64
	E2EMeanMs float64
	E2EP99Ms  float64
	PerFunc   []FuncPerf
	// SC/BG observable: job completion time in seconds.
	JCTS float64
}

// Result is the outcome of evaluating a scenario.
type Result struct {
	Deployments []DeploymentResult
}

// Evaluate computes the QoS of every deployment in the scenario. When
// rnd is non-nil, lognormal measurement noise is applied — tail latency
// receives extra noise below the latency-IPC knee (Figure 7), which is
// why tail-latency prediction is inherently harder than IPC prediction.
func (m *Model) Evaluate(sc *Scenario, rnd *rng.Rand) (*Result, error) {
	var lsDeps, scDeps []*Deployment
	for _, d := range sc.Deployments {
		if err := d.Validate(m.Testbed.NumServers()); err != nil {
			return nil, err
		}
		if err := d.W.Validate(); err != nil {
			return nil, err
		}
		if d.W.Class == workload.LS {
			lsDeps = append(lsDeps, d)
		} else {
			scDeps = append(scDeps, d)
		}
	}

	sv := m.getSolver()
	defer m.putSolver(sv)

	var lsResults []LSResult
	var scStates []scState
	if len(scDeps) > 0 {
		scStates, lsResults = m.coExecute(sv, scDeps, lsDeps)
	} else if len(lsDeps) > 0 {
		lsResults = detach(m.solveLS(sv, lsDeps, nil, 0, false).results)
	}

	res := &Result{}
	li, si := 0, 0
	for _, d := range sc.Deployments {
		dr := DeploymentResult{Name: d.W.Name, Class: d.W.Class}
		if d.W.Class == workload.LS {
			r := lsResults[li]
			li++
			dr.IPC = r.IPC
			dr.EffQPS = r.EffQPS
			dr.E2EMeanMs = r.E2EMeanMs
			dr.E2EP99Ms = r.E2EP99Ms
			dr.PerFunc = r.PerFunc
			m.applyLSNoise(&dr, rnd)
		} else {
			st := &scStates[si]
			si++
			dr.JCTS = st.jct
			if st.ipcTime > 0 {
				dr.IPC = st.ipcSum / st.ipcTime
			}
			m.applySCNoise(&dr, rnd, d.W)
		}
		res.Deployments = append(res.Deployments, dr)
	}
	return res, nil
}

// detach copies solve results out of the pooled solver's scratch: noise
// shaping mutates PerFunc in place and the result outlives the borrow.
func detach(rs []LSResult) []LSResult {
	out := append([]LSResult(nil), rs...)
	for i := range out {
		out[i].PerFunc = append([]FuncPerf(nil), out[i].PerFunc...)
	}
	return out
}

// soloRefIPC returns the solo-run reference for the knee ratio. A
// result does not retain its functions' solo IPC, so each is
// reconstructed as IPC x Slowdown and the functions weigh equally — an
// approximation that suffices for noise shaping; callers who need the
// precise knee consult the catalog.
func soloRefIPC(dr *DeploymentResult) float64 {
	if len(dr.PerFunc) == 0 {
		return dr.IPC
	}
	var sum float64
	for i := range dr.PerFunc {
		sum += dr.PerFunc[i].IPC * dr.PerFunc[i].Slowdown
	}
	return sum / float64(len(dr.PerFunc))
}

func (m *Model) applyLSNoise(dr *DeploymentResult, rnd *rng.Rand) {
	if rnd == nil {
		return
	}
	c := &m.Cfg
	solo := soloRefIPC(dr)
	ratio := 1.0
	if solo > 0 {
		ratio = dr.IPC / solo
	}
	p99Noise := c.NoiseP99
	if ratio < c.KneeIPCRatio {
		// Below the knee the latency-IPC correlation breaks down
		// (Figure 7): tail latency becomes far noisier.
		p99Noise += c.BelowKneeP99Noise * (c.KneeIPCRatio - ratio) / c.KneeIPCRatio
	}
	dr.IPC = rnd.Jitter(dr.IPC, c.NoiseIPC)
	dr.E2EMeanMs = rnd.Jitter(dr.E2EMeanMs, c.NoiseMean)
	dr.E2EP99Ms = rnd.Jitter(dr.E2EP99Ms, p99Noise)
	for f := range dr.PerFunc {
		p := &dr.PerFunc[f]
		p.IPC = rnd.Jitter(p.IPC, c.NoiseIPC)
		p.LocalMeanMs = rnd.Jitter(p.LocalMeanMs, c.NoiseMean)
		p.LocalP99Ms = rnd.Jitter(p.LocalP99Ms, p99Noise)
	}
}

func (m *Model) applySCNoise(dr *DeploymentResult, rnd *rng.Rand, _ *workload.Workload) {
	if rnd == nil {
		return
	}
	dr.JCTS = rnd.Jitter(dr.JCTS, m.Cfg.NoiseJCT)
	dr.IPC = rnd.Jitter(dr.IPC, m.Cfg.NoiseIPC)
}

// String summarizes a deployment result for logs and CLIs.
func (dr *DeploymentResult) String() string {
	if dr.Class == workload.LS {
		return fmt.Sprintf("%s[LS] ipc=%.3f p99=%.1fms mean=%.1fms qps=%.0f",
			dr.Name, dr.IPC, dr.E2EP99Ms, dr.E2EMeanMs, dr.EffQPS)
	}
	return fmt.Sprintf("%s[%s] jct=%.1fs ipc=%.3f", dr.Name, dr.Class, dr.JCTS, dr.IPC)
}
