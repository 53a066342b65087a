// Package scenario generates the labeled colocation datasets on which
// Gsight and the baselines train and are evaluated. It plays the role
// of the paper's data-collection pipeline (§6.1): colocate workloads
// under randomized partial interference — varied placements, loads,
// start delays — run them on the simulated testbed, and record
// (solo profiles + interference code, measured QoS) pairs.
package scenario

import (
	"context"
	"fmt"

	"gsight/internal/core"
	"gsight/internal/ml"
	"gsight/internal/perfmodel"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/workload"
)

// InputFrom converts a deployment plus its solo-run profiles into the
// WorkloadInput the predictor is allowed to see. Deployments with a
// cold-start rate use startup-inclusive profiles, per §5.2.
func InputFrom(d *perfmodel.Deployment, ps []profile.Profile) core.WorkloadInput {
	if d.ColdStartFrac > 0 {
		blended := make([]profile.Profile, len(ps))
		for i, p := range ps {
			blended[i] = profile.WithStartup(p, d.ColdStartFrac)
		}
		ps = blended
	}
	in := core.WorkloadInput{
		Name:        d.W.Name,
		Class:       d.W.Class,
		Profiles:    ps,
		Placement:   append([]int(nil), d.Placement...),
		Replicas:    append([]int(nil), d.Replicas...),
		StartDelayS: d.StartDelayS,
	}
	if d.W.Class == workload.LS {
		in.QPSFrac = perfmodel.LoadFactor(d)
	} else {
		in.LifetimeS = d.W.SoloDurationS
	}
	return in
}

// InputWorkloadLevel converts a deployment using a single merged
// workload-level profile — the monolithic-profiling baseline of
// Figure 5, which discards the per-function placement structure.
func InputWorkloadLevel(d *perfmodel.Deployment, merged profile.Profile) core.WorkloadInput {
	in := core.WorkloadInput{
		Name:        d.W.Name,
		Class:       d.W.Class,
		Profiles:    []profile.Profile{merged},
		Placement:   []int{d.Placement[d.W.Entry]},
		Replicas:    []int{1},
		StartDelayS: d.StartDelayS,
	}
	if d.W.Class == workload.LS {
		in.QPSFrac = perfmodel.LoadFactor(d)
	} else {
		in.LifetimeS = d.W.SoloDurationS
	}
	return in
}

// Sample is one labeled observation: the workload set (target first is
// NOT implied — Target indexes into Inputs), and the measured QoS.
type Sample struct {
	Inputs []core.WorkloadInput
	Target int
	Kind   core.QoSKind
	Label  float64
	// Colocation is the §3.3 model form this sample belongs to.
	Colocation core.ColocationKind
}

// Generator produces randomized colocation scenarios and their labels.
type Generator struct {
	Model *perfmodel.Model
	Store *profile.Store
	// LS / SC pools to draw from (BG workloads ride along in the SC
	// pool; their class field distinguishes them).
	LSPool []*workload.Workload
	SCPool []*workload.Workload
	// MaxColocated bounds the workloads per scenario (paper n = 10).
	MaxColocated int
	rnd          *rng.Rand
	noise        *rng.Rand
}

// NewGenerator builds a generator over the default catalog pools,
// profiling every pool workload once (the solo-run phase).
func NewGenerator(m *perfmodel.Model, seed uint64) *Generator {
	g := &Generator{
		Model: m,
		Store: profile.NewStore(),
		LSPool: []*workload.Workload{
			workload.SocialNetwork(), workload.ECommerce(), workload.MLServing(),
		},
		SCPool: []*workload.Workload{
			workload.MatMul(), workload.DD(), workload.Iperf(),
			workload.VideoProcessing(), workload.FloatOp(),
			workload.LogisticRegression(), workload.KMeans(),
			workload.FeatureGeneration(), workload.DataPipeline(),
			workload.IoTCollector(), workload.Monitor(),
		},
		MaxColocated: 10,
		rnd:          rng.Stream(seed, "scenario"),
		noise:        rng.Stream(seed, "measurement"),
	}
	g.profilePools()
	return g
}

func (g *Generator) profilePools() {
	spec := g.Model.Testbed.Servers[0]
	for _, w := range append(append([]*workload.Workload{}, g.LSPool...), g.SCPool...) {
		if _, ok := g.Store.Get(w.Name); !ok {
			g.Store.ProfileWorkload(w, spec, g.rnd.Split())
		}
	}
}

// randomLSDeployment places an LS workload with a random contiguous
// spread across servers and a random load. The spread never drops
// below what CPU capacity plausibly supports: the paper's operating
// regime contains contention, not outright collapse — a production
// scheduler would never stack a workload's whole replica set past a
// server's core count.
func (g *Generator) randomLSDeployment(w *workload.Workload) *perfmodel.Deployment {
	d := perfmodel.NewDeployment(w)
	s := g.Model.Testbed.NumServers()
	base := g.rnd.Intn(s)
	totalCPU := 0.0
	for f := range w.Functions {
		totalCPU += w.Functions[f].Demand[resources.CPU] * float64(d.Replicas[f])
	}
	serverCPU := g.Model.Testbed.Servers[0].Capacity[resources.CPU]
	minSpan := int(totalCPU/(0.6*serverCPU)) + 1
	if minSpan > s {
		minSpan = s
	}
	span := minSpan
	if s > minSpan {
		span += g.rnd.Intn(s - minSpan + 1)
	}
	if span > s {
		span = s
	}
	for f := range d.Placement {
		d.Placement[f] = (base + f%span) % s
		d.Socket[f] = -1 // deterministic auto socket
	}
	d.QPS = w.MaxQPS * g.rnd.Range(0.2, 0.85)
	// Replica counts track the offered load, exactly as the platform's
	// autoscaler sizes them — training and serving must see the same
	// feature geometry.
	for f := range d.Replicas {
		d.Replicas[f] = perfmodel.LSReplicasFor(w, f, d.QPS*1.1)
	}
	return d
}

// randomSCDeployment places an SC/BG workload on a random server with a
// random start delay.
func (g *Generator) randomSCDeployment(w *workload.Workload) *perfmodel.Deployment {
	d := perfmodel.NewDeployment(w)
	s := g.Model.Testbed.NumServers()
	base := g.rnd.Intn(s)
	span := 1
	if len(d.Placement) > 1 {
		span = 1 + g.rnd.Intn(2)
	}
	for f := range d.Placement {
		d.Placement[f] = (base + f%span) % s
		d.Socket[f] = -1
	}
	d.StartDelayS = g.rnd.Range(0, 240)
	return d
}

// Colocation draws a random scenario of the requested kind with k
// workloads (k >= 2). Pass core.LSLS, core.LSSC or core.SCSC; any other
// value mixes freely.
func (g *Generator) Colocation(kind core.ColocationKind, k int) *perfmodel.Scenario {
	if k < 2 {
		k = 2
	}
	if k > g.MaxColocated {
		k = g.MaxColocated
	}
	var deps []*perfmodel.Deployment
	pick := func(pool []*workload.Workload) *workload.Workload {
		return pool[g.rnd.Intn(len(pool))].Clone()
	}
	switch kind {
	case core.LSLS:
		for i := 0; i < k; i++ {
			deps = append(deps, g.randomLSDeployment(pick(g.LSPool)))
		}
	case core.LSSC:
		nLS := 1 + g.rnd.Intn(k-1)
		for i := 0; i < nLS; i++ {
			deps = append(deps, g.randomLSDeployment(pick(g.LSPool)))
		}
		for i := nLS; i < k; i++ {
			deps = append(deps, g.randomSCDeployment(pick(g.SCPool)))
		}
	case core.SCSC:
		for i := 0; i < k; i++ {
			deps = append(deps, g.randomSCDeployment(pick(g.SCPool)))
		}
	default:
		for i := 0; i < k; i++ {
			if g.rnd.Bool(0.4) {
				deps = append(deps, g.randomLSDeployment(pick(g.LSPool)))
			} else {
				deps = append(deps, g.randomSCDeployment(pick(g.SCPool)))
			}
		}
	}
	return &perfmodel.Scenario{Deployments: deps}
}

// NoiseSplit draws an independent measurement-noise stream from the
// generator's noise sequence. Streams are drawn sequentially (each call
// advances the parent stream) and may then be consumed concurrently —
// the experiment harness's recipe for parallel labeling with
// byte-identical results.
func (g *Generator) NoiseSplit() *rng.Rand { return g.noise.Split() }

// Label evaluates a scenario on the testbed (with measurement noise)
// and emits one sample per deployment and applicable QoS kind.
func (g *Generator) Label(sc *perfmodel.Scenario) ([]Sample, error) {
	// Profile any workload outside the pre-profiled pools before
	// splitting the noise stream, so LabelWith itself stays free of
	// generator RNG use.
	for _, d := range sc.Deployments {
		if _, ok := g.Store.Get(d.W.Name); !ok {
			g.Store.ProfileWorkload(d.W, g.Model.Testbed.Servers[0], g.rnd.Split())
		}
	}
	return g.LabelWith(sc, g.noise.Split())
}

// LabelWith is Label with a caller-provided noise stream. It reads but
// never mutates the generator (no RNG draws, no store writes), so
// concurrent calls with pre-split streams are safe. Every workload in
// the scenario must already be profiled; pool workloads always are.
func (g *Generator) LabelWith(sc *perfmodel.Scenario, noise *rng.Rand) ([]Sample, error) {
	res, err := g.Model.Evaluate(sc, noise)
	if err != nil {
		return nil, err
	}
	inputs := make([]core.WorkloadInput, len(sc.Deployments))
	for i, d := range sc.Deployments {
		ps, ok := g.Store.Get(d.W.Name)
		if !ok {
			return nil, fmt.Errorf("scenario: workload %q not profiled", d.W.Name)
		}
		inputs[i] = InputFrom(d, ps)
	}
	kind := core.Classify(inputs)
	var out []Sample
	for i, d := range sc.Deployments {
		r := res.Deployments[i]
		switch d.W.Class {
		case workload.LS:
			out = append(out,
				Sample{inputs, i, core.IPCQoS, r.IPC, kind},
				Sample{inputs, i, core.TailLatencyQoS, r.E2EP99Ms, kind})
		case workload.SC:
			out = append(out,
				Sample{inputs, i, core.JCTQoS, r.JCTS, kind},
				Sample{inputs, i, core.IPCQoS, r.IPC, kind})
		default:
			// BG: the paper never predicts BG QoS.
		}
	}
	return out, nil
}

// Dataset generates n labeled scenarios of the given colocation kind
// and encodes them for the predictor, returning one dataset per QoS
// kind. The coder defines the feature layout.
func (g *Generator) Dataset(coder core.Coder, kind core.ColocationKind, nScenarios, maxWorkloads int) (map[core.QoSKind]*ml.Dataset, error) {
	out := map[core.QoSKind]*ml.Dataset{
		core.IPCQoS:         {},
		core.TailLatencyQoS: {},
		core.JCTQoS:         {},
	}
	for i := 0; i < nScenarios; i++ {
		k := 2
		if maxWorkloads > 2 {
			k = 2 + g.rnd.Intn(maxWorkloads-1)
		}
		sc := g.Colocation(kind, k)
		samples, err := g.Label(sc)
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			x, err := coder.Encode(s.Target, s.Inputs)
			if err != nil {
				return nil, fmt.Errorf("scenario: encode: %w", err)
			}
			out[s.Kind].Append(x, s.Label)
		}
	}
	return out, nil
}

// Bootstrap trains pred on n labeled LS+SC colocations of two or three
// workloads — what gsight-sim and gsight-serve do before they place
// anything. ctx is checked between scenarios.
func (g *Generator) Bootstrap(ctx context.Context, pred core.QoSPredictor, n int) error {
	var ipcObs, jctObs []core.Observation
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sc := g.Colocation(core.LSSC, 2+g.rnd.Intn(2))
		samples, err := g.Label(sc)
		if err != nil {
			return fmt.Errorf("scenario: labeling: %w", err)
		}
		for _, s := range samples {
			o := core.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label}
			switch s.Kind {
			case core.IPCQoS:
				ipcObs = append(ipcObs, o)
			case core.JCTQoS:
				jctObs = append(jctObs, o)
			}
		}
	}
	if err := pred.TrainObservations(core.IPCQoS, ipcObs); err != nil {
		return fmt.Errorf("scenario: training: %w", err)
	}
	if len(jctObs) > 0 {
		if err := pred.TrainObservations(core.JCTQoS, jctObs); err != nil {
			return fmt.Errorf("scenario: training: %w", err)
		}
	}
	return nil
}

// FastConfig reduces the co-execution resolution for bulk dataset
// generation; apply it to the model before constructing the generator
// when generating thousands of SC-bearing scenarios.
func FastConfig(m *perfmodel.Model) {
	m.Cfg.StepS = 5
	m.Cfg.FixedPointIters = 10
}

// PoolWorkloads returns every workload the generator draws from.
func (g *Generator) PoolWorkloads() []*workload.Workload {
	return append(append([]*workload.Workload{}, g.LSPool...), g.SCPool...)
}

// Rand exposes the generator's randomness stream (for experiment code
// that must stay reproducible with it).
func (g *Generator) Rand() *rng.Rand { return g.rnd }

// Spec returns the profiling server spec.
func (g *Generator) Spec() resources.ServerSpec { return g.Model.Testbed.Servers[0] }
