package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gsight/internal/baselines"
	"gsight/internal/core"
	"gsight/internal/perfmodel"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/sched"
	"gsight/internal/workload"
)

// scaleRungs is the ext-scale server-count ladder: the paper's 8-node
// testbed, then three orders of magnitude past it.
var scaleRungs = []int{8, 256, 1000, 10000}

// scaleMix is the deterministic request mix: batch jobs with a JCT SLA
// and, every fifth request, an LS service with an IPC floor.
var scaleMix = []func() *workload.Workload{
	workload.MatMul, workload.DD, workload.FloatOp,
	workload.VideoProcessing, workload.ECommerce,
}

// scaleLab is what ext-scale and ext-twotier share before their
// sweeps: the bootstrap observations, Gsight's predictor trained on
// them, and the request mix with its per-workload profiles (the profile
// spec is identical on every node of the scaled testbeds).
type scaleLab struct {
	ipcObs, jctObs []core.Observation
	gsightP        *core.Predictor
	spec           resources.ServerSpec
	mix            []*workload.Workload
	profs          [][]profile.Profile
}

// newScaleLab bootstrap-trains Gsight and profiles the mix; id names
// the experiment's server spec and its profile RNG stream.
func newScaleLab(ctx context.Context, opt Options, id string) (*scaleLab, error) {
	_, g := newLab(opt)
	l := &scaleLab{spec: resources.DefaultServerSpec(id)}
	var err error
	if l.ipcObs, err = collectObs(ctx, g, core.LSSC, core.IPCQoS, opt.n(600, 90), 3); err != nil {
		return nil, err
	}
	if l.jctObs, err = collectObs(ctx, g, core.SCSC, core.JCTQoS, opt.n(300, 60), 2); err != nil {
		return nil, err
	}
	l.gsightP = core.NewPredictor(core.Config{Seed: opt.Seed})
	if err := l.train(l.gsightP); err != nil {
		return nil, err
	}
	prnd := rng.Stream(opt.Seed, "ext-"+id+"-profiles")
	for _, wf := range scaleMix {
		w := wf()
		l.mix = append(l.mix, w)
		l.profs = append(l.profs, profile.WorkloadProfiles(w, l.spec, prnd.Split()))
	}
	return l, nil
}

// train fits p on the lab's bootstrap observations.
func (l *scaleLab) train(p core.QoSPredictor) error {
	if err := p.TrainObservations(core.IPCQoS, l.ipcObs); err != nil {
		return err
	}
	return p.TrainObservations(core.JCTQoS, l.jctObs)
}

// requests synthesizes the deterministic request stream for an
// n-server rung, named by nameFmt (workload name, index): ~2 requests
// per server at full scale, floored so even tiny scales exercise every
// workload in the mix.
func (l *scaleLab) requests(opt Options, n int, nameFmt string) []*sched.Request {
	total := opt.n(2*n, min(n, 64))
	if total > 20000 {
		total = 20000
	}
	reqs := make([]*sched.Request, total)
	for i := range reqs {
		k := i % len(l.mix)
		w, ps := l.mix[k], l.profs[k]
		in := core.WorkloadInput{
			Name:      fmt.Sprintf(nameFmt, w.Name, i),
			Class:     w.Class,
			Profiles:  ps,
			Placement: make([]int, len(ps)),
		}
		var sla sched.SLA
		switch w.Class {
		case workload.LS:
			in.QPSFrac = 0.35
			in.Replicas = make([]int, len(ps))
			for f := range in.Replicas {
				in.Replicas[f] = perfmodel.LSReplicasFor(w, f, in.QPSFrac*w.MaxQPS)
			}
			sla.MinIPC = 0.9
		default:
			in.LifetimeS = w.SoloDurationS
			sla.MaxJCTFactor = 2.0
		}
		reqs[i] = &sched.Request{Input: in, SLA: sla, SoloDurationS: w.SoloDurationS}
	}
	return reqs
}

// scaleRun is one cell of a sweep: the request stream placed on a fresh
// n-server state by a pool of the given scheduler.
type scaleRun struct {
	placed  int
	density float64 // instances per active core
	slaFrac float64 // share of placements vetted by a prediction
	perSec  float64 // wall-clock
}

func (l *scaleLab) run(n, placers int, reqs []*sched.Request, factory func() sched.Scheduler) scaleRun {
	ss := sched.ShardedStateFromProfiles(l.spec, n, 0)
	pool := sched.NewPlacerPool(ss, placers, factory)
	t0 := time.Now()
	results := pool.PlaceAll(reqs)
	elapsed := time.Since(t0)
	out := scaleRun{perSec: float64(len(reqs)) / elapsed.Seconds()}
	vetted, instances := 0, 0
	for i, res := range results {
		if res.Err != nil {
			continue
		}
		out.placed++
		if res.Outcome == "placed" {
			vetted++
		}
		in := &reqs[i].Input
		for f := range in.Profiles {
			if in.Replicas != nil {
				instances += in.Replicas[f]
			} else {
				instances++
			}
		}
	}
	if active := ss.ActiveServers(); active > 0 {
		out.density = float64(instances) / (float64(active) * l.spec.Capacity[resources.CPU])
	}
	if out.placed > 0 {
		out.slaFrac = float64(vetted) / float64(out.placed)
	}
	return out
}

// scalePlacers resolves the worker count: Options.Placers, else one
// per CPU up to 8.
func scalePlacers(opt Options) int {
	if opt.Placers > 0 {
		return opt.Placers
	}
	return min(runtime.GOMAXPROCS(0), 8)
}

// ExtScale measures placement at cluster scale: the shared-state
// placer pool (DESIGN.md §14) places a request stream at 8, 256, 1k
// and 10k servers under Gsight and the baselines, reporting density,
// SLA-vetted admission, QoS-compliant density and placements/sec.
// Every column except placements/sec is deterministic — byte-identical
// at any placer count (TestExtScalePlacerIdentity).
func ExtScale(ctx context.Context, opt Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lab, err := newScaleLab(ctx, opt, "scale")
	if err != nil {
		return nil, err
	}
	pythiaP := baselines.NewPythia(opt.Seed + 1)
	if err := lab.train(pythiaP); err != nil {
		return nil, err
	}

	rungs := scaleRungs
	if opt.Servers > 0 {
		rungs = []int{opt.Servers}
	}
	r := &Report{
		ID:    "ext-scale",
		Title: "Shared-state scheduling at scale: density, SLA admission and throughput",
		Columns: []string{
			"servers", "scheduler", "placers",
			"placed", "density", "SLA-admit", "QoS-density", "placements/s",
		},
	}
	placers := scalePlacers(opt)
	for _, n := range rungs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		reqs := lab.requests(opt, n, "scale-%s-%d")
		for _, e := range []struct {
			name    string
			factory func() sched.Scheduler
		}{
			{"Gsight", func() sched.Scheduler { return sched.NewGsight(lab.gsightP) }},
			{"BestFit", func() sched.Scheduler { return sched.NewBestFit(pythiaP) }},
			{"WorstFit", func() sched.Scheduler { return sched.NewWorstFit() }},
		} {
			c := lab.run(n, placers, reqs, e.factory)
			r.AddRow(
				fmt.Sprintf("%d", n), e.name, fmt.Sprintf("%d", placers),
				fmt.Sprintf("%d/%d", c.placed, len(reqs)),
				f2(c.density), pct(c.slaFrac), f2(c.density*c.slaFrac), f0(c.perSec),
			)
		}
	}
	r.AddNote("requests hash to an 8-server home window and spill outward on rejection, so per-placement cost is bounded by window size, not cluster size")
	r.AddNote("all columns except placements/s are byte-identical at any placer count: the pool's result is serial placement in request order by construction")
	return r, nil
}
