package experiments

import (
	"context"
	"fmt"
	"time"

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
// sweeps: the bootstrap with Gsight's predictor, and the request mix
// with its per-workload profiles (the profile spec is identical on
// every node of the scaled testbeds).
type scaleLab struct {
	*bootstrap
	spec  resources.ServerSpec
	mix   []*workload.Workload
	profs [][]profile.Profile
}

// newScaleLab bootstrap-trains Gsight and profiles the mix; id names
// the experiment's server spec and its profile RNG stream.
func newScaleLab(ctx context.Context, opt Options, id string) (*scaleLab, error) {
	boot, err := newBootstrap(ctx, opt, opt.n(600, 90), opt.n(300, 60))
	if err != nil {
		return nil, err
	}
	l := &scaleLab{bootstrap: boot, spec: resources.DefaultServerSpec(id)}
	prnd := rng.Stream(opt.Seed, "ext-"+id+"-profiles")
	for _, wf := range scaleMix {
		w := wf()
		l.mix = append(l.mix, w)
		l.profs = append(l.profs, profile.WorkloadProfiles(w, l.spec, prnd.Split()))
	}
	return l, nil
}

// requests synthesizes the deterministic request stream for an
// n-server rung, named by nameFmt (workload name, index): ~2 requests
// per server at full scale, floored so even tiny scales exercise every
// workload in the mix.
func (l *scaleLab) requests(opt Options, n int, nameFmt string) []*sched.Request {
	total := min(opt.n(2*n, min(n, 64)), 20000)
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
			sla.MaxJCTFactor = sched.BatchJCTFactor
		}
		reqs[i] = &sched.Request{Input: in, SLA: sla, SoloDurationS: w.SoloDurationS}
	}
	return reqs
}

// scaleRun is one cell of a sweep: the request stream placed serially
// on a fresh n-server state by one scheduler.
type scaleRun struct {
	placed  int
	density float64 // instances per active core
	slaFrac float64 // share of placements vetted by a prediction
	// capFrac is the share of placements accepted on capacity alone: the
	// request carries an SLA, yet its decision holds no prediction
	// (Gsight past its code's rows, BestFit on a batch request, or
	// WorstFit).
	capFrac float64
	perSec  float64 // wall-clock
}

func (l *scaleLab) run(n int, reqs []*sched.Request, s sched.Scheduler) scaleRun {
	st := sched.StateFromProfiles(l.spec, n)
	placed := make([]bool, len(reqs))
	t0 := time.Now()
	for i, req := range reqs {
		p, err := st.Propose(s, req)
		if err != nil {
			continue
		}
		in := req.Input
		in.Placement = p
		st.Commit(in, req.SLA)
		placed[i] = true
	}
	elapsed := time.Since(t0)
	out := scaleRun{perSec: float64(len(reqs)) / elapsed.Seconds()}
	vetted, capOnly, instances := 0, 0, 0
	for i, req := range reqs {
		if !placed[i] {
			continue
		}
		out.placed++
		if d := &req.Detail; d.Outcome == "placed" {
			if req.SLA != (sched.SLA{}) && d.PredIPC == 0 && d.PredJCTS == 0 {
				capOnly++
			} else {
				vetted++
			}
		}
		in := &req.Input
		for f := range in.Profiles {
			if in.Replicas != nil {
				instances += in.Replicas[f]
			} else {
				instances++
			}
		}
	}
	if active := st.ActiveServers(); active > 0 {
		out.density = float64(instances) / (float64(active) * l.spec.Capacity[resources.CPU])
	}
	if out.placed > 0 {
		out.slaFrac = float64(vetted) / float64(out.placed)
		out.capFrac = float64(capOnly) / float64(out.placed)
	}
	return out
}

// ExtScale measures placement at cluster scale: the window ladder
// (DESIGN.md §14) places a request stream serially at 8, 256, 1k and
// 10k servers under Gsight and the baselines, reporting density,
// SLA-vetted admission, capacity-only admission, QoS-compliant density
// (over the SLA-vetted placements only) and placements/sec.
// Every column except placements/sec is deterministic per seed.
func ExtScale(ctx context.Context, opt Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lab, err := newScaleLab(ctx, opt, "scale")
	if err != nil {
		return nil, err
	}
	pythiaP, err := lab.train(core.NewPythia(opt.Seed + 1))
	if err != nil {
		return nil, err
	}

	rungs := scaleRungs
	if opt.Servers > 0 {
		rungs = []int{opt.Servers}
	}
	r := &Report{
		ID:    "ext-scale",
		Title: "Scheduling at scale: density, SLA admission and throughput",
		Columns: []string{
			"servers", "scheduler", "placed", "density",
			"SLA-admit", "capacity-only", "QoS-density", "placements/s",
		},
	}
	for _, n := range rungs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		reqs := lab.requests(opt, n, "scale-%s-%d")
		for _, s := range []sched.Scheduler{
			sched.NewGsight(lab.gsight), sched.NewBestFit(pythiaP), sched.NewWorstFit(),
		} {
			c := lab.run(n, reqs, s)
			r.AddRow(
				fmt.Sprintf("%d", n), s.Name(),
				fmt.Sprintf("%d/%d", c.placed, len(reqs)),
				f2(c.density), pct(c.slaFrac), pct(c.capFrac), f2(c.density*c.slaFrac), f0(c.perSec),
			)
		}
	}
	r.AddNote("requests hash to an 8-server home window and spill outward on rejection, so per-placement cost is bounded by window size, not cluster size")
	r.AddNote("SLA-admit counts placements whose decision carries a prediction; capacity-only counts placements with an SLA but no prediction, which QoS-density leaves out. BestFit predicts only an LS request's IPC, so its batch placements count as capacity-only, and WorstFit predicts nothing")
	return r, nil
}
