package main

import (
	"errors"
	"fmt"
	"time"

	"gsight/internal/core"
	"gsight/internal/perfmodel"
	"gsight/internal/resources"
	"gsight/internal/scenario"
	"gsight/internal/sched"
	"gsight/internal/serve"
	"gsight/internal/stats"
	"gsight/internal/telemetry"
)

// placerStage describes one library-path workload: the placer pool on
// a large contended cluster, no HTTP and no WAL.
type placerStage struct {
	name    string
	servers int
	shards  int
	topK    int // tier-0 finalists kept for full prediction
	// Every server but each idleEvery-th holds `antagonists` instances
	// of the antagonist service. One per server with every 8th idle
	// leaves room in each 8-server home window; three (a full server)
	// with every 16th idle makes most requests climb the window ladder,
	// where tier-0 pruning and the fallback engage.
	idleEvery   int
	antagonists int
}

// batchSize is the daemon's commit batch bound: the placer sees the
// largest batch the committer would ever hand it.
const batchSize = 64

// antagonist is the latency-sensitive service pre-committed on the
// contended servers.
const antagonist = "social-network"

// twin is the daemon's placement machinery built outside the daemon:
// same catalog, same bootstrap training, same scheduler factory.
type twin struct {
	cat   *serve.Catalog
	pred  *core.Predictor
	state *sched.ShardedState
	pool  *sched.PlacerPool
}

// newTwin mirrors serve.New up to the placer pool. sink, when set,
// instruments the schedulers and the predictor.
func newTwin(servers, shards, placers, topK int, sink *telemetry.Sink) (*twin, error) {
	lab := perfmodel.New(resources.DefaultTestbed())
	scenario.FastConfig(lab)
	t := &twin{cat: serve.NewCatalog(lab, 42), pred: core.NewPredictor(core.Config{Seed: 42})}
	if sink != nil {
		t.pred.Instrument(sink)
	}
	if err := t.cat.Train(t.pred, 40); err != nil {
		return nil, err
	}
	t.state = sched.ShardedStateFromProfiles(t.cat.Spec(), servers, shards)
	t.pool = sched.NewPlacerPool(t.state, placers, func() sched.Scheduler {
		g := sched.NewGsight(t.pred)
		g.Fallback = sched.NewWorstFit()
		if topK > 0 {
			g.Tier0 = t.pred.Tier0()
			g.TopK = topK
		}
		if sink != nil {
			g.Instrument(sink)
		}
		return g
	})
	return t, nil
}

// contend commits `per` antagonists, all functions of each on the same
// server, on every server but each idleEvery-th.
func (t *twin) contend(idleEvery, per int) error {
	for s := 0; s < t.state.NumServers(); s++ {
		if s%idleEvery == 0 {
			continue
		}
		for k := 0; k < per; k++ {
			req, err := t.cat.Request(antagonist, fmt.Sprintf("%s#bg%d.%d", antagonist, s, k), 0)
			if err != nil {
				return err
			}
			in := req.Input
			in.Placement = make([]int, len(in.Profiles))
			for f := range in.Placement {
				in.Placement[f] = s
			}
			t.state.Commit(in, req.SLA)
		}
	}
	t.state.Recount()
	return nil
}

// runPlacer builds the cluster (set-up, repeated), then places batches
// of 64 drawn from the mix through PlaceAll, one caller, releasing each
// batch before the next.
func runPlacer(r *run, st placerStage) error {
	var t *twin
	var builds []float64
	var sink *telemetry.Sink
	if r.rec != nil {
		sink = telemetry.New()
	}
	for i := 0; i < setupRepeats; i++ {
		var err error
		took := r.rec.timed(st.name+".setup", func() {
			t, err = newTwin(st.servers, st.shards, r.clients, st.topK, sink)
			if err == nil {
				err = t.contend(st.idleEvery, st.antagonists)
			}
		})
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", st.name, err)
		}
		builds = append(builds, took.Seconds())
	}
	r.setupParts["placer"] = median(builds)

	g := newGenerator(r.seed, st.name, 0, 0)
	reqs := make([]*sched.Request, batchSize)
	batchNo := 0
	placed, rejected := 0, 0
	batch := func() (time.Duration, error) {
		batchNo++
		for i := range reqs {
			s := g.next()
			req, err := t.cat.Request(s.arch, fmt.Sprintf("%s#b%d.%d", s.arch, batchNo, i), 0)
			if err != nil {
				return 0, err
			}
			reqs[i] = req
		}
		t0 := time.Now()
		results := t.pool.PlaceAll(reqs)
		t1 := time.Now()
		r.rec.add("sched.place_all", t0, t1, -1, uint64(batchNo))
		for i, res := range results {
			r.attempted++
			switch {
			case res.Err == nil:
				placed++
				for _, sv := range res.Placement {
					if sv < 0 || sv >= st.servers {
						r.problem("%s: placement names server %d outside [0,%d)", st.name, sv, st.servers)
					}
				}
				if !t.state.Release(reqs[i].Input.Name) {
					r.problem("%s: placed instance %s was not running", st.name, reqs[i].Input.Name)
				}
			case errors.Is(res.Err, sched.ErrNoPlacement):
				rejected++ // a valid decision
			default:
				r.failed++
				r.note("%s: %v", st.name, res.Err)
			}
		}
		return t1.Sub(t0), nil
	}

	warm := time.Now()
	for time.Since(warm) < r.share(0.02) {
		if _, err := batch(); err != nil {
			return err
		}
	}
	var before *telemetry.Snapshot
	if sink != nil {
		before = sink.Registry.Snapshot()
	}
	placed, rejected = 0, 0
	length := r.share(0.15)
	epoch := time.Now()
	var lat []sample
	for time.Since(epoch) < length {
		at := time.Since(epoch)
		took, err := batch()
		if err != nil {
			return err
		}
		lat = append(lat, sample{at: at, v: ms(took)})
	}
	if placed == 0 {
		return fmt.Errorf("%s: no request was placed", st.name)
	}
	// Placements per second of placer time, per window: generating and
	// releasing a batch between two PlaceAll calls is the harness's work.
	var rates []float64
	for _, w := range windows(numWindows, lat, length) {
		if len(w) > 0 {
			rates = append(rates, batchSize/(stats.Mean(w)/1000))
		}
	}
	r.set("sched.scale_place_per_s", median(rates), "1/s")
	r.set("sched.scale_batch_p95_ms", medianWindowPercentile(numWindows, lat, length, 95), "ms")
	if sink != nil {
		after := sink.Registry.Snapshot()
		counter := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
		histMean := func(name string) float64 {
			n := after.Histograms[name].Count - before.Histograms[name].Count
			if n == 0 {
				return 0
			}
			return (after.Histograms[name].Sum - before.Histograms[name].Sum) / float64(n)
		}
		n := counter("sched_gsight_placements_total")
		r.set("sched.search_iters_per_place", histMean("sched_gsight_search_iterations"), "count")
		r.set("sched.sla_checks_per_place", histMean("sched_gsight_sla_checks"), "count")
		kept, pruned := counter("sched_gsight_tier0_kept_total"), counter("sched_gsight_tier0_pruned_total")
		prunedFrac := 0.0
		if kept+pruned > 0 {
			prunedFrac = pruned / (kept + pruned)
		}
		r.set("sched.tier0_pruned_frac", prunedFrac, "share")
		r.set("sched.fallback_frac", counter("sched_gsight_fallbacks_total")/n, "share")
		r.set("core.batch_size_mean", histMean("predictor_batch_size"), "count")
		r.set("sched.scale_place_us_p50", 1000*percentile(sortedCopy(values(lat)), 50)/batchSize*float64(r.clients), "us")
	}
	r.note("%s: %d batches of %d on %d servers (%d shards, top-K %d, %d antagonists on all but every %dth), %d placers, one caller; batch p50 %.2f ms; %d placed, %d rejected",
		st.name, len(lat), batchSize, st.servers, st.shards, st.topK, st.antagonists, st.idleEvery, r.clients,
		percentile(sortedCopy(values(lat)), 50), placed, rejected)
	return nil
}
