// Package profile implements Gsight's solo-run profiling (§3.2): each
// function of each workload is characterized once on a dedicated
// server, producing a vector of system-layer and microarchitecture-layer
// metrics (Table 3). Profiles are non-intrusive — they are what perf and
// pqos-msr would report — and feed the prediction model together with
// the partial interference codes.
//
// In this reproduction the metrics are synthesized deterministically
// from the function archetypes, standing in for hardware counters: the
// synthesis is monotone in the underlying resource demands, so the
// learned model faces the same inference problem the paper's does
// (profiles in, QoS out), without ever seeing the ground-truth
// interference model.
package profile

import (
	"fmt"
	"math"

	"gsight/internal/metrics"
	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/workload"
)

// Profile is the solo-run characterization of one function.
type Profile struct {
	Workload string
	Function string
	// Metrics are the 19 candidate solo-run metrics at the reference
	// load (MaxQPS for LS entry-load, full-rate for SC).
	Metrics metrics.Vector
	// Demand is the measured solo resource consumption (the paper's
	// utilization vector U source).
	Demand resources.Vector
	// Alloc is the configured resource allocation (the paper's R
	// vector): demands rounded up to allocation granularity.
	Alloc resources.Vector
}

// AllocFor derives the configured resource request from a measured
// demand: requests are deliberately conservative, as production
// serverless deployments are — roughly twice the observed CPU usage
// rounded to quarter cores, 1.5x memory rounded to 128 MB steps, and a
// 25% headroom on the I/O resources. The gap between requests and
// true usage is precisely the capacity a request-based packer strands
// and an interference-predicting scheduler can safely reclaim
// (Figure 11's density argument).
func AllocFor(d resources.Vector) resources.Vector {
	var a resources.Vector
	a[resources.CPU] = math.Ceil(d[resources.CPU]*2*4) / 4
	a[resources.Memory] = math.Ceil(d[resources.Memory]*1.5*8) / 8
	for _, k := range []resources.Kind{resources.LLC, resources.MemBW, resources.Network, resources.Disk} {
		a[k] = d[k] * 1.25
	}
	if a[resources.CPU] == 0 {
		a[resources.CPU] = 0.25
	}
	if a[resources.Memory] == 0 {
		a[resources.Memory] = 0.125
	}
	return a
}

// SoloProfile characterizes function f of w under a solo run on a
// server of the given spec. A non-nil rnd adds the measurement noise a
// real 5-minute, 1 Hz collection exhibits.
func SoloProfile(w *workload.Workload, f int, spec resources.ServerSpec, rnd *rng.Rand) Profile {
	fn := &w.Functions[f]
	d := fn.Demand
	alloc := AllocFor(d)

	var v metrics.Vector
	v[metrics.IPC] = fn.SoloIPC
	v[metrics.CPUUtil] = clamp01(d[resources.CPU] / alloc[resources.CPU])
	v[metrics.MemUtil] = clamp01(d[resources.Memory] / alloc[resources.Memory])
	v[metrics.LLCOcc] = d[resources.LLC]
	v[metrics.NetBW] = d[resources.Network]
	v[metrics.RX] = 0.55 * d[resources.Network]
	// TX is a retransmission-rate proxy that carries almost no signal
	// (screened out by the Table 3 threshold).
	v[metrics.TX] = 0.02
	v[metrics.DiskIO] = d[resources.Disk]
	// MemIO and MemLP saturate on this platform and barely vary —
	// the paper's |corr| < 0.1 rejects.
	v[metrics.MemIO] = 11.5 + 0.02*d[resources.MemBW]
	v[metrics.MemLP] = 4.0 + 0.01*d[resources.MemBW]
	// Miss rates grow with working set and bandwidth appetite.
	v[metrics.L1DMPKI] = 6 + 1.8*d[resources.LLC]
	v[metrics.L1IMPKI] = 0.8 + 0.05*fn.BaseServiceMs
	v[metrics.L2MPKI] = 2.5 + 0.7*d[resources.LLC] + 0.35*d[resources.MemBW]
	v[metrics.L3MPKI] = 0.2 + 0.22*d[resources.MemBW]/maxf(0.5, fn.SoloIPC)
	v[metrics.DTLBMPKI] = 0.25 + 0.12*d[resources.Memory]
	v[metrics.ITLBMPKI] = 0.08 + 0.015*fn.BaseServiceMs
	v[metrics.BranchMPKI] = clampLo(2.0+4.0*(2.2-fn.SoloIPC), 0.3)
	// Context switches (thousands/s) rise with I/O appetite and, for
	// LS functions, with invocation handling.
	ctx := 0.4 + 1.5*d[resources.Network] + 0.01*d[resources.Disk]
	if w.Class == workload.LS && fn.BaseServiceMs > 0 {
		ctx += 2.5
	}
	v[metrics.ContextSwitches] = ctx
	v[metrics.CPUFreq] = spec.BaseFreqGHz * (1 - 0.06*v[metrics.CPUUtil])

	if rnd != nil {
		for i := range v {
			v[i] = rnd.Jitter(v[i], 0.015)
		}
	}
	return Profile{
		Workload: w.Name,
		Function: fn.Name,
		Metrics:  v,
		Demand:   d,
		Alloc:    alloc,
	}
}

// WorkloadProfiles profiles every function of w (one dedicated solo run
// each, §3.2's cost of M+N solo runs).
func WorkloadProfiles(w *workload.Workload, spec resources.ServerSpec, rnd *rng.Rand) []Profile {
	ps := make([]Profile, len(w.Functions))
	for f := range w.Functions {
		ps[f] = SoloProfile(w, f, spec, rnd)
	}
	return ps
}

// Merged aggregates function profiles into a single workload-level
// profile — the monolithic profiling baseline of Figure 5, which
// deliberately discards the per-function structure. Demands and rate
// metrics sum; intensive metrics average weighted by CPU demand.
func Merged(ps []Profile) Profile {
	if len(ps) == 0 {
		return Profile{}
	}
	out := Profile{Workload: ps[0].Workload, Function: "merged"}
	var vs []metrics.Vector
	var weights []float64
	for _, p := range ps {
		out.Demand = out.Demand.Add(p.Demand)
		vs = append(vs, p.Metrics)
		weights = append(weights, maxf(p.Demand[resources.CPU], 1e-6))
	}
	out.Alloc = AllocFor(out.Demand)
	out.Metrics = metrics.Mix(vs, weights)
	// Rate metrics add rather than average across functions.
	for _, id := range []metrics.ID{metrics.NetBW, metrics.RX, metrics.DiskIO, metrics.ContextSwitches, metrics.LLCOcc} {
		sum := 0.0
		for _, p := range ps {
			sum += p.Metrics[id]
		}
		out.Metrics[id] = sum
	}
	return out
}

// ScaleLoad returns the profile metrics at a load factor l relative to
// the profiling reference (the paper's "actual utilization ratios"):
// rate-like metrics scale with load, intensive metrics do not.
func ScaleLoad(v metrics.Vector, l float64) metrics.Vector {
	if l < 0 {
		l = 0
	}
	// TX (retransmission proxy) and MemIO saturate on this platform and
	// deliberately do not track load — they are the Table 3 rejects.
	for _, id := range []metrics.ID{
		metrics.CPUUtil, metrics.NetBW, metrics.RX,
		metrics.DiskIO, metrics.ContextSwitches,
	} {
		v[id] *= l
	}
	// Frequency droop follows utilization.
	v[metrics.CPUFreq] /= 1 + 0.02*(l-1)
	return v
}

// CoRun synthesizes the metrics a colocated run would report, given the
// solo profile and the model's compute/IO slowdowns and rate ratio.
// Used by the Table 3 correlation study, where metrics are collected
// under interference and correlated with performance.
func CoRun(solo metrics.Vector, sigmaC, sigmaIO, rateRatio float64) metrics.Vector {
	v := solo
	if sigmaC < 1 {
		sigmaC = 1
	}
	if sigmaIO < 1 {
		sigmaIO = 1
	}
	v[metrics.IPC] = solo[metrics.IPC] / sigmaC
	pc := sigmaC - 1
	v[metrics.L3MPKI] = solo[metrics.L3MPKI] * (1 + 1.8*pc)
	v[metrics.L2MPKI] = solo[metrics.L2MPKI] * (1 + 0.9*pc)
	v[metrics.L1DMPKI] = solo[metrics.L1DMPKI] * (1 + 0.25*pc)
	v[metrics.DTLBMPKI] = solo[metrics.DTLBMPKI] * (1 + 0.5*pc)
	v[metrics.BranchMPKI] = solo[metrics.BranchMPKI] * (1 + 0.15*pc)
	v[metrics.CPUFreq] = solo[metrics.CPUFreq] * (1 - 0.03*pc)
	// Rates follow the achieved throughput.
	for _, id := range []metrics.ID{
		metrics.NetBW, metrics.RX, metrics.DiskIO, metrics.ContextSwitches,
	} {
		v[id] = solo[id] * rateRatio
	}
	v[metrics.CPUUtil] = clamp01(solo[metrics.CPUUtil] * rateRatio * sigmaC)
	return v
}

// WithStartup returns the startup-inclusive profile of §5.2: when an
// invocation experiences a cold start, the predictor uses function
// profiles that contain the startup phase. frac is the cold-start rate
// the deployment experiences; the warm profile blends with the
// cold-cache startup characteristics in that proportion.
func WithStartup(p Profile, frac float64) Profile {
	if frac <= 0 {
		return p
	}
	if frac > 1 {
		frac = 1
	}
	out := p
	v := p.Metrics
	blend := func(id metrics.ID, coldFactor float64) {
		v[id] = v[id] * (1 + (coldFactor-1)*frac)
	}
	blend(metrics.IPC, 0.70)       // cold caches retire slowly
	blend(metrics.BranchMPKI, 1.5) // untrained predictors
	blend(metrics.L1IMPKI, 2.0)    // cold instruction cache
	blend(metrics.L1DMPKI, 1.6)    // cold data cache
	blend(metrics.L2MPKI, 1.6)
	blend(metrics.L3MPKI, 1.8)
	blend(metrics.ITLBMPKI, 1.8)
	blend(metrics.DTLBMPKI, 1.6)
	blend(metrics.ContextSwitches, 1.4) // runtime bootstrap chatter
	blend(metrics.CPUUtil, 1.15)        // startup work on top of serving
	out.Metrics = v
	return out
}

// Store holds solo-run profiles keyed by workload name.
type Store struct {
	byWorkload map[string][]Profile
}

// NewStore returns an empty profile store.
func NewStore() *Store {
	return &Store{byWorkload: make(map[string][]Profile)}
}

// Put stores the profiles of one workload, replacing earlier ones.
func (s *Store) Put(name string, ps []Profile) {
	cp := make([]Profile, len(ps))
	copy(cp, ps)
	s.byWorkload[name] = cp
}

// Get returns the stored profiles for a workload.
func (s *Store) Get(name string) ([]Profile, bool) {
	ps, ok := s.byWorkload[name]
	return ps, ok
}

// ProfileWorkload profiles w solo and stores the result.
func (s *Store) ProfileWorkload(w *workload.Workload, spec resources.ServerSpec, rnd *rng.Rand) []Profile {
	ps := WorkloadProfiles(w, spec, rnd)
	s.Put(w.Name, ps)
	return ps
}

// String summarizes a profile for logs.
func (p Profile) String() string {
	return fmt.Sprintf("%s/%s ipc=%.2f cpu=%.0f%% llc=%.1fMB",
		p.Workload, p.Function, p.Metrics[metrics.IPC],
		100*p.Metrics[metrics.CPUUtil], p.Metrics[metrics.LLCOcc])
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func clampLo(x, lo float64) float64 {
	if x < lo {
		return lo
	}
	return x
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
