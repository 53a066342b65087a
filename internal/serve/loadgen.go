package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gsight/internal/rng"
	"gsight/internal/stats"
)

// Open-loop load generator: arrivals fire on a Poisson clock that does
// NOT wait for responses, so a slow daemon accumulates in-flight work
// instead of silently throttling the offered rate (the coordinated-
// omission trap a closed loop falls into). Used by cmd/gsight-loadgen,
// the serving benchmark, and the failover gate's driver.

// LoadConfig configures one load run.
type LoadConfig struct {
	// Addrs are the daemon base URLs (active first).
	Addrs []string
	// RateQPS is the offered arrival rate. <= 0 means closed-loop: each
	// worker fires its next request as soon as the previous returns.
	RateQPS float64
	// Workers bounds in-flight requests (open loop) or sets the client
	// count (closed loop). Default 32.
	Workers int
	// Requests is the measured-phase request count.
	Requests int
	// Warmup requests run (and are discarded) before measurement.
	Warmup int
	// Seed drives the arrival clock and workload mix.
	Seed uint64
	// Workloads is the archetype mix to draw from uniformly.
	Workloads []string
	// ReleaseFrac releases each placed instance with this probability
	// right after placement, keeping the cluster from filling up over a
	// long run. Default 0 (never release).
	ReleaseFrac float64
	// ObserveFrac follows a successful placement with a synthetic QoS
	// observation (exercises the online-learning path). Default 0.
	ObserveFrac float64
	// Ordered stamps every request with a global order number, making
	// the run byte-replayable for the failover gate. Ordered runs
	// serialize admission; keep rates moderate. The follow-ups are part
	// of the numbered stream: which placements get an observation or a
	// release is drawn up front from Seed and their order numbers are
	// reserved right after the placement's, so they are sent whatever
	// the placement's outcome (a hole would stall the stream).
	Ordered bool
	// StartOrder is the first order number an ordered run uses
	// (continuing a numbered stream across phases). Default 1.
	StartOrder uint64
	// MaxAttempts overrides the per-request retry budget (0 = client
	// default). Failover runs need enough budget to outlast a lease
	// expiry + standby restore.
	MaxAttempts int
}

// LoadResult summarizes one load run.
type LoadResult struct {
	Requests  int           `json:"requests"`
	Errors    int           `json:"errors"`
	Shed      int           `json:"shed"` // 429s absorbed by retries
	Placed    int           `json:"placed"`
	Rejected  int           `json:"rejected"`
	Degraded  int           `json:"degraded"`
	Elapsed   time.Duration `json:"-"`
	ElapsedS  float64       `json:"elapsed_s"`
	Throughputs float64     `json:"throughput_rps"`
	MeanMs    float64       `json:"mean_ms"`
	P50Ms     float64       `json:"p50_ms"`
	P95Ms     float64       `json:"p95_ms"`
	P99Ms     float64       `json:"p99_ms"`
	MaxMs     float64       `json:"max_ms"`
	// NextOrder continues an ordered stream in a follow-up run.
	NextOrder uint64 `json:"-"`
}

func (r *LoadResult) String() string {
	return fmt.Sprintf("%d reqs in %.2fs (%.0f rps): placed %d, rejected %d, degraded %d, errors %d, shed-retries %d | latency ms mean %.2f p50 %.2f p95 %.2f p99 %.2f max %.2f",
		r.Requests, r.ElapsedS, r.Throughputs, r.Placed, r.Rejected, r.Degraded,
		r.Errors, r.Shed, r.MeanMs, r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs)
}

// RunLoad drives one load run against a daemon and reports latency
// percentiles over the measured phase.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("serve: loadgen needs at least one address")
	}
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("serve: loadgen needs a workload mix")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 32
	}
	order := cfg.StartOrder
	if order == 0 {
		order = 1
	}

	type job struct {
		arch    string
		order   uint64
		measure bool
		// Ordered runs: the follow-ups' reserved order numbers (0 = none).
		observe, release uint64
	}
	total := cfg.Warmup + cfg.Requests
	jobs := make(chan job, workers)
	mixRand := rng.Stream(cfg.Seed, "loadgen-mix")
	clock := rng.Stream(cfg.Seed, "loadgen-arrivals")
	followRand := rng.Stream(cfg.Seed, "loadgen-follow")

	var (
		mu        sync.Mutex
		latencies []float64
		res       LoadResult
		shed      uint64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Per-worker client: Client.cur is not goroutine-safe.
			cl := NewClient(cfg.Addrs...)
			if cfg.MaxAttempts > 0 {
				cl.MaxAttempts = cfg.MaxAttempts
			}
			obsRand := rng.Stream(cfg.Seed, fmt.Sprintf("loadgen-obs-%d", id))
			for j := range jobs {
				t0 := time.Now()
				ack, err := cl.Place(ctx, PlaceRequest{Workload: j.arch, Order: j.order})
				lat := time.Since(t0)
				mu.Lock()
				if j.measure {
					if err != nil {
						res.Errors++
					} else {
						latencies = append(latencies, lat.Seconds()*1000)
						switch ack.Outcome {
						case "rejected":
							res.Rejected++
						case "degraded":
							res.Degraded++
							res.Placed++
						default:
							res.Placed++
						}
					}
				}
				mu.Unlock()
				if cfg.Ordered {
					// The instance name is a function of the order
					// number, so the follow-ups do not depend on the ack.
					name := fmt.Sprintf("%s#o%d", j.arch, j.order)
					var ferr error
					if j.observe > 0 {
						value := 1.0
						if ack != nil && ack.PredIPC > 0 {
							value = ack.PredIPC
						}
						_, ferr = cl.Observe(ctx, ObserveRequest{Name: name, QoS: "ipc", Value: value, Order: j.observe})
					}
					if j.release > 0 && ferr == nil {
						_, ferr = cl.Release(ctx, ReleaseRequest{Name: name, Order: j.release})
					}
					if ferr != nil && j.measure {
						mu.Lock()
						res.Errors++
						mu.Unlock()
					}
					continue
				}
				if err != nil || ack == nil || len(ack.Placement) == 0 {
					continue
				}
				if cfg.ObserveFrac > 0 && obsRand.Float64() < cfg.ObserveFrac {
					// Feed back the daemon's own prediction as the
					// measurement: harmless for learning, exercises the
					// observe → WAL → flush path end to end.
					if ack.PredIPC > 0 {
						cl.Observe(ctx, ObserveRequest{Name: ack.Name, QoS: "ipc", Value: ack.PredIPC})
					}
				}
				if cfg.ReleaseFrac > 0 && obsRand.Float64() < cfg.ReleaseFrac {
					cl.Release(ctx, ReleaseRequest{Name: ack.Name})
				}
			}
			atomic.AddUint64(&shed, cl.Shed)
		}(w)
	}

	start := time.Now()
	var measStart time.Time
	next := start
	for i := 0; i < total; i++ {
		if cfg.RateQPS > 0 {
			// Open loop: sleep to the precomputed arrival instant
			// regardless of how the previous requests are doing.
			next = next.Add(time.Duration(clock.Exp(cfg.RateQPS) * float64(time.Second)))
			if d := time.Until(next); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
		}
		if ctx.Err() != nil {
			break
		}
		measure := i >= cfg.Warmup
		if measure && measStart.IsZero() {
			measStart = time.Now()
		}
		j := job{arch: cfg.Workloads[mixRand.Intn(len(cfg.Workloads))], measure: measure}
		if cfg.Ordered {
			j.order = order
			order++
			if cfg.ObserveFrac > 0 && followRand.Float64() < cfg.ObserveFrac {
				j.observe = order
				order++
			}
			if cfg.ReleaseFrac > 0 && followRand.Float64() < cfg.ReleaseFrac {
				j.release = order
				order++
			}
		}
		jobs <- j
	}
	close(jobs)
	wg.Wait()

	if measStart.IsZero() {
		measStart = start
	}
	res.Elapsed = time.Since(measStart)
	res.ElapsedS = res.Elapsed.Seconds()
	res.Requests = len(latencies) + res.Errors
	res.Shed = int(atomic.LoadUint64(&shed))
	res.NextOrder = order
	if res.ElapsedS > 0 {
		res.Throughputs = float64(res.Requests) / res.ElapsedS
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		res.MeanMs = stats.Mean(latencies)
		res.P50Ms = stats.PercentileSorted(latencies, 50)
		res.P95Ms = stats.PercentileSorted(latencies, 95)
		res.P99Ms = stats.PercentileSorted(latencies, 99)
		res.MaxMs = latencies[len(latencies)-1]
	}
	return &res, nil
}
