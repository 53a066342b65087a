// Command gsight-loadgen drives open-loop Poisson load against a
// gsight-serve daemon and reports placement latency percentiles.
//
//	gsight-loadgen -addr http://127.0.0.1:7070 -rate 200 -n 2000
//
// Arrivals fire on a Poisson clock that does not wait for responses,
// so the offered rate holds even when the daemon slows down — the
// reported p99 includes the queueing the daemon actually caused
// (no coordinated omission). -ordered stamps requests with global
// order numbers for byte-replayable runs (the failover gate's mode).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gsight/internal/serve"
)

func main() {
	var (
		addrs      = flag.String("addr", "http://127.0.0.1:7070", "daemon base URLs, comma-separated (active first)")
		rate       = flag.Float64("rate", 0, "offered arrival rate in requests/s (0 = closed loop)")
		workers    = flag.Int("workers", 32, "max in-flight requests (open loop) / client count (closed loop)")
		n          = flag.Int("n", 1000, "measured requests")
		warmup     = flag.Int("warmup", 100, "warmup requests (excluded from percentiles)")
		seed       = flag.Uint64("seed", 1, "arrival clock and workload mix seed")
		mix        = flag.String("mix", "", "workload mix, comma-separated (default: the daemon's full catalog)")
		release    = flag.Float64("release", 0.5, "probability of releasing each placed instance immediately")
		observe    = flag.Float64("observe", 0.2, "probability of feeding back a QoS observation per placement")
		ordered    = flag.Bool("ordered", false, "stamp requests with global order numbers (byte-replayable run)")
		startOrder = flag.Uint64("start-order", 1, "first order number for -ordered runs")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON")
		timeout    = flag.Duration("timeout", 10*time.Minute, "overall run timeout")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	addrList := strings.Split(*addrs, ",")
	cl := serve.NewClient(addrList...)
	if err := cl.WaitReady(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "gsight-loadgen: daemon not ready: %v\n", err)
		os.Exit(1)
	}

	var workloads []string
	if *mix != "" {
		workloads = strings.Split(*mix, ",")
	} else {
		st, err := cl.State(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsight-loadgen: fetch catalog: %v\n", err)
			os.Exit(1)
		}
		workloads = st.Catalog
	}

	cfg := serve.LoadConfig{
		Addrs:       addrList,
		RateQPS:     *rate,
		Workers:     *workers,
		Requests:    *n,
		Warmup:      *warmup,
		Seed:        *seed,
		Workloads:   workloads,
		ReleaseFrac: *release,
		ObserveFrac: *observe,
		Ordered:     *ordered,
		StartOrder:  *startOrder,
	}
	if len(addrList) > 1 {
		// A failover run: the retry budget must outlast a lease expiry
		// plus the standby's restore (the default's ~1.3 s of backoff is
		// about what a 500 ms lease and a small snapshot take).
		cfg.MaxAttempts = 60
	}
	res, err := serve.RunLoad(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsight-loadgen: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		json.NewEncoder(os.Stdout).Encode(res)
	} else {
		fmt.Println(res)
	}
	if res.Errors > 0 {
		os.Exit(2)
	}
}
