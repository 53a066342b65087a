package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gsight/internal/serve"
)

// bindLoadgen is `gsight loadgen`: open-loop Poisson load against a
// `gsight serve` daemon, reporting placement latency percentiles.
//
//	gsight loadgen -addr http://127.0.0.1:7070 -rate 200 -n 2000
//
// Arrivals fire on a Poisson clock that does not wait for responses,
// so the offered rate holds even when the daemon slows down — the
// reported p99 includes the queueing the daemon actually caused
// (no coordinated omission). -ordered gives requests global
// order numbers for byte-replayable runs (the failover gate's mode).
// A run with errors exits 2.
func bindLoadgen(fs *flag.FlagSet) func([]string) error {
	var cfg serve.LoadConfig
	addrs := fs.String("addr", "http://127.0.0.1:7070", "daemon base URLs, comma-separated (active first)")
	fs.Float64Var(&cfg.RateQPS, "rate", 0, "offered arrival rate in requests/s (0 = closed loop)")
	fs.IntVar(&cfg.Workers, "workers", 32, "max in-flight requests (open loop) / client count (closed loop)")
	fs.IntVar(&cfg.Requests, "n", 1000, "measured requests")
	fs.IntVar(&cfg.Warmup, "warmup", 100, "warmup requests (excluded from percentiles)")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "arrival clock and workload mix seed")
	mix := fs.String("mix", "", "workload mix, comma-separated (default: the daemon's full catalog)")
	fs.Float64Var(&cfg.ReleaseFrac, "release", 0.5, "probability of releasing each placed instance immediately")
	fs.Float64Var(&cfg.ObserveFrac, "observe", 0.2, "probability of feeding back a QoS observation per placement")
	fs.BoolVar(&cfg.Ordered, "ordered", false, "stamp requests with global order numbers (byte-replayable run)")
	jsonOut := fs.Bool("json", false, "emit the result as JSON")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall run timeout")
	return func([]string) error {
		ctx, stop := signalContext()
		defer stop()
		ctx, cancel := context.WithTimeout(ctx, *timeout)
		defer cancel()

		cfg.Addrs = strings.Split(*addrs, ",")
		cl := serve.NewClient(cfg.Addrs...)
		if err := cl.WaitReady(ctx); err != nil {
			return fmt.Errorf("daemon not ready: %w", err)
		}
		if *mix != "" {
			cfg.Workloads = strings.Split(*mix, ",")
		} else {
			st, err := cl.State(ctx)
			if err != nil {
				return fmt.Errorf("fetch catalog: %w", err)
			}
			cfg.Workloads = st.Catalog
		}
		if len(cfg.Addrs) > 1 {
			// A failover run: the retry budget must outlast a lease expiry
			// plus the standby's restore (the default's ~1.3 s of backoff is
			// about what a 500 ms lease and a small snapshot take).
			cfg.MaxAttempts = 60
		}
		res, err := serve.RunLoad(ctx, cfg)
		if err != nil {
			return err
		}
		if *jsonOut {
			json.NewEncoder(os.Stdout).Encode(res)
		} else {
			fmt.Println(res)
		}
		if res.Errors > 0 {
			return &exitError{code: 2}
		}
		return nil
	}
}
