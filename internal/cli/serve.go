package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"gsight/internal/persist"
	"gsight/internal/serve"
	"gsight/internal/telemetry"
)

// serveCmd is `gsight serve`: the placement daemon, an HTTP/JSON API
// over the live Gsight controller with write-ahead-logged
// acknowledgements, admission control and active/standby failover.
//
//	gsight serve -data /var/lib/gsight -addr :7070            # active
//	gsight serve -data /var/lib/gsight -addr :7071 -standby   # hot standby
//
// The standby tails the shared data dir and takes over the moment the
// active's lease lapses; every acknowledged decision survives the
// handoff (see DESIGN.md §16).
type serveCmd struct {
	cfg         serve.Config
	addr, owner string
	standby     bool
	ttl         time.Duration
}

func bindServe(fs *flag.FlagSet) func([]string) error {
	c := &serveCmd{}
	fs.StringVar(&c.cfg.DataDir, "data", "", "data directory (snapshots, WAL, decision log, lease) — required")
	fs.StringVar(&c.addr, "addr", "127.0.0.1:7070", "API listen address")
	fs.IntVar(&c.cfg.Servers, "servers", 0, "cluster size (0 = the paper's 8-node testbed)")
	fs.Uint64Var(&c.cfg.Seed, "seed", 42, "catalog / training seed (must match across active and standby)")
	fs.IntVar(&c.cfg.Train, "train", 40, "bootstrap training scenarios (0 = start untrained, serve degraded)")
	fs.IntVar(&c.cfg.QueueCap, "queue", 256, "admission queue capacity (overflow sheds with 429)")
	fs.IntVar(&c.cfg.SnapshotEvery, "snapshot-every", 1024, "records between snapshots")
	fs.BoolVar(&c.standby, "standby", false, "start as hot standby: wait for the active's lease to lapse")
	fs.DurationVar(&c.ttl, "lease-ttl", 2*time.Second, "leadership lease duration")
	fs.StringVar(&c.owner, "owner", "", "lease owner name (default host:pid)")
	return func([]string) error {
		if c.cfg.DataDir == "" {
			fmt.Fprintf(fs.Output(), "%s: -data is required\n", fs.Name())
			fs.Usage()
			return &exitError{code: 2}
		}
		return c.run(log.New(os.Stderr, fs.Name()+": ", log.LstdFlags|log.Lmicroseconds).Printf)
	}
}

func (c *serveCmd) run(logf func(string, ...any)) error {
	if c.owner == "" {
		host, _ := os.Hostname()
		c.owner = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	ctx, stop := signalContext()
	defer stop()

	// Leadership first: a standby parks here until the active dies; an
	// active refuses to start over a live lease (split brain guard).
	var lease *serve.Lease
	if c.standby {
		logf("standby: waiting for lease on %s", serve.LeasePath(c.cfg.DataDir))
		l, err := serve.WaitForLease(ctx, serve.StandbyConfig{
			DataDir: c.cfg.DataDir, Owner: c.owner, TTL: c.ttl, Logf: logf,
		})
		if err != nil {
			return fmt.Errorf("standby: %w", err)
		}
		lease = l
	} else {
		// A data dir in another snapshot format is refused before the
		// lease is taken, so the refusal leaves every file as it was.
		if _, _, _, err := persist.FindSnapshot(c.cfg.DataDir); errors.Is(err, persist.ErrSnapshotVersion) {
			return fmt.Errorf("start: serve: restore: %w", err)
		}
		if err := os.MkdirAll(c.cfg.DataDir, 0o755); err != nil {
			return fmt.Errorf("data dir: %w", err)
		}
		lease = serve.NewLease(serve.LeasePath(c.cfg.DataDir), c.owner, c.ttl)
		if err := lease.Acquire(); err != nil {
			return fmt.Errorf("lease: %w (another active is serving; start with -standby to wait)", err)
		}
	}
	logf("serving as %s at lease epoch %d", c.owner, lease.Epoch())

	health := telemetry.NewHealth()
	c.cfg.Health, c.cfg.Logf = health, logf
	srv, err := serve.New(c.cfg)
	if err != nil {
		lease.Release()
		return fmt.Errorf("start: %w", err)
	}

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		lease.Release()
		return fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			logf("http: %v", err)
		}
	}()
	logf("listening on %s (applied seq %d)", ln.Addr(), srv.Applied())

	// Renew until shutdown; a failed renewal means another process took
	// the lease — fence hard (exit 3, no drain: our successor already
	// owns the decision stream).
	renewErr := make(chan error, 1)
	go func() {
		renewErr <- serve.RenewLoop(ctx, lease, func(err error) {
			health.Down(err.Error())
		})
	}()

	select {
	case <-ctx.Done():
		logf("shutdown: draining")
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Stop(dctx); err != nil {
			logf("drain: %v", err)
		}
		hs.Shutdown(dctx)
		lease.Release()
		logf("drained cleanly")
	case err := <-renewErr:
		if err != nil {
			logf("FENCED: %v", err)
			hs.Close()
			return &exitError{code: 3}
		}
	}
	return nil
}
