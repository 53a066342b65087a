// Command gsight-serve runs the placement daemon: an HTTP/JSON API
// over the live Gsight controller with write-ahead-logged
// acknowledgements, admission control and active/standby failover.
//
//	gsight-serve -data /var/lib/gsight -addr :7070            # active
//	gsight-serve -data /var/lib/gsight -addr :7071 -standby   # hot standby
//
// The standby tails the shared data dir and takes over the moment the
// active's lease lapses; every acknowledged decision survives the
// handoff (see DESIGN.md §16).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gsight/internal/serve"
	"gsight/internal/telemetry"
)

func main() {
	var (
		dataDir   = flag.String("data", "", "data directory (snapshots, WAL, decision log, lease) — required")
		addr      = flag.String("addr", "127.0.0.1:7070", "API listen address")
		servers   = flag.Int("servers", 0, "cluster size (0 = the paper's 8-node testbed)")
		placers   = flag.Int("placers", 4, "placement workers")
		seed      = flag.Uint64("seed", 42, "catalog / training seed (must match across active and standby)")
		train     = flag.Int("train", 40, "bootstrap training scenarios (0 = start untrained, serve degraded)")
		topk      = flag.Int("topk", 0, "tier-0 candidate pruning (0 = off)")
		queueCap  = flag.Int("queue", 256, "admission queue capacity (overflow sheds with 429)")
		snapEvery = flag.Int("snapshot-every", 1024, "records between snapshots")
		keep      = flag.Int("keep", 3, "checkpoint generations retained")
		standby   = flag.Bool("standby", false, "start as hot standby: wait for the active's lease to lapse")
		ttl       = flag.Duration("lease-ttl", 2*time.Second, "leadership lease duration")
		owner     = flag.String("owner", "", "lease owner name (default host:pid)")
	)
	flag.Parse()
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "gsight-serve: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "gsight-serve: ", log.LstdFlags|log.Lmicroseconds)
	logf := logger.Printf
	if *owner == "" {
		host, _ := os.Hostname()
		*owner = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Leadership first: a standby parks here until the active dies; an
	// active refuses to start over a live lease (split brain guard).
	var lease *serve.Lease
	if *standby {
		logf("standby: waiting for lease on %s", serve.LeasePath(*dataDir))
		l, err := serve.WaitForLease(ctx, serve.StandbyConfig{
			DataDir: *dataDir, Owner: *owner, TTL: *ttl, Logf: logf,
		})
		if err != nil {
			logf("standby: %v", err)
			os.Exit(1)
		}
		lease = l
	} else {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			logger.Fatalf("data dir: %v", err)
		}
		lease = serve.NewLease(serve.LeasePath(*dataDir), *owner, *ttl)
		if err := lease.Acquire(); err != nil {
			logger.Fatalf("lease: %v (another active is serving; start with -standby to wait)", err)
		}
	}
	logf("serving as %s at lease epoch %d", *owner, lease.Epoch())

	health := telemetry.NewHealth()
	srv, err := serve.New(serve.Config{
		DataDir:       *dataDir,
		Servers:       *servers,
		Placers:       *placers,
		Seed:          *seed,
		Train:         *train,
		TopK:          *topk,
		QueueCap:      *queueCap,
		SnapshotEvery: *snapEvery,
		Keep:          *keep,
		Health:        health,
		Logf:          logf,
	})
	if err != nil {
		lease.Release()
		logger.Fatalf("start: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		lease.Release()
		logger.Fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			logf("http: %v", err)
		}
	}()
	logf("listening on %s (applied seq %d)", ln.Addr(), srv.Applied())

	// Renew until shutdown; a failed renewal means another process took
	// the lease — fence hard (exit non-zero, no drain: our successor
	// already owns the decision stream).
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
			os.Exit(3)
		}
	}
}
