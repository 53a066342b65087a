package serve

import (
	"context"
	"fmt"
	"os"
	"time"
)

// Standby watches a shared data dir, waiting for the active's lease to
// lapse. Warm state is the data dir itself — snapshot + WAL + decision
// log — so takeover is a restore from the latest durable prefix: every
// acknowledged record survives (fsynced before its ack), every
// unacknowledged one is gone, and the decision log continues
// byte-identically. The standby tracks file sizes only as a liveness
// signal for operators; correctness never depends on tailing speed.
type StandbyConfig struct {
	// DataDir is the dir shared with the active.
	DataDir string
	// Owner names this process in the lease file.
	Owner string
	// TTL is the lease duration the standby will serve with; it checks
	// the lease every TTL/4.
	TTL time.Duration
	// Logf receives progress lines.
	Logf func(string, ...interface{})
}

// WaitForLease blocks until the active's lease expires (or ctx ends),
// then acquires it with a bumped fencing epoch and returns the held
// lease. The caller then builds the Server (New restores from the
// data dir) and starts renewing.
func WaitForLease(ctx context.Context, cfg StandbyConfig) (*Lease, error) {
	if cfg.TTL <= 0 {
		cfg.TTL = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	l := NewLease(LeasePath(cfg.DataDir), cfg.Owner, cfg.TTL)
	var lastLog int64
	for {
		err := l.Acquire()
		if err == nil {
			cfg.Logf("lease acquired at epoch %d", l.Epoch())
			return l, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Heartbeat line: decision-log growth shows the active is alive.
		if sz := dirProgress(cfg.DataDir); sz != lastLog {
			cfg.Logf("standing by: active holds lease (%v); decision log at %d bytes", err, sz)
			lastLog = sz
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(cfg.TTL / 4):
		}
	}
}

// dirProgress reports the decision log size (0 if absent).
func dirProgress(dir string) int64 {
	fi, err := os.Stat(dir + "/decisions.jsonl")
	if err != nil {
		return 0
	}
	return fi.Size()
}

// RenewLoop renews the lease until ctx ends or renewal fails; on
// failure it calls fence (exactly once) and returns the error. Run it
// in its own goroutine next to a serving daemon.
func RenewLoop(ctx context.Context, l *Lease, fence func(error)) error {
	interval := l.TTL() / 3
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	for {
		select {
		case <-ctx.Done():
			return l.Release()
		case <-time.After(interval):
		}
		if err := l.Renew(); err != nil {
			fence(fmt.Errorf("serve: lease renewal: %w", err))
			return err
		}
	}
}
