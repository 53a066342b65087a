package serve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// End-to-end failover: real `gsight serve` processes, a real SIGKILL
// mid-load, a hot standby taking over through the lease, and a
// byte-identity check of the merged decision log against an
// uninterrupted reference run. This is the in-tree twin of
// scripts/servecheck.sh.

const failoverRequests = 90

func buildServeBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gsight")
	cmd := exec.Command("go", "build", "-o", bin, "gsight/cmd/gsight")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build gsight: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

type daemon struct {
	cmd  *exec.Cmd
	addr string
	logs *bytes.Buffer
}

func startDaemon(t *testing.T, bin, dir, addr string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{
		"serve", "-data", dir, "-addr", addr,
		"-seed", "7", "-train", "4",
		"-snapshot-every", "32", "-lease-ttl", "500ms",
	}, extra...)
	d := &daemon{addr: addr, logs: &bytes.Buffer{}}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = d.logs
	d.cmd.Stderr = d.logs
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	t.Cleanup(func() {
		if d.cmd.Process != nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	return d
}

func (d *daemon) stopGracefully(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain within 30s\n%s", d.logs)
	}
}

func failoverLoad(addrs []string) LoadConfig {
	return LoadConfig{
		Addrs:     addrs,
		Workers:   8,
		Requests:  failoverRequests,
		Warmup:    0,
		Seed:      11,
		Workloads: []string{"matmul", "social-network", "dd", "e-commerce", "kmeans"},
		Ordered:   true,
		// No releases/observations: the gate compares pure ordered
		// placement streams, and those extras are unordered.
		ReleaseFrac: 0,
		ObserveFrac: 0,
		MaxAttempts: 60,
	}
}

func TestFailoverSIGKILLByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level failover test")
	}
	bin := buildServeBinary(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Reference: one daemon, uninterrupted ordered load, clean drain.
	refDir := t.TempDir()
	refAddr := freeAddr(t)
	ref := startDaemon(t, bin, refDir, refAddr)
	refURL := "http://" + refAddr
	if err := NewClient(refURL).WaitReady(ctx); err != nil {
		t.Fatalf("reference daemon not ready: %v\n%s", err, ref.logs)
	}
	refRes, err := RunLoad(ctx, failoverLoad([]string{refURL}))
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Errors > 0 {
		t.Fatalf("reference run had %d errors: %s", refRes.Errors, refRes)
	}
	ref.stopGracefully(t)

	// Crash run: active + hot standby over a shared data dir; SIGKILL
	// the active once the decision log shows progress.
	crashDir := t.TempDir()
	activeAddr, standbyAddr := freeAddr(t), freeAddr(t)
	active := startDaemon(t, bin, crashDir, activeAddr)
	activeURL, standbyURL := "http://"+activeAddr, "http://"+standbyAddr
	if err := NewClient(activeURL).WaitReady(ctx); err != nil {
		t.Fatalf("active not ready: %v\n%s", err, active.logs)
	}
	standby := startDaemon(t, bin, crashDir, standbyAddr, "-standby")

	logPath := filepath.Join(crashDir, "decisions.jsonl")
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(time.Minute)
		for time.Now().Before(deadline) {
			if fi, err := os.Stat(logPath); err == nil && fi.Size() > 2000 {
				active.cmd.Process.Signal(syscall.SIGKILL)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	crashRes, err := RunLoad(ctx, failoverLoad([]string{activeURL, standbyURL}))
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	if crashRes.Errors > 0 {
		t.Fatalf("crash run had %d errors: %s\nactive:\n%s\nstandby:\n%s",
			crashRes.Errors, crashRes, active.logs, standby.logs)
	}
	active.cmd.Wait() // reap the SIGKILLed active
	standby.stopGracefully(t)

	if !bytes.Contains(standby.logs.Bytes(), []byte("lease acquired")) {
		t.Fatalf("standby never took over:\n%s", standby.logs)
	}

	refLog, err := os.ReadFile(filepath.Join(refDir, "decisions.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	crashLog, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refLog, crashLog) {
		t.Fatalf("decision log diverged after SIGKILL takeover:\nreference %d bytes, crash run %d bytes\n%s",
			len(refLog), len(crashLog), firstDiff(refLog, crashLog))
	}
	t.Logf("byte-identical decision logs (%d bytes) across SIGKILL + takeover; crash-run: %s",
		len(refLog), crashRes)
}

// TestFailoverFencedActiveExits: a deposed active (its lease stolen
// while it was stalled) must exit non-zero instead of serving on.
func TestFailoverFencedActiveExits(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level failover test")
	}
	bin := buildServeBinary(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	dir := t.TempDir()
	addr := freeAddr(t)
	active := startDaemon(t, bin, dir, addr)
	if err := NewClient("http://" + addr).WaitReady(ctx); err != nil {
		t.Fatalf("active not ready: %v\n%s", err, active.logs)
	}

	// Steal the lease out from under it: SIGSTOP the active so it
	// misses renewals, let the lease lapse, take it at a higher epoch,
	// then resume the active.
	active.cmd.Process.Signal(syscall.SIGSTOP)
	time.Sleep(700 * time.Millisecond) // > lease TTL
	thief := NewLease(LeasePath(dir), "thief", time.Hour)
	if err := thief.Acquire(); err != nil {
		t.Fatalf("steal lease: %v", err)
	}
	active.cmd.Process.Signal(syscall.SIGCONT)

	done := make(chan error, 1)
	go func() { done <- active.cmd.Wait() }()
	select {
	case err := <-done:
		var ee *exec.ExitError
		if err == nil {
			t.Fatalf("deposed active exited 0:\n%s", active.logs)
		} else if asExit(err, &ee) && ee.ExitCode() != 3 {
			t.Fatalf("deposed active exit code %d, want 3:\n%s", ee.ExitCode(), active.logs)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("deposed active kept running past a lost lease:\n%s", active.logs)
	}
	if !bytes.Contains(active.logs.Bytes(), []byte("FENCED")) {
		t.Fatalf("no fence line in deposed active's log:\n%s", active.logs)
	}
}

func asExit(err error, out **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*out = ee
	}
	return ok
}

// firstDiff renders the first divergent line pair for the failure
// message.
func firstDiff(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("first divergence at line %d:\n  ref:   %s\n  crash: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("one log is a prefix of the other (lines %d vs %d)", len(al), len(bl))
}
