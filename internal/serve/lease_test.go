package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock drives lease expiry without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func leaseAt(dir string, owner string, clk *fakeClock) *Lease {
	l := NewLease(filepath.Join(dir, "lease.json"), owner, time.Second)
	l.now = clk.now
	return l
}

func TestLeaseAcquireRenewRelease(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := leaseAt(dir, "a", clk)

	if err := a.Acquire(); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if a.Epoch() != 1 {
		t.Fatalf("first epoch = %d, want 1", a.Epoch())
	}

	// A live lease repels another owner.
	b := leaseAt(dir, "b", clk)
	if err := b.Acquire(); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("acquire over live lease = %v, want ErrLeaseHeld", err)
	}

	// Renewal extends expiry: still held later than the original TTL.
	clk.advance(800 * time.Millisecond)
	if err := a.Renew(); err != nil {
		t.Fatalf("renew: %v", err)
	}
	clk.advance(800 * time.Millisecond)
	if err := b.Acquire(); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("acquire after renewal = %v, want ErrLeaseHeld", err)
	}

	// Release hands off immediately; the successor bumps the epoch.
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	if err := b.Acquire(); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	if b.Epoch() != 2 {
		t.Fatalf("successor epoch = %d, want 2", b.Epoch())
	}
}

func TestLeaseExpiryTakeoverFencesOldOwner(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	active := leaseAt(dir, "active", clk)
	standby := leaseAt(dir, "standby", clk)

	if err := active.Acquire(); err != nil {
		t.Fatal(err)
	}
	// Active goes silent; lease lapses; standby takes over.
	clk.advance(1500 * time.Millisecond)
	if err := standby.Acquire(); err != nil {
		t.Fatalf("takeover after expiry: %v", err)
	}
	if standby.Epoch() != active.Epoch()+1 {
		t.Fatalf("takeover epoch = %d, want %d", standby.Epoch(), active.Epoch()+1)
	}
	// The deposed active's next renewal must self-fence.
	if err := active.Renew(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("deposed renew = %v, want ErrLeaseLost", err)
	}
	// And its release must not clobber the successor's lease.
	if err := active.Release(); err != nil {
		t.Fatal(err)
	}
	if err := standby.Renew(); err != nil {
		t.Fatalf("successor renew after deposed release: %v", err)
	}
}

// A free lease raced by many acquirers must elect exactly one winner.
// Before the flock critical section, two racers could both read "no
// holder" and both write epoch 1; the loser then self-fenced on its
// first renewal even though no takeover happened.
func TestLeaseConcurrentAcquireSingleWinner(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease.json")
	const racers = 16
	var wins atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		l := NewLease(path, fmt.Sprintf("proc-%d", i), time.Minute)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch err := l.Acquire(); {
			case err == nil:
				wins.Add(1)
			case !errors.Is(err, ErrLeaseHeld):
				t.Errorf("racing acquire: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d acquirers won a free lease, want exactly 1", wins.Load())
	}
}

func TestLeaseCorruptFileCountsAsExpired(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lease.json")
	if err := os.WriteFile(path, []byte("not json{"), 0o644); err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	l := NewLease(path, "x", time.Second)
	l.now = clk.now
	if err := l.Acquire(); err != nil {
		t.Fatalf("acquire over corrupt lease: %v", err)
	}
	if err := l.Renew(); err != nil {
		t.Fatalf("renew after recovery: %v", err)
	}
}
