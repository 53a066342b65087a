package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunLoadCountsStallFromDueTime pins RunLoad's open-loop timing: a
// daemon that stalls once must show the stall in the latencies of the
// requests due while it lasted, not only in the one it held. With one
// worker, those requests queue behind the stalled one, so timing them
// from pick-up would report them as fast. The closed loop times from
// pick-up and sees only the stalled request.
func TestRunLoadCountsStallFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	stub := func() *httptest.Server {
		var n atomic.Int64
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n.Add(1) == 5 {
				time.Sleep(stall)
			}
			w.Write([]byte(`{"seq":1,"name":"x","outcome":"placed","placement":[0]}`))
		}))
	}
	run := func(rate float64) *LoadResult {
		hs := stub()
		defer hs.Close()
		res, err := RunLoad(context.Background(), LoadConfig{
			Addrs: []string{hs.URL}, RateQPS: rate, Workers: 1, Requests: 40, Seed: 3, Workloads: []string{"matmul"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 || res.Placed != 40 {
			t.Fatalf("rate %v: %v", rate, res)
		}
		return res
	}
	// At 100 requests/s about thirty of the forty are due during the
	// stall, so the median waits for it.
	if open := run(100); open.P50Ms < float64(stall/time.Millisecond)/6 || open.MaxMs < float64(stall/time.Millisecond) {
		t.Fatalf("open loop hides the stall: %v", open)
	}
	if closed := run(0); closed.P50Ms > float64(stall/time.Millisecond)/6 || closed.MaxMs < float64(stall/time.Millisecond) {
		t.Fatalf("closed loop should see the stall in one request only: %v", closed)
	}
}
