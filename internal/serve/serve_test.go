package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gsight/internal/persist"
	"gsight/internal/telemetry"
)

// testServer builds a daemon in a temp dir plus an httptest listener.
func testServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, *Client) {
	t.Helper()
	cfg := Config{
		DataDir: t.TempDir(),
		Seed:    7,
		Train:   4,
		Placers: 2,
		Health:  telemetry.NewHealth(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Stop(ctx)
	})
	return srv, hs, NewClient(hs.URL)
}

func TestServePlaceObserveRelease(t *testing.T) {
	srv, _, cl := testServer(t, nil)
	ctx := context.Background()

	ack, err := cl.Place(ctx, PlaceRequest{Workload: "social-network"})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	if ack.Outcome != "placed" || len(ack.Placement) == 0 {
		t.Fatalf("place ack = %+v, want placed with servers", ack)
	}
	if ack.Seq != 1 {
		t.Fatalf("first record seq = %d, want 1", ack.Seq)
	}

	obs, err := cl.Observe(ctx, ObserveRequest{Name: ack.Name, QoS: "ipc", Value: ack.PredIPC})
	if err != nil {
		t.Fatalf("observe: %v", err)
	}
	if !obs.Applied {
		t.Fatalf("observation of running instance %s not applied", ack.Name)
	}

	rel, err := cl.Release(ctx, ReleaseRequest{Name: ack.Name})
	if err != nil {
		t.Fatalf("release: %v", err)
	}
	if !rel.Released {
		t.Fatal("release of running instance reported false")
	}
	if rel2, _ := cl.Release(ctx, ReleaseRequest{Name: ack.Name}); rel2.Released {
		t.Fatal("double release reported true")
	}

	// The decision log carries one line per acknowledged record.
	data, err := os.ReadFile(srv.logPath())
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("decision log has %d lines, want 4:\n%s", len(lines), data)
	}
	for _, line := range lines {
		if _, err := decodeRecord(line); err != nil {
			t.Fatalf("decision line %q: %v", line, err)
		}
	}
}

func TestServeUnknownWorkloadAndQoS(t *testing.T) {
	_, hs, _ := testServer(t, nil)
	for _, tc := range []struct{ path, body string }{
		{"/v1/place", `{"workload":"no-such-thing"}`},
		{"/v1/observe", `{"name":"x#1","qos":"nope","value":1}`},
	} {
		resp, err := http.Post(hs.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s = %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
}

// TestServeDegradedUntrained: -train 0 starts with an untrained
// predictor; placements fall back to the degraded path instead of
// failing.
func TestServeDegradedUntrained(t *testing.T) {
	_, _, cl := testServer(t, func(c *Config) { c.Train = 0 })
	ack, err := cl.Place(context.Background(), PlaceRequest{Workload: "matmul"})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	if ack.Outcome != "degraded" {
		t.Fatalf("untrained placement outcome = %q (reason %q), want degraded", ack.Outcome, ack.Reason)
	}
	if len(ack.Placement) == 0 {
		t.Fatal("degraded placement returned no servers")
	}
}

// TestServeShedding: the reorder buffer is bounded; a flood of future
// orders (their predecessor never arrives) fills it and overflow is
// answered 429 + Retry-After rather than queued forever.
func TestServeShedding(t *testing.T) {
	_, hs, _ := testServer(t, func(c *Config) { c.QueueCap = 8 })

	var wg sync.WaitGroup
	codes := make([]int, 64)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Orders 2..65: order 1 never arrives, so every one parks.
			body := fmt.Sprintf(`{"workload":"matmul","order":%d}`, i+2)
			req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/place", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			hc := &http.Client{Timeout: 2 * time.Second}
			resp, err := hc.Do(req)
			if err != nil {
				codes[i] = -1
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		}(i)
	}
	wg.Wait()
	shed := 0
	for _, c := range codes {
		if c == http.StatusTooManyRequests {
			shed++
		}
	}
	if shed == 0 {
		t.Fatalf("no 429s among %d stalled ordered requests with QueueCap 8 (codes: %v)", len(codes), codes)
	}
}

// TestServeDuplicateOrder: a retried acknowledged order gets the
// original response bytes from the cache, not a re-execution.
func TestServeDuplicateOrder(t *testing.T) {
	_, hs, _ := testServer(t, nil)
	post := func() (int, string) {
		resp, err := http.Post(hs.URL+"/v1/place", "application/json",
			strings.NewReader(`{"workload":"dd","order":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	c1, b1 := post()
	c2, b2 := post()
	if c1 != 200 || c2 != 200 {
		t.Fatalf("codes %d, %d", c1, c2)
	}
	if b1 != b2 {
		t.Fatalf("duplicate order answered differently:\n%s\n%s", b1, b2)
	}
}

// TestServeBatchPlace: the batch form answers one result per request,
// coalesced through shared fsync rounds.
func TestServeBatchPlace(t *testing.T) {
	_, hs, _ := testServer(t, nil)
	body := `{"batch":[{"workload":"matmul"},{"workload":"dd"},{"workload":"social-network"}]}`
	resp, err := http.Post(hs.URL+"/v1/place", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []PlaceAck `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Seq == 0 || r.Name == "" {
			t.Fatalf("batch result %d incomplete: %+v", i, r)
		}
	}
}

// TestServeRestartContinuesStream: stop after K ordered requests,
// restart in the same dir, run the rest — the decision log must be
// byte-identical to an uninterrupted run of the same ordered load.
func TestServeRestartContinuesStream(t *testing.T) {
	mix := []string{"matmul", "social-network", "dd", "e-commerce"}
	run := func(dir string, from, to int) {
		cfg := Config{DataDir: dir, Seed: 7, Train: 4, Placers: 2, Health: telemetry.NewHealth()}
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		hs := httptest.NewServer(srv.Handler())
		cl := NewClient(hs.URL)
		ctx := context.Background()
		for i := from; i < to; i++ {
			if _, err := cl.Place(ctx, PlaceRequest{
				Workload: mix[i%len(mix)], Order: uint64(i + 1)}); err != nil {
				t.Fatalf("place %d: %v", i, err)
			}
		}
		hs.Close()
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := srv.Stop(sctx); err != nil {
			t.Fatalf("stop: %v", err)
		}
	}

	const total = 24
	whole := t.TempDir()
	run(whole, 0, total)
	want, err := os.ReadFile(filepath.Join(whole, "decisions.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		between func(dir string)
	}{
		{"snapshots as written", func(string) {}},
		// Every data dir written before the commit clock left the
		// snapshot schema carries it; it must be ignored.
		{"snapshots carrying epochs and sched_seq", func(dir string) { addLegacyClock(t, dir) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			split := t.TempDir()
			run(split, 0, 9)
			tc.between(split)
			run(split, 9, total)
			got, err := os.ReadFile(filepath.Join(split, "decisions.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("restarted decision log diverged from uninterrupted run:\n--- split (%d bytes)\n%s\n--- whole (%d bytes)\n%s",
					len(got), got, len(want), want)
			}
		})
	}
}

// addLegacyClock rewrites every snapshot in dir into the form older
// builds wrote: carrying the sched_seq and epochs fields snapshots held
// before the commit clock was dropped from the schema, and without the
// servers field they did not have yet.
func addLegacyClock(t *testing.T, dir string) {
	t.Helper()
	rewriteSnapshots(t, dir, func(doc map[string]json.RawMessage) {
		doc["sched_seq"] = json.RawMessage(`41`)
		doc["epochs"] = json.RawMessage(`[41,7,41,12]`)
		delete(doc, "servers")
	})
}

// rewriteSnapshots applies edit to the JSON section of every snapshot
// in dir and writes each back under a valid envelope.
func rewriteSnapshots(t *testing.T, dir string, edit func(doc map[string]json.RawMessage)) {
	t.Helper()
	snaps, err := persist.Snapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots to rewrite in %s: %v", dir, err)
	}
	for _, sn := range snaps {
		data, err := os.ReadFile(sn.Path)
		if err != nil {
			t.Fatal(err)
		}
		seq, payload, err := persist.DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		ctl, blob, err := persist.SplitPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(ctl, &doc); err != nil {
			t.Fatal(err)
		}
		edit(doc)
		if ctl, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
		if _, err := persist.WriteSnapshot(dir, seq, persist.FramePayload(ctl, blob)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeSnapshotEndpoint: a forced snapshot rotates the generation
// and a restore from it continues the applied sequence.
func TestServeSnapshotEndpoint(t *testing.T) {
	srv, hs, cl := testServer(t, nil)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := cl.Place(ctx, PlaceRequest{Workload: "matmul"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Snapshot(ctx); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	st, err := cl.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 3 {
		t.Fatalf("applied = %d, want 3", st.Applied)
	}
	if st.Snapshots < 2 {
		t.Fatalf("snapshot gen = %d, want >= 2 after a forced rotation", st.Snapshots)
	}
	_ = srv
	_ = hs
}

// TestServeReadyLifecycle: readiness is false until New returns and
// false again once draining.
func TestServeReadyLifecycle(t *testing.T) {
	h := telemetry.NewHealth()
	srv, err := New(Config{DataDir: t.TempDir(), Seed: 7, Train: 0, Health: h})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := h.Ready(); !ok {
		t.Fatal("not ready after New returned")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if ok, reason := h.Ready(); ok || reason != "draining" {
		t.Fatalf("after Stop: ready=%v reason=%q, want draining", ok, reason)
	}
}

// TestServeTimedOutUnorderedRequestIsNotCommitted: a request whose
// context expires while the committer is busy gets 503; once the
// committer is free again it must not commit that request — the client
// was told it failed and, unordered, has no name to release. An ordered
// request in the same position still commits, and its retry is answered
// from the response cache.
func TestServeTimedOutUnorderedRequestIsNotCommitted(t *testing.T) {
	srv, _, cl := testServer(t, nil)
	ctx := context.Background()

	// Stall the committer: it blocks acknowledging a request whose reply
	// channel nobody reads yet. Its decision line is written just before
	// that send, so a non-empty log means the batch is closed and nothing
	// sent from here on can ride in it.
	stall := &pending{kind: kindPlace, arch: "matmul", reply: make(chan pendingResp)}
	srv.intake <- stall
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if fi, err := os.Stat(srv.logPath()); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the committer never logged the stalling placement")
		}
	}

	expired, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	for _, order := range []uint64{0, 1} {
		resp := srv.enqueue(expired, &pending{kind: kindPlace, order: order, arch: "social-network",
			reply: make(chan pendingResp, 1)})
		if resp.status != http.StatusServiceUnavailable {
			t.Fatalf("order %d: enqueue behind a stalled committer = %+v, want 503", order, resp)
		}
	}
	stalled := <-stall.reply // releases the committer
	if stalled.err != nil {
		t.Fatalf("stalling placement: %v", stalled.err)
	}
	var first placeResponse
	if err := json.Unmarshal(stalled.payload, &first); err != nil {
		t.Fatal(err)
	}

	// Release every name a client was given. The first release is
	// answered after whatever was queued before it, and the ordered
	// request committed right behind the stalling placement: its retry
	// gets that answer.
	if rel, err := cl.Release(ctx, ReleaseRequest{Name: first.Name}); err != nil || !rel.Released {
		t.Fatalf("release %s: %+v, %v", first.Name, rel, err)
	}
	ack, err := cl.Place(ctx, PlaceRequest{Workload: "social-network", Order: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Seq != 2 {
		t.Fatalf("ordered request committed at seq %d, want 2", ack.Seq)
	}
	if rel, err := cl.Release(ctx, ReleaseRequest{Name: ack.Name}); err != nil || !rel.Released {
		t.Fatalf("release %s: %+v, %v", ack.Name, rel, err)
	}
	// The committer is idle again, so its state is safe to read: four
	// records, and nothing left holding capacity.
	if srv.Applied() != 4 {
		t.Fatalf("applied seq %d, want 4: the timed-out unordered placement was committed", srv.Applied())
	}
	st := srv.state.Base()
	for i, used := range st.Used {
		if !used.IsZero() {
			t.Fatalf("server %d still has %v allocated to %d workloads no client can name", i, used, len(st.Running))
		}
	}
	if got := srv.met.timeouts.Value(); got != 2 {
		t.Fatalf("serve_timeout_total = %d, want 2", got)
	}
}

// TestServeContentionIsNeverARejection: 32 concurrent clients each
// place and release one small archetype ten times. The cluster never
// holds more than 33 instances, so every placement fits; requests that
// share a commit batch contend for the same 8 servers, and contention
// must cost a re-proposal, never the request. The first wave is held
// behind a stalled committer so all 32 land in one batch — more than
// any bounded retry budget survives on a cluster one window wide.
func TestServeContentionIsNeverARejection(t *testing.T) {
	const clients, rounds = 32, 10
	srv, _, cl := testServer(t, nil)
	ctx := context.Background()

	stall := &pending{kind: kindPlace, arch: "matmul", reply: make(chan pendingResp)}
	srv.intake <- stall
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
		}
	}
	waitFor("the committer never logged the stalling placement", func() bool {
		fi, err := os.Stat(srv.logPath())
		return err == nil && fi.Size() > 0
	})

	var wg sync.WaitGroup
	failures := make(chan string, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ack, err := cl.Place(ctx, PlaceRequest{Workload: "matmul"})
				if err != nil {
					failures <- err.Error()
					return
				}
				if ack.Outcome == "rejected" || strings.Contains(ack.Reason, "conflict") {
					failures <- fmt.Sprintf("seq %d: outcome %q, reason %q", ack.Seq, ack.Outcome, ack.Reason)
				}
				if len(ack.Placement) == 0 {
					continue
				}
				if rel, err := cl.Release(ctx, ReleaseRequest{Name: ack.Name}); err != nil || !rel.Released {
					failures <- fmt.Sprintf("release %s: %+v, %v", ack.Name, rel, err)
					return
				}
			}
		}()
	}
	waitFor("the first wave never queued up", func() bool { return len(srv.intake) == clients })
	stalled := <-stall.reply // releases the committer onto a 32-placement batch
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}

	var first placeResponse
	if err := json.Unmarshal(stalled.payload, &first); err != nil {
		t.Fatal(err)
	}
	if rel, err := cl.Release(ctx, ReleaseRequest{Name: first.Name}); err != nil || !rel.Released {
		t.Fatalf("release %s: %+v, %v", first.Name, rel, err)
	}
	for i, used := range srv.state.Base().Used {
		if !used.IsZero() {
			t.Fatalf("server %d still has %v allocated after every instance was released", i, used)
		}
	}
}
