package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"gsight/internal/persist"
	"gsight/internal/resources"
	"gsight/internal/telemetry"
)

// FuzzRestoreSnapshotPayload throws arbitrary bytes at the first thing
// restore does with a verified snapshot payload: split off the JSON
// section, parse and check it, hand the rest on as the predictor blob.
// It must reject or accept cleanly; what it accepts has a cluster size
// and a used vector per server, and must frame back — the blob as the untouched tail of the input, the state equal
// across a marshal/parse round trip.
func FuzzRestoreSnapshotPayload(f *testing.F) {
	ctl, err := json.Marshal(&snapshotState{
		Version: snapshotStateVersion, Applied: 9, NextOrder: 4, LogBytes: 512, Servers: 4,
		Running:   []deployedState{{Name: "matmul#1", Archetype: "matmul", Placement: []int{0, 3}, MaxJCT: 1.5}},
		Used:      []resources.Vector{{2, 1}, {}, {}, {2, 1}},
		Responses: []cachedResponse{{Order: 3, Resp: json.RawMessage(`{"outcome":"placed"}`)}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(persist.FramePayload(ctl, []byte("GSPC\x04\x00\x00\x00")))
	f.Add(persist.FramePayload(ctl, nil))
	f.Add(persist.FramePayload([]byte(`{"version":2}`), []byte("blob")))
	f.Add(persist.FramePayload([]byte(`{"version":1,"running":[{"placement":"x"}]}`), nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, '{', '}'})
	f.Add(ctl) // a format-1 payload: bare JSON, no framing
	// The commit-clock fields every snapshot carried before they were
	// dropped: ignored, not refused.
	f.Add(persist.FramePayload([]byte(`{"version":1,"applied":9,"servers":1,"used":[[]],"sched_seq":3,"epochs":[1,2]}`), nil))
	// Malformed: no cluster size, no usage, usage of another size.
	f.Add(persist.FramePayload([]byte(`{"version":1,"applied":9,"used":[[1]]}`), nil))
	f.Add(persist.FramePayload([]byte(`{"version":1,"applied":9,"servers":2}`), nil))
	f.Add(persist.FramePayload([]byte(`{"version":1,"applied":9,"servers":2,"used":[[1]]}`), nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, blob, err := decodeSnapshotPayload(payload)
		if err != nil {
			return
		}
		if snap.Servers <= 0 || len(snap.Used) != snap.Servers {
			t.Fatalf("accepted a snapshot of %d servers with usage of %d", snap.Servers, len(snap.Used))
		}
		if !bytes.HasSuffix(payload, blob) {
			t.Fatal("the predictor blob is not the tail of the payload")
		}
		again, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("accepted state does not marshal: %v", err)
		}
		snap2, blob2, err := decodeSnapshotPayload(persist.FramePayload(again, blob))
		if err != nil || !bytes.Equal(blob2, blob) {
			t.Fatalf("accepted payload does not survive a re-frame: %v", err)
		}
		if third, err := json.Marshal(snap2); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("the state changed across a re-frame: %s vs %s (%v)", third, again, err)
		}
	})
}

// FuzzApplyRecord feeds arbitrary bytes through the WAL record decoder
// and re-execution on a small restored server — the path every
// recovered record takes at start-up: each input is the only record of
// the WAL after the server's snapshot. A record from a corrupt, foreign
// or differently-sized data dir must come back as an error or as a
// verified record; it must never panic the daemon on its way up, and a
// refused record must not move the applied sequence.
func FuzzApplyRecord(f *testing.F) {
	// The first seeds are records a server of the same lineage wrote, in
	// order, so each verifies; the rest reach re-execution at the next
	// sequence number.
	ref, err := New(Config{DataDir: f.TempDir(), Seed: 7, Train: 0})
	if err != nil {
		f.Fatal(err)
	}
	for i, p := range []*pending{
		{kind: kindPlace, order: 1, arch: "matmul"},
		{kind: kindObserve, order: 2, name: "matmul#o1", qos: "jct", value: 1.2},
		{kind: kindPlace, arch: "social-network", qps: 0.5},
		{kind: kindRelease, order: 3, name: "matmul#o1"},
	} {
		p.reply = make(chan pendingResp, 1)
		if r := ref.enqueue(context.Background(), p); r.err != nil {
			f.Fatalf("reference request %d: %v", i, r.err)
		}
	}
	stopFuzzServer(f, ref)
	logged, err := os.ReadFile(ref.logPath())
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(logged, []byte{'\n'}) {
		if len(line) > 0 {
			f.Add(bytes.TrimSuffix(line, []byte{'\n'}))
		}
	}
	// Decisions the request does not produce.
	f.Add([]byte(`{"seq":5,"kind":"place","order":4,"place":{"workload":"matmul","name":"matmul#o4","outcome":"placed","placement":[3]}}`))
	f.Add([]byte(`{"seq":5,"kind":"place","place":{"workload":"social-network","qps_frac":0.5,"name":"social-network#5","outcome":"rejected","reason":"no-fit"}}`))
	f.Add([]byte(`{"seq":5,"kind":"observe","observe":{"name":"matmul#o1","qos":"jct","value":1.2,"applied":true}}`))
	f.Add([]byte(`{"seq":5,"kind":"release","release":{"name":"social-network#3","released":false}}`))
	// A body missing for its kind.
	f.Add([]byte(`{"seq":5,"kind":"place"}`))
	f.Add([]byte(`{"seq":5,"kind":"observe","order":7}`))
	f.Add([]byte(`{"seq":5,"kind":"release"}`))
	// Requests no handler accepts: an instance name for an archetype, an
	// unknown one, an unknown QoS kind and an unknown record kind.
	f.Add([]byte(`{"seq":5,"kind":"place","place":{"workload":"matmul#7","name":"matmul#5","outcome":"degraded","placement":[-1]}}`))
	f.Add([]byte(`{"seq":5,"kind":"place","place":{"workload":"no-such-archetype","name":"x#5","outcome":"placed","placement":[0]}}`))
	f.Add([]byte(`{"seq":5,"kind":"observe","observe":{"name":"social-network#3","qos":"nope","value":1,"applied":false}}`))
	f.Add([]byte(`{"seq":5,"kind":"compact"}`))
	// A sequence gap, and a record that is not one.
	f.Add([]byte(`{"seq":9,"kind":"release","release":{"name":"x","released":false}}`))
	f.Add([]byte(`{"seq":"nine"}`))

	srv, err := New(Config{DataDir: f.TempDir(), Seed: 7, Train: 0})
	if err != nil {
		f.Fatal(err)
	}
	// The committer is gone after the drain; what is left is the state
	// restore re-executes records on, on this goroutine alone, with the
	// decision lines going nowhere as they do during a restore.
	stopFuzzServer(f, srv)
	srv.log = telemetry.NewStream(io.Discard, nil, 0)
	dir := f.TempDir()
	if _, err := persist.WriteSnapshot(dir, 1, []byte("snapshot")); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		wal, err := persist.CreateWAL(persist.WALPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.AppendBatch([][]byte{payload}); err != nil {
			wal.Close()
			return // not a WAL record: it has a newline
		}
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
		if srv.store, err = persist.OpenStore(dir, 3); err != nil {
			t.Fatal(err)
		}
		defer srv.store.Close()
		if _, err := srv.store.Recover(); err != nil {
			t.Fatal(err)
		}
		before := srv.applied
		if err := srv.replay(payload, 1); err != nil {
			if srv.applied != before {
				t.Fatalf("a refused record moved the applied sequence from %d to %d", before, srv.applied)
			}
			return
		}
		if srv.store.Replaying() || srv.applied != before+1 {
			t.Fatalf("an accepted record left the chain unverified (%v) or moved the applied sequence from %d to %d",
				srv.store.Replaying(), before, srv.applied)
		}
	})
}

func stopFuzzServer(f *testing.F, srv *Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Stop(ctx); err != nil {
		f.Fatal(err)
	}
}

// FuzzHandlerBody sends arbitrary bodies to the three mutating endpoints
// through Handler(). Whatever a client sends, the answer is a success
// carrying a JSON acknowledgement or a client-side refusal, and the
// committer is still serving afterwards: no body may fence the daemon.
func FuzzHandlerBody(f *testing.F) {
	for _, seed := range []struct {
		path uint8
		body string
	}{
		{0, `{"workload":"matmul","order":1}`},
		{0, `{"workload":"social-network","qps_frac":0.5}`},
		// Batch bodies are refused with 400: the place endpoint takes
		// one request shape.
		{0, `{"batch":[{"workload":"dd"},{"workload":"kmeans","order":2}]}`},
		{0, `{"workload":"matmul#3"}`},
		{0, `{"batch":[{"workload":"matmul"},{"workload":"matmul#o1"}]}`},
		{0, `{"workload":"matmul","qps_frac":-1e308}`},
		{0, `{"workload":"matmul","order":1,"extra":true}`},
		{1, `{"name":"matmul#o1","qos":"ipc","value":1.5,"order":3}`},
		{1, `{"name":"matmul#o1","qos":"p99","value":1e308}`},
		{1, `{"name":"","qos":"nope","value":0}`},
		{2, `{"name":"matmul#o1","order":4}`},
		{2, `{"name":"matmul#o1"}`},
		{2, `not json`},
	} {
		f.Add(seed.path, []byte(seed.body))
	}
	health := telemetry.NewHealth()
	srv, err := New(Config{DataDir: f.TempDir(), Seed: 7, Train: 0, Health: health})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { stopFuzzServer(f, srv) })
	h := srv.Handler()
	paths := []string{"/v1/place", "/v1/observe", "/v1/release"}
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		// An ordered request the reorder buffer parks waits out its
		// context: keep that short.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, paths[int(path)%len(paths)], bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("200 with a body that is not JSON: %q", rec.Body.Bytes())
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusGone, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("%s %q answered %d: %s", req.URL.Path, body, rec.Code, rec.Body.Bytes())
		}
		if ok, reason := health.Ready(); !ok {
			t.Fatalf("%s %q took the daemon down: %s", req.URL.Path, body, reason)
		}
	})
}
