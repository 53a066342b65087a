package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"gsight/internal/persist"
)

// FuzzRestoreSnapshotPayload throws arbitrary bytes at the first thing
// restore does with a verified snapshot payload: split off the JSON
// section, parse and version-check it, hand the rest on as the predictor
// blob. It must reject or accept cleanly; what it accepts must frame
// back — the blob as the untouched tail of the input, the state equal
// across a marshal/parse round trip.
func FuzzRestoreSnapshotPayload(f *testing.F) {
	ctl, err := json.Marshal(&snapshotState{
		Version: snapshotStateVersion, Applied: 9, NextOrder: 4, LogBytes: 512,
		Running:   []deployedState{{Name: "matmul#1", Archetype: "matmul", Placement: []int{0, 3}, MaxJCT: 1.5}},
		Responses: []cachedResponse{{Order: 3, Resp: json.RawMessage(`{"outcome":"placed"}`)}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(persist.FramePayload(ctl, []byte("GSPC\x02\x00\x00\x00")))
	f.Add(persist.FramePayload(ctl, nil))
	f.Add(persist.FramePayload([]byte(`{"version":2}`), []byte("blob")))
	f.Add(persist.FramePayload([]byte(`{"version":1,"running":[{"placement":"x"}]}`), nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, '{', '}'})
	f.Add(ctl) // a format-1 payload: bare JSON, no framing
	// The commit-clock fields every snapshot carried before they were
	// dropped: ignored, not refused.
	f.Add(persist.FramePayload([]byte(`{"version":1,"applied":9,"sched_seq":3,"epochs":[1,2]}`), nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, blob, err := decodeSnapshotPayload(payload)
		if err != nil {
			return
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
// into applyRecord on a small restored server — the path every replayed
// record takes at start-up. A record from a corrupt, foreign or
// differently-sized data dir must come back as an error or apply
// cleanly; it must never panic the daemon on its way up.
func FuzzApplyRecord(f *testing.F) {
	f.Add([]byte(`{"seq":1,"kind":"place","order":1,"place":{"workload":"matmul","name":"matmul#o1","outcome":"placed","placement":[3]}}`))
	f.Add([]byte(`{"seq":2,"kind":"place","place":{"workload":"social-network","qps_frac":0.5,"name":"social-network#2","outcome":"rejected","reason":"no-fit"}}`))
	f.Add([]byte(`{"seq":3,"kind":"observe","observe":{"name":"matmul#o1","qos":"jct","value":1.2,"applied":true}}`))
	f.Add([]byte(`{"seq":4,"kind":"release","order":2,"release":{"name":"matmul#o1","released":true}}`))
	// A body missing for its kind.
	f.Add([]byte(`{"seq":5,"kind":"place"}`))
	f.Add([]byte(`{"seq":5,"kind":"observe","order":7}`))
	f.Add([]byte(`{"seq":5,"kind":"release"}`))
	// A placement shorter than the archetype's function count.
	f.Add([]byte(`{"seq":6,"kind":"place","place":{"workload":"social-network","name":"social-network#6","outcome":"placed","placement":[0,1]}}`))
	// A server index past the cluster, and a negative one.
	f.Add([]byte(`{"seq":7,"kind":"place","place":{"workload":"matmul","name":"matmul#7","outcome":"fallback","placement":[8]}}`))
	f.Add([]byte(`{"seq":7,"kind":"place","place":{"workload":"matmul","name":"matmul#7","outcome":"degraded","placement":[-1]}}`))
	f.Add([]byte(`{"seq":8,"kind":"place","place":{"workload":"no-such-archetype","name":"x#8","outcome":"placed","placement":[0]}}`))
	f.Add([]byte(`{"seq":9,"kind":"compact"}`))
	f.Add([]byte(`{"seq":"nine"}`))

	srv, err := New(Config{DataDir: f.TempDir(), Seed: 7, Train: 0})
	if err != nil {
		f.Fatal(err)
	}
	// The committer is gone after the drain; what is left is the state
	// restore applies records to, on this goroutine alone.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Stop(ctx); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		before := srv.applied
		if err := srv.applyRecord(rec); err != nil && srv.applied != before {
			t.Fatalf("a refused record moved the applied sequence from %d to %d", before, srv.applied)
		}
	})
}
