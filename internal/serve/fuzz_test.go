package serve

import (
	"bytes"
	"encoding/json"
	"testing"

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
