package faults

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseSchedule throws arbitrary bytes at the schedule parser: it
// must reject or accept cleanly (no panics), anything accepted must
// survive a marshal/parse round trip, and validation must never panic
// on parsed input.
func FuzzParseSchedule(f *testing.F) {
	f.Add([]byte(`{"name":"mixed","events":[
		{"at_s":300,"kind":"node-crash","node":2,"duration_s":600},
		{"at_s":500,"kind":"slow-node","node":1,"factor":0.5,"duration_s":100},
		{"at_s":900,"kind":"cold-start-storm","factor":0.8,"duration_s":120},
		{"at_s":1200,"kind":"predictor-down","duration_s":300}]}`))
	f.Add([]byte(`{"events":[]}`))
	f.Add([]byte(`{"events":[{"at_s":-1,"kind":"node-crash"}]}`))
	f.Add([]byte(`{"events":[{"at_s":0,"kind":"no-such-kind"}]}`))
	f.Add([]byte(`{"unknown_field":true}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = s.Validate(8) // must not panic, error or not
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted schedule does not marshal: %v", err)
		}
		s2, err := ParseJSON(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("marshaled schedule does not re-parse: %v", err)
		}
		if len(s2.Events) != len(s.Events) {
			t.Fatalf("round trip changed event count: %d vs %d", len(s2.Events), len(s.Events))
		}
	})
}
