package sched

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"gsight/internal/telemetry"
	"gsight/internal/workload"
)

// placeSequence drives a scheduler through a fixed request sequence and
// returns every placement (nil entries for rejections).
func placeSequence(s Scheduler) [][]int {
	st := StateFromProfiles(spec, 6)
	var out [][]int
	reqs := []*Request{
		{Input: inputFor(workload.MatMul(), 0), SLA: SLA{}},
		{Input: inputFor(workload.DD(), 0), SLA: SLA{MinIPC: 0.5}},
		{Input: inputFor(workload.ECommerce(), 0.5), SLA: SLA{MinIPC: 1}},
		{Input: inputFor(workload.SocialNetwork(), 0.4), SLA: SLA{MinIPC: 0.2}},
	}
	for _, req := range reqs {
		placement, err := s.Place(st, req)
		if err != nil {
			out = append(out, nil)
			continue
		}
		cp := append([]int(nil), placement...)
		out = append(out, cp)
		in := req.Input
		in.Placement = cp
		st.Commit(in, req.SLA)
	}
	return out
}

// TestTelemetryNopEquivalence pins the tentpole contract: instrumenting
// a scheduler — with a nil or a live sink — must leave every
// placement bit-identical to the uninstrumented scheduler.
func TestTelemetryNopEquivalence(t *testing.T) {
	build := func(name string) func() Scheduler {
		switch name {
		case "Gsight":
			return func() Scheduler { return NewGsight(&stubPredictor{ipc: 0.8}) }
		case "BestFit":
			return func() Scheduler { return NewBestFit(&stubPredictor{ipc: 0.8}) }
		default:
			return func() Scheduler { return NewWorstFit() }
		}
	}
	for _, name := range []string{"Gsight", "BestFit", "WorstFit"} {
		mk := build(name)
		plain := placeSequence(mk())

		nop := mk()
		nop.(interface{ Instrument(*telemetry.Sink) }).Instrument(nil)
		if got := placeSequence(nop); !reflect.DeepEqual(got, plain) {
			t.Errorf("%s: nil-sink-instrumented placements differ: %v vs %v", name, got, plain)
		}

		live := mk()
		var buf bytes.Buffer
		sink := telemetry.New().WithDecisions(&buf)
		live.(interface{ Instrument(*telemetry.Sink) }).Instrument(sink)
		if got := placeSequence(live); !reflect.DeepEqual(got, plain) {
			t.Errorf("%s: live-instrumented placements differ: %v vs %v", name, got, plain)
		}
		if sink.Decisions.Stream().Records() == 0 {
			t.Errorf("%s: live sink recorded no decisions", name)
		}
	}
}

// TestDecisionLogReplaysDeterministically pins the satellite contract:
// a fixed request sequence emits a byte-identical JSONL decision log.
func TestDecisionLogReplaysDeterministically(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		g := NewGsight(&stubPredictor{ipc: 0.8})
		g.Instrument(telemetry.New().WithDecisions(&buf))
		placeSequence(g)
		return buf.Bytes()
	}
	a, b := emit(), emit()
	if len(a) == 0 {
		t.Fatal("no decision events emitted")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("decision logs differ:\n%s\n---\n%s", a, b)
	}
	// Every line after the schema header is one valid placement event
	// with the scheduler's name.
	lines := strings.Split(strings.TrimRight(string(a), "\n"), "\n")
	if !strings.Contains(lines[0], `"event":"header"`) {
		t.Fatalf("log must open with the schema header: %s", lines[0])
	}
	for _, line := range lines[1:] {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSONL line: %v\n%s", err, line)
		}
		if m["event"] != "placement" || m["scheduler"] != "Gsight" {
			t.Fatalf("unexpected event: %s", line)
		}
	}
}

// TestDecisionOutcomes checks the outcome taxonomy: SLA-driven
// fallbacks and clean placements are labeled as such, and the counters
// agree with the decision stream.
func TestDecisionOutcomes(t *testing.T) {
	var buf bytes.Buffer
	sink := telemetry.New().WithDecisions(&buf)
	g := NewGsight(&stubPredictor{ipc: 0.1}) // SLA always violated
	g.Instrument(sink)
	st := StateFromProfiles(spec, 4)
	if _, err := g.Place(st, &Request{Input: inputFor(workload.ECommerce(), 0.5), SLA: SLA{MinIPC: 1}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	line := lines[len(lines)-1] // last line: the placement after the header
	var m map[string]interface{}
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatal(err)
	}
	if m["outcome"] != "fallback" || m["reason"] != "sla-violated" {
		t.Fatalf("expected SLA fallback decision, got %s", line)
	}
	snap := sink.Registry.Snapshot()
	if snap.Counters["sched_gsight_fallbacks_total"] != 1 {
		t.Fatalf("fallback counter = %d", snap.Counters["sched_gsight_fallbacks_total"])
	}
	if snap.Counters["sched_gsight_sla_rejections_total"] == 0 {
		t.Fatal("SLA rejections not counted")
	}
	if snap.Histograms["sched_gsight_sla_checks"].Count != 1 {
		t.Fatal("SLA-check histogram not observed")
	}
}
