package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestFaultAndDegradedEvents(t *testing.T) {
	var buf bytes.Buffer
	l := NewDecisionLog(&buf)
	l.Fault(&FaultEvent{SimTimeS: 300, Kind: "node-down", Node: 2, DisplacedServices: 3, DisplacedJobs: 1})
	l.Fault(&FaultEvent{SimTimeS: 400, Kind: "slow-set", Node: 1, Factor: 0.5})
	l.Degraded(&DegradedTransition{SimTimeS: 500, Entered: true, Reason: "predictor-unavailable", Fallback: "WorstFit"})
	l.Degraded(&DegradedTransition{SimTimeS: 600, Entered: false, Reason: "predictor-unavailable", Fallback: "WorstFit"})
	if l.Stream().Records() != 5 { // schema header + 4 events
		t.Fatalf("events = %d", l.Stream().Records())
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i, line := range lines {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d invalid JSON: %v\n%s", i, err, line)
		}
		if int(m["seq"].(float64)) != i {
			t.Fatalf("line %d has seq %v", i, m["seq"])
		}
		// Determinism contract: no wall-clock fields, only sim time.
		for k := range m {
			if strings.Contains(k, "wall") || k == "time" || k == "timestamp" {
				t.Fatalf("wall-clock field %q in event: %s", k, line)
			}
		}
	}
	if !strings.Contains(lines[1], `"event":"fault"`) || !strings.Contains(lines[1], `"displaced_services":3`) {
		t.Fatalf("fault event malformed: %s", lines[1])
	}
	// Factor omitted when zero, present when set.
	if strings.Contains(lines[1], `"factor"`) {
		t.Fatalf("zero factor should be omitted: %s", lines[1])
	}
	if !strings.Contains(lines[2], `"factor":0.5`) {
		t.Fatalf("factor missing: %s", lines[2])
	}
	if !strings.Contains(lines[3], `"entered":true`) || !strings.Contains(lines[4], `"entered":false`) {
		t.Fatalf("degraded transitions malformed:\n%s\n%s", lines[3], lines[4])
	}
}

func TestFaultEventsNilSafe(t *testing.T) {
	var l *DecisionLog
	l.Fault(&FaultEvent{Kind: "node-down"})
	l.Degraded(&DegradedTransition{Entered: true})
	if l.Stream().Records() != 0 {
		t.Fatal("nil log must absorb events")
	}
}

func TestFaultEventsByteIdentical(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		l := NewDecisionLog(&buf)
		for i := 0; i < 20; i++ {
			l.Fault(&FaultEvent{SimTimeS: float64(i * 100), Kind: "node-down", Node: i % 8, DisplacedServices: i})
			l.Degraded(&DegradedTransition{SimTimeS: float64(i*100 + 50), Entered: i%2 == 0, Reason: "predictor-untrained", Fallback: "WorstFit"})
		}
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Fatal("identical fault sequences must serialize byte-identically")
	}
}

func TestPlatformResilienceInstrumentsRegistered(t *testing.T) {
	s := New()
	ins := s.Platform()
	for name, c := range map[string]*Counter{
		"platform_fault_events_total":        ins.FaultEvents,
		"platform_displaced_services_total":  ins.DisplacedServices,
		"platform_displaced_jobs_total":      ins.DisplacedJobs,
		"platform_degraded_placements_total": ins.DegradedPlacements,
		"platform_degraded_steps_total":      ins.DegradedSteps,
		"platform_placement_retries_total":   ins.PlacementRetries,
	} {
		if c == nil {
			t.Fatalf("%s not registered", name)
		}
		c.Inc()
	}
	// Nop sink leaves them nil and nil-safe.
	nop := Nop.Platform()
	nop.FaultEvents.Inc()
	nop.DegradedSteps.Add(3)
}
