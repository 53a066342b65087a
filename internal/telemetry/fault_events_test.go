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
	} {
		if c == nil {
			t.Fatalf("%s not registered", name)
		}
		c.Inc()
	}
	// The nil sink leaves them nil and nil-safe.
	nop := (*Sink)(nil).Platform()
	nop.FaultEvents.Inc()
	nop.DegradedSteps.Add(3)
}

// TestStepEvent pins the step line: fixed fields in order, the flags
// and server lists only when set, and the per-server columns at float32
// precision, each the shortest decimal of its float32.
func TestStepEvent(t *testing.T) {
	var buf bytes.Buffer
	l := NewDecisionLog(&buf)
	e := StepSample{SimTimeS: 30, Step: 1, ActiveServers: 2, Pending: 5, Density: 0.1, GoodDensity: 0.05, CPUUtil: 0.25, MemUtil: 0.5,
		CPUDemand: []float32{0.1, 3}, MemUsed: []float32{1.0 / 3, 0}}
	l.Step(&e)
	e.Step, e.Degraded, e.PredictorDown, e.Down, e.Slow = 2, true, true, []int{1}, []int{0, 1}
	l.Step(&e)
	want := `{"event":"header","seq":0,"schema":3}
{"event":"step","seq":1,"sim_time_s":30,"step":1,"active_servers":2,"pending":5,"density":0.1,"good_density":0.05,"cpu_util":0.25,"mem_util":0.5,"cpu_demand":[0.1,3],"mem_used":[0.33333334,0]}
{"event":"step","seq":2,"sim_time_s":30,"step":2,"active_servers":2,"pending":5,"density":0.1,"good_density":0.05,"cpu_util":0.25,"mem_util":0.5,"degraded":true,"predictor_down":true,"down":[1],"slow":[0,1],"cpu_demand":[0.1,3],"mem_used":[0.33333334,0]}
`
	if buf.String() != want {
		t.Fatalf("step lines:\n%s\nwant:\n%s", buf.String(), want)
	}
}
