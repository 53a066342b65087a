package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string // substring of the error, "" = valid
	}{
		{"valid crash", Event{AtS: 10, Kind: NodeCrash, Node: 3, DurationS: 5}, ""},
		{"valid storm", Event{AtS: 0, Kind: ColdStartStorm, Factor: 1}, ""},
		{"unknown kind", Event{Kind: Kind("explode")}, "unknown kind"},
		{"negative time", Event{AtS: -1, Kind: NodeCrash}, "negative time"},
		{"negative duration", Event{Kind: NodeCrash, DurationS: -2}, "negative duration"},
		{"node out of range", Event{Kind: NodeCrash, Node: 8}, "outside [0,8)"},
		{"negative node", Event{Kind: SlowNode, Node: -1, Factor: 0.5}, "outside [0,8)"},
		{"slow factor zero", Event{Kind: SlowNode, Node: 0, Factor: 0}, "outside (0,1)"},
		{"slow factor one", Event{Kind: SlowNode, Node: 0, Factor: 1}, "outside (0,1)"},
		{"storm factor high", Event{Kind: ColdStartStorm, Factor: 1.5}, "outside (0,1]"},
		{"NaN time", Event{AtS: math.NaN(), Kind: PredictorDown}, "at_s NaN is not finite"},
		{"infinite time", Event{AtS: math.Inf(1), Kind: NodeCrash}, "at_s +Inf is not finite"},
		{"NaN duration", Event{Kind: NodeCrash, DurationS: math.NaN()}, "duration_s NaN is not finite"},
		{"infinite duration", Event{Kind: PredictorDown, DurationS: math.Inf(1)}, "duration_s +Inf is not finite"},
		{"NaN slow factor", Event{Kind: SlowNode, Node: 0, Factor: math.NaN()}, "factor NaN is not finite"},
		{"NaN storm factor", Event{Kind: ColdStartStorm, Factor: math.NaN()}, "factor NaN is not finite"},
		{"infinite factor", Event{Kind: PredictorDown, Factor: math.Inf(-1)}, "factor -Inf is not finite"},
	}
	for _, tc := range cases {
		s := &Schedule{Events: []Event{tc.ev}}
		err := s.Validate(8)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	var nilSchedule *Schedule
	if err := nilSchedule.Validate(4); err != nil {
		t.Errorf("nil schedule must validate: %v", err)
	}
}

func TestParseJSONRoundTrip(t *testing.T) {
	in := `{"name":"demo","events":[
		{"at_s":300,"kind":"node-crash","node":2,"duration_s":600},
		{"at_s":100,"kind":"slow-node","node":1,"factor":0.5,"duration_s":400},
		{"at_s":50,"kind":"predictor-down","duration_s":200}
	]}`
	s, err := ParseJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "demo" || len(s.Events) != 3 {
		t.Fatalf("parsed %+v", s)
	}
	if s.Events[0].Kind != NodeCrash || s.Events[0].Node != 2 || s.Events[0].DurationS != 600 {
		t.Fatalf("event 0 = %+v", s.Events[0])
	}
	if err := s.Validate(8); err != nil {
		t.Fatal(err)
	}
}

func TestParseJSONRejectsUnknownFields(t *testing.T) {
	if _, err := ParseJSON(strings.NewReader(`{"events":[{"at_s":1,"kind":"node-crash","when":"now"}]}`)); err == nil {
		t.Fatal("unknown field must be rejected")
	}
}

// TestRetiredCrashKindRejected: the simulator has no controller process
// to kill, so a schedule naming the controller-crash kind is refused
// like any other unknown kind, and the error says which.
func TestRetiredCrashKindRejected(t *testing.T) {
	s, err := ParseJSON(strings.NewReader(`{"events":[{"at_s":1500,"kind":"controller-crash"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(8); err == nil || !strings.Contains(err.Error(), `unknown kind "controller-crash"`) {
		t.Fatalf("Validate returned %v, want an unknown-kind error naming controller-crash", err)
	}
	if _, err := NewInjector(s, 8); err == nil || !strings.Contains(err.Error(), "controller-crash") {
		t.Fatalf("NewInjector returned %v, want an error naming controller-crash", err)
	}
}

func TestInjectorExpansion(t *testing.T) {
	s := &Schedule{Events: []Event{
		{AtS: 300, Kind: NodeCrash, Node: 2, DurationS: 600},
		{AtS: 100, Kind: SlowNode, Node: 1, Factor: 0.5, DurationS: 800},
		{AtS: 50, Kind: ColdStartStorm, Factor: 0.4, DurationS: 100},
		{AtS: 900, Kind: PredictorDown}, // open-ended: no auto end
	}}
	in, err := NewInjector(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range in.Changes() {
		got = append(got, c.Op.String())
	}
	// Expanded pairs sorted by time: storm 50/150, slow 100/900,
	// crash 300/900, predictor-down 900 (no end). The two 900s keep
	// expansion order (slow-clear before predictor-down: stable sort).
	want := []string{"storm-start", "slow-set", "storm-end", "node-down", "node-up", "slow-clear", "predictor-down"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("timeline %v, want %v", got, want)
	}
	times := in.Changes()
	for i := 1; i < len(times); i++ {
		if times[i].AtS < times[i-1].AtS {
			t.Fatalf("timeline not sorted at %d", i)
		}
	}
}

func TestInjectorStateTransitions(t *testing.T) {
	in, err := NewInjector(&Schedule{Events: []Event{
		{AtS: 10, Kind: NodeCrash, Node: 3, DurationS: 10},
		{AtS: 12, Kind: SlowNode, Node: 1, Factor: 0.5, DurationS: 10},
		{AtS: 14, Kind: ColdStartStorm, Factor: 0.4, DurationS: 4},
		{AtS: 16, Kind: PredictorDown, DurationS: 2},
	}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if in.NodeDown(3) || in.CapacityFactor(1) != 1 || !in.PredictorAvailable() || in.ColdStartFrac() != 0 {
		t.Fatal("injector not healthy initially")
	}
	for _, c := range in.Changes() {
		in.Apply(c)
		switch {
		case c.AtS == 16 && c.Op == OpPredictorDown:
			if in.PredictorAvailable() {
				t.Fatal("predictor should be down")
			}
			if !in.NodeDown(3) {
				t.Fatal("node 3 should still be down at t=16")
			}
			if in.CapacityFactor(1) != 0.5 {
				t.Fatalf("capacity factor = %v", in.CapacityFactor(1))
			}
			if in.ColdStartFrac() != 0.4 {
				t.Fatalf("storm frac = %v", in.ColdStartFrac())
			}
		}
	}
	// Everything unwound.
	if in.NodeDown(3) || in.CapacityFactor(1) != 1 || !in.PredictorAvailable() || in.ColdStartFrac() != 0 {
		t.Fatalf("injector did not return to healthy: down=%v cap=%v pred=%v storm=%v",
			in.NodeDown(3), in.CapacityFactor(1), in.PredictorAvailable(), in.ColdStartFrac())
	}
}

func TestInjectorNilSchedule(t *testing.T) {
	in, err := NewInjector(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Changes()) != 0 {
		t.Fatal("nil schedule must expand to no changes")
	}
	if !in.PredictorAvailable() || in.NodeDown(0) || in.CapacityFactor(2) != 1 {
		t.Fatal("nil-schedule injector must be healthy")
	}
}

func TestScenarioDeterministicPerSeed(t *testing.T) {
	for _, name := range Names() {
		a, err := Scenario(name, 7, 86400, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Scenario(name, 7, 86400, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different schedules", name)
		}
		if len(a.Events) == 0 {
			t.Errorf("%s: empty scenario", name)
		}
		if err := a.Validate(8); err != nil {
			t.Errorf("%s: invalid scenario: %v", name, err)
		}
	}
}

func TestScenarioSeedsDiffer(t *testing.T) {
	// Node-targeting scenarios must actually use the seed.
	diff := false
	for seed := uint64(0); seed < 8 && !diff; seed++ {
		a, _ := Scenario("node-crash", seed, 86400, 8)
		b, _ := Scenario("node-crash", seed+1, 86400, 8)
		if a.Events[0].Node != b.Events[0].Node {
			diff = true
		}
	}
	if !diff {
		t.Fatal("node-crash picked the same node for 9 consecutive seeds")
	}
}

func TestScenarioUnknown(t *testing.T) {
	if _, err := Scenario("meteor-strike", 1, 1000, 8); err == nil {
		t.Fatal("unknown scenario must error")
	}
	if _, err := Scenario("chaos", 1, 1000, 0); err == nil {
		t.Fatal("zero-size cluster must error")
	}
}

func TestRollingCrashesDistinctNodes(t *testing.T) {
	s, err := Scenario("rolling-crashes", 3, 86400, 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, e := range s.Events {
		if seen[e.Node] {
			t.Fatalf("node %d crashed twice", e.Node)
		}
		seen[e.Node] = true
	}
	if len(seen) != 3 {
		t.Fatalf("crashed %d nodes, want 3", len(seen))
	}
}
