package platform

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gsight/internal/faults"
	"gsight/internal/telemetry"
)

// fireAll builds a runner over the fault schedule and arrival times,
// calls fireDue at each horizon in turn and returns what fired:
// "<op>@<clock>" per fault, "arrival@<clock>" per arrival and
// "end@<clock>" after each call. It also checks that the clock reads
// the fault's own time inside it, and that sim_events_executed_total
// counts every fired event.
func fireAll(t *testing.T, events []faults.Event, arrivals []float64, horizons ...float64) []string {
	t.Helper()
	inj, err := faults.NewInjector(&faults.Schedule{Events: events}, 4)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.New()
	r := &runner{ctx: context.Background(), inj: inj, arrivals: arrivals, ins: sink.Platform()}
	var got []string
	fired := 0
	fault := func(c faults.Change) {
		if r.now != c.AtS {
			t.Errorf("%s at %g: clock reads %g inside the event", c.Op, c.AtS, r.now)
		}
		fired++
		got = append(got, fmt.Sprintf("%s@%g", c.Op, r.now))
	}
	arrive := func() {
		fired++
		got = append(got, fmt.Sprintf("arrival@%g", r.now))
	}
	for _, h := range horizons {
		if err := r.fireDue(h, fault, arrive); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("end@%g", r.now))
	}
	if n := r.ins.Events.Value(); n != uint64(fired) {
		t.Errorf("sim_events_executed_total = %d, want %d", n, fired)
	}
	return got
}

func wantFired(t *testing.T, got []string, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fired\n  %s\nwant\n  %s", strings.Join(got, " "), strings.Join(want, " "))
	}
}

// ties holds two equal-time faults at 30 s and a windowed straggler
// whose restore lands at 1045 s.
var ties = []faults.Event{
	{AtS: 30, Kind: faults.PredictorDown},
	{AtS: 30, Kind: faults.NodeCrash, Node: 1},
	{AtS: 45, Kind: faults.SlowNode, Node: 2, Factor: 0.5, DurationS: 1000},
}

// TestFireDueTimeOrder pins time order across both lists: faults
// given out of time order in the schedule, and arrivals between them,
// fire earliest first.
func TestFireDueTimeOrder(t *testing.T) {
	events := []faults.Event{
		{AtS: 40, Kind: faults.NodeCrash, Node: 0},
		{AtS: 5, Kind: faults.PredictorDown},
		{AtS: 20, Kind: faults.ColdStartStorm, Factor: 0.5, DurationS: 15},
	}
	got := fireAll(t, events, []float64{1, 10, 30, 50}, 60)
	wantFired(t, got, "arrival@1", "predictor-down@5", "arrival@10", "storm-start@20",
		"arrival@30", "storm-end@35", "node-down@40", "arrival@50", "end@60")
}

// TestFireDueEqualTimeOrder pins ties: at equal times every fault
// fires before an arrival, and equal-time faults (and equal-time
// arrivals) keep their slice order.
func TestFireDueEqualTimeOrder(t *testing.T) {
	got := fireAll(t, ties, []float64{10, 30, 50}, 60)
	wantFired(t, got, "arrival@10", "predictor-down@30", "node-down@30", "arrival@30",
		"slow-set@45", "arrival@50", "end@60")

	five := []faults.Event{
		{AtS: 1, Kind: faults.SlowNode, Node: 0, Factor: 0.5},
		{AtS: 1, Kind: faults.NodeCrash, Node: 1},
		{AtS: 1, Kind: faults.PredictorDown},
		{AtS: 1, Kind: faults.ColdStartStorm, Factor: 1},
		{AtS: 1, Kind: faults.NodeRecover, Node: 1},
	}
	got = fireAll(t, five, []float64{1, 1, 1}, 2)
	wantFired(t, got, "slow-set@1", "node-down@1", "predictor-down@1", "storm-start@1",
		"node-up@1", "arrival@1", "arrival@1", "arrival@1", "end@2")
}

// TestFireDueMatchesSortedMergeProperty checks fireDue against a
// reference order on random timelines: every fault change and arrival
// stably sorted by (time, fault before arrival). Times are drawn from
// a coarse grid so ties are common, and each timeline is fired over a
// random increasing sequence of horizons. Each call must fire exactly
// the next events due by its horizon, in reference order.
func TestFireDueMatchesSortedMergeProperty(t *testing.T) {
	type item struct {
		at    float64
		fault bool
		id    int // index into inj.Changes() or r.arrivals
	}
	kinds := []faults.Kind{faults.NodeCrash, faults.SlowNode, faults.ColdStartStorm, faults.PredictorDown}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		var events []faults.Event
		for i, n := 0, rng.Intn(12); i < n; i++ {
			e := faults.Event{AtS: float64(rng.Intn(20)), Kind: kinds[rng.Intn(len(kinds))], Node: rng.Intn(4)}
			if e.Kind == faults.SlowNode || e.Kind == faults.ColdStartStorm {
				e.Factor = 0.5
			}
			if rng.Intn(2) == 0 {
				e.DurationS = float64(rng.Intn(10))
			}
			events = append(events, e)
		}
		arrivals := make([]float64, rng.Intn(12))
		for i := range arrivals {
			arrivals[i] = float64(rng.Intn(20))
		}
		sort.Float64s(arrivals)
		inj, err := faults.NewInjector(&faults.Schedule{Events: events}, 4)
		if err != nil {
			t.Fatal(err)
		}
		changes := inj.Changes()

		var want []item
		for i, c := range changes {
			want = append(want, item{c.AtS, true, i})
		}
		for i, a := range arrivals {
			want = append(want, item{a, false, i})
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].fault && !want[j].fault
		})

		r := &runner{ctx: context.Background(), inj: inj, arrivals: arrivals, ins: telemetry.New().Platform()}
		var got []item
		fault := func(c faults.Change) {
			// Changes are fired by value; find the one at the cursor.
			id := r.nextFault - 1
			if changes[id] != c {
				t.Fatalf("trial %d: fault %+v is not changes[%d] = %+v", trial, c, id, changes[id])
			}
			got = append(got, item{r.now, true, id})
		}
		arrive := func() { got = append(got, item{r.now, false, r.nextArrival - 1}) }
		prev := -1.0
		// Horizons land on the time grid about half the time, so events
		// exactly at a horizon are exercised.
		for h := float64(rng.Intn(3)); h < 30; h = nextHorizon(rng, h) {
			before := len(got)
			if err := r.fireDue(h, fault, arrive); err != nil {
				t.Fatal(err)
			}
			for _, it := range got[before:] {
				if it.at <= prev || it.at > h {
					t.Fatalf("trial %d: event at %g fired in the call for (%g, %g]", trial, it.at, prev, h)
				}
			}
			if r.now != h {
				t.Fatalf("trial %d: clock reads %g after fireDue(%g)", trial, r.now, h)
			}
			prev = h
		}
		for len(want) > 0 && want[len(want)-1].at > prev {
			want = want[:len(want)-1]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: fired\n  %v\nwant\n  %v", trial, got, want)
		}
		if n := r.ins.Events.Value(); n != uint64(len(got)) {
			t.Fatalf("trial %d: sim_events_executed_total = %d, want %d", trial, n, len(got))
		}
	}
}

// nextHorizon steps h forward: to the next whole second, or by a
// random fraction of up to 4 s.
func nextHorizon(rng *rand.Rand, h float64) float64 {
	if rng.Intn(2) == 0 {
		return math.Floor(h) + 1
	}
	return h + 0.01 + rng.Float64()*4
}

// TestFireDueEventsCounter pins sim_events_executed_total: zero before
// any call, advanced by exactly the events each call fires (none for a
// call with nothing due), and equal to every fault change plus every
// arrival once the timeline is drained.
func TestFireDueEventsCounter(t *testing.T) {
	inj, err := faults.NewInjector(&faults.Schedule{Events: ties}, 4)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []float64{0, 1, 2, 3, 4}
	r := &runner{ctx: context.Background(), inj: inj, arrivals: arrivals, ins: telemetry.New().Platform()}
	nop := func(faults.Change) {}
	if n := r.ins.Events.Value(); n != 0 {
		t.Fatalf("fresh counter = %d", n)
	}
	for _, step := range []struct {
		h    float64
		want uint64
	}{
		{2, 3},    // arrivals at 0, 1, 2
		{2.5, 3},  // nothing due
		{30, 7},   // arrivals at 3, 4; both faults at 30
		{45, 8},   // slow-set
		{1044, 8}, // slow-clear at 1045 not yet due
		{1e9, 9},  // drained
		{2e9, 9},  // nothing left
	} {
		if err := r.fireDue(step.h, nop, func() {}); err != nil {
			t.Fatal(err)
		}
		if n := r.ins.Events.Value(); n != step.want {
			t.Fatalf("after fireDue(%g): sim_events_executed_total = %d, want %d", step.h, n, step.want)
		}
	}
	if total := uint64(len(inj.Changes()) + len(arrivals)); r.ins.Events.Value() != total {
		t.Fatalf("drained: sim_events_executed_total = %d, want %d", r.ins.Events.Value(), total)
	}
}

// TestFireDueHorizon pins the horizon: an event at exactly t fires in
// that call, a later one waits for a call that reaches it (or never
// fires), and the clock reads t once fireDue returns.
func TestFireDueHorizon(t *testing.T) {
	got := fireAll(t, ties, []float64{10, 30, 50}, 0, 29.5, 30, 45, 1000)
	wantFired(t, got,
		"end@0",
		"arrival@10", "end@29.5",
		"predictor-down@30", "node-down@30", "arrival@30", "end@30",
		"slow-set@45", "end@45",
		"arrival@50", "end@1000") // slow-clear at 1045 is past the last horizon
}

// TestFireDueEmptyLists runs the merge with either list, or both,
// empty.
func TestFireDueEmptyLists(t *testing.T) {
	wantFired(t, fireAll(t, ties, nil, 30, 60),
		"predictor-down@30", "node-down@30", "end@30", "slow-set@45", "end@60")
	wantFired(t, fireAll(t, nil, []float64{10, 30, 50}, 30, 60),
		"arrival@10", "arrival@30", "end@30", "arrival@50", "end@60")
	wantFired(t, fireAll(t, nil, nil, 0, 30), "end@0", "end@30")
}
