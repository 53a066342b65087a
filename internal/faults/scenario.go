package faults

import (
	"fmt"
	"sort"
	"strings"

	"gsight/internal/rng"
)

// Names returns the built-in scenario names in alphabetical order.
func Names() []string {
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// builder constructs the events of one named scenario. T is the run
// duration in seconds, n the cluster size, rnd the scenario's private
// stream — the only randomness a scenario may consume.
type builder func(rnd *rng.Rand, T float64, n int) []Event

var builders = map[string]builder{
	"node-crash":       crashScenario,
	"rolling-crashes":  rollingScenario,
	"stragglers":       stragglerScenario,
	"cold-start-storm": stormScenario,
	"predictor-outage": outageScenario,
	"chaos":            chaosScenario,
}

// Scenario builds a named fault schedule for a run of durationS
// seconds over numServers nodes. Event times and targets derive only
// from (name, seed, durationS, numServers), so the same arguments
// always produce the same schedule.
func Scenario(name string, seed uint64, durationS float64, numServers int) (*Schedule, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("faults: unknown scenario %q (have %s)", name, strings.Join(Names(), ", "))
	}
	if numServers <= 0 {
		return nil, fmt.Errorf("faults: scenario %q needs a positive cluster size", name)
	}
	rnd := rng.Stream(seed, "faults:"+name)
	s := &Schedule{Name: name, Events: b(rnd, durationS, numServers)}
	if err := s.Validate(numServers); err != nil {
		return nil, err
	}
	return s, nil
}

// crashScenario kills one random node for a quarter of the run.
func crashScenario(rnd *rng.Rand, T float64, n int) []Event {
	return []Event{{
		AtS: 0.30 * T, Kind: NodeCrash, Node: rnd.Intn(n), DurationS: 0.25 * T,
	}}
}

// rollingScenario crashes up to three distinct nodes in staggered,
// non-overlapping windows — a rolling outage.
func rollingScenario(rnd *rng.Rand, T float64, n int) []Event {
	k := 3
	if k > n-1 {
		k = n - 1
	}
	if k < 1 {
		k = 1
	}
	nodes := pickDistinct(rnd, n, k)
	var evs []Event
	for i, node := range nodes {
		evs = append(evs, Event{
			AtS: (0.20 + 0.22*float64(i)) * T, Kind: NodeCrash, Node: node, DurationS: 0.12 * T,
		})
	}
	return evs
}

// stragglerScenario slows two distinct nodes in overlapping windows.
func stragglerScenario(rnd *rng.Rand, T float64, n int) []Event {
	nodes := pickDistinct(rnd, n, min(2, n))
	evs := []Event{{
		AtS: 0.25 * T, Kind: SlowNode, Node: nodes[0], Factor: 0.5, DurationS: 0.30 * T,
	}}
	if len(nodes) > 1 {
		evs = append(evs, Event{
			AtS: 0.40 * T, Kind: SlowNode, Node: nodes[1], Factor: 0.65, DurationS: 0.30 * T,
		})
	}
	return evs
}

// stormScenario forces half of all instances to cold-start for a tenth
// of the run.
func stormScenario(rnd *rng.Rand, T float64, n int) []Event {
	_ = rnd
	return []Event{{
		AtS: 0.35 * T, Kind: ColdStartStorm, Factor: 0.5, DurationS: 0.10 * T,
	}}
}

// outageScenario takes the predictor away for 15% of the run.
func outageScenario(rnd *rng.Rand, T float64, n int) []Event {
	_ = rnd
	return []Event{{
		AtS: 0.40 * T, Kind: PredictorDown, DurationS: 0.15 * T,
	}}
}

// chaosScenario combines one of each disruption across distinct nodes.
func chaosScenario(rnd *rng.Rand, T float64, n int) []Event {
	nodes := pickDistinct(rnd, n, min(2, n))
	evs := []Event{
		{AtS: 0.15 * T, Kind: SlowNode, Node: nodes[0], Factor: 0.6, DurationS: 0.35 * T},
		{AtS: 0.30 * T, Kind: ColdStartStorm, Factor: 0.4, DurationS: 0.08 * T},
		{AtS: 0.55 * T, Kind: PredictorDown, DurationS: 0.12 * T},
	}
	if len(nodes) > 1 {
		evs = append(evs, Event{AtS: 0.40 * T, Kind: NodeCrash, Node: nodes[1], DurationS: 0.20 * T})
	}
	return evs
}

// pickDistinct draws k distinct node ids via a partial Fisher-Yates
// shuffle of [0,n).
func pickDistinct(rnd *rng.Rand, n, k int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rnd.Intn(n-i)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids[:k]
}
