// Package faults is a deterministic, seed-driven fault scheduler for
// the platform simulation: node crashes and recoveries, slow-node
// stragglers (a capacity multiplier), cold-start storms and
// predictor-unavailable windows. A Schedule is pure data (JSON-
// serializable, seed-reproducible via Scenario); an Injector expands it
// into a time-sorted timeline of state changes the platform fires as
// its clock reaches them. Nothing here reads wall clocks or random
// state at run time, so a same-seed run under the same schedule stays
// byte-identical.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Kind names a fault event type.
type Kind string

// Fault kinds.
const (
	// NodeCrash takes a node offline at AtS; DurationS > 0 schedules
	// the matching recovery, 0 means the node stays down.
	NodeCrash Kind = "node-crash"
	// NodeRecover brings a crashed node back.
	NodeRecover Kind = "node-recover"
	// SlowNode turns a node into a straggler: its effective capacity is
	// multiplied by Factor (0 < Factor < 1) for DurationS seconds
	// (0 means until an explicit NodeRestore).
	SlowNode Kind = "slow-node"
	// NodeRestore clears a straggler back to nominal capacity.
	NodeRestore Kind = "node-restore"
	// ColdStartStorm forces Factor of each workload's instances to
	// cold-start for DurationS seconds (deployment churn bursts).
	ColdStartStorm Kind = "cold-start-storm"
	// PredictorDown makes the QoS predictor unavailable for DurationS
	// seconds (0 means until an explicit PredictorUp): the platform
	// must degrade to its fallback policy, not fail.
	PredictorDown Kind = "predictor-down"
	// PredictorUp ends a predictor outage.
	PredictorUp Kind = "predictor-up"
)

// Event is one fault occurrence on the simulation timeline.
type Event struct {
	AtS  float64 `json:"at_s"`
	Kind Kind    `json:"kind"`
	// Node is the target server for node-scoped kinds; ignored (and
	// serialized as 0) for cluster-wide kinds.
	Node int `json:"node,omitempty"`
	// Factor is the capacity multiplier (slow-node) or forced
	// cold-start fraction (cold-start-storm).
	Factor float64 `json:"factor,omitempty"`
	// DurationS > 0 auto-schedules the inverse event at AtS+DurationS.
	DurationS float64 `json:"duration_s,omitempty"`
}

// Schedule is a named list of fault events. The zero value (or nil) is
// a healthy run.
type Schedule struct {
	Name   string  `json:"name,omitempty"`
	Events []Event `json:"events"`
}

// nodeScoped reports whether the kind targets a single server.
func nodeScoped(k Kind) bool {
	switch k {
	case NodeCrash, NodeRecover, SlowNode, NodeRestore:
		return true
	}
	return false
}

// Validate checks the schedule against a cluster of numServers nodes.
func (s *Schedule) Validate(numServers int) error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		switch e.Kind {
		case NodeCrash, NodeRecover, SlowNode, NodeRestore, ColdStartStorm, PredictorDown, PredictorUp:
		default:
			return fmt.Errorf("faults: event %d: unknown kind %q", i, e.Kind)
		}
		// NaN passes every range check below and is no sort key, so
		// non-finite values are refused first.
		for _, f := range [...]struct {
			name string
			v    float64
		}{{"at_s", e.AtS}, {"duration_s", e.DurationS}, {"factor", e.Factor}} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
				return fmt.Errorf("faults: event %d (%s): %s %g is not finite", i, e.Kind, f.name, f.v)
			}
		}
		if e.AtS < 0 {
			return fmt.Errorf("faults: event %d (%s): negative time %g", i, e.Kind, e.AtS)
		}
		if e.DurationS < 0 {
			return fmt.Errorf("faults: event %d (%s): negative duration %g", i, e.Kind, e.DurationS)
		}
		if nodeScoped(e.Kind) && (e.Node < 0 || e.Node >= numServers) {
			return fmt.Errorf("faults: event %d (%s): node %d outside [0,%d)", i, e.Kind, e.Node, numServers)
		}
		switch e.Kind {
		case SlowNode:
			if e.Factor <= 0 || e.Factor >= 1 {
				return fmt.Errorf("faults: event %d (slow-node): factor %g outside (0,1)", i, e.Factor)
			}
		case ColdStartStorm:
			if e.Factor <= 0 || e.Factor > 1 {
				return fmt.Errorf("faults: event %d (cold-start-storm): factor %g outside (0,1]", i, e.Factor)
			}
		}
	}
	return nil
}

// ParseJSON decodes a schedule from JSON:
//
//	{"name":"...","events":[{"at_s":300,"kind":"node-crash","node":2,"duration_s":600}, ...]}
func ParseJSON(r io.Reader) (*Schedule, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Schedule
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("faults: parsing schedule: %w", err)
	}
	return &s, nil
}

// LoadFile reads a JSON schedule from path.
func LoadFile(path string) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	defer f.Close()
	s, err := ParseJSON(f)
	if err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = path
	}
	return s, nil
}

// Op is one atomic state transition of the expanded timeline. Windowed
// events (DurationS > 0) expand into a begin/end op pair.
type Op int

// Timeline operations.
const (
	OpNodeDown Op = iota
	OpNodeUp
	OpSlowSet
	OpSlowClear
	OpStormStart
	OpStormEnd
	OpPredictorDown
	OpPredictorUp
)

// String returns the op's decision-log name.
func (o Op) String() string {
	switch o {
	case OpNodeDown:
		return "node-down"
	case OpNodeUp:
		return "node-up"
	case OpSlowSet:
		return "slow-set"
	case OpSlowClear:
		return "slow-clear"
	case OpStormStart:
		return "storm-start"
	case OpStormEnd:
		return "storm-end"
	case OpPredictorDown:
		return "predictor-down"
	case OpPredictorUp:
		return "predictor-up"
	}
	return "unknown"
}

// Change is one scheduled state transition.
type Change struct {
	AtS float64
	Op  Op
	// Node is -1 for cluster-wide ops.
	Node   int
	Factor float64
}

// Injector holds a schedule's expanded timeline plus the live fault
// state the platform queries while running. It is not goroutine-safe;
// the platform applies changes from its single-threaded step loop.
type Injector struct {
	changes []Change
	down    []bool
	slow    []float64
	// predDown and storms count overlapping windows so nested
	// schedules unwind correctly.
	predDown  int
	storms    int
	stormFrac float64
}

// NewInjector validates the schedule and expands it into a timeline.
// A nil schedule yields an injector with no changes (always healthy).
func NewInjector(s *Schedule, numServers int) (*Injector, error) {
	if err := s.Validate(numServers); err != nil {
		return nil, err
	}
	in := &Injector{
		down: make([]bool, numServers),
		slow: make([]float64, numServers),
	}
	for i := range in.slow {
		in.slow[i] = 1
	}
	if s == nil {
		return in, nil
	}
	for _, e := range s.Events {
		node := e.Node
		if !nodeScoped(e.Kind) {
			node = -1
		}
		begin, end := opsFor(e.Kind)
		in.changes = append(in.changes, Change{AtS: e.AtS, Op: begin, Node: node, Factor: e.Factor})
		if e.DurationS > 0 && end >= 0 {
			in.changes = append(in.changes, Change{AtS: e.AtS + e.DurationS, Op: end, Node: node, Factor: e.Factor})
		}
	}
	// Stable sort: simultaneous changes keep their expansion order, so
	// the timeline (and every run under it) is deterministic.
	sort.SliceStable(in.changes, func(i, j int) bool {
		return in.changes[i].AtS < in.changes[j].AtS
	})
	return in, nil
}

// opsFor maps an event kind to its begin op and (for windowed kinds)
// the op ending the window; end is -1 for kinds that are themselves
// endings.
func opsFor(k Kind) (begin, end Op) {
	switch k {
	case NodeCrash:
		return OpNodeDown, OpNodeUp
	case NodeRecover:
		return OpNodeUp, -1
	case SlowNode:
		return OpSlowSet, OpSlowClear
	case NodeRestore:
		return OpSlowClear, -1
	case ColdStartStorm:
		return OpStormStart, OpStormEnd
	case PredictorDown:
		return OpPredictorDown, OpPredictorUp
	case PredictorUp:
		return OpPredictorUp, -1
	}
	return -1, -1
}

// Changes returns the expanded timeline in time order. The caller must
// not mutate it.
func (in *Injector) Changes() []Change { return in.changes }

// Apply transitions the injector's live state.
func (in *Injector) Apply(c Change) {
	switch c.Op {
	case OpNodeDown:
		in.down[c.Node] = true
	case OpNodeUp:
		in.down[c.Node] = false
	case OpSlowSet:
		in.slow[c.Node] = c.Factor
	case OpSlowClear:
		in.slow[c.Node] = 1
	case OpStormStart:
		in.storms++
		in.stormFrac = c.Factor
	case OpStormEnd:
		if in.storms > 0 {
			in.storms--
		}
	case OpPredictorDown:
		in.predDown++
	case OpPredictorUp:
		if in.predDown > 0 {
			in.predDown--
		}
	}
}

// NodeDown reports whether server s is currently crashed.
func (in *Injector) NodeDown(s int) bool { return in.down[s] }

// CapacityFactor returns server s's current capacity multiplier
// (1 = nominal, <1 = straggler).
func (in *Injector) CapacityFactor(s int) float64 { return in.slow[s] }

// PredictorAvailable reports whether the QoS predictor is reachable.
func (in *Injector) PredictorAvailable() bool { return in.predDown == 0 }

// ColdStartFrac returns the forced cold-start fraction of the active
// storm, or 0 when no storm is in progress.
func (in *Injector) ColdStartFrac() float64 {
	if in.storms == 0 {
		return 0
	}
	return in.stormFrac
}
