// Package workload models serverless workloads as call-path DAGs of
// small, short-lived functions, following the paper's taxonomy (Table 1):
// scheduled-background (BG), short-term computing (SC) and
// latency-sensitive (LS). It also carries the benchmark catalog used by
// every experiment — the DeathStarBench social network ported to
// functions (Figure 2), a TPC-W-style e-commerce service, the
// FunctionBench micro-benchmarks, and the SparkBench Logistic
// Regression / KMeans jobs used in the temporal-overlap study.
package workload

import (
	"fmt"

	"gsight/internal/resources"
)

// Class is the workload category of Table 1.
type Class int

const (
	// BG workloads are triggered or scheduled intermittently with no
	// latency requirements (IoT collection, monitoring).
	BG Class = iota
	// SC workloads have minute-level processing times; millisecond
	// changes in completion time are trivial (big data, linear algebra).
	SC
	// LS workloads are invoked frequently; millisecond latency
	// increases degrade user experience (web search, e-commerce,
	// social networks).
	LS
)

// String returns the paper's abbreviation for the class.
func (c Class) String() string {
	switch c {
	case BG:
		return "BG"
	case SC:
		return "SC"
	case LS:
		return "LS"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// CallMode describes how a function invokes a callee (§2.1 Observation 4
// distinguishes sequence chains from nested chains; async calls are off
// the critical path entirely).
type CallMode int

const (
	// Nested calls block the caller until the callee returns, so callee
	// slowdown propagates upstream.
	Nested CallMode = iota
	// Sequence calls run after the caller completes; caller saturation
	// throttles the callee's arrival rate.
	Sequence
	// Async calls are fire-and-forget and do not contribute to the
	// end-to-end latency.
	Async
)

// String names the call mode.
func (m CallMode) String() string {
	switch m {
	case Nested:
		return "nested"
	case Sequence:
		return "sequence"
	case Async:
		return "async"
	}
	return fmt.Sprintf("CallMode(%d)", int(m))
}

// Call is one edge of the call-path DAG.
type Call struct {
	Callee int // index into Workload.Functions
	Mode   CallMode
}

// Phase is one execution segment of an SC/BG function. Short-lived
// functions overlap at arbitrary offsets (Observation 3), and phases are
// what make that overlap matter: a KMeans iteration pressing on memory
// bandwidth hurts a corunner only while their phases coincide.
type Phase struct {
	// Frac is the fraction of the function's solo execution this phase
	// spans. Fractions of a function's phases must sum to 1.
	Frac float64
	// DemandScale multiplies the function's base demand during the phase.
	DemandScale resources.Vector
	// SensScale multiplies the function's interference sensitivity
	// during the phase (e.g. LR's late-map/shuffle phase is more
	// sensitive than early map, Figure 3(b)).
	SensScale float64
}

// Function is one serverless function: its solo-run resource demand, its
// sensitivity to contention on each shared resource, and its place in
// the workload DAG.
type Function struct {
	Name string
	// Demand is the solo-run resource consumption of one instance
	// (cores, GB, MB LLC working set, GB/s, Gb/s, MB/s).
	Demand resources.Vector
	// Sensitivity in [0,1] per resource: how strongly contention on
	// that resource slows this function down.
	Sensitivity resources.Vector
	// SoloIPC is the instructions-per-cycle achieved under solo run.
	SoloIPC float64
	// BaseServiceMs is the per-invocation service time of an LS
	// function under solo run at its reference load.
	BaseServiceMs float64
	// Calls are the outgoing edges of the DAG.
	Calls []Call
	// Phases describe time-varying behaviour (SC/BG); empty means a
	// single uniform phase.
	Phases []Phase
	// ColdStartMs is the additional startup latency when the function
	// is invoked cold (§5.2).
	ColdStartMs float64
}

// EffectivePhases returns the function's phases, defaulting to a single
// uniform phase when none are declared.
func (f *Function) EffectivePhases() []Phase {
	if len(f.Phases) == 0 {
		return []Phase{{
			Frac:        1,
			DemandScale: resources.Vector{1, 1, 1, 1, 1, 1},
			SensScale:   1,
		}}
	}
	return f.Phases
}

// PhaseAt returns the phase active at progress in [0,1) through the
// function's execution, plus the phase index.
func (f *Function) PhaseAt(progress float64) (Phase, int) {
	phases := f.EffectivePhases()
	acc := 0.0
	for i, p := range phases {
		acc += p.Frac
		if progress < acc || i == len(phases)-1 {
			return p, i
		}
	}
	return phases[len(phases)-1], len(phases) - 1
}

// Workload is a user-submitted application: a DAG of functions plus its
// class and QoS contract.
type Workload struct {
	Name      string
	Class     Class
	Functions []Function
	// Entry is the index of the function that receives external
	// requests (for LS) or starts the job (for SC/BG).
	Entry int
	// SLAp99Ms is the 99th-percentile end-to-end latency target of an
	// LS workload (e.g. 267 ms for the social network, 88 ms for
	// e-commerce, §6.3). Zero means no latency SLA.
	SLAp99Ms float64
	// MaxQPS is the maximum request load the LS workload sustains
	// without interference (used to define its SLA, §6.3).
	MaxQPS float64
	// SoloDurationS is the solo-run completion time of an SC/BG job.
	SoloDurationS float64
	// Instances is the number of parallel instances an SC job employs
	// (e.g. 60 for LR/KMeans in Figure 3(b)).
	Instances int
}

// Validate checks structural invariants: entry in range, calls acyclic
// and in range, phase fractions summing to ~1.
func (w *Workload) Validate() error {
	if len(w.Functions) == 0 {
		return fmt.Errorf("workload %q: no functions", w.Name)
	}
	if w.Entry < 0 || w.Entry >= len(w.Functions) {
		return fmt.Errorf("workload %q: entry %d out of range", w.Name, w.Entry)
	}
	for i, f := range w.Functions {
		for _, c := range f.Calls {
			if c.Callee < 0 || c.Callee >= len(w.Functions) {
				return fmt.Errorf("workload %q: function %q calls out-of-range callee %d", w.Name, f.Name, c.Callee)
			}
			if c.Callee == i {
				return fmt.Errorf("workload %q: function %q calls itself", w.Name, f.Name)
			}
		}
		if len(f.Phases) > 0 {
			sum := 0.0
			for _, p := range f.Phases {
				if p.Frac <= 0 {
					return fmt.Errorf("workload %q: function %q has non-positive phase fraction", w.Name, f.Name)
				}
				sum += p.Frac
			}
			if sum < 0.999 || sum > 1.001 {
				return fmt.Errorf("workload %q: function %q phase fractions sum to %v", w.Name, f.Name, sum)
			}
		}
	}
	if w.hasCycle() {
		return fmt.Errorf("workload %q: call graph has a cycle", w.Name)
	}
	return nil
}

func (w *Workload) hasCycle() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(w.Functions))
	var visit func(i int) bool
	visit = func(i int) bool {
		color[i] = gray
		for _, c := range w.Functions[i].Calls {
			switch color[c.Callee] {
			case gray:
				return true
			case white:
				if visit(c.Callee) {
					return true
				}
			}
		}
		color[i] = black
		return false
	}
	for i := range w.Functions {
		if color[i] == white && visit(i) {
			return true
		}
	}
	return false
}

// NumFunctions returns the number of functions in the workload.
func (w *Workload) NumFunctions() int { return len(w.Functions) }

// CriticalPath returns the function indices on the longest
// BaseServiceMs-weighted path from the entry. Nested calls run inside
// the caller and sequence calls run after it, so both compose along the
// path: latency(i) = svc(i) + max(nested subtrees) + max(sequence
// subtrees). Async edges are excluded — they are the paper's
// "non-critical path" (Observation 2).
func (w *Workload) CriticalPath() []int {
	memoLen := make(map[int]float64)
	var longest func(i int) float64
	longest = func(i int) float64 {
		if v, ok := memoLen[i]; ok {
			return v
		}
		var maxNested, maxSeq float64
		for _, c := range w.Functions[i].Calls {
			l := longest(c.Callee)
			switch c.Mode {
			case Nested:
				if l > maxNested {
					maxNested = l
				}
			case Sequence:
				if l > maxSeq {
					maxSeq = l
				}
			}
		}
		v := w.Functions[i].BaseServiceMs + maxNested + maxSeq
		memoLen[i] = v
		return v
	}
	longest(w.Entry)
	argmax := func(i int, mode CallMode) int {
		best, arg := 0.0, -1
		for _, c := range w.Functions[i].Calls {
			if c.Mode != mode {
				continue
			}
			if l := longest(c.Callee); arg == -1 || l > best {
				best, arg = l, c.Callee
			}
		}
		return arg
	}
	var path []int
	var walk func(i int)
	walk = func(i int) {
		path = append(path, i)
		if n := argmax(i, Nested); n != -1 {
			walk(n)
		}
		if s := argmax(i, Sequence); s != -1 {
			walk(s)
		}
	}
	walk(w.Entry)
	return path
}

// Clone returns a deep copy of the workload; schedulers mutate
// placements, not workloads, but experiments clone catalog entries to
// vary parameters safely.
func (w *Workload) Clone() *Workload {
	c := *w
	c.Functions = make([]Function, len(w.Functions))
	for i, f := range w.Functions {
		nf := f
		nf.Calls = append([]Call(nil), f.Calls...)
		nf.Phases = append([]Phase(nil), f.Phases...)
		c.Functions[i] = nf
	}
	return &c
}
