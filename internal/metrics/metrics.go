// Package metrics defines the system-layer and microarchitecture-layer
// metrics of the paper's Table 3. Nineteen candidate metrics are
// collected per function; the Table 3 screening drops those whose
// absolute Pearson/Spearman correlation with performance falls below
// 0.1, leaving the 16 model inputs of §3.2.
package metrics

import "fmt"

// ID identifies one candidate metric.
type ID int

// The 19 candidate metrics of Table 3, in a fixed order.
const (
	BranchMPKI ID = iota // branch misses per kilo-instruction
	ContextSwitches
	MemLP // memory-level parallelism (the paper's "MLP")
	L1DMPKI
	ITLBMPKI
	CPUUtil
	MemUtil
	NetBW
	TX // network transmit errors/retrans proxy
	RX // network receive pressure proxy
	L1IMPKI
	L2MPKI
	L3MPKI
	DTLBMPKI
	IPC
	LLCOcc // last-level-cache occupancy (pqos)
	MemIO  // memory I/O (bandwidth consumed)
	DiskIO
	CPUFreq
	NumCandidates // keep last
)

var names = [NumCandidates]string{
	BranchMPKI:      "branch-mpki",
	ContextSwitches: "context-switches",
	MemLP:           "mlp",
	L1DMPKI:         "l1d-mpki",
	ITLBMPKI:        "itlb-mpki",
	CPUUtil:         "cpu-utilization",
	MemUtil:         "memory-utilization",
	NetBW:           "network-bandwidth",
	TX:              "tx",
	RX:              "rx",
	L1IMPKI:         "l1i-mpki",
	L2MPKI:          "l2-mpki",
	L3MPKI:          "l3-mpki",
	DTLBMPKI:        "dtlb-mpki",
	IPC:             "ipc",
	LLCOcc:          "llc",
	MemIO:           "memory-io",
	DiskIO:          "disk-io",
	CPUFreq:         "cpu-frequency",
}

// String returns the metric's lowercase name.
func (id ID) String() string {
	if id < 0 || id >= NumCandidates {
		return fmt.Sprintf("ID(%d)", int(id))
	}
	return names[id]
}

// Selected returns the 16 metrics retained by the Table 3 screening
// (|correlation| >= 0.1). MemLP, MemIO and TX are screened out; DiskIO
// is retained — it is the one input Figure 8 finds uninformative.
func Selected() []ID {
	return []ID{
		BranchMPKI, ContextSwitches, L1DMPKI, ITLBMPKI,
		CPUUtil, MemUtil, NetBW, RX,
		L1IMPKI, L2MPKI, L3MPKI, DTLBMPKI,
		IPC, LLCOcc, DiskIO, CPUFreq,
	}
}

// NumSelected is the number of retained metrics: the paper's 16.
const NumSelected = 16

// Vector holds one value per candidate metric.
type Vector [NumCandidates]float64

// Select extracts the 16 retained metrics in Selected() order.
func (v Vector) Select() [NumSelected]float64 {
	var out [NumSelected]float64
	for i, id := range Selected() {
		out[i] = v[id]
	}
	return out
}

// Add returns v + w element-wise.
func (v Vector) Add(w Vector) Vector {
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Scale returns v scaled by f.
func (v Vector) Scale(f float64) Vector {
	for i := range v {
		v[i] *= f
	}
	return v
}

// Mix returns the weighted average of vs with the given weights. It is
// the paper's "virtual larger function" aggregation (§3.3): functions of
// one workload colocated on one server merge by averaging their metrics.
// Weights that sum to zero yield the zero vector.
func Mix(vs []Vector, weights []float64) Vector {
	var out Vector
	if len(vs) == 0 {
		return out
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return out
	}
	for i, v := range vs {
		out = out.Add(v.Scale(weights[i] / total))
	}
	return out
}
