// Package resources defines the shared hardware resources over which
// colocated serverless functions interfere, the demand/capacity vectors
// used by the contention model, and the testbed configuration of the
// paper's Table 4 (8 nodes, 40-core Xeon E7-4820v4, 256 GB RAM, 25 MB
// shared LLC, 960 GB SSD).
package resources

import (
	"fmt"
	"strings"
)

// Kind identifies one contended hardware resource.
type Kind int

// The six resource dimensions of the system layer (§3.2): CPU cores,
// memory capacity, last-level cache, memory bandwidth, network
// bandwidth, and disk I/O.
const (
	CPU Kind = iota
	Memory
	LLC
	MemBW
	Network
	Disk
	NumKinds // number of resource kinds; keep last
)

var kindNames = [NumKinds]string{
	CPU:     "cpu",
	Memory:  "memory",
	LLC:     "llc",
	MemBW:   "membw",
	Network: "network",
	Disk:    "disk",
}

// String returns the lowercase name of the resource kind.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Vector holds one value per resource kind. Units by convention:
// CPU in cores, Memory in GB, LLC in MB of working set / occupancy,
// MemBW in GB/s, Network in Gb/s, Disk in MB/s.
type Vector [NumKinds]float64

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Sub returns v - w.
func (v Vector) Sub(w Vector) Vector {
	for i := range v {
		v[i] -= w[i]
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

// Mul returns the element-wise product of v and w.
func (v Vector) Mul(w Vector) Vector {
	for i := range v {
		v[i] *= w[i]
	}
	return v
}

// IsZero reports whether every element of v is zero.
func (v Vector) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Clamped returns v with negative entries replaced by zero.
func (v Vector) Clamped() Vector {
	for i := range v {
		if v[i] < 0 {
			v[i] = 0
		}
	}
	return v
}

// String renders the vector with kind labels, for logs and CLIs.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%.3g", Kind(i), x)
	}
	b.WriteByte('}')
	return b.String()
}

// ServerSpec describes one physical server of the cluster.
type ServerSpec struct {
	Name     string
	Capacity Vector
	// Sockets is the number of CPU sockets; moving a corunner to
	// another socket (Observation 5's "local control") removes LLC and
	// memory-bandwidth contention between them.
	Sockets int
	// BaseFreqGHz is the nominal core frequency, used to synthesize the
	// "CPU frequency" metric of Table 3.
	BaseFreqGHz float64
}

// Testbed describes the simulated cluster.
type Testbed struct {
	Servers []ServerSpec
}

// NumServers returns the number of servers in the testbed.
func (t *Testbed) NumServers() int { return len(t.Servers) }

// DefaultServerSpec returns the per-node configuration of Table 4:
// Intel Xeon E7-4820v4 (40 physical cores over 4 sockets, 2.0 GHz),
// 256 GB memory, 25 MB shared LLC, 960 GB SSD. Memory bandwidth,
// network and disk throughput are calibrated to that platform class
// (~68 GB/s aggregate DDR4, 10 Gb/s NIC, ~500 MB/s SATA SSD).
func DefaultServerSpec(name string) ServerSpec {
	return ServerSpec{
		Name: name,
		Capacity: Vector{
			CPU:     40,  // physical cores
			Memory:  256, // GB
			LLC:     25,  // MB shared L3
			MemBW:   68,  // GB/s
			Network: 10,  // Gb/s
			Disk:    500, // MB/s
		},
		Sockets:     4,
		BaseFreqGHz: 2.0,
	}
}

// DefaultTestbed returns the 8-node cluster of Table 4.
func DefaultTestbed() *Testbed { return NewTestbed(8) }

// NewTestbed returns a cluster of n default nodes; useful for scaled
// experiments and tests.
func NewTestbed(n int) *Testbed {
	t := &Testbed{Servers: make([]ServerSpec, n)}
	for i := range t.Servers {
		t.Servers[i] = DefaultServerSpec(fmt.Sprintf("node%d", i))
	}
	return t
}
