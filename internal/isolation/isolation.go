// Package isolation implements the resource-partitioning control the
// paper's Gsight agents actuate (§5.1: "allocating resources (e.g.,
// CPU cores, LLC, memory bandwidth)" via cpusets and Intel RDT's
// CAT/MBA) and the reactive tail-latency controller the paper declares
// orthogonal to Gsight (§6.3: "Gsight is orthogonal to the buffer-based
// or reactive-control tail latency optimization approaches, which
// suggests that a stronger SLA guarantee can be achieved when
// integrating them together" — the PARTIES/Heracles/PerfIso line of
// work). The ext-isolation experiment quantifies exactly that
// integration claim.
package isolation

import (
	"fmt"

	"gsight/internal/perfmodel"
)

// Controller is a PARTIES-style reactive partitioner: it watches each
// protected (LS) workload's tail latency against its SLA and grows the
// protected partition of the servers hosting it when the SLA is
// violated, or returns resources to the best-effort class when there
// is comfortable slack.
type Controller struct {
	Model *perfmodel.Model
	// Step is the partition adjustment per decision (fraction of the
	// resource); <=0 means 0.10.
	Step float64
	// Min and Max bound the protected fraction; defaults 0.3 / 0.9.
	Min, Max float64
	// SlackRatio: below SLA*SlackRatio the controller gives resources
	// back; <=0 means 0.7.
	SlackRatio float64
	fractions  map[int]float64
}

// NewController returns a reactive partitioner over the model.
func NewController(m *perfmodel.Model) *Controller {
	return &Controller{
		Model:      m,
		Step:       0.10,
		Min:        0.3,
		Max:        0.9,
		SlackRatio: 0.7,
		fractions:  make(map[int]float64),
	}
}

// apply installs the fraction on the model as a symmetric CPU/LLC/MemBW
// partition.
func (c *Controller) apply(s int, frac float64) {
	if frac < c.Min {
		frac = 0 // below the floor: tear the partition down
	}
	if frac > c.Max {
		frac = c.Max
	}
	if frac == 0 {
		delete(c.fractions, s)
		c.Model.SetPartition(s, perfmodel.Partition{})
		return
	}
	c.fractions[s] = frac
	c.Model.SetPartition(s, perfmodel.Partition{CPUFrac: frac, LLCFrac: frac, MemBWFrac: frac})
}

// Observation is one protected workload's health signal.
type Observation struct {
	// Servers hosting the workload's functions.
	Servers []int
	// P99Ms is the measured end-to-end tail latency.
	P99Ms float64
	// SLAMs is the latency target.
	SLAMs float64
}

// Decide runs one control round over the protected workloads'
// observations and adjusts the partitions of the servers they occupy.
// It returns the number of partition changes actuated.
func (c *Controller) Decide(obs []Observation) int {
	if c.Step <= 0 {
		c.Step = 0.10
	}
	// Per server, find the strongest need among tenants: violation
	// dominates slack.
	type need int
	const (
		idle need = iota
		relax
		grow
	)
	wants := map[int]need{}
	for _, o := range obs {
		if o.SLAMs <= 0 {
			continue
		}
		var n need
		switch {
		case o.P99Ms > o.SLAMs:
			n = grow
		case o.P99Ms < o.SLAMs*c.SlackRatio:
			n = relax
		default:
			n = idle
		}
		for _, s := range o.Servers {
			if n > wants[s] {
				wants[s] = n
			}
		}
	}
	changes := 0
	for s, n := range wants {
		cur := c.fractions[s]
		switch n {
		case grow:
			next := cur + c.Step
			if cur == 0 {
				next = c.Min + c.Step
			}
			if next > c.Max {
				next = c.Max
			}
			if next != cur {
				c.apply(s, next)
				changes++
			}
		case relax:
			if cur > 0 {
				c.apply(s, cur-c.Step)
				changes++
			}
		}
	}
	return changes
}

// StaticPartition installs the same protected fraction on every server
// — the non-reactive baseline.
func StaticPartition(m *perfmodel.Model, frac float64) error {
	if frac <= 0 || frac >= 1 {
		return fmt.Errorf("isolation: static fraction %v out of (0,1)", frac)
	}
	for s := 0; s < m.Testbed.NumServers(); s++ {
		m.SetPartition(s, perfmodel.Partition{CPUFrac: frac, LLCFrac: frac, MemBWFrac: frac})
	}
	return nil
}
