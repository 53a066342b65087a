// Package serve implements the long-running placement daemon: an
// HTTP/JSON API over the live Gsight controller with write-ahead-logged
// acknowledgements, admission control and active/standby failover
// (DESIGN.md §16).
package serve

import (
	"context"
	"fmt"
	"sort"

	"gsight/internal/core"
	"gsight/internal/perfmodel"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/scenario"
	"gsight/internal/sched"
	"gsight/internal/workload"
)

// defaultQPSFrac is the load an LS placement request is admitted at
// when the caller does not say: 60% of the workload's MaxQPS, the
// steady-state operating point the §6.3 case study runs services at.
const defaultQPSFrac = 0.6

// Archetype is one deployable workload template: profiles from the
// solo-run phase plus the resolved SLA.
type Archetype struct {
	W        *workload.Workload
	Profiles []profile.Profile
	// MinIPC is the LS admission floor from the Figure 7 latency→IPC
	// curve; 0 for SC/BG archetypes.
	MinIPC float64
	// MaxJCTFactor bounds a batch job's predicted JCT; 0 for LS.
	MaxJCTFactor float64
}

// Catalog is the daemon's workload universe: every archetype a
// placement request may name, profiled once at startup on the paper's
// 8-node lab model. Construction is deterministic in the seed, which
// the failover gate leans on — active, standby and the uninterrupted
// reference run all derive the identical catalog.
type Catalog struct {
	gen    *scenario.Generator
	byName map[string]*Archetype
	names  []string
}

// NewCatalog profiles the generator's LS and SC/BG pools and resolves
// each archetype's SLA. lab must be the 8-node testbed model —
// profiles and SLA curves are per-server-spec, not per-cluster-size.
func NewCatalog(lab *perfmodel.Model, seed uint64) *Catalog {
	g := scenario.NewGenerator(lab, seed)
	c := &Catalog{gen: g, byName: map[string]*Archetype{}}
	floors := sched.CalibrateMinIPC(lab, g.LSPool, 250, seed)
	for i, w := range g.LSPool {
		ps, _ := g.Store.Get(w.Name)
		c.add(&Archetype{W: w, Profiles: ps, MinIPC: floors[i]})
	}
	for _, w := range g.SCPool {
		ps, _ := g.Store.Get(w.Name)
		// Every SC/BG archetype gets the batch JCT bound, the BG ones
		// (iot-collector, monitor) included. The simulator bounds SC jobs
		// only, so the two diverge on BG jobs (ROADMAP item 11).
		c.add(&Archetype{W: w, Profiles: ps, MaxJCTFactor: sched.BatchJCTFactor})
	}
	sort.Strings(c.names)
	return c
}

func (c *Catalog) add(a *Archetype) {
	c.byName[a.W.Name] = a
	c.names = append(c.names, a.W.Name)
}

// Names lists the archetypes, sorted.
func (c *Catalog) Names() []string { return c.names }

// Spec returns the lab server spec (capacity vector source for
// cluster construction).
func (c *Catalog) Spec() resources.ServerSpec { return c.gen.Spec() }

// Request builds the scheduler request for placing an instance of the
// named archetype. qpsFrac > 0 overrides the LS load (ignored for
// SC/BG). The instance name must be unique in the running set; the
// daemon derives it from the record's order or sequence number so the
// decision stream is replay-deterministic.
func (c *Catalog) Request(arch, instance string, qpsFrac float64) (*sched.Request, error) {
	a, ok := c.byName[arch]
	if !ok {
		return nil, fmt.Errorf("serve: unknown archetype %q", arch)
	}
	in := core.WorkloadInput{
		Name:     instance,
		Class:    a.W.Class,
		Profiles: a.Profiles,
	}
	req := &sched.Request{Input: in}
	if a.W.Class == workload.LS {
		if qpsFrac <= 0 {
			qpsFrac = defaultQPSFrac
		}
		req.Input.QPSFrac = qpsFrac
		req.SLA = sched.SLA{MinIPC: a.MinIPC}
	} else {
		req.Input.LifetimeS = a.W.SoloDurationS
		req.SLA = sched.SLA{MaxJCTFactor: a.MaxJCTFactor}
		req.SoloDurationS = a.W.SoloDurationS
	}
	return req, nil
}

// Train bootstraps the predictor on n labeled colocation scenarios.
// n == 0 leaves the predictor untrained (every placement takes the
// degraded-mode fallback path until observations arrive).
func (c *Catalog) Train(pred core.QoSPredictor, n int) error {
	if n <= 0 {
		return nil
	}
	return c.gen.Bootstrap(context.Background(), pred, n)
}
