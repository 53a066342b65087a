package isolation

import (
	"testing"

	"gsight/internal/perfmodel"
	"gsight/internal/resources"
	"gsight/internal/workload"
)

func newModel() *perfmodel.Model {
	return perfmodel.New(resources.DefaultTestbed())
}

// colocated builds the canonical victim/aggressor pair: the social
// network's most sensitive function beside matmul on one socket.
func colocated(m *perfmodel.Model, protect bool) *perfmodel.Scenario {
	sn := perfmodel.SpreadDeployment(workload.SocialNetwork(), m.Testbed)
	sn.QPS = workload.SocialNetwork().MaxQPS / 2
	sn.Protected = protect
	mm := perfmodel.NewDeployment(workload.MatMul())
	mm.Placement[0] = sn.Placement[8]
	mm.Socket[0] = sn.Socket[8]
	return &perfmodel.Scenario{Deployments: []*perfmodel.Deployment{sn, mm}}
}

func TestPartitionShieldsProtectedClass(t *testing.T) {
	shared := newModel()
	baseRes, err := shared.Evaluate(colocated(shared, true), nil)
	if err != nil {
		t.Fatal(err)
	}

	part := newModel()
	if err := StaticPartition(part, 0.7); err != nil {
		t.Fatal(err)
	}
	partRes, err := part.Evaluate(colocated(part, true), nil)
	if err != nil {
		t.Fatal(err)
	}

	// The protected LS workload improves under partitioning...
	if partRes.Deployments[0].E2EP99Ms >= baseRes.Deployments[0].E2EP99Ms {
		t.Fatalf("partitioning did not shield the LS workload: %v -> %v",
			baseRes.Deployments[0].E2EP99Ms, partRes.Deployments[0].E2EP99Ms)
	}
	// ...at the best-effort corunner's expense (it now squeezes into
	// the 30% remainder).
	if partRes.Deployments[1].JCTS <= baseRes.Deployments[1].JCTS {
		t.Fatalf("best-effort job should pay for the partition: %v -> %v",
			baseRes.Deployments[1].JCTS, partRes.Deployments[1].JCTS)
	}
}

func TestPartitionSoloUnaffected(t *testing.T) {
	// A partition with only one class present must not slow that class
	// beyond its reserved share's pressure — and a solo protected
	// workload inside a generous partition behaves near-solo.
	m := newModel()
	sn := perfmodel.SpreadDeployment(workload.SocialNetwork(), m.Testbed)
	sn.QPS = 200
	sn.Protected = true
	base, err := m.Evaluate(&perfmodel.Scenario{Deployments: []*perfmodel.Deployment{sn}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := StaticPartition(m, 0.9); err != nil {
		t.Fatal(err)
	}
	sn2 := perfmodel.SpreadDeployment(workload.SocialNetwork(), m.Testbed)
	sn2.QPS = 200
	sn2.Protected = true
	part, err := m.Evaluate(&perfmodel.Scenario{Deployments: []*perfmodel.Deployment{sn2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := part.Deployments[0].E2EP99Ms / base.Deployments[0].E2EP99Ms
	if ratio > 1.1 {
		t.Fatalf("solo protected workload slowed %vx by its own partition", ratio)
	}
}

func TestStaticPartitionValidation(t *testing.T) {
	m := newModel()
	if err := StaticPartition(m, 0); err == nil {
		t.Fatal("frac 0 must error")
	}
	if err := StaticPartition(m, 1); err == nil {
		t.Fatal("frac 1 must error")
	}
	if err := StaticPartition(m, 0.5); err != nil {
		t.Fatal(err)
	}
	if len(m.Partitions) != 8 {
		t.Fatalf("partitions on %d servers, want 8", len(m.Partitions))
	}
}

func TestControllerGrowsOnViolation(t *testing.T) {
	m := newModel()
	c := NewController(m)
	obs := []Observation{{Servers: []int{0, 1}, P99Ms: 400, SLAMs: 267}}
	if changes := c.Decide(obs); changes != 2 {
		t.Fatalf("changes = %d, want 2", changes)
	}
	f0 := c.fractions[0]
	if f0 <= 0 {
		t.Fatal("no partition installed on violation")
	}
	// Repeated violations keep growing toward Max.
	for i := 0; i < 10; i++ {
		c.Decide(obs)
	}
	if got := c.fractions[0]; got != c.Max {
		t.Fatalf("fraction = %v, want capped at %v", got, c.Max)
	}
}

func TestControllerRelaxesOnSlack(t *testing.T) {
	m := newModel()
	c := NewController(m)
	violating := []Observation{{Servers: []int{3}, P99Ms: 400, SLAMs: 267}}
	c.Decide(violating)
	c.Decide(violating)
	before := c.fractions[3]
	if before == 0 {
		t.Fatal("setup failed")
	}
	comfortable := []Observation{{Servers: []int{3}, P99Ms: 100, SLAMs: 267}}
	c.Decide(comfortable)
	after := c.fractions[3]
	if after >= before {
		t.Fatalf("controller did not relax: %v -> %v", before, after)
	}
	// Relaxing far enough tears the partition down entirely.
	for i := 0; i < 10; i++ {
		c.Decide(comfortable)
	}
	if c.fractions[3] != 0 {
		t.Fatalf("partition should be torn down, still %v", c.fractions[3])
	}
}

func TestControllerIdleInBand(t *testing.T) {
	m := newModel()
	c := NewController(m)
	inBand := []Observation{{Servers: []int{2}, P99Ms: 230, SLAMs: 267}}
	if changes := c.Decide(inBand); changes != 0 {
		t.Fatalf("in-band observation caused %d changes", changes)
	}
	noSLA := []Observation{{Servers: []int{2}, P99Ms: 9999, SLAMs: 0}}
	if changes := c.Decide(noSLA); changes != 0 {
		t.Fatal("SLA-less workloads must not drive partitioning")
	}
}

func TestViolationDominatesSlackPerServer(t *testing.T) {
	m := newModel()
	c := NewController(m)
	// One tenant violating, another comfortable, sharing server 5:
	// grow must win.
	obs := []Observation{
		{Servers: []int{5}, P99Ms: 400, SLAMs: 267},
		{Servers: []int{5}, P99Ms: 50, SLAMs: 267},
	}
	c.Decide(obs)
	if c.fractions[5] == 0 {
		t.Fatal("violation should dominate slack on a shared server")
	}
}
