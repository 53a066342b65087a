package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gsight/internal/core"
	"gsight/internal/perfmodel"
	"gsight/internal/profile"
	"gsight/internal/workload"
)

func newGen(seed uint64) *Generator {
	m := Lab()
	return NewGenerator(m, seed)
}

func TestGeneratorProfilesPools(t *testing.T) {
	g := newGen(1)
	for _, w := range append(append([]*workload.Workload{}, g.LSPool...), g.SCPool...) {
		ps, ok := g.Store.Get(w.Name)
		if !ok || len(ps) != len(w.Functions) {
			t.Fatalf("workload %q not fully profiled", w.Name)
		}
	}
}

func TestColocationKinds(t *testing.T) {
	g := newGen(2)
	for _, kind := range []core.ColocationKind{core.LSLS, core.LSSC, core.SCSC} {
		sc := g.Colocation(kind, 3)
		if len(sc.Deployments) != 3 {
			t.Fatalf("%v: deployments = %d", kind, len(sc.Deployments))
		}
		hasLS, hasSC := false, false
		for _, d := range sc.Deployments {
			if d.W.Class == workload.LS {
				hasLS = true
			} else {
				hasSC = true
			}
			if err := d.Validate(8); err != nil {
				t.Fatalf("%v: invalid deployment: %v", kind, err)
			}
		}
		switch kind {
		case core.LSLS:
			if hasSC {
				t.Fatal("LSLS scenario contains SC")
			}
		case core.SCSC:
			if hasLS {
				t.Fatal("SCSC scenario contains LS")
			}
		case core.LSSC:
			if !hasLS || !hasSC {
				t.Fatal("LSSC scenario missing a class")
			}
		}
	}
}

func TestColocationClampsK(t *testing.T) {
	g := newGen(3)
	if got := len(g.Colocation(core.LSLS, 1).Deployments); got != 2 {
		t.Fatalf("k<2 should clamp to 2, got %d", got)
	}
	if got := len(g.Colocation(core.LSLS, 99).Deployments); got != g.MaxColocated {
		t.Fatalf("k>max should clamp to %d, got %d", g.MaxColocated, got)
	}
}

func TestLabelEmitsSamples(t *testing.T) {
	g := newGen(4)
	sc := g.Colocation(core.LSSC, 2)
	samples, err := g.Label(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range samples {
		if s.Label <= 0 {
			t.Fatalf("non-positive label %v for %v", s.Label, s.Kind)
		}
		if s.Target < 0 || s.Target >= len(s.Inputs) {
			t.Fatal("target out of range")
		}
		if s.Inputs[s.Target].Class == workload.BG {
			t.Fatal("BG workloads must not be predicted (the paper skips them)")
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := newGen(7)
	b := newGen(7)
	sa := a.Colocation(core.LSSC, 3)
	sb := b.Colocation(core.LSSC, 3)
	if len(sa.Deployments) != len(sb.Deployments) {
		t.Fatal("scenario sizes differ")
	}
	for i := range sa.Deployments {
		da, db := sa.Deployments[i], sb.Deployments[i]
		if da.W.Name != db.W.Name || da.QPS != db.QPS || da.StartDelayS != db.StartDelayS {
			t.Fatalf("deployment %d differs: %s/%s", i, da.W.Name, db.W.Name)
		}
	}
	la, err := a.Label(sa)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := b.Label(sb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range la {
		if la[i].Label != lb[i].Label {
			t.Fatalf("labels differ at %d: %v vs %v", i, la[i].Label, lb[i].Label)
		}
	}
}

func TestInputFrom(t *testing.T) {
	g := newGen(8)
	sn := workload.SocialNetwork()
	d := perfmodel.SpreadDeployment(sn, g.Model.Testbed)
	d.QPS = 300
	ps, _ := g.Store.Get(sn.Name)
	in := InputFrom(d, ps)
	if in.Name != "social-network" || in.Class != workload.LS {
		t.Fatal("identity wrong")
	}
	if in.QPSFrac != 0.5 {
		t.Fatalf("QPSFrac = %v, want 0.5", in.QPSFrac)
	}
	if in.LifetimeS != 0 {
		t.Fatal("LS lifetime must be 0")
	}
	// Mutating the input must not touch the deployment.
	in.Placement[0] = 7
	if d.Placement[0] == 7 {
		t.Fatal("InputFrom aliases placement")
	}

	mm := perfmodel.NewDeployment(workload.MatMul())
	mm.StartDelayS = 30
	mps, _ := g.Store.Get("matmul")
	min := InputFrom(mm, mps)
	if min.LifetimeS != 180 || min.StartDelayS != 30 {
		t.Fatalf("SC temporal fields wrong: %v %v", min.LifetimeS, min.StartDelayS)
	}
}

func TestInputWorkloadLevel(t *testing.T) {
	g := newGen(9)
	sn := workload.SocialNetwork()
	d := perfmodel.SpreadDeployment(sn, g.Model.Testbed)
	d.QPS = 300
	ps, _ := g.Store.Get(sn.Name)
	merged := profileMerged(ps)
	in := InputWorkloadLevel(d, merged)
	if len(in.Profiles) != 1 || len(in.Placement) != 1 {
		t.Fatal("workload-level input must be monolithic")
	}
	if in.Placement[0] != d.Placement[sn.Entry] {
		t.Fatal("monolith must sit at the entry's server")
	}
}

// profileMerged avoids importing profile under a clashing name.
func profileMerged(ps []profile.Profile) profile.Profile { return profile.Merged(ps) }

// atWidth runs fn with GOMAXPROCS set to procs, the width of every
// start-up fan-out.
func atWidth(t *testing.T, procs int, fn func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// bootstrapState bootstraps a fresh predictor on n scenarios of a seed-5
// generator at the given width and returns its checkpoint bytes.
func bootstrapState(t *testing.T, procs, n int) []byte {
	t.Helper()
	var blob []byte
	atWidth(t, procs, func() {
		p := core.NewPredictor(core.Config{Seed: 5})
		if err := newGen(5).Bootstrap(context.Background(), p, n); err != nil {
			t.Fatal(err)
		}
		var err error
		if blob, err = p.CheckpointState(); err != nil {
			t.Fatal(err)
		}
	})
	return blob
}

// TestBootstrapWorkerCountIndependent: labelling and row encoding fan
// out, and the trained predictor is byte-identical at 1 and 4 workers.
func TestBootstrapWorkerCountIndependent(t *testing.T) {
	one, four := bootstrapState(t, 1, 40), bootstrapState(t, 4, 40)
	if !bytes.Equal(one, four) {
		t.Fatalf("checkpoint differs between 1 and 4 workers (%d vs %d bytes)", len(one), len(four))
	}
}

// TestBootstrapMatchesSerialLabel: Bootstrap trains on exactly the
// observations a serial Colocation+Label loop yields.
func TestBootstrapMatchesSerialLabel(t *testing.T) {
	const n = 40
	g := newGen(5)
	var ipc, jct []core.Observation
	for i := 0; i < n; i++ {
		samples, err := g.Label(g.Colocation(core.LSSC, 2+g.rnd.Intn(2)))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			o := core.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label}
			switch s.Kind {
			case core.IPCQoS:
				ipc = append(ipc, o)
			case core.JCTQoS:
				jct = append(jct, o)
			}
		}
	}
	p := core.NewPredictor(core.Config{Seed: 5})
	if err := p.TrainObservations(core.IPCQoS, ipc); err != nil {
		t.Fatal(err)
	}
	if err := p.TrainObservations(core.JCTQoS, jct); err != nil {
		t.Fatal(err)
	}
	want, err := p.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if got := bootstrapState(t, 4, n); !bytes.Equal(got, want) {
		t.Fatal("Bootstrap differs from the serial Colocation+Label loop")
	}
}

func TestBootstrapRejectsEmpty(t *testing.T) {
	for _, n := range []int{0, -3} {
		g, fresh := newGen(5), newGen(5)
		err := g.Bootstrap(context.Background(), core.NewPredictor(core.Config{Seed: 5}), n)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("n = %d", n)) {
			t.Fatalf("n = %d: got %v, want an error naming n", n, err)
		}
		if g.rnd.Uint64() != fresh.rnd.Uint64() || g.noise.Uint64() != fresh.noise.Uint64() {
			t.Fatalf("n = %d: the rejected bootstrap drew from the generator", n)
		}
	}
}

func TestBootstrapCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := core.NewPredictor(core.Config{Seed: 5})
	if err := newGen(5).Bootstrap(ctx, p, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, err := p.Predict(core.IPCQoS, 0, []core.WorkloadInput{{}}); !errors.Is(err, core.ErrNotTrained) {
		t.Fatalf("predictor trained after a cancelled bootstrap: %v", err)
	}
}
