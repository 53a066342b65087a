package perfmodel

import (
	"math"
	"slices"
	"testing"

	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/workload"
)

func newModel() *Model { return New(resources.DefaultTestbed()) }

func evalOne(t *testing.T, m *Model, deps ...*Deployment) *Result {
	t.Helper()
	res, err := m.Evaluate(&Scenario{Deployments: deps}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPressureProperties(t *testing.T) {
	c := DefaultConfig()
	for k := 0; k < int(resources.NumKinds); k++ {
		kind := resources.Kind(k)
		if got := c.pressure(kind, 0); got != 0 {
			t.Fatalf("%v: pressure(0) = %v", kind, got)
		}
		if got := c.pressure(kind, c.Knee[k]); got != 0 {
			t.Fatalf("%v: pressure at knee = %v", kind, got)
		}
		// monotone non-decreasing
		prev := -1.0
		for u := 0.0; u < 3; u += 0.05 {
			p := c.pressure(kind, u)
			if p < prev {
				t.Fatalf("%v: pressure not monotone at u=%v", kind, u)
			}
			prev = p
		}
		// continuous at u=1
		below := c.pressure(kind, 1-1e-9)
		above := c.pressure(kind, 1+1e-9)
		if math.Abs(above-below) > 1e-6 {
			t.Fatalf("%v: pressure discontinuous at 1: %v vs %v", kind, below, above)
		}
	}
}

func TestSoloRunHasNoInterference(t *testing.T) {
	m := newModel()
	sn := workload.SocialNetwork()
	d := SpreadDeployment(sn, m.Testbed)
	d.QPS = 200
	res := evalOne(t, m, d)
	r := res.Deployments[0]
	for f, p := range r.PerFunc {
		// Functions may interfere with their own workload's other
		// functions when they share a socket; the spread placement
		// keeps them apart, so slowdowns must be ~1.
		if p.Slowdown > 1.02 {
			t.Errorf("function %d slowdown = %v under solo spread run", f, p.Slowdown)
		}
		want := sn.Functions[f].SoloIPC
		if math.Abs(p.IPC-want) > 0.02*want {
			t.Errorf("function %d IPC = %v, want solo %v", f, p.IPC, want)
		}
	}
	if r.EffQPS < 195 {
		t.Errorf("solo effective QPS = %v, want ~200", r.EffQPS)
	}
}

func TestInterferenceDegradesTarget(t *testing.T) {
	m := newModel()
	sn := workload.SocialNetwork()
	solo := SpreadDeployment(sn, m.Testbed)
	solo.QPS = 300
	base := evalOne(t, m, solo).Deployments[0]

	d := SpreadDeployment(sn, m.Testbed)
	d.QPS = 300
	c := NewDeployment(workload.MatMul())
	c.Placement[0] = d.Placement[8] // beside get-followers
	c.Socket[0] = d.Socket[8]
	res := evalOne(t, m, d, c).Deployments[0]

	if res.E2EP99Ms <= base.E2EP99Ms {
		t.Fatalf("colocated p99 %v not worse than solo %v", res.E2EP99Ms, base.E2EP99Ms)
	}
	if res.IPC >= base.IPC {
		t.Fatalf("colocated IPC %v not worse than solo %v", res.IPC, base.IPC)
	}
	if res.PerFunc[8].Slowdown <= 1.2 {
		t.Fatalf("get-followers slowdown = %v, want substantial", res.PerFunc[8].Slowdown)
	}
}

// TestVolatilityObservation1 checks Figure 3(a)'s two headline facts:
// iperf barely perturbs IPC while matmul does, and interference beside
// get-followers is far worse than beside compose-post.
func TestVolatilityObservation1(t *testing.T) {
	m := newModel()
	sn := workload.SocialNetwork()

	run := func(corunner *workload.Workload, fn int) DeploymentResult {
		d := SpreadDeployment(sn, m.Testbed)
		d.QPS = 300
		c := NewDeployment(corunner)
		c.Placement[0] = d.Placement[fn]
		c.Socket[0] = d.Socket[fn]
		return evalOne(t, m, d, c).Deployments[0]
	}

	solo := SpreadDeployment(sn, m.Testbed)
	solo.QPS = 300
	base := evalOne(t, m, solo).Deployments[0]

	mmEntry := run(workload.MatMul(), 0)
	mmFollow := run(workload.MatMul(), 8)
	ipFollow := run(workload.Iperf(), 8)

	// Spatial variation: matmul beside get-followers much worse than
	// beside compose-post (paper: 3x).
	degEntry := mmEntry.E2EP99Ms / base.E2EP99Ms
	degFollow := mmFollow.E2EP99Ms / base.E2EP99Ms
	if degFollow < 2*degEntry {
		t.Errorf("get-followers degradation %.2fx vs compose-post %.2fx; want >=2x gap", degFollow, degEntry)
	}
	// Volatility: iperf leaves IPC nearly intact, matmul does not.
	ipcDropMM := 1 - mmFollow.IPC/base.IPC
	ipcDropIP := 1 - ipFollow.IPC/base.IPC
	if ipcDropIP > 0.10 {
		t.Errorf("iperf IPC drop = %.1f%%, want small", 100*ipcDropIP)
	}
	if ipcDropMM < 2*ipcDropIP {
		t.Errorf("matmul IPC drop %.3f not clearly above iperf %.3f", ipcDropMM, ipcDropIP)
	}
}

// TestTemporalVariationObservation3 reproduces Figure 3(b): the LR JCT
// rises as KMeans' start delay slides its heavy phase onto LR's
// sensitive shuffle window, then falls once the overlap shrinks.
func TestTemporalVariationObservation3(t *testing.T) {
	m := newModel()
	jcts := make([]float64, 7)
	for g := 0; g < 7; g++ {
		lr := NewDeployment(workload.LogisticRegression())
		km := NewDeployment(workload.KMeans())
		km.StartDelayS = float64(g * 60)
		res := evalOne(t, m, lr, km)
		jcts[g] = res.Deployments[0].JCTS
	}
	peak, peakAt := jcts[0], 0
	for g, v := range jcts {
		if v > peak {
			peak, peakAt = v, g
		}
	}
	if peakAt < 2 || peakAt > 5 {
		t.Errorf("LR JCT peak at g%d (%v), want mid-delay peak: %v", peakAt+1, peak, jcts)
	}
	if jcts[6] >= jcts[0] {
		t.Errorf("largest delay should shrink the overlap: g7=%v >= g1=%v", jcts[6], jcts[0])
	}
	if peak/jcts[6] < 1.2 {
		t.Errorf("temporal variation too weak: peak %v vs g7 %v", peak, jcts[6])
	}
	// All colocations must be slower than the solo run.
	soloRes := evalOne(t, m, NewDeployment(workload.LogisticRegression()))
	solo := soloRes.Deployments[0].JCTS
	for g, v := range jcts {
		if v < solo {
			t.Errorf("g%d JCT %v below solo %v", g+1, v, solo)
		}
	}
}

// TestHotspotPropagationObservation4 reproduces Figure 4: interference
// at one function raises its own local tail latency while every other
// function's local latency drops (starved arrivals + damped closed
// loop).
func TestHotspotPropagationObservation4(t *testing.T) {
	m := newModel()
	sn := workload.SocialNetwork()
	base := SpreadDeployment(sn, m.Testbed)
	base.QPS = 300
	bres := evalOne(t, m, base).Deployments[0]

	for _, target := range []int{0, 5} {
		d := SpreadDeployment(sn, m.Testbed)
		d.QPS = 300
		c := NewDeployment(workload.MatMul())
		c.Placement[0] = d.Placement[target]
		c.Socket[0] = d.Socket[target]
		res := evalOne(t, m, d, c).Deployments[0]
		for f := range res.PerFunc {
			ratio := res.PerFunc[f].LocalP99Ms / bres.PerFunc[f].LocalP99Ms
			if f == target {
				if ratio < 1.5 {
					t.Errorf("target fn%d p99 ratio = %v, want substantial increase", f+1, ratio)
				}
			} else if ratio > 1.0 {
				t.Errorf("interference at fn%d: fn%d p99 ratio = %v, want relief (<1)", target+1, f+1, ratio)
			}
		}
	}
}

// TestRestoringPropagationObservation5 checks the local-control
// experiment: moving the corunner to another socket restores the
// interfered function and raises the others back toward baseline.
func TestRestoringPropagationObservation5(t *testing.T) {
	m := newModel()
	sn := workload.SocialNetwork()
	base := SpreadDeployment(sn, m.Testbed)
	base.QPS = 300
	bres := evalOne(t, m, base).Deployments[0]

	interfered := func(socket int) DeploymentResult {
		d := SpreadDeployment(sn, m.Testbed)
		d.QPS = 300
		c := NewDeployment(workload.MatMul())
		c.Placement[0] = d.Placement[0]
		c.Socket[0] = socket
		return evalOne(t, m, d, c).Deployments[0]
	}
	// Server 0 hosts compose-post on socket 0 and get-followers on
	// socket 1; socket 2 is the empty socket local control moves the
	// corunner to.
	with := interfered(0)
	control := interfered(2)

	// Local control restores the interfered function...
	if control.PerFunc[0].LocalP99Ms >= with.PerFunc[0].LocalP99Ms {
		t.Fatalf("local control did not restore fn1: %v vs %v",
			control.PerFunc[0].LocalP99Ms, with.PerFunc[0].LocalP99Ms)
	}
	if r := control.PerFunc[0].LocalP99Ms / bres.PerFunc[0].LocalP99Ms; r > 1.3 {
		t.Errorf("fn1 after control = %.2fx baseline, want near 1", r)
	}
	// ...and the other functions' latencies rise back (restored
	// invocation rate).
	for f := 1; f < len(control.PerFunc); f++ {
		if control.PerFunc[f].LocalP99Ms < with.PerFunc[f].LocalP99Ms {
			t.Errorf("fn%d latency should rise after control: %v -> %v",
				f+1, with.PerFunc[f].LocalP99Ms, control.PerFunc[f].LocalP99Ms)
		}
	}
	if control.EffQPS <= with.EffQPS {
		t.Errorf("control should restore invocation rate: %v -> %v", with.EffQPS, control.EffQPS)
	}
}

func TestNoiseDeterminismAndMagnitude(t *testing.T) {
	m := newModel()
	sn := workload.SocialNetwork()
	mk := func() *Scenario {
		d := SpreadDeployment(sn, m.Testbed)
		d.QPS = 300
		return &Scenario{Deployments: []*Deployment{d}}
	}
	a, err := m.Evaluate(mk(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Evaluate(mk(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Deployments[0].E2EP99Ms != b.Deployments[0].E2EP99Ms {
		t.Fatal("same seed must reproduce identical noise")
	}
	clean, err := m.Evaluate(mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(a.Deployments[0].E2EP99Ms-clean.Deployments[0].E2EP99Ms) / clean.Deployments[0].E2EP99Ms
	if rel > 0.5 {
		t.Fatalf("noise perturbation = %v, implausibly large", rel)
	}
}

func TestEvaluateValidates(t *testing.T) {
	m := newModel()
	d := NewDeployment(workload.SocialNetwork())
	d.Placement[0] = 99
	if _, err := m.Evaluate(&Scenario{Deployments: []*Deployment{d}}, nil); err == nil {
		t.Fatal("invalid placement must error")
	}
	d2 := NewDeployment(workload.SocialNetwork())
	d2.Replicas[3] = 0
	if _, err := m.Evaluate(&Scenario{Deployments: []*Deployment{d2}}, nil); err == nil {
		t.Fatal("zero replicas must error")
	}
}

// topoOrder is the allocating reference form of lsSolver.topoInto: the
// functions reachable from the entry, callers before callees.
func topoOrder(w *workload.Workload) []int {
	visited := make([]bool, len(w.Functions))
	var order []int
	var visit func(i int)
	visit = func(i int) {
		if visited[i] {
			return
		}
		visited[i] = true
		for _, c := range w.Functions[i].Calls {
			visit(c.Callee)
		}
		order = append(order, i)
	}
	visit(w.Entry)
	slices.Reverse(order)
	return order
}

func TestTopoOrder(t *testing.T) {
	sn := workload.SocialNetwork()
	order := topoOrder(sn)
	var sv lsSolver
	if got := sv.topoInto(nil, sn); !slices.Equal(got, order) {
		t.Fatalf("topoInto = %v, reference order %v", got, order)
	}
	if len(order) != 9 {
		t.Fatalf("topo order covers %d functions, want 9", len(order))
	}
	pos := make(map[int]int)
	for i, f := range order {
		pos[f] = i
	}
	for f, fn := range sn.Functions {
		for _, c := range fn.Calls {
			if pos[f] >= pos[c.Callee] {
				t.Fatalf("caller %d not before callee %d in %v", f, c.Callee, order)
			}
		}
	}
}

func TestSpreadDeployment(t *testing.T) {
	tb := resources.DefaultTestbed()
	sn := workload.SocialNetwork()
	d := SpreadDeployment(sn, tb)
	seen := map[int]bool{}
	for f := 0; f < 8; f++ {
		if seen[d.Placement[f]] {
			t.Fatalf("first 8 functions share server: %v", d.Placement[:8])
		}
		seen[d.Placement[f]] = true
	}
	// the 9th function wraps onto server 0 but a different socket
	if d.Placement[8] != 0 || d.Socket[8] == d.Socket[0] {
		t.Fatalf("fn9 placement (%d,%d) should wrap to server 0, new socket", d.Placement[8], d.Socket[8])
	}
}

func TestLSReplicasFor(t *testing.T) {
	sn := workload.SocialNetwork()
	n := LSReplicasFor(sn, 0, sn.MaxQPS)
	// 600 qps * 9 ms / 0.65 target = ~8.3 -> 9
	if n != 9 {
		t.Fatalf("compose-post replicas = %d, want 9", n)
	}
	if got := LSReplicasFor(sn, 0, 0); got != 1 {
		t.Fatalf("zero qps replicas = %d, want 1", got)
	}
}

func TestStageOf(t *testing.T) {
	w := workload.FeatureGeneration() // 3 sequential functions
	if fn, _ := stageOf(w, 0); fn != 0 {
		t.Fatalf("stage at p=0 -> %d", fn)
	}
	if fn, local := stageOf(w, 0.5); fn != 1 || local < 0.49 || local > 0.51 {
		t.Fatalf("stage at p=0.5 -> fn=%d local=%v", fn, local)
	}
	if fn, _ := stageOf(w, 0.99); fn != 2 {
		t.Fatalf("stage at p=0.99 -> %d", fn)
	}
	if fn, _ := stageOf(w, 1.0); fn != 2 {
		t.Fatalf("stage at p=1.0 should clamp, got %d", fn)
	}
	single := workload.MatMul()
	if fn, local := stageOf(single, 0.7); fn != 0 || local != 0.7 {
		t.Fatalf("single-function stage = %d/%v", fn, local)
	}
}

func TestSCOnlyScenario(t *testing.T) {
	m := newModel()
	mm := NewDeployment(workload.MatMul())
	res := evalOne(t, m, mm)
	jct := res.Deployments[0].JCTS
	// Solo matmul: JCT within one step of its solo duration.
	if math.Abs(jct-180) > 2*m.Cfg.StepS+1 {
		t.Fatalf("solo matmul JCT = %v, want ~180", jct)
	}
	if res.Deployments[0].IPC < 1.9 {
		t.Fatalf("solo matmul IPC = %v, want ~1.95", res.Deployments[0].IPC)
	}
}

func TestSCColocationSlowsBoth(t *testing.T) {
	m := newModel()
	a := NewDeployment(workload.MatMul())
	b := NewDeployment(workload.VideoProcessing())
	res := evalOne(t, m, a, b)
	if res.Deployments[0].JCTS <= 180 {
		t.Fatalf("colocated matmul JCT = %v, want > solo 180", res.Deployments[0].JCTS)
	}
	if res.Deployments[1].JCTS <= 240 {
		t.Fatalf("colocated video JCT = %v, want > solo 240", res.Deployments[1].JCTS)
	}
	// Separate servers: back to solo behaviour.
	b2 := NewDeployment(workload.VideoProcessing())
	b2.Placement[0] = 1
	res2 := evalOne(t, m, NewDeployment(workload.MatMul()), b2)
	if math.Abs(res2.Deployments[0].JCTS-180) > 2*m.Cfg.StepS+1 {
		t.Fatalf("separated matmul JCT = %v, want ~180", res2.Deployments[0].JCTS)
	}
}

func TestMixedLSSCScenario(t *testing.T) {
	m := newModel()
	sn := SpreadDeployment(workload.SocialNetwork(), m.Testbed)
	sn.QPS = 300
	mm := NewDeployment(workload.MatMul())
	mm.Placement[0] = sn.Placement[8]
	mm.Socket[0] = sn.Socket[8]
	res := evalOne(t, m, sn, mm)
	if res.Deployments[0].Class != workload.LS || res.Deployments[1].Class != workload.SC {
		t.Fatal("classes misreported")
	}
	if res.Deployments[0].E2EP99Ms <= 0 || res.Deployments[1].JCTS <= 0 {
		t.Fatal("mixed scenario produced empty results")
	}
	// The matmul should also run slower beside the LS workload.
	if res.Deployments[1].JCTS <= 180 {
		t.Errorf("matmul JCT beside LS = %v, want > solo", res.Deployments[1].JCTS)
	}
}

func TestGatewayDegradesPastKnee(t *testing.T) {
	m := newModel()
	sn := workload.SocialNetwork()
	run := func(extra int) float64 {
		d := SpreadDeployment(sn, m.Testbed)
		d.QPS = 300
		for i := range d.Replicas {
			d.Replicas[i] += extra
		}
		res := evalOne(t, m, d)
		return res.Deployments[0].E2EP99Ms
	}
	few := run(0)
	many := run(30) // ~270 extra instances, far past the 110 knee
	if many <= few {
		t.Fatalf("gateway should slow down with instance count: %v vs %v", few, many)
	}
}

func TestDeploymentString(t *testing.T) {
	m := newModel()
	res := evalOne(t, m, NewDeployment(workload.MatMul()))
	if s := res.Deployments[0].String(); s == "" {
		t.Fatal("empty String()")
	}
}
