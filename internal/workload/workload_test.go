package workload

import (
	"testing"

	"gsight/internal/resources"
)

func TestClassString(t *testing.T) {
	if BG.String() != "BG" || SC.String() != "SC" || LS.String() != "LS" {
		t.Fatal("class names wrong")
	}
	if Class(9).String() != "Class(9)" {
		t.Fatal("invalid class name")
	}
}

func TestCallModeString(t *testing.T) {
	if Nested.String() != "nested" || Sequence.String() != "sequence" || Async.String() != "async" {
		t.Fatal("call mode names wrong")
	}
}

func TestCatalogValidates(t *testing.T) {
	cat := Catalog()
	if len(cat) != 18 {
		t.Fatalf("catalog size = %d, want 18", len(cat))
	}
	for name, w := range cat {
		if err := w.Validate(); err != nil {
			t.Errorf("catalog workload %q invalid: %v", name, err)
		}
		if w.Name != name {
			t.Errorf("catalog key %q != workload name %q", name, w.Name)
		}
	}
}

func TestSocialNetworkShape(t *testing.T) {
	sn := SocialNetwork()
	if sn.NumFunctions() != 9 {
		t.Fatalf("social network functions = %d, want 9 (Figure 2)", sn.NumFunctions())
	}
	if sn.Class != LS {
		t.Fatal("social network must be LS")
	}
	if sn.SLAp99Ms != 267 {
		t.Fatalf("social network SLA = %v, want 267 ms (§6.3)", sn.SLAp99Ms)
	}
	// Critical path ①→②→⑥→⑧→⑨ (indices 0,1,5,7,8).
	cp := sn.CriticalPath()
	want := []int{0, 1, 5, 7, 8}
	if len(cp) != len(want) {
		t.Fatalf("critical path = %v, want %v", cp, want)
	}
	for i := range want {
		if cp[i] != want[i] {
			t.Fatalf("critical path = %v, want %v", cp, want)
		}
	}
}

func TestECommerceSLA(t *testing.T) {
	ec := ECommerce()
	if ec.SLAp99Ms != 88 {
		t.Fatalf("e-commerce SLA = %v, want 88 ms (§6.3)", ec.SLAp99Ms)
	}
	if err := ec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSparkJobs(t *testing.T) {
	lr := LogisticRegression()
	if lr.SoloDurationS != 429 {
		t.Fatalf("LR solo JCT = %v, want 429 s (Figure 3(b))", lr.SoloDurationS)
	}
	if lr.Instances != 60 {
		t.Fatalf("LR instances = %d, want 60", lr.Instances)
	}
	if len(lr.Functions[0].Phases) != 3 {
		t.Fatal("LR must have 3 phases (map, shuffle, reduce)")
	}
	// Shuffle phase must be the most interference-sensitive.
	ph := lr.Functions[0].Phases
	if ph[1].SensScale <= ph[0].SensScale || ph[1].SensScale <= ph[2].SensScale {
		t.Fatalf("LR shuffle phase must be most sensitive: %v", ph)
	}
	km := KMeans()
	if km.Instances != 60 {
		t.Fatal("KMeans instances must be 60")
	}
}

func TestMLServingIPCRatio(t *testing.T) {
	// Figure 13: CPU-intensive workloads run at ~1.6x the IPC of
	// I/O-intensive ones.
	ml := MLServing()
	sn := SocialNetwork()
	var mlIPC, snIPC float64
	for _, f := range ml.Functions {
		mlIPC += f.SoloIPC
	}
	mlIPC /= float64(len(ml.Functions))
	for _, f := range sn.Functions {
		snIPC += f.SoloIPC
	}
	snIPC /= float64(len(sn.Functions))
	ratio := mlIPC / snIPC
	if ratio < 1.4 || ratio > 1.9 {
		t.Fatalf("CPU/IO IPC ratio = %v, want ~1.6", ratio)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	bad := &Workload{Name: "empty"}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty workload must not validate")
	}
	bad = &Workload{Name: "entry", Entry: 5, Functions: []Function{{Name: "a"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range entry must not validate")
	}
	bad = &Workload{Name: "callee", Functions: []Function{{Name: "a", Calls: []Call{{Callee: 7}}}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range callee must not validate")
	}
	bad = &Workload{Name: "self", Functions: []Function{{Name: "a", Calls: []Call{{Callee: 0}}}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("self call must not validate")
	}
	bad = &Workload{Name: "cycle", Functions: []Function{
		{Name: "a", Calls: []Call{{Callee: 1}}},
		{Name: "b", Calls: []Call{{Callee: 0}}},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("cyclic call graph must not validate")
	}
	bad = &Workload{Name: "phases", Functions: []Function{{
		Name:   "a",
		Phases: []Phase{{Frac: 0.5, SensScale: 1}},
	}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("phase fractions not summing to 1 must not validate")
	}
}

func TestPhaseAt(t *testing.T) {
	f := &Function{Phases: []Phase{
		{Frac: 0.5, SensScale: 1},
		{Frac: 0.3, SensScale: 2},
		{Frac: 0.2, SensScale: 3},
	}}
	if p, i := f.PhaseAt(0.0); i != 0 || p.SensScale != 1 {
		t.Fatalf("PhaseAt(0) = %d", i)
	}
	if p, i := f.PhaseAt(0.49); i != 0 || p.SensScale != 1 {
		t.Fatalf("PhaseAt(0.49) = %d", i)
	}
	if p, i := f.PhaseAt(0.6); i != 1 || p.SensScale != 2 {
		t.Fatalf("PhaseAt(0.6) = %d", i)
	}
	if p, i := f.PhaseAt(0.95); i != 2 || p.SensScale != 3 {
		t.Fatalf("PhaseAt(0.95) = %d", i)
	}
	if p, i := f.PhaseAt(1.5); i != 2 || p.SensScale != 3 {
		t.Fatalf("PhaseAt(1.5) = %d (should clamp to last)", i)
	}
}

func TestEffectivePhasesDefault(t *testing.T) {
	f := &Function{}
	ph := f.EffectivePhases()
	if len(ph) != 1 || ph[0].Frac != 1 || ph[0].SensScale != 1 {
		t.Fatalf("default phase wrong: %+v", ph)
	}
	if ph[0].DemandScale != (resources.Vector{1, 1, 1, 1, 1, 1}) {
		t.Fatalf("default demand scale wrong: %v", ph[0].DemandScale)
	}
}

func TestCloneIsDeep(t *testing.T) {
	sn := SocialNetwork()
	c := sn.Clone()
	c.Functions[0].Demand[0] = 999
	c.Functions[0].Calls[0].Callee = 3
	if sn.Functions[0].Demand[0] == 999 {
		t.Fatal("clone shares demand storage")
	}
	if sn.Functions[0].Calls[0].Callee == 3 {
		t.Fatal("clone shares calls storage")
	}
}

func TestByClass(t *testing.T) {
	ls := ByClass(LS)
	if len(ls) != 4 {
		t.Fatalf("LS workloads = %d, want 4", len(ls))
	}
	bg := ByClass(BG)
	if len(bg) != 3 {
		t.Fatalf("BG workloads = %d, want 3", len(bg))
	}
	sc := ByClass(SC)
	if len(sc) != 11 {
		t.Fatalf("SC workloads = %d, want 11", len(sc))
	}
}

func TestMicroBenchmarksAre4(t *testing.T) {
	mb := MicroBenchmarks()
	if len(mb) != 4 {
		t.Fatalf("micro-benchmarks = %d, want 4 (Figure 3(a))", len(mb))
	}
	names := map[string]bool{}
	for _, w := range mb {
		names[w.Name] = true
	}
	for _, want := range []string{"matmul", "dd", "iperf", "video-processing"} {
		if !names[want] {
			t.Errorf("missing micro-benchmark %q", want)
		}
	}
}

func TestIperfIsNetworkBound(t *testing.T) {
	ip := Iperf()
	f := ip.Functions[0]
	if f.Sensitivity[resources.Network] < 0.8 {
		t.Fatal("iperf must be network sensitive")
	}
	if f.Sensitivity[resources.CPU] > 0.3 {
		t.Fatal("iperf must not be CPU sensitive")
	}
}
