package profile

import (
	"testing"

	"gsight/internal/metrics"
	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/workload"
)

var spec = resources.DefaultServerSpec("test")

func TestSoloProfileDeterministicWithoutNoise(t *testing.T) {
	sn := workload.SocialNetwork()
	a := SoloProfile(sn, 0, spec, nil)
	b := SoloProfile(sn, 0, spec, nil)
	if a.Metrics != b.Metrics {
		t.Fatal("noiseless profiles must be identical")
	}
	if a.Workload != "social-network" || a.Function != "compose-post" {
		t.Fatalf("profile identity wrong: %s/%s", a.Workload, a.Function)
	}
}

func TestSoloProfileReflectsArchetype(t *testing.T) {
	ip := workload.Iperf()
	mm := workload.MatMul()
	pIperf := SoloProfile(ip, 0, spec, nil)
	pMM := SoloProfile(mm, 0, spec, nil)
	if pIperf.Metrics[metrics.NetBW] <= pMM.Metrics[metrics.NetBW] {
		t.Fatal("iperf must show more network bandwidth than matmul")
	}
	if pMM.Metrics[metrics.LLCOcc] <= pIperf.Metrics[metrics.LLCOcc] {
		t.Fatal("matmul must show a larger cache footprint than iperf")
	}
	if pMM.Metrics[metrics.IPC] <= pIperf.Metrics[metrics.IPC] {
		t.Fatal("matmul must show higher IPC than iperf")
	}
	dd := SoloProfile(workload.DD(), 0, spec, nil)
	if dd.Metrics[metrics.DiskIO] <= pMM.Metrics[metrics.DiskIO] {
		t.Fatal("dd must show more disk IO than matmul")
	}
}

func TestProfileNoiseIsSmallAndSeeded(t *testing.T) {
	sn := workload.SocialNetwork()
	a := SoloProfile(sn, 0, spec, rng.New(1))
	b := SoloProfile(sn, 0, spec, rng.New(1))
	if a.Metrics != b.Metrics {
		t.Fatal("same seed must reproduce")
	}
	clean := SoloProfile(sn, 0, spec, nil)
	for i := range a.Metrics {
		if clean.Metrics[i] == 0 {
			continue
		}
		rel := a.Metrics[i]/clean.Metrics[i] - 1
		if rel > 0.1 || rel < -0.1 {
			t.Fatalf("metric %v noise = %v, too large", metrics.ID(i), rel)
		}
	}
}

func TestAllocFor(t *testing.T) {
	a := AllocFor(resources.Vector{1.1, 0.3, 2, 1, 0.5, 10})
	// Requests are conservative: ~2x CPU usage in quarter cores,
	// ~1.5x memory in 128 MB steps.
	if a[resources.CPU] != 2.25 {
		t.Fatalf("CPU alloc = %v, want 2.25", a[resources.CPU])
	}
	if a[resources.Memory] != 0.5 {
		t.Fatalf("memory alloc = %v, want 0.5", a[resources.Memory])
	}
	if a[resources.LLC] != 2.5 {
		t.Fatalf("LLC alloc = %v, want 2.5", a[resources.LLC])
	}
	zero := AllocFor(resources.Vector{})
	if zero[resources.CPU] != 0.25 || zero[resources.Memory] != 0.125 {
		t.Fatalf("zero demand alloc = %v", zero)
	}
}

func TestWorkloadProfiles(t *testing.T) {
	sn := workload.SocialNetwork()
	ps := WorkloadProfiles(sn, spec, nil)
	if len(ps) != 9 {
		t.Fatalf("profiles = %d, want 9", len(ps))
	}
	for f, p := range ps {
		if p.Function != sn.Functions[f].Name {
			t.Fatalf("profile %d names %q", f, p.Function)
		}
	}
}

func TestMergedLosesStructure(t *testing.T) {
	sn := workload.SocialNetwork()
	ps := WorkloadProfiles(sn, spec, nil)
	m := Merged(ps)
	if m.Function != "merged" {
		t.Fatalf("merged name = %q", m.Function)
	}
	// Demands sum.
	var want resources.Vector
	for _, f := range sn.Functions {
		want = want.Add(f.Demand)
	}
	if m.Demand != want {
		t.Fatalf("merged demand = %v, want %v", m.Demand, want)
	}
	// The merged IPC must sit inside the per-function range — an
	// average cannot preserve the extremes, which is exactly the
	// information loss Figure 5 demonstrates.
	var lo, hi float64 = 1e9, 0
	for _, p := range ps {
		if v := p.Metrics[metrics.IPC]; v < lo {
			lo = v
		}
		if v := p.Metrics[metrics.IPC]; v > hi {
			hi = v
		}
	}
	if m.Metrics[metrics.IPC] <= lo || m.Metrics[metrics.IPC] >= hi {
		t.Fatalf("merged IPC %v outside (%v, %v)", m.Metrics[metrics.IPC], lo, hi)
	}
	if Merged(nil).Workload != "" {
		t.Fatal("Merged(nil) should be zero")
	}
}

func TestScaleLoad(t *testing.T) {
	sn := workload.SocialNetwork()
	p := SoloProfile(sn, 0, spec, nil)
	half := ScaleLoad(p.Metrics, 0.5)
	if half[metrics.CPUUtil] != p.Metrics[metrics.CPUUtil]*0.5 {
		t.Fatal("CPU utilization must scale with load")
	}
	if half[metrics.IPC] != p.Metrics[metrics.IPC] {
		t.Fatal("IPC must not scale with load")
	}
	if half[metrics.LLCOcc] != p.Metrics[metrics.LLCOcc] {
		t.Fatal("LLC occupancy must not scale with load")
	}
	if neg := ScaleLoad(p.Metrics, -1); neg[metrics.CPUUtil] != 0 {
		t.Fatal("negative load clamps to zero")
	}
}

func TestCoRun(t *testing.T) {
	sn := workload.SocialNetwork()
	solo := SoloProfile(sn, 0, spec, nil).Metrics
	co := CoRun(solo, 1.5, 1.2, 0.8)
	if co[metrics.IPC] >= solo[metrics.IPC] {
		t.Fatal("co-run IPC must drop")
	}
	if co[metrics.L3MPKI] <= solo[metrics.L3MPKI] {
		t.Fatal("co-run L3 MPKI must rise")
	}
	if co[metrics.NetBW] >= solo[metrics.NetBW] {
		t.Fatal("co-run throughput must follow rate ratio")
	}
	// No interference: identical.
	same := CoRun(solo, 1, 1, 1)
	if same != solo {
		t.Fatal("sigma=1 rate=1 must be identity")
	}
	// Slowdowns below 1 are clamped.
	clamped := CoRun(solo, 0.5, 0.5, 1)
	if clamped[metrics.IPC] != solo[metrics.IPC] {
		t.Fatal("sub-1 slowdowns must clamp to 1")
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	if len(s.byWorkload) != 0 {
		t.Fatal("new store not empty")
	}
	sn := workload.SocialNetwork()
	ps := s.ProfileWorkload(sn, spec, nil)
	if len(ps) != 9 || len(s.byWorkload) != 1 {
		t.Fatalf("store state wrong: %d profiles, %d workloads", len(ps), len(s.byWorkload))
	}
	got, ok := s.Get("social-network")
	if !ok || len(got) != 9 {
		t.Fatal("Get failed")
	}
	if _, ok := s.Get("ghost"); ok {
		t.Fatal("ghost workload found")
	}
	// Put copies its input.
	ps[0].Function = "mutated"
	got, _ = s.Get("social-network")
	if got[0].Function == "mutated" {
		t.Fatal("store aliases caller slice")
	}
}

func TestProfileString(t *testing.T) {
	p := SoloProfile(workload.SocialNetwork(), 0, spec, nil)
	if p.String() == "" {
		t.Fatal("empty String()")
	}
}
