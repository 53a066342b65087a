package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestMedianWindow(t *testing.T) {
	// Five one-second windows holding 10, 20, 30, 40 and 500 samples.
	var samples []sample
	for w, n := range []int{10, 20, 30, 40, 500} {
		for i := 0; i < n; i++ {
			at := time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond
			samples = append(samples, sample{at: at, v: float64(w + 1)})
		}
	}
	ws := windows(numWindows, samples, 5*time.Second)
	for w, n := range []int{10, 20, 30, 40, 500} {
		if len(ws[w]) != n {
			t.Errorf("window %d holds %d samples, want %d", w, len(ws[w]), n)
		}
	}
	// Each window's p99 is its constant value w+1; the median is 3.
	if got := medianWindowPercentile(numWindows, samples, 5*time.Second, 99); got != 3 {
		t.Errorf("median window p99 = %v, want 3", got)
	}
	// Over three windows the values are {1,2}, {3,4} and {5}.
	if got := medianWindowPercentile(3, samples, 5*time.Second, 100); got != 4 {
		t.Errorf("median of three windows' maxima = %v, want 4", got)
	}
	// A sample at or past the end belongs to no window.
	late := []sample{{at: 5 * time.Second, v: 1}}
	if ws := windows(numWindows, late, 5*time.Second); len(ws[numWindows-1]) != 0 {
		t.Error("sample past the end was counted")
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(7, "serve-mixed/open", 150, 0.3, 4*time.Second)
	b := poissonSchedule(7, "serve-mixed/open", 150, 0.3, 4*time.Second)
	c := poissonSchedule(8, "serve-mixed/open", 150, 0.3, 4*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) < 450 || len(a) > 750 {
		t.Errorf("%d arrivals in 4 s at 150/s", len(a))
	}
	observed := 0
	for i, s := range a {
		if i > 0 && s.due < a[i-1].due {
			t.Fatalf("due times go backwards at %d", i)
		}
		if s.noise < 0.9 || s.noise >= 1.1 {
			t.Fatalf("noise %v out of range", s.noise)
		}
		if s.observe {
			observed++
		}
	}
	if share := float64(observed) / float64(len(a)); share < 0.2 || share > 0.4 {
		t.Errorf("observed share %v, want about 0.3", share)
	}
	// The closed-loop mix draws from the same generator, one stream per
	// client.
	g1, g2 := newGenerator(7, "serve-place/closed/0", 0, 0), newGenerator(7, "serve-place/closed/0", 0, 0)
	other := newGenerator(7, "serve-place/closed/1", 0, 0)
	same, differs := true, false
	for i := 0; i < 100; i++ {
		x, y, z := g1.next(), g2.next(), other.next()
		same = same && x == y
		differs = differs || x != z
	}
	if !same || !differs {
		t.Errorf("mix streams: same seed and stream equal = %v, other stream differs = %v", same, differs)
	}
}

func TestSelfTime(t *testing.T) {
	msec := time.Millisecond
	spans := []span{
		{name: "client", start: 0, end: 10 * msec, parent: -1},
		{name: "handler", start: 2 * msec, end: 7 * msec, parent: 0},
		{name: "overlapping child", start: 5 * msec, end: 9 * msec, parent: 0},
		{name: "grandchild", start: 3 * msec, end: 4 * msec, parent: 1},
		{name: "child past the end", start: 9 * msec, end: 12 * msec, parent: 0},
	}
	got := selfTimes(spans)
	// client: children cover [2,9] and [9,10] = 8 ms of 10.
	want := []time.Duration{2 * msec, 4 * msec, 4 * msec, 1 * msec, 3 * msec}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestStalls(t *testing.T) {
	msec := time.Millisecond
	ops := []op{
		{start: 0, end: 1 * msec},
		{start: 1 * msec, end: 50 * msec},            // a stall: 49 ms without an ack
		{start: 2 * msec, end: 51 * msec},            // acked right after: not another
		{start: 200 * msec, end: 205 * msec},         // idle gap before it: nothing outstanding
		{start: 205 * msec, end: 205*msec + 30*msec}, // a second stall
	}
	n, longest, total := stalls(ops, stallThreshold)
	if n != 2 || longest != 49*msec || total != 79*msec {
		t.Errorf("stalls = %d, longest %v, total %v", n, longest, total)
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	in := &resultFile{Seed: 9, Seconds: 30, Env: map[string]string{"nproc": "2"}, Runs: []result{{
		Workload: "steady", Trace: 0, Correct: true, Attempted: 12, Failed: 0,
		Metrics: map[string]metric{"place_p50_ms": {Value: 0.0797, Unit: "ms"}},
		Digests: map[string]string{"sim-steps": "abc"},
	}}}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeResultFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the file:\n in %+v\nout %+v", in, out)
	}
}

func TestCompareBounds(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{
		{Name: "place_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "place_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	}}
	file := func(rate, p50 float64) *resultFile {
		return &resultFile{Runs: []result{
			{Workload: "steady", Trace: 1, Metrics: map[string]metric{"place_per_s": {Value: 1}}}, // traced: ignored
			{Workload: "steady", Metrics: map[string]metric{"place_per_s": {Value: rate}, "place_p50_ms": {Value: p50}}},
		}}
	}
	cs := compareFiles(sp, file(1000, 1.0), file(880, 0.5))
	if len(cs) != 2 {
		t.Fatalf("%d comparisons, want 2", len(cs))
	}
	// 12 % fewer placements per second is beyond a 10 % bound; a halved
	// latency is an improvement, whatever its size.
	if !cs[0].beyond || cs[0].worse < 0.119 || cs[0].worse > 0.121 {
		t.Errorf("rate: %+v", cs[0])
	}
	if cs[1].beyond || cs[1].worse > 0 {
		t.Errorf("latency: %+v", cs[1])
	}
	if cs := compareFiles(sp, file(1000, 1.0), file(910, 1.09)); cs[0].beyond || cs[1].beyond {
		t.Errorf("differences inside the bound were marked: %+v", cs)
	}
}

// TestSmoke runs every workload at 1 % scale, untraced and traced, and
// checks the harness and BENCHMARK.json against each other: every
// metric the file names is measured in the unit it states, and nothing
// is measured that the file does not name.
func TestSmoke(t *testing.T) {
	root, sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	opt := options{seed: 3, seconds: 0.3, outDir: t.TempDir()}
	opt.dataDir = defaultDataDir(opt.outDir)
	if opt.simBin, err = buildSim(root, opt.outDir); err != nil {
		t.Fatal(err)
	}
	named := map[string]string{}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		named[m.Name] = m.Unit
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		i, w := i, w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			if sp.Workloads[i].Name != w.name {
				t.Errorf("workload %d is %q in BENCHMARK.json", i, sp.Workloads[i].Name)
			}
			plain, err := runWorkload(w, false, opt)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runWorkload(w, true, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []*result{plain, traced} {
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("trace %d: correct=%v attempted=%d failed=%d problems=%v", res.Trace, res.Correct, res.Attempted, res.Failed, res.Problems)
				}
				for name, m := range res.Metrics {
					if unit, ok := named[name]; !ok {
						t.Errorf("trace %d measures %s, which BENCHMARK.json does not name", res.Trace, name)
					} else if unit != m.Unit {
						t.Errorf("%s is in %s, BENCHMARK.json says %s", name, m.Unit, unit)
					}
				}
			}
			if err := keep(plain, sp.EndToEnd); err != nil {
				t.Error(err)
			}
			for name, m := range plain.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			if err := keep(traced, sp.PerLayer); err != nil {
				t.Error(err)
			}
			// The simulator's output is a function of the seed alone.
			stage := w.sim.name
			if plain.Digests[stage] == "" || plain.Digests[stage] != traced.Digests[stage] {
				t.Errorf("%s: passes of one seed differ: %q and %q", stage, plain.Digests[stage], traced.Digests[stage])
			}
			other, err := runSim(opt.simBin, filepath.Join(t.TempDir(), "sim"), w.sim, w.sim.hoursPerSec*opt.seconds, opt.seed+1)
			if err != nil {
				t.Fatal(err)
			}
			if other.digest == plain.Digests[stage] {
				t.Errorf("%s: seeds %d and %d gave the same output", stage, opt.seed, opt.seed+1)
			}
			if _, err := os.Stat(filepath.Join(opt.outDir, "trace-"+w.name+"-seed3.json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}
