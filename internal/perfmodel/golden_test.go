package perfmodel_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gsight/internal/core"
	"gsight/internal/perfmodel"
	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/scenario"
	"gsight/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/evaluate.golden from the current Evaluate")

const goldenPath = "testdata/evaluate.golden"

// goldenCase is one Evaluate call whose every output float is pinned.
// noise is consumed by the call, so a case list is good for one pass.
type goldenCase struct {
	name  string
	m     *perfmodel.Model
	sc    *perfmodel.Scenario
	noise *rng.Rand
}

func newLab(fast bool) *perfmodel.Model {
	m := perfmodel.New(resources.DefaultTestbed())
	if fast {
		scenario.FastConfig(m)
	}
	return m
}

// sensOnlyPhases is an SC job whose two phases exert the same demand
// and differ only in sensitivity: the background it presents does not
// change at the phase boundary, its own slowdown does.
func sensOnlyPhases() *workload.Workload {
	ones := resources.Vector{1, 1, 1, 1, 1, 1}
	return &workload.Workload{
		Name:          "sens-only",
		Class:         workload.SC,
		SoloDurationS: 90,
		Instances:     6,
		Functions: []workload.Function{{
			Name:        "sens-only-worker",
			Demand:      resources.Vector{1.5, 1, 4, 6, 0.5, 10},
			Sensitivity: resources.Vector{0.6, 0.1, 0.5, 0.6, 0.1, 0.1},
			SoloIPC:     1.3,
			Phases: []workload.Phase{
				{Frac: 0.5, DemandScale: ones, SensScale: 0.4},
				{Frac: 0.5, DemandScale: ones, SensScale: 2.0},
			},
		}},
	}
}

// goldenCases builds the pinned scenario set: generator colocations of
// every kind under both model resolutions, then hand-built scenarios
// for the paths random draws reach rarely.
func goldenCases() []goldenCase {
	var cases []goldenCase
	kinds := []struct {
		name string
		kind core.ColocationKind
	}{{"lsls", core.LSLS}, {"lssc", core.LSSC}, {"scsc", core.SCSC}}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, fast := range []bool{false, true} {
			m := newLab(fast)
			g := scenario.NewGenerator(m, seed)
			// The generator's measurement-noise stream: nothing in
			// this loop but the splits below draws from it.
			noise := rng.Stream(seed, "measurement")
			for _, k := range kinds {
				for j := 0; j < 9; j++ {
					c := goldenCase{
						name: fmt.Sprintf("gen/seed%d/fast=%v/%s/%d", seed, fast, k.name, j),
						m:    m,
						sc:   g.Colocation(k.kind, 2+j%4),
					}
					if j%3 != 0 {
						c.noise = noise.Split()
					}
					cases = append(cases, c)
				}
			}
		}
	}

	on := func(d *perfmodel.Deployment, server int) *perfmodel.Deployment {
		for f := range d.Placement {
			d.Placement[f] = server
			d.Socket[f] = -1
		}
		return d
	}
	delayed := func(d *perfmodel.Deployment, s float64) *perfmodel.Deployment {
		d.StartDelayS = s
		return d
	}
	for _, fast := range []bool{false, true} {
		m := newLab(fast)
		tag := fmt.Sprintf("hand/fast=%v/", fast)
		add := func(name string, m *perfmodel.Model, noise *rng.Rand, deps ...*perfmodel.Deployment) {
			cases = append(cases, goldenCase{tag + name, m, &perfmodel.Scenario{Deployments: deps}, noise})
		}

		add("phased-delays", m, nil,
			perfmodel.SpreadDeployment(workload.SocialNetwork(), m.Testbed),
			on(perfmodel.NewDeployment(workload.LogisticRegression()), 1),
			delayed(on(perfmodel.NewDeployment(workload.KMeans()), 1), 120),
			delayed(on(perfmodel.NewDeployment(workload.DataPipeline()), 2), 37.5))
		add("phased-scsc", m, rng.Stream(9, "golden-phased"),
			perfmodel.NewDeployment(workload.LogisticRegression()),
			delayed(perfmodel.NewDeployment(workload.KMeans()), 61),
			delayed(perfmodel.NewDeployment(workload.DataPipeline()), 200))

		sens := func(delay float64) *perfmodel.Deployment {
			return delayed(perfmodel.NewDeployment(sensOnlyPhases()), delay)
		}
		add("sens-only-ls", m, nil,
			on(perfmodel.NewDeployment(workload.MLServing()), 0), sens(0),
			perfmodel.NewDeployment(workload.MatMul()))
		add("sens-only-sc", m, nil, sens(10), perfmodel.NewDeployment(workload.VideoProcessing()))

		part := newLab(fast)
		part.SetPartition(0, perfmodel.Partition{CPUFrac: 0.6, LLCFrac: 0.5, MemBWFrac: 0.5})
		prot := on(perfmodel.NewDeployment(workload.ECommerce()), 0)
		prot.Protected = true
		protSC := perfmodel.NewDeployment(workload.DD())
		protSC.Protected = true
		add("protected", part, rng.Stream(9, "golden-protected"),
			prot, perfmodel.NewDeployment(workload.MatMul()), delayed(protSC, 20))

		cold := perfmodel.SpreadDeployment(workload.ECommerce(), m.Testbed)
		cold.ColdStartFrac = 0.2
		add("cold-start", m, nil, cold, on(perfmodel.NewDeployment(workload.FloatOp()), 0))

		// A horizon shorter than the jobs: nobody finishes, JCT is the
		// horizon. A zero horizon runs no step at all, so the LS
		// results come from the standalone fallback solve.
		short := newLab(fast)
		short.Cfg.MaxHorizonS = 100
		add("horizon-100", short, nil,
			perfmodel.SpreadDeployment(workload.SocialNetwork(), m.Testbed),
			perfmodel.NewDeployment(workload.KMeans()),
			delayed(perfmodel.NewDeployment(workload.MatMul()), 150))
		zero := newLab(fast)
		zero.Cfg.MaxHorizonS = 0
		add("horizon-0", zero, nil,
			perfmodel.SpreadDeployment(workload.SocialNetwork(), m.Testbed),
			on(perfmodel.NewDeployment(workload.MLServing()), 3),
			perfmodel.NewDeployment(workload.MatMul()))
	}
	return cases
}

func hexFloats(b *strings.Builder, fs ...float64) {
	for _, f := range fs {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(f, 'x', -1, 64))
	}
}

// renderResult writes every float of every DeploymentResult in hex, so
// equal text means equal bits.
func renderResult(b *strings.Builder, name string, res *perfmodel.Result) {
	fmt.Fprintf(b, "# %s\n", name)
	for _, d := range res.Deployments {
		fmt.Fprintf(b, "%s %s", d.Name, d.Class)
		hexFloats(b, d.IPC, d.EffQPS, d.E2EMeanMs, d.E2EP99Ms, d.JCTS)
		b.WriteByte('\n')
		for _, p := range d.PerFunc {
			fmt.Fprintf(b, "  %s", p.Name)
			hexFloats(b, p.IPC, p.Slowdown, p.LocalMeanMs, p.LocalP99Ms, p.ArrivalQPS, p.Rho)
			b.WriteByte('\n')
		}
	}
}

func evaluateCase(t testing.TB, c goldenCase) string {
	res, err := c.m.Evaluate(c.sc, c.noise)
	if err != nil {
		t.Errorf("%s: %v", c.name, err)
		return ""
	}
	var b strings.Builder
	renderResult(&b, c.name, res)
	return b.String()
}

// TestEvaluateGolden pins Evaluate bit for bit. The file was generated
// before the co-execution loop learned to reuse solves across a
// background segment; it is the reference implementation.
func TestEvaluateGolden(t *testing.T) {
	cases := goldenCases()
	if len(cases) < 200 {
		t.Fatalf("only %d golden cases", len(cases))
	}
	var b strings.Builder
	for _, c := range cases {
		b.WriteString(evaluateCase(t, c))
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "# ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("line %d (%s):\n got %s\nwant %s", i+1, section, gl[i], wl[i])
		}
	}
	t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
}

// TestEvaluateConcurrentMatchesSerial: the co-execution memo lives in
// the borrowed solver, never on the Model, so goroutines sharing one
// model (experiments.forEach, LabelWith) with pre-split noise streams
// get the serial results.
func TestEvaluateConcurrentMatchesSerial(t *testing.T) {
	serial := goldenCases()
	want := make([]string, len(serial))
	for i, c := range serial {
		want[i] = evaluateCase(t, c)
	}
	conc := goldenCases()
	got := make([]string, len(conc))
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(conc); i += workers {
				got[i] = evaluateCase(t, conc[i])
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: concurrent result differs from serial", serial[i].name)
		}
	}
}
