// Package experiments regenerates every table and figure of the
// paper's evaluation on the simulated testbed. Each experiment returns
// a Report — the same rows/series the paper plots — plus notes that put
// the measured values beside the paper's. `gsight experiments` and
// the repository-root benchmarks are thin wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"gsight/internal/core"
	"gsight/internal/scenario"
)

// Options scales experiment effort. Scale 1.0 reproduces the paper-size
// runs; smaller values shrink sample counts proportionally (tests and
// benches use ~0.2).
type Options struct {
	Seed  uint64
	Scale float64
	// Servers restricts ext-scale to one server-count rung (> 0); the
	// default runs the full 8/256/1k/10k ladder.
	Servers int
	// TopK restricts ext-twotier to one prune-depth rung (> 0); the
	// default sweeps K over 4/8/16/32/∞.
	TopK int
}

// n scales a full-size count, with a floor to keep experiments sound.
func (o Options) n(full, floor int) int {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return max(int(float64(full)*o.Scale), floor)
}

// Report is one regenerated table or figure.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes record paper-vs-measured comparisons and caveats.
	Notes []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a formatted note.
func (r *Report) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as aligned text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	writeRow(separators(widths))
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the report as a GitHub-flavoured markdown section.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	b.WriteString("| " + strings.Join(r.Columns, " | ") + " |\n")
	seps := make([]string, len(r.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range r.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = strings.ReplaceAll(c, "|", "\\|")
		}
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	if len(r.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "> %s\n>\n", n)
		}
	}
	return b.String()
}

func separators(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Runner is one experiment entry point. Cancelling ctx stops the
// experiment between units of work and surfaces ctx.Err().
type Runner func(ctx context.Context, opt Options) (*Report, error)

// Registry maps experiment ids (table1, fig3a, ...) to runners, in the
// paper's order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"table1", Table1Survey},
		{"table3", Table3Correlations},
		{"table4", Table4Testbed},
		{"fig3a", Fig3aVolatility},
		{"fig3b", Fig3bTemporal},
		{"fig4", Fig4Propagation},
		{"fig5", Fig5ProfilingLevel},
		{"fig7", Fig7Knee},
		{"fig8", Fig8Importance},
		{"fig9", Fig9PredictionError},
		{"fig10a", Fig10aConvergence},
		{"fig10b", Fig10bStability},
		{"fig10c", Fig10cMultiWorkload},
		{"fig11", Fig11Scheduling},
		{"fig12", Fig12SLA},
		{"fig13", Fig13Recovery},
		{"fig14", Fig14Overhead},
		// Extensions: the paper's §5.2 / §6.3 / §6.4 forward-looking
		// material, implemented and measured.
		{"ext-pca", ExtPCA},
		{"ext-coldstart", ExtColdStart},
		{"ext-isolation", ExtIsolation},
		{"ext-resilience", ExtResilience},
		{"ext-soak", ExtSoak},
		{"ext-scale", ExtScale},
		{"ext-twotier", ExtTwoTier},
	}
}

// Run executes the experiment with the given id. A nil ctx means
// context.Background().
func Run(ctx context.Context, id string, opt Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(ctx, opt)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists the registered experiment ids.
func IDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	return out
}

// bootstrap is the training set the platform and scale experiments
// schedule with: IPC labels of LS+SC colocations of two or three
// workloads, then JCT labels of SC+SC pairs, drawn from the lab's
// generator, and Gsight's predictor trained on them.
type bootstrap struct {
	ipc, jct []core.Observation
	gsight   *core.Predictor
}

// newBootstrap labels nIPC LS+SC and nJCT SC+SC colocations and trains
// Gsight's predictor on them.
func newBootstrap(ctx context.Context, opt Options, nIPC, nJCT int) (*bootstrap, error) {
	g := scenario.NewGenerator(scenario.Lab(), opt.Seed)
	b := &bootstrap{}
	var err error
	if b.ipc, err = CollectObs(ctx, g, core.LSSC, core.IPCQoS, nIPC, 3); err != nil {
		return nil, err
	}
	if b.jct, err = CollectObs(ctx, g, core.SCSC, core.JCTQoS, nJCT, 2); err != nil {
		return nil, err
	}
	if b.gsight, err = b.train(core.NewPredictor(core.Config{Seed: opt.Seed})); err != nil {
		return nil, err
	}
	return b, nil
}

// train fits p on the bootstrap's IPC and JCT labels and returns it.
func (b *bootstrap) train(p *core.Predictor) (*core.Predictor, error) {
	if err := p.TrainObservations(core.IPCQoS, b.ipc); err != nil {
		return nil, err
	}
	if err := p.TrainObservations(core.JCTQoS, b.jct); err != nil {
		return nil, err
	}
	return p, nil
}

// f2 formats a float with 2 decimals; f1/f0 likewise.
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// TrainTest splits observations into train/test by holding out every
// holdEvery-th item — deterministic and stratified over generation
// order.
func TrainTest(obs []core.Observation, holdEvery int) (train, test []core.Observation) {
	for i, o := range obs {
		if (i+1)%holdEvery == 0 {
			test = append(test, o)
		} else {
			train = append(train, o)
		}
	}
	return train, test
}

// mapeOf evaluates a predictor's mean relative error on observations.
func mapeOf(p core.QoSPredictor, kind core.QoSKind, obs []core.Observation) (float64, error) {
	errs, err := ErrsOf(p, kind, obs)
	if err != nil {
		return 0, err
	}
	if len(errs) == 0 {
		return 0, fmt.Errorf("experiments: no evaluable observations")
	}
	sum := 0.0
	for _, e := range errs {
		sum += e
	}
	return sum / float64(len(errs)), nil
}

// ErrsOf returns per-sample relative errors, through the predictor's
// batched path (bit-identical to per-query Predict).
func ErrsOf(p core.QoSPredictor, kind core.QoSKind, obs []core.Observation) ([]float64, error) {
	kept := make([]core.Observation, 0, len(obs))
	for _, o := range obs {
		if o.Label != 0 {
			kept = append(kept, o)
		}
	}
	if len(kept) == 0 {
		return nil, nil
	}
	preds := make([]float64, len(kept))
	queries := make([]core.Query, len(kept))
	for i, o := range kept {
		queries[i] = core.Query{Target: o.Target, Inputs: o.Inputs}
	}
	if err := p.PredictBatchInto(kind, queries, preds); err != nil {
		return nil, err
	}
	out := make([]float64, len(kept))
	for i, o := range kept {
		e := (preds[i] - o.Label) / o.Label
		if e < 0 {
			e = -e
		}
		out[i] = e
	}
	return out, nil
}

// CollectObs draws labeled observations of one QoS kind from randomized
// colocations. The colocations are drawn serially (Generator.Draws: the
// generator's RNG order is the determinism anchor); the expensive
// testbed evaluations then fan out over the worker pool and results are
// assembled in draw order, so the observation list is byte-identical to
// a sequential run.
func CollectObs(ctx context.Context, g *scenario.Generator, colocation core.ColocationKind, kind core.QoSKind, scenarios, maxWorkloads int) ([]core.Observation, error) {
	draws := g.Draws(colocation, scenarios, maxWorkloads)
	perScenario := make([][]core.Observation, scenarios)
	err := forEach(ctx, scenarios, func(i int) error {
		samples, err := g.LabelWith(draws[i].Scenario, draws[i].Noise)
		if err != nil {
			return err
		}
		for _, s := range samples {
			if s.Kind == kind {
				perScenario[i] = append(perScenario[i], core.Observation{Target: s.Target, Inputs: s.Inputs, Label: s.Label})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var obs []core.Observation
	for _, part := range perScenario {
		obs = append(obs, part...)
	}
	return obs, nil
}
