package experiments

import (
	"testing"

	"gsight/internal/core"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/sched"
)

// TestExtScaleLadder checks the default ladder covers 8 through 10k
// servers for all three schedulers.
func TestExtScaleLadder(t *testing.T) {
	rep, err := ExtScale(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4*3 {
		t.Fatalf("rows = %d, want 4 rungs x 3 schedulers", len(rep.Rows))
	}
	wantServers := []string{"8", "256", "1000", "10000"}
	for i, row := range rep.Rows {
		if row[0] != wantServers[i/3] {
			t.Fatalf("row %d: servers %s, want %s", i, row[0], wantServers[i/3])
		}
	}
}

// fixedPredictor answers every IPC query with 2 and every JCT query
// with 1 s, or every batch with err.
type fixedPredictor struct {
	core.QoSPredictor
	err error
}

func (f fixedPredictor) PredictBatchInto(kind core.QoSKind, _ []core.Query, out []float64) error {
	for i := range out {
		out[i] = 1
		if kind == core.IPCQoS {
			out[i] = 2
		}
	}
	return f.err
}

// TestScaleCapacityOnlySplit: a placement with an SLA whose decision
// holds no prediction counts as capacity-only, never as SLA-admit, and
// QoS-density leaves it out. Gsight over a predictor that answers
// every batch with core.ErrTooManyServers accepts the whole stream on
// capacity; over one that predicts, it vets the whole stream.
func TestScaleCapacityOnlySplit(t *testing.T) {
	l := &scaleLab{spec: resources.DefaultServerSpec("scale")}
	prnd := rng.Stream(1, "capacity-only")
	for _, wf := range scaleMix {
		w := wf()
		l.mix = append(l.mix, w)
		l.profs = append(l.profs, profile.WorkloadProfiles(w, l.spec, prnd.Split()))
	}
	reqs := l.requests(tiny(), 256, "split-%s-%d")
	for _, c := range []struct {
		pred         fixedPredictor
		vetted, capd float64
	}{
		{fixedPredictor{err: core.ErrTooManyServers}, 0, 1},
		{fixedPredictor{}, 1, 0},
	} {
		got := l.run(256, reqs, sched.NewGsight(c.pred))
		if got.placed != len(reqs) || got.slaFrac != c.vetted || got.capFrac != c.capd {
			t.Fatalf("err %v: placed %d/%d, SLA-admit %.2f, capacity-only %.2f; want all placed, %.0f and %.0f",
				c.pred.err, got.placed, len(reqs), got.slaFrac, got.capFrac, c.vetted, c.capd)
		}
	}
}
