package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"gsight/internal/core"
	"gsight/internal/faults"
	"gsight/internal/sched"
	"gsight/internal/telemetry"
)

// A run is a pure function of its config and seed, so running it again
// is its recovery: these tests pin that a rerun reproduces every output
// — stats and decision log — byte for byte.

// learningChaosConfig is the chaos fault scenario under the Gsight
// scheduler with a real predictor learning online: every input a rerun
// must reproduce. A 4 h run feeds the learner fewer than 100
// observations (one per service every observeEvery steps, paused in
// predictor outages), so a small update batch makes the forest train
// mid-run and later placements go through the trained predictor.
func learningChaosConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	pred := core.NewPredictor(core.Config{Seed: seed, UpdateEvery: 16})
	cfg := chaosConfig(t, sched.NewGsight(pred), seed)
	cfg.Predictor = pred
	return cfg
}

// chaosConfig is a 4 h run of the chaos fault scenario under s.
func chaosConfig(t *testing.T, s sched.Scheduler, seed uint64) Config {
	t.Helper()
	cfg := shortConfig(s, seed)
	cfg.DurationS = 4 * 3600
	chaos, err := faults.Scenario("chaos", seed, cfg.DurationS, cfg.Model.Testbed.NumServers())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = chaos
	return cfg
}

// outputs is what one run wrote: its stats (wall-clock field zeroed),
// metrics and decision log.
type outputs struct {
	stats []byte
	st    *Stats
	sink  *telemetry.Sink
	log   bytes.Buffer
}

// run executes cfg with fresh output streams attached. The scheduler
// logs its placements and the predictor its training steps into the
// same decision log, as under `gsight sim`.
func (o *outputs) run(t *testing.T, ctx context.Context, cfg Config) error {
	t.Helper()
	o.sink = telemetry.New().WithDecisions(&o.log)
	cfg.Telemetry = o.sink
	if in, ok := cfg.Scheduler.(interface{ Instrument(*telemetry.Sink) }); ok {
		in.Instrument(cfg.Telemetry)
	}
	if p, ok := cfg.Predictor.(*core.Predictor); ok {
		p.Instrument(cfg.Telemetry)
	}
	st, err := Run(ctx, cfg)
	if err != nil {
		return err
	}
	if st.FaultEvents == 0 {
		t.Fatal("the chaos scenario injected no faults")
	}
	c := *st
	c.SchedulingTime = 0
	o.st = &c
	if o.stats, err = json.Marshal(&c); err != nil {
		t.Fatal(err)
	}
	return nil
}

// learned fails the test unless the predictor trained during the run
// and some placements went through it rather than the fallback.
func (o *outputs) learned(t *testing.T) {
	t.Helper()
	if !bytes.Contains(o.log.Bytes(), []byte(`"predictor_update"`)) {
		t.Fatal("the predictor never trained: no predictor_update event in the decision log")
	}
	if o.st.DegradedPlacements >= o.st.Placements {
		t.Fatalf("all %d placements went through the fallback; none used the trained predictor", o.st.Placements)
	}
}

// same fails the test unless o and want hold identical stats and
// identical decision logs. A failure shows where the runs part: the
// first differing stats field, or the first differing line.
func (o *outputs) same(t *testing.T, want *outputs) {
	t.Helper()
	if !bytes.Equal(want.stats, o.stats) {
		t.Fatalf("stats diverged: %s", statsDiff(want.st, o.st))
	}
	if want.log.Len() == 0 {
		t.Fatal("decision log is empty")
	}
	if !bytes.Equal(want.log.Bytes(), o.log.Bytes()) {
		t.Fatalf("decision log diverged (want %d bytes, got %d) at %s", want.log.Len(), o.log.Len(), lineDiff(want.log.Bytes(), o.log.Bytes()))
	}
}

// statsDiff names the first Stats field, in declaration order, whose
// JSON differs, down to the first differing element or key within it,
// with both values.
func statsDiff(want, got *Stats) string {
	w, g := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	for i := 0; i < w.NumField(); i++ {
		wj, _ := json.Marshal(w.Field(i).Interface())
		gj, _ := json.Marshal(g.Field(i).Interface())
		if !bytes.Equal(wj, gj) {
			return jsonDiff(w.Type().Field(i).Name, wj, gj)
		}
	}
	return "no field differs"
}

// jsonDiff descends two differing JSON values along their first
// difference: into a list's first differing element, an object's first
// differing key (in sorted order), and prints both values where the
// descent ends.
func jsonDiff(path string, want, got json.RawMessage) string {
	var wl, gl []json.RawMessage
	if json.Unmarshal(want, &wl) == nil && json.Unmarshal(got, &gl) == nil {
		for i := range min(len(wl), len(gl)) {
			if !bytes.Equal(wl[i], gl[i]) {
				return jsonDiff(fmt.Sprintf("%s[%d]", path, i), wl[i], gl[i])
			}
		}
		return fmt.Sprintf("%s: want %d elements, got %d", path, len(wl), len(gl))
	}
	var wm, gm map[string]json.RawMessage
	if json.Unmarshal(want, &wm) == nil && json.Unmarshal(got, &gm) == nil {
		var keys []string
		for k := range wm {
			keys = append(keys, k)
		}
		for k := range gm {
			if _, ok := wm[k]; !ok {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		for _, k := range keys {
			if !bytes.Equal(wm[k], gm[k]) {
				return jsonDiff(fmt.Sprintf("%s[%q]", path, k), wm[k], gm[k])
			}
		}
	}
	return fmt.Sprintf("%s: want %s, got %s", path, want, got)
}

// lineDiff reports the first line at which two streams differ: its
// number and both lines (empty past a stream's end), quoted unless they
// are printable text.
func lineDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte{'\n'}), bytes.Split(got, []byte{'\n'})
	i := 0
	for i < len(wl) && i < len(gl) && bytes.Equal(wl[i], gl[i]) {
		i++
	}
	line := func(ls [][]byte) string {
		var s string
		if i < len(ls) {
			s = string(ls[i])
		}
		if strconv.CanBackquote(s) {
			return s
		}
		return strconv.Quote(s)
	}
	return fmt.Sprintf("line %d:\nwant %s\ngot  %s", i+1, line(wl), line(gl))
}

// TestChaosLearningRunByteIdentical: two runs of the chaos scenario
// with an online-learning predictor write the same stats and the same
// decision log.
func TestChaosLearningRunByteIdentical(t *testing.T) {
	const seed = 7
	var a, b outputs
	if err := a.run(t, context.Background(), learningChaosConfig(t, seed)); err != nil {
		t.Fatal(err)
	}
	a.learned(t)
	if err := b.run(t, context.Background(), learningChaosConfig(t, seed)); err != nil {
		t.Fatal(err)
	}
	b.same(t, &a)
}

// cancelAfter wraps a scheduler and cancels a context after n Place
// calls — a kill landing at an arbitrary scheduling decision, not at a
// fault event or step boundary.
type cancelAfter struct {
	sched.Scheduler
	cancel context.CancelFunc
	n      int
}

func (c *cancelAfter) Place(st *sched.State, req *sched.Request) ([]int, error) {
	c.n--
	if c.n == 0 {
		c.cancel()
	}
	return c.Scheduler.Place(st, req)
}

// TestCancelMidRunThenRerunByteIdentical: a run cancelled mid-decision
// returns context.Canceled, and running the same config again from
// scratch reproduces the uninterrupted run exactly.
func TestCancelMidRunThenRerunByteIdentical(t *testing.T) {
	const seed = 23
	var base outputs
	if err := base.run(t, context.Background(), learningChaosConfig(t, seed)); err != nil {
		t.Fatal(err)
	}
	base.learned(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := learningChaosConfig(t, seed)
	killed.Scheduler = &cancelAfter{Scheduler: killed.Scheduler, cancel: cancel, n: 10}
	var partial outputs
	if err := partial.run(t, ctx, killed); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	var rerun outputs
	if err := rerun.run(t, context.Background(), learningChaosConfig(t, seed)); err != nil {
		t.Fatal(err)
	}
	rerun.same(t, &base)
}
