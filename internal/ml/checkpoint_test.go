package ml

import (
	"math"
	"strings"
	"testing"

	"gsight/internal/rng"
	"gsight/internal/wire"
)

// restoreForest reads one forest section under f's limits and installs
// it, the way core.Predictor.RestoreCheckpoint does per QoS kind.
func restoreForest(f *Forest, data []byte, dim int) error {
	r := wire.NewReader(data)
	d := ReadForestState(r, f.StateLimits(dim))
	if err := r.Done(); err != nil {
		return err
	}
	f.Install(d)
	return nil
}

func ckptForestData(seed uint64, n int) ([][]float64, []float64) {
	r := rng.New(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := []float64{r.Range(0, 10), r.Range(0, 5), r.Range(-1, 1)}
		X[i] = x
		y[i] = 2*x[0] - x[1] + 0.5*x[2] + r.Range(-0.1, 0.1)
	}
	return X, y
}

// TestForestStateRoundTrip: restoring a captured section into a
// same-configured forest must make every subsequent update and
// prediction byte-identical to the original's — including updates that
// draw from the restored RNG cursor and window.
func TestForestStateRoundTrip(t *testing.T) {
	cfg := ForestConfig{Trees: 6, Seed: 9, Window: 64}
	a := NewForest(cfg)
	X, y := ckptForestData(1, 120)
	if err := a.Fit(X[:80], y[:80]); err != nil {
		t.Fatal(err)
	}
	if err := a.Update(X[80:100], y[80:100]); err != nil {
		t.Fatal(err)
	}

	b := NewForest(cfg)
	state := a.Capture().AppendTo(nil)
	if err := restoreForest(b, state, 3); err != nil {
		t.Fatal(err)
	}
	if again := b.Capture().AppendTo(nil); string(again) != string(state) {
		t.Fatal("restored forest re-encodes to different bytes")
	}
	if d := ReadForestState(wire.NewReader(state), nil); d.Trees != 6 || d.WindowRows != 64 || d.Dim != 3 || !d.Fitted {
		t.Fatalf("limit-free read reports %+v", d)
	}
	for i, x := range X {
		pa, pb := a.Predict(x), b.Predict(x)
		if pa != pb {
			t.Fatalf("restored prediction %d: %v != %v", i, pb, pa)
		}
	}
	// Continue the incremental stream on both: the RNG cursor and window
	// seam must have carried over exactly.
	if err := a.Update(X[100:], y[100:]); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(X[100:], y[100:]); err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		pa, pb := a.Predict(x), b.Predict(x)
		if pa != pb {
			t.Fatalf("post-update prediction %d: %v != %v", i, pb, pa)
		}
	}
}

// TestForestRestoreRejectsCorruptState: structural and numeric
// corruption must be rejected, with the reason, before any state is
// applied.
func TestForestRestoreRejectsCorruptState(t *testing.T) {
	cfg := ForestConfig{Trees: 4, Seed: 3, Window: 32}
	src := NewForest(cfg)
	X, y := ckptForestData(2, 40)
	if err := src.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*ForestCapture)
		want   string
	}{
		{"zero rng", func(c *ForestCapture) { c.rng = [4]uint64{} }, "all-zero state"},
		{"window overflow", func(c *ForestCapture) {
			for len(c.windowY) <= cfg.Window {
				c.windowX = append(c.windowX, c.windowX[0])
				c.windowY = append(c.windowY, c.windowY[0])
			}
		}, "exceeds configured capacity"},
		{"too many trees", func(c *ForestCapture) { c.trees = append(c.trees, c.trees[0]) }, "configured max"},
		{"wrong dim", func(c *ForestCapture) { c.dim = 4 }, "forest dim 4, want 3"},
		{"tree dim", func(c *ForestCapture) { c.trees[0] = &Tree{dim: 2, nodes: c.trees[0].nodes} }, "tree dim 2"},
		{"long row", func(c *ForestCapture) { c.windowX[0] = []float64{0, 0, 0, 0, 1} }, "past the row end"},
		{"nan label", func(c *ForestCapture) { c.windowY[0] = math.NaN() }, "non-finite"},
		{"inf feature", func(c *ForestCapture) { c.windowX[0] = []float64{math.Inf(1), 0, 0} }, "non-finite"},
		{"nan threshold", func(c *ForestCapture) {
			c.trees[0] = &Tree{dim: 3, nodes: []treeNode{{feature: -1, thresh: math.NaN()}}}
		}, "non-finite"},
		{"fitted without trees", func(c *ForestCapture) { c.trees = nil }, "no trees"},
		{"empty tree", func(c *ForestCapture) { c.trees[0] = &Tree{dim: 3} }, "no nodes"},
		{"feature beyond dim", func(c *ForestCapture) {
			c.trees[0] = &Tree{dim: 3, nodes: []treeNode{{feature: 3, left: 1, right: 2}, {feature: -1}, {feature: -1}}}
		}, "outside dim"},
		{"child before parent", func(c *ForestCapture) {
			c.trees[0] = &Tree{dim: 3, nodes: []treeNode{{feature: 0, left: 0, right: 1}, {feature: -1}}}
		}, "child out of range"},
		{"child past the end", func(c *ForestCapture) {
			c.trees[0] = &Tree{dim: 3, nodes: []treeNode{{feature: 0, left: 1, right: 2}, {feature: -1}}}
		}, "child out of range"},
	}
	for _, tc := range cases {
		c := src.Capture()
		tc.mutate(&c)
		dst := NewForest(cfg)
		err := restoreForest(dst, c.AppendTo(nil), 3)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
		if dst.fitted || dst.buf.Len() != 0 {
			t.Errorf("%s: rejected state was applied", tc.name)
		}
	}
	good := src.Capture().AppendTo(nil)
	for _, n := range []int{0, 3, 5, 37, 41, len(good) / 2, len(good) - 1} {
		if err := restoreForest(NewForest(cfg), good[:n], 3); err == nil {
			t.Errorf("section truncated to %d of %d bytes accepted", n, len(good))
		}
	}
	if err := restoreForest(NewForest(cfg), append(good[:len(good):len(good)], 0), 3); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: got %v", err)
	}
}

// TestReadForestRejectsJunk: the limit-free reader — what gsight-inspect
// runs over a snapshot it has no predictor for — rejects what is not a
// forest section as firmly as the restoring reader does: foreign bytes,
// a section cut short, and a structurally complete one whose tree points
// outside itself.
func TestReadForestRejectsJunk(t *testing.T) {
	src := NewForest(ForestConfig{Trees: 2, Seed: 5, Window: 16})
	X, y := ckptForestData(3, 16)
	if err := src.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	good := src.Capture().AppendTo(nil)
	if r := wire.NewReader(good); ReadForestState(r, nil) == nil || r.Done() != nil {
		t.Fatalf("a good section is refused: %v", r.Err())
	}
	bad := src.Capture()
	bad.trees[0] = &Tree{dim: 3, nodes: []treeNode{{feature: 0, left: 9, right: 1}, {feature: -1}}}
	for name, data := range map[string][]byte{
		"junk":           []byte("junk"),
		"empty":          nil,
		"cut short":      good[:len(good)-9],
		"child past end": bad.AppendTo(nil),
	} {
		r := wire.NewReader(data)
		ReadForestState(r, nil)
		if r.Done() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
