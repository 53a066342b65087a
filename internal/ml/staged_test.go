package ml

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gsight/internal/wire"
)

// TestStagedUpdateMatchesUpdate: BeginUpdate, Run on another goroutine
// at any worker count and FinishUpdate grow the forest Update grows —
// through the first update of an unfitted forest (a Fit) and updates
// past the ring's wrap. The log-label case is core's
// TestLogKindStagedMatchesUpdate.
func TestStagedUpdateMatchesUpdate(t *testing.T) {
	X, y := synth(400, 8, 23, 0.2)
	cfg := ForestConfig{Trees: 10, Seed: 3, UpdateTrees: 4, Window: 260}
	inline, staged := NewForest(cfg), NewForest(cfg)
	for i, lo := 0, 0; lo < len(y); i, lo = i+1, lo+40 {
		bx, by := X[lo:lo+40], y[lo:lo+40]
		if err := inline.Update(bx, by); err != nil {
			t.Fatal(err)
		}
		u, err := staged.BeginUpdate(bx, by)
		if err != nil {
			t.Fatal(err)
		}
		go u.Run(1 + i%3)
		if err := staged.FinishUpdate(u); err != nil {
			t.Fatal(err)
		}
		if got, want := forestBytes(staged), forestBytes(inline); !bytes.Equal(got, want) {
			t.Fatalf("batch %d: staged forest differs from Update's", i)
		}
	}
	if inline.buf.head == 0 || len(inline.trees) != cfg.Trees {
		t.Fatalf("the window did not wrap or no update pruned (%d trees)", len(inline.trees))
	}
}

// TestStagedUpdateInFlight: until FinishUpdate the forest predicts with
// the trees it had, and a second update cannot begin.
func TestStagedUpdateInFlight(t *testing.T) {
	X, y := synth(200, 6, 5, 0.2)
	f := NewForest(ForestConfig{Trees: 6, Seed: 1, Window: 150})
	if err := f.Fit(X[:100], y[:100]); err != nil {
		t.Fatal(err)
	}
	before := f.Predict(X[0])
	u, err := f.BeginUpdate(X[100:150], y[100:150])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.BeginUpdate(X[150:], y[150:]); !errors.Is(err, ErrUpdateInFlight) {
		t.Fatalf("second BeginUpdate: err = %v, want ErrUpdateInFlight", err)
	}
	if err := NewForest(ForestConfig{}).FinishUpdate(u); err == nil {
		t.Fatal("another forest finished this update")
	}
	u.Run(0)
	if got := f.Predict(X[0]); got != before {
		t.Fatalf("prediction moved before FinishUpdate: %v -> %v", before, got)
	}
	if err := f.FinishUpdate(u); err != nil {
		t.Fatal(err)
	}
	if got := f.Predict(X[0]); got == before {
		t.Fatal("FinishUpdate installed nothing")
	}
	if _, err := f.BeginUpdate(X[150:], y[150:]); err != nil {
		t.Fatalf("BeginUpdate after FinishUpdate: %v", err)
	}
}

// TestForestUpdateCarriedByCheckpoint: a forest section captured
// between BeginUpdate and FinishUpdate plus the update's trees restore
// into a forest whose resumed update finishes to the same bytes, and
// the update section's rules hold.
func TestForestUpdateCarriedByCheckpoint(t *testing.T) {
	X, y := synth(300, 6, 9, 0.2)
	cfg := ForestConfig{Trees: 6, Seed: 2, UpdateTrees: 3, Window: 200}
	for _, fit := range []bool{true, false} {
		src := NewForest(cfg)
		if !fit {
			if err := src.Fit(X[:180], y[:180]); err != nil {
				t.Fatal(err)
			}
		}
		u, err := src.BeginUpdate(X[180:240], y[180:240])
		if err != nil {
			t.Fatal(err)
		}
		section := src.Capture().AppendTo(nil)
		go u.Run(2)
		trees := u.AppendTo(nil)
		if err := src.FinishUpdate(u); err != nil {
			t.Fatal(err)
		}

		read := func(trees []byte, batch int) (*Forest, *ForestUpdateDecoded, error) {
			dst := NewForest(cfg)
			r := wire.NewReader(append(append([]byte(nil), section...), trees...))
			fd := ReadForestState(r, dst.StateLimits(6))
			ud := ReadForestUpdate(r, fd, dst.StateLimits(6), batch)
			if err := r.Done(); err != nil {
				return nil, nil, err
			}
			dst.Install(fd)
			return dst, ud, nil
		}
		dst, ud, err := read(trees, 60)
		if err != nil {
			t.Fatalf("fit=%v: %v", fit, err)
		}
		if err := dst.FinishUpdate(dst.ResumeUpdate(ud)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(forestBytes(dst), forestBytes(src)) {
			t.Fatalf("fit=%v: the resumed update finished to a different forest", fit)
		}

		for _, c := range []struct {
			name  string
			trees []byte
			batch int
			want  string
		}{
			{"empty batch", trees, 0, "0-row batch"},
			{"batch over the window", trees, 241, "window holds"},
			{"one tree short", appendTrees(nil, nil), 60, "carries 0 trees"},
		} {
			if fit && c.name == "batch over the window" {
				c.batch, c.want = 59, "fit in flight"
			}
			if _, _, err := read(c.trees, c.batch); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("fit=%v, %s: err = %v, want %q", fit, c.name, err, c.want)
			}
		}
	}
}
