package ml

import (
	"bytes"
	"testing"
)

// forestBytes serializes f's live state: trees, window and RNG cursor.
func forestBytes(f *Forest) []byte { return f.Capture().AppendTo(nil) }

// TestForestParallelFitByteIdentical pins the central determinism claim
// of the parallel training path: every tree's bootstrap and split-RNG
// stream are drawn sequentially before the worker fan-out, and a
// column's ranks depend on the column alone, so the serialized forest
// must be byte-for-byte identical for every pool size — through the
// initial Fit and incremental Updates alike, including updates after the
// ring window has wrapped. Under `make race` this test also exercises
// the concurrent rank preparation and concurrent growth over the shared
// window view.
func TestForestParallelFitByteIdentical(t *testing.T) {
	X, y := synth(400, 8, 17, 0.2)
	build := func(workers int) *Forest {
		f := NewForest(ForestConfig{Trees: 12, Seed: 7, UpdateTrees: 4, Window: 260})
		learn := func(X [][]float64, y []float64) { // a Fit first, then Updates
			u, err := f.BeginUpdate(X, y)
			if err != nil {
				t.Fatal(err)
			}
			u.Run(workers)
			if err := f.FinishUpdate(u); err != nil {
				t.Fatal(err)
			}
		}
		learn(X[:220], y[:220])
		for lo := 220; lo < 400; lo += 30 {
			learn(X[lo:lo+30], y[lo:lo+30])
		}
		if f.buf.head == 0 {
			t.Fatal("window did not wrap")
		}
		return f
	}
	serial := forestBytes(build(1))
	for _, workers := range []int{2, 7} {
		if got := forestBytes(build(workers)); !bytes.Equal(got, serial) {
			t.Fatalf("workers=%d forest differs from serial (%d vs %d bytes)",
				workers, len(got), len(serial))
		}
	}
}

// TestWindowRing covers the ring buffer the forest trains from: logical
// order stays oldest-first across wrap, phys translates onto the seam,
// and capacity never grows.
func TestWindowRing(t *testing.T) {
	var w window
	w.reset(4)
	push := func(v float64) { w.push([]float64{v}, v) }
	logical := func() []float64 {
		out := make([]float64, w.Len())
		for i := range out {
			out[i] = w.y[w.phys(i)]
		}
		return out
	}
	eq := func(got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("len %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("logical view %v, want %v", got, want)
			}
		}
	}

	for v := 1.0; v <= 3; v++ {
		push(v)
	}
	eq(logical(), []float64{1, 2, 3}) // filling: no eviction yet
	push(4)
	push(5) // evicts 1
	push(6) // evicts 2
	eq(logical(), []float64{3, 4, 5, 6})
	if w.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", w.Len())
	}
	// x stays in lockstep with y through the wrap.
	for i := 0; i < w.Len(); i++ {
		if w.x[w.phys(i)][0] != logical()[i] {
			t.Fatalf("x/y desync at logical %d", i)
		}
	}
	// Ten more pushes wrap the head multiple times.
	for v := 7.0; v <= 16; v++ {
		push(v)
	}
	eq(logical(), []float64{13, 14, 15, 16})

	w.reset(2)
	if w.Len() != 0 {
		t.Fatalf("reset left %d samples", w.Len())
	}
	push(8)
	eq(logical(), []float64{8})
}

// TestForestWindowWrapDeterministic checks that training depends only
// on the window's logical contents, not on where the ring seam sits:
// growing trees from a wrapped window must match growing them from an
// unwrapped window holding the same trailing samples.
func TestForestWindowWrapDeterministic(t *testing.T) {
	X, y := synth(240, 6, 41, 0.2)
	const win = 200
	grow := func(pushFrom int) *Forest {
		f := NewForest(ForestConfig{Trees: 4, Seed: 13, Window: win})
		f.dim = 6
		for i := pushFrom; i < len(y); i++ {
			f.buf.push(X[i], y[i])
		}
		// Run's half of an update on the window as pushed.
		u := &ForestUpdate{f: f, done: make(chan struct{})}
		u.draw(4)
		u.Run(0)
		if u.err != nil {
			t.Fatal(u.err)
		}
		f.trees = u.trees
		f.fitted = true
		return f
	}
	fresh := grow(40)  // exactly win samples: seam at 0
	wrapped := grow(0) // 240 pushes into capacity 200: seam mid-buffer
	if wrapped.buf.head == 0 || fresh.buf.head != 0 {
		t.Fatalf("expected distinct seams, got head %d vs %d",
			wrapped.buf.head, fresh.buf.head)
	}
	if got, want := forestBytes(wrapped), forestBytes(fresh); !bytes.Equal(got, want) {
		t.Fatal("same logical window trained different forests")
	}
}

// BenchmarkWindowAbsorb measures absorbing a 20-sample batch into an
// already-full window — the steady-state cost of Forest.absorb. The ring
// makes it O(batch); the Dataset-append window it replaced re-copied all
// retained rows on every overflow.
func BenchmarkWindowAbsorb(b *testing.B) {
	absorb := windowAbsorbOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		absorb()
	}
}

// windowAbsorbOp returns BenchmarkWindowAbsorb's loop body, which
// TestWindowAbsorbAllocFree also runs: one 20-sample batch pushed into
// a full 12 000-row window.
func windowAbsorbOp() func() {
	const win, batch, dim = 12000, 20, 64
	row := make([]float64, dim)
	var w window
	w.reset(win)
	for i := 0; i < win; i++ {
		w.push(row, 1)
	}
	return func() {
		for j := 0; j < batch; j++ {
			w.push(row, 2)
		}
	}
}
