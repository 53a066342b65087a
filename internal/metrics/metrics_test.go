package metrics

import (
	"testing"
	"testing/quick"
)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	for id := ID(0); id < NumCandidates; id++ {
		name := id.String()
		if name == "" || seen[name] {
			t.Fatalf("metric %d has bad/duplicate name %q", id, name)
		}
		seen[name] = true
	}
	if ID(99).String() != "ID(99)" {
		t.Fatal("invalid id name")
	}
}

func TestSelectedIs16(t *testing.T) {
	sel := Selected()
	if len(sel) != NumSelected || NumSelected != 16 {
		t.Fatalf("selected = %d, want 16 (§3.2)", len(sel))
	}
	// The paper's screening drops |corr| < 0.1: MemLP, MemIO, TX.
	dropped := map[ID]bool{MemLP: true, MemIO: true, TX: true}
	for _, id := range sel {
		if dropped[id] {
			t.Fatalf("screened-out metric %v in selection", id)
		}
	}
	// DiskIO is retained (the Figure 8 uninformative input).
	found := false
	for _, id := range sel {
		if id == DiskIO {
			found = true
		}
	}
	if !found {
		t.Fatal("DiskIO missing from selection")
	}
	if len(sel)+len(dropped) != int(NumCandidates) {
		t.Fatalf("selection + dropped != candidates")
	}
}

func TestSelectExtractsInOrder(t *testing.T) {
	var v Vector
	for i := range v {
		v[i] = float64(i)
	}
	out := v.Select()
	for i, id := range Selected() {
		if out[i] != float64(id) {
			t.Fatalf("Select[%d] = %v, want %v", i, out[i], float64(id))
		}
	}
}

func TestVectorOps(t *testing.T) {
	var a, b Vector
	for i := range a {
		a[i] = 1
		b[i] = 2
	}
	sum := a.Add(b)
	for i := range sum {
		if sum[i] != 3 {
			t.Fatal("Add wrong")
		}
	}
	sc := a.Scale(5)
	for i := range sc {
		if sc[i] != 5 {
			t.Fatal("Scale wrong")
		}
	}
}

func TestMixWeights(t *testing.T) {
	var a, b Vector
	a[IPC] = 1
	b[IPC] = 3
	m := Mix([]Vector{a, b}, []float64{1, 1})
	if m[IPC] != 2 {
		t.Fatalf("equal-weight mix = %v, want 2", m[IPC])
	}
	m = Mix([]Vector{a, b}, []float64{3, 1})
	if m[IPC] != 1.5 {
		t.Fatalf("weighted mix = %v, want 1.5", m[IPC])
	}
	if z := Mix(nil, nil); z != (Vector{}) {
		t.Fatal("Mix(nil) should be zero")
	}
	if z := Mix([]Vector{a}, []float64{0}); z != (Vector{}) {
		t.Fatal("zero-weight mix should be zero")
	}
}

func TestMixSingleIsIdentityProperty(t *testing.T) {
	if err := quick.Check(func(vals [NumCandidates]float64, w float64) bool {
		if w <= 0 || w != w {
			w = 1
		}
		for _, x := range vals {
			if x != x { // NaN input
				return true
			}
		}
		v := Vector(vals)
		m := Mix([]Vector{v}, []float64{w})
		for i := range m {
			d := m[i] - v[i]
			if d > 1e-9 || d < -1e-9 {
				abs := v[i]
				if abs < 0 {
					abs = -abs
				}
				if abs > 1e12 {
					return true
				}
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
