package resources

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		CPU: "cpu", Memory: "memory", LLC: "llc",
		MemBW: "membw", Network: "network", Disk: "disk",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("invalid kind String = %q", got)
	}
}

func TestVectorArithmetic(t *testing.T) {
	v := Vector{1, 2, 3, 4, 5, 6}
	w := Vector{6, 5, 4, 3, 2, 1}
	sum := v.Add(w)
	for i := range sum {
		if sum[i] != 7 {
			t.Fatalf("Add[%d] = %v", i, sum[i])
		}
	}
	diff := v.Sub(w)
	want := Vector{-5, -3, -1, 1, 3, 5}
	if diff != want {
		t.Fatalf("Sub = %v", diff)
	}
	if got := v.Scale(2); got != (Vector{2, 4, 6, 8, 10, 12}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := v.Mul(w); got != (Vector{6, 10, 12, 12, 10, 6}) {
		t.Fatalf("Mul = %v", got)
	}
}

func TestVectorPredicates(t *testing.T) {
	var zero Vector
	if !zero.IsZero() {
		t.Fatal("zero vector should be zero")
	}
	v := Vector{1, 0, 0, 0, 0, 0}
	if v.IsZero() {
		t.Fatal("non-zero vector reported zero")
	}
	if got := (Vector{-1, 2, -3, 0, 0, 0}).Clamped(); got != (Vector{0, 2, 0, 0, 0, 0}) {
		t.Fatalf("Clamped = %v", got)
	}
}

func TestVectorAddSubInverseProperty(t *testing.T) {
	if err := quick.Check(func(a, b [6]float64) bool {
		v, w := Vector(a), Vector(b)
		got := v.Add(w).Sub(w)
		for i := range got {
			d := got[i] - v[i]
			if d > 1e-9 || d < -1e-9 {
				// allow NaN/Inf fuzz inputs to pass through
				if v[i] != v[i] || w[i] != w[i] {
					return true
				}
				abs := v[i]
				if abs < 0 {
					abs = -abs
				}
				if abs > 1e15 {
					return true // float cancellation on huge inputs
				}
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultTestbedMatchesTable4(t *testing.T) {
	tb := DefaultTestbed()
	if tb.NumServers() != 8 {
		t.Fatalf("testbed nodes = %d, want 8 (Table 4)", tb.NumServers())
	}
	s := tb.Servers[0]
	if s.Capacity[CPU] != 40 {
		t.Errorf("cores = %v, want 40", s.Capacity[CPU])
	}
	if s.Capacity[Memory] != 256 {
		t.Errorf("memory = %v GB, want 256", s.Capacity[Memory])
	}
	if s.Capacity[LLC] != 25 {
		t.Errorf("LLC = %v MB, want 25", s.Capacity[LLC])
	}
	if s.Sockets != 4 {
		t.Errorf("sockets = %d, want 4", s.Sockets)
	}
	if s.BaseFreqGHz != 2.0 {
		t.Errorf("base freq = %v, want 2.0", s.BaseFreqGHz)
	}
}

func TestVectorString(t *testing.T) {
	s := Vector{1, 2, 3, 4, 5, 6}.String()
	if s == "" || s[0] != '{' {
		t.Fatalf("String() = %q", s)
	}
}
