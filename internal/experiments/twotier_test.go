package experiments

import (
	"reflect"
	"testing"
)

// twotierDecisionRows strips the wall-clock columns (placements/s and
// speedup), leaving only the deterministic decision columns.
func twotierDecisionRows(r *Report) [][]string {
	out := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row[:len(row)-2]
	}
	return out
}

// TestExtTwoTierSweep checks the default prune-depth sweep shape: the
// K=∞ baseline row comes first per rung, and only pruned rows carry
// delta columns.
func TestExtTwoTierSweep(t *testing.T) {
	opt := tiny()
	opt.Servers = 256 // one rung keeps the sweep affordable
	rep, err := ExtTwoTier(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantK := []string{"∞", "4", "8", "16", "32"}
	if len(rep.Rows) != len(wantK) {
		t.Fatalf("rows = %d, want %d prune depths", len(rep.Rows), len(wantK))
	}
	for i, row := range rep.Rows {
		if row[1] != wantK[i] {
			t.Fatalf("row %d: topk %s, want %s", i, row[1], wantK[i])
		}
		isBase := wantK[i] == "∞"
		if (row[7] == "-") != isBase || (row[9] == "-") != isBase {
			t.Fatalf("row %d (K=%s): delta columns %q/%q mismatch baseline=%v",
				i, wantK[i], row[7], row[9], isBase)
		}
	}
}

// TestExtTwoTierDeterminism re-runs the sweep with the same seed and
// requires byte-identical decision rows — pruning must not introduce
// any wall-clock or iteration-order dependence into placements.
func TestExtTwoTierDeterminism(t *testing.T) {
	run := func() [][]string {
		opt := tiny()
		opt.Servers = 256
		rep, err := ExtTwoTier(nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		return twotierDecisionRows(rep)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs diverged:\n%v\nvs\n%v", a, b)
	}
}

// TestExtTwoTierSingleRung honors Options.TopK by running only the K=∞
// baseline plus the requested prune depth.
func TestExtTwoTierSingleRung(t *testing.T) {
	opt := tiny()
	opt.Servers = 256
	opt.TopK = 8
	rep, err := ExtTwoTier(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 || rep.Rows[0][1] != "∞" || rep.Rows[1][1] != "8" {
		t.Fatalf("TopK=8 rows = %v, want [∞, 8]", rep.Rows)
	}
}
