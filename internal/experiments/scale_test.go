package experiments

import (
	"reflect"
	"testing"
)

// scaleDecisionRows strips the wall-clock placements/s column, leaving
// only the deterministic decision columns.
func scaleDecisionRows(r *Report) [][]string {
	out := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row[:len(row)-1]
	}
	return out
}

// TestExtScalePlacerIdentity is the acceptance check at the experiment
// level: the same seed produces byte-identical decision rows at every
// placer count, the one-placer run being the serial reference.
func TestExtScalePlacerIdentity(t *testing.T) {
	run := func(placers int) [][]string {
		opt := tiny()
		opt.Servers = 256 // one rung keeps the matrix affordable
		opt.Placers = placers
		rep, err := ExtScale(nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		rows := scaleDecisionRows(rep)
		for _, row := range rows {
			row[2] = "-" // the placers column differs by construction
		}
		return rows
	}
	ref := run(1)
	if len(ref) == 0 {
		t.Fatal("empty report")
	}
	for _, placers := range []int{2, 8} {
		if got := run(placers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("placers=%d decisions diverged from placers=1:\n%v\nvs\n%v", placers, got, ref)
		}
	}
}

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
