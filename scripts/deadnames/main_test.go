package main

import (
	"slices"
	"testing"
)

// TestFindCountsOnlyNonTestReferences runs the rule over
// testdata/mod: a module whose lib package declares one name per case,
// an examples/ program and a nested module that call into it, and test
// files in both modules.
func TestFindCountsOnlyNonTestReferences(t *testing.T) {
	dead, err := find("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	// TestOnly and Shape.Perimeter are reached from _test.go files only,
	// and Shape.Volume satisfies only an interface a test declares.
	// UsedByExample (examples/), UsedByNested (the nested module's
	// non-test file) and Shape.Area (through Areaer) are not reported.
	if want := []string{"TestOnly", "Shape.Perimeter", "Shape.Volume"}; !slices.Equal(got, want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
}

// TestFindFollowsLivenessTransitively runs the rule over
// testdata/chain: liveness starts at cmd/run's main, so a name only
// dead names reference is dead, and so is a cycle nothing live enters.
func TestFindFollowsLivenessTransitively(t *testing.T) {
	dead, err := find("testdata/chain")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	// Live (from main) and viaLive (from Live) are not reported.
	want := []string{"deadRoot", "onlyFromDead", "cycleA", "cycleB", "Grid", "Grid.Cells", "gridOfDead"}
	if !slices.Equal(got, want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
}
