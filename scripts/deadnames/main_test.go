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
