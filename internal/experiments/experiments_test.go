package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// tiny returns the smallest options that keep experiments sound.
func tiny() Options { return Options{Seed: 42, Scale: 0.02} }

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table3", "table4",
		"fig3a", "fig3b", "fig4", "fig5", "fig7", "fig8", "fig9",
		"fig10a", "fig10b", "fig10c", "fig11", "fig12", "fig13", "fig14",
		"ext-pca", "ext-coldstart", "ext-isolation",
		"ext-resilience", "ext-soak", "ext-scale", "ext-twotier",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	set := map[string]bool{}
	for _, id := range got {
		set[id] = true
	}
	for _, id := range want {
		if !set[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run(nil, "fig99", tiny()); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestReportString(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Columns: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddNote("hello %d", 7)
	s := r.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("report output missing %q:\n%s", want, s)
		}
	}
}

func TestStaticExperiments(t *testing.T) {
	for _, id := range []string{"table1", "table4"} {
		rep, err := Run(nil, id, tiny())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			t.Fatalf("%s: empty report", id)
		}
	}
}

func TestTable1CoversAllClasses(t *testing.T) {
	rep, err := Table1Survey(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 classes", len(rep.Rows))
	}
}

func TestFig3bShape(t *testing.T) {
	rep, err := Fig3bTemporal(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 delay configs", len(rep.Rows))
	}
}

func TestFig4Shape(t *testing.T) {
	rep, err := Fig4Propagation(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 functions", len(rep.Rows))
	}
}

func TestFig3aShape(t *testing.T) {
	rep, err := Fig3aVolatility(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	// 1 solo row + 4 micro-benchmarks x 9 functions.
	if len(rep.Rows) != 1+36 {
		t.Fatalf("rows = %d, want 37", len(rep.Rows))
	}
}

func TestTable3Shape(t *testing.T) {
	rep, err := Table3Correlations(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 19 {
		t.Fatalf("rows = %d, want 19 candidate metrics", len(rep.Rows))
	}
	dropped := 0
	for _, row := range rep.Rows {
		if strings.Contains(row[3], "dropped") {
			dropped++
		}
	}
	if dropped != 3 {
		t.Fatalf("dropped = %d metrics, want 3 (16 kept)", dropped)
	}
}

func TestFig7Runs(t *testing.T) {
	rep, err := Fig7Knee(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 || len(rep.Notes) == 0 {
		t.Fatal("fig7 report empty")
	}
}

func TestFig8Shape(t *testing.T) {
	rep, err := Fig8Importance(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 16 {
		t.Fatalf("rows = %d, want 16 metrics", len(rep.Rows))
	}
}

func TestFig13Recovers(t *testing.T) {
	rep, err := Fig13Recovery(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 2 {
		t.Fatal("fig13 needs before/after rows")
	}
	first := rep.Rows[0][1]
	last := rep.Rows[len(rep.Rows)-1][1]
	fv := parsePct(t, first)
	lv := parsePct(t, last)
	if lv >= fv {
		t.Fatalf("error did not recover: %v -> %v", first, last)
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmtSscanf(s, &v); err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func fmtSscanf(s string, v *float64) (int, error) {
	return sscanf(s, v)
}

func TestFig14Runs(t *testing.T) {
	rep, err := Fig14Overhead(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 instance counts", len(rep.Rows))
	}
}

func TestSchedulingStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three platform simulations")
	}
	rep, err := Fig11Scheduling(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (3 schedulers x 4 metrics)", len(rep.Rows))
	}
	rep12, err := Fig12SLA(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep12.Rows) != 6 {
		t.Fatalf("fig12 rows = %d, want 6", len(rep12.Rows))
	}
}

func sscanf(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f%%", v)
}

func TestExtColdStartAwareWins(t *testing.T) {
	rep, err := ExtColdStart(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	aware := parsePct(t, rep.Rows[0][1])
	naive := parsePct(t, rep.Rows[1][1])
	if aware >= naive {
		t.Fatalf("startup-inclusive profiles (%v%%) should beat warm-only (%v%%)", aware, naive)
	}
}

func TestExtIsolationReactiveWins(t *testing.T) {
	rep, err := ExtIsolation(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rep.Rows))
	}
	shared := parsePct(t, rep.Rows[0][1])
	reactive := parsePct(t, rep.Rows[2][1])
	if reactive < shared {
		t.Fatalf("reactive isolation (%v%%) should not be below shared (%v%%)", reactive, shared)
	}
}

func TestExtSoakScalesVolume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three platform simulations")
	}
	rep, err := ExtSoak(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 variants", len(rep.Rows))
	}
	var base, scaled float64
	if _, err := fmt.Sscanf(rep.Rows[0][1], "%f", &base); err != nil {
		t.Fatalf("cannot parse baseline volume %q: %v", rep.Rows[0][1], err)
	}
	if _, err := fmt.Sscanf(rep.Rows[1][1], "%f", &scaled); err != nil {
		t.Fatalf("cannot parse scaled volume %q: %v", rep.Rows[1][1], err)
	}
	if scaled <= base {
		t.Fatalf("rate-scaled soak replays %vM inv/day, baseline %vM — scaling had no effect", scaled, base)
	}
}

func TestReportMarkdown(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	r.AddRow("1", "va|lue")
	r.AddNote("note %d", 3)
	md := r.Markdown()
	for _, want := range []string{"### x — t", "| a | b |", "va\\|lue", "> note 3"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}
