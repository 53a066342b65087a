package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// logLines returns a decision log's events after the header, decoded.
func logLines(t *testing.T, path string) []map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	for _, ln := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))[1:] {
		var ev map[string]any
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("decision-log line %q: %v", ln, err)
		}
		events = append(events, ev)
	}
	return events
}

// runSim runs `gsight sim` with args and fails the test unless it exits 0.
func runSim(t *testing.T, args ...string) {
	t.Helper()
	args = append([]string{"sim", "-quiet"}, args...)
	if got := Main(args); got != 0 {
		t.Fatalf("gsight %s exited %d, want 0", strings.Join(args, " "), got)
	}
}

// TestInspectTraceRendersLog: `gsight inspect trace` renders a chaos
// run's decision log as one strict-JSON Perfetto trace event per
// simulator event of the log, in log order, each event of the kind its
// log line names at the line's simulation time. The run logs every
// simulator event kind; the training steps it logs stay out of the
// trace.
func TestInspectTraceRendersLog(t *testing.T) {
	dir := t.TempDir()
	rec, out := filepath.Join(dir, "rec"), filepath.Join(dir, "trace.json")
	runSim(t, "-hours", "24", "-train", "16", "-seed", "1", "-faults", "chaos", "-record", rec)
	if got := Main([]string{"inspect", "trace", "-o", out, rec}); got != 0 {
		t.Fatalf("gsight inspect trace exited %d, want 0", got)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var trace []struct {
		Name, Cat, Ph string
		Ts            float64
		ID            int
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("the rendered trace is not strict JSON: %v", err)
	}
	if len(trace) < 2 || trace[0].Ph != "M" || trace[1].Name != "gsight_trace" {
		t.Fatalf("the rendered trace does not open with its two metadata events: %+v", trace[:min(len(trace), 2)])
	}
	trace = trace[2:]
	// The trace event each simulator log event renders as: name (""
	// when the log line names it), category and phase.
	kinds := map[string]struct{ name, cat, ph string }{
		"placement":       {"placement", "sched", "i"},
		"job_begin":       {"", "job", "b"},
		"job_end":         {"", "job", "e"},
		"reactive":        {"", "reactive", "i"},
		"fault":           {"", "fault", "i"},
		"degraded":        {"degraded", "fault", "i"},
		"pred_sample":     {"sample", "predq", "i"},
		"predictor_drift": {"predictor_drift", "predq", "i"},
	}
	seen := map[string]int{}
	i := 0
	for _, ev := range logLines(t, filepath.Join(rec, "decisions.jsonl")) {
		kind := ev["event"].(string)
		want, ok := kinds[kind]
		if !ok {
			continue
		}
		seen[kind]++
		if i == len(trace) {
			t.Fatalf("the trace ends before log event %d (%s)", i, kind)
		}
		got := trace[i]
		name := want.name
		if name == "" {
			name = str(ev["archetype"]) + str(ev["action"]) + str(ev["kind"])
		}
		if got.Name != name || got.Cat != want.cat || got.Ph != want.ph || got.Ts != num(ev["sim_time_s"])*1e6 {
			t.Fatalf("trace event %d is %+v, want %s/%s/%s at %vs for the log's %v", i, got, name, want.cat, want.ph, ev["sim_time_s"], ev)
		}
		if want.cat == "job" && got.ID != int(num(ev["id"])) {
			t.Fatalf("trace event %d has job id %d, the log's %s says %v", i, got.ID, kind, ev["id"])
		}
		i++
	}
	if i != len(trace) {
		t.Fatalf("the trace holds %d events, the log %d simulator events", len(trace), i)
	}
	for kind := range kinds {
		if seen[kind] == 0 {
			t.Errorf("the run logged no %s event; the test does not cover it", kind)
		}
	}
}

// TestSimLogCountsWholeSearch: a 16-server chaos run with two-tier
// pruning widens the placement window and falls back from a primary
// attempt, and its placement lines still sum to the SLA checks the
// schedulers' own histograms counted.
func TestSimLogCountsWholeSearch(t *testing.T) {
	dir := t.TempDir()
	logPath, reportPath := filepath.Join(dir, "decisions.jsonl"), filepath.Join(dir, "report.json")
	runSim(t, "-hours", "2", "-train", "64", "-seed", "7", "-faults", "chaos", "-servers", "16", "-topk", "4",
		"-decision-log", logPath, "-report", reportPath)
	logged := 0.0
	for _, ev := range logLines(t, logPath) {
		if ev["event"] == "placement" {
			logged += num(ev["sla_checks"])
		}
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Metrics struct {
			Histograms map[string]struct{ Sum float64 }
		}
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	checks := regexp.MustCompile(`^sched_.*_sla_checks$`)
	counted := 0.0
	for name, h := range report.Metrics.Histograms {
		if checks.MatchString(name) {
			counted += h.Sum
		}
	}
	if logged == 0 || logged != counted {
		t.Fatalf("placement lines sum %.0f SLA checks, the schedulers counted %.0f", logged, counted)
	}
}

// TestInspectRefusesOtherLogSchema: a decision log in another schema —
// a schema-1 log from before the simulator's lifecycle events — is
// refused with an error naming the file and both schemas.
func TestInspectRefusesOtherLogSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.jsonl")
	old := `{"event":"header","seq":0,"schema":1}` + "\n" + `{"event":"reactive","seq":1,"sim_time_s":30,"action":"spread-service","service":"s","moved":1}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := openRecording(path)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "schema 1 not supported (want 2)") {
		t.Fatalf("opening a schema-1 log: %v", err)
	}
}
