package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gsight/internal/serve"
	"gsight/internal/telemetry"
)

// logLine is the fields of a decision-log line the tests below check,
// decoded apart from the reader under test.
type logLine struct {
	Event, Archetype, Action, Kind string
	SimTimeS                       float64 `json:"sim_time_s"`
	ID, Seq                        int
	SLAChecks                      int `json:"sla_checks"`
}

// logLines returns a decision log's events after the header, decoded.
func logLines(t *testing.T, path string) []logLine {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []logLine
	for _, ln := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))[1:] {
		var ev logLine
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("decision-log line %q: %v", ln, err)
		}
		events = append(events, ev)
	}
	return events
}

// runSim runs `gsight sim` with args, fails the test unless it exits 0,
// and returns its stdout.
func runSim(t *testing.T, args ...string) string {
	t.Helper()
	return runMain(t, 0, append([]string{"sim", "-quiet"}, args...)...)
}

// runMain runs `gsight args…`, fails the test unless it exits with want,
// and returns its stdout.
func runMain(t *testing.T, want int, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	got := Main(args)
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("gsight %s exited %d, want %d; stdout:\n%s", strings.Join(args, " "), got, want, out)
	}
	return string(out)
}

// TestInspectTraceRendersLog: `gsight inspect trace` renders a chaos
// run's decision log as one strict-JSON Perfetto trace event per
// simulator event of the log, in log order, each event of the kind its
// log line names at the line's simulation time. The run logs every
// simulator event kind; the training steps and step samples it logs
// stay out of the trace.
func TestInspectTraceRendersLog(t *testing.T) {
	dir := t.TempDir()
	logPath, out := filepath.Join(dir, "decisions.jsonl"), filepath.Join(dir, "trace.json")
	runSim(t, "-hours", "24", "-train", "16", "-seed", "1", "-faults", "chaos", "-decision-log", logPath)
	if got := Main([]string{"inspect", "trace", "-o", out, logPath}); got != 0 {
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
	for _, ev := range logLines(t, logPath) {
		kind := ev.Event
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
			name = ev.Archetype + ev.Action + ev.Kind
		}
		if got.Name != name || got.Cat != want.cat || got.Ph != want.ph || got.Ts != ev.SimTimeS*1e6 {
			t.Fatalf("trace event %d is %+v, want %s/%s/%s at %vs for the log's %+v", i, got, name, want.cat, want.ph, ev.SimTimeS, ev)
		}
		if want.cat == "job" && got.ID != ev.ID {
			t.Fatalf("trace event %d has job id %d, the log's %s says %d", i, got.ID, kind, ev.ID)
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
		if ev.Event == "placement" {
			logged += float64(ev.SLAChecks)
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
	_, err := openLog(path, stepsWhole)
	want := fmt.Sprintf("schema 1 not supported (want %d)", telemetry.DecisionLogSchema)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), want) {
		t.Fatalf("opening a schema-1 log: %v", err)
	}
}

// TestInspectSummaryMatchesSim: the cluster line `gsight inspect
// summary` prints from a chaos run's step samples carries the mean
// density `gsight sim` printed, and `heat` renders one row per server.
func TestInspectSummaryMatchesSim(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "decisions.jsonl")
	report := runSim(t, "-hours", "2", "-train", "16", "-seed", "3", "-faults", "chaos", "-decision-log", logPath)
	simMean := regexp.MustCompile(`function density \(inst/core\): mean ([0-9.]+)`).FindStringSubmatch(report)
	if simMean == nil {
		t.Fatalf("no density line in the sim report:\n%s", report)
	}
	summary := runMain(t, 0, "inspect", "summary", logPath)
	logMean := regexp.MustCompile(`mean density ([0-9.]+)`).FindStringSubmatch(summary)
	if logMean == nil || logMean[1] != simMean[1] {
		t.Fatalf("inspect summary's mean density %v, gsight sim printed %s:\n%s", logMean, simMean[1], summary)
	}
	if !strings.Contains(summary, "steps: 240 over 8 servers, step 30s") {
		t.Errorf("summary's cluster line does not cover the run's 240 steps on 8 servers:\n%s", summary)
	}
	heat := runMain(t, 0, "inspect", "heat", logPath)
	if rows := regexp.MustCompile(`(?m)^ +[0-7] `).FindAllString(heat, -1); len(rows) != 8 {
		t.Errorf("heat renders %d server rows, want 8:\n%s", len(rows), heat)
	}
}

// TestInspectDaemonLog: a serving daemon's decisions.jsonl — WAL
// payloads, no schema header — is summarized by record kind, placement
// outcome and reason, applied observations and releases that found
// their instance; diff compares two of them; and the simulator's views
// refuse it by name.
func TestInspectDaemonLog(t *testing.T) {
	dir := t.TempDir()
	srv, err := serve.New(serve.Config{DataDir: dir, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	cl := serve.NewClient(hs.URL)
	ctx := context.Background()
	var names []string
	outcomes := map[string]int{}
	for i, w := range []string{"matmul", "dd", "matmul", "float-op"} {
		ack, err := cl.Place(ctx, serve.PlaceRequest{Workload: w, Order: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		outcomes[ack.Outcome]++
		names = append(names, ack.Name)
	}
	applied := 0
	oack, err := cl.Observe(ctx, serve.ObserveRequest{Name: names[0], QoS: "ipc", Value: 1.2, Order: 5})
	if err != nil {
		t.Fatal(err)
	}
	if oack.Applied {
		applied++
	}
	found := 0
	for i, name := range []string{names[1], "never-placed"} {
		rack, err := cl.Release(ctx, serve.ReleaseRequest{Name: name, Order: uint64(6 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if rack.Released {
			found++
		}
	}
	hs.Close()
	stopCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := srv.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "decisions.jsonl")

	summary := runMain(t, 0, "inspect", "summary", logPath)
	want := []string{"daemon log: 7 records, seq 1..7", "observe            1", "place              4", "release            2",
		fmt.Sprintf("observations applied: %d of 1", applied), fmt.Sprintf("releases that found their instance: %d of 2", found)}
	for outcome, n := range outcomes {
		want = append(want, fmt.Sprintf("  %-18s %d", outcome, n))
	}
	for _, w := range want {
		if !strings.Contains(summary, w) {
			t.Errorf("daemon summary lacks %q:\n%s", w, summary)
		}
	}
	if found != 1 {
		t.Errorf("%d releases found their instance, want 1", found)
	}

	runMain(t, 0, "inspect", "diff", logPath, logPath)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(t.TempDir(), "short.jsonl")
	if err := os.WriteFile(short, data[:bytes.LastIndexByte(data[:len(data)-1], '\n')+1], 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runMain(t, 1, "inspect", "diff", logPath, short); !strings.Contains(out, "diverge at event 6") {
		t.Errorf("diff of a log and its cut copy:\n%s", out)
	}
	refused := 0
	for _, v := range inspectVerbs() {
		switch v.name {
		case "predq", "errors", "heat", "trace":
			refused++
			err := v.run([]string{logPath})
			if err == nil || !strings.Contains(err.Error(), "serving daemon's log; "+v.name+" reads a simulator's") {
				t.Errorf("inspect %s on a daemon log: %v", v.name, err)
			}
		}
	}
	if refused != 4 {
		t.Fatalf("found %d of the four simulator views", refused)
	}
}

// TestInspectHeatRefusesMalformedSteps: heat refuses a step line whose
// per-server columns or server lists do not fit the cluster of the
// first step, naming the file, instead of indexing past it.
func TestInspectHeatRefusesMalformedSteps(t *testing.T) {
	header := fmt.Sprintf(`{"event":"header","seq":0,"schema":%d}`, telemetry.DecisionLogSchema) + "\n"
	first := `{"event":"step","seq":1,"step":1,"cpu_demand":[1,2],"mem_used":[1,2]}` + "\n"
	for _, bad := range []string{
		`{"event":"step","seq":2,"step":2,"down":[2],"cpu_demand":[1,2],"mem_used":[1,2]}`,
		`{"event":"step","seq":2,"step":2,"slow":[-1],"cpu_demand":[1,2],"mem_used":[1,2]}`,
		`{"event":"step","seq":2,"step":2,"cpu_demand":[1,2,3],"mem_used":[1,2]}`,
		// Another key order still reads as a step sample.
		`{"seq":2,"event":"step","step":2,"cpu_demand":[1,2],"mem_used":[1]}`,
	} {
		path := filepath.Join(t.TempDir(), "bad.jsonl")
		if err := os.WriteFile(path, []byte(header+first+bad+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := openLog(path, stepsWhole)
		if err != nil {
			t.Fatal(err)
		}
		err = cmdHeat(r)
		r.f.Close()
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("heat on %s: %v, want an error naming the file", bad, err)
		}
	}
}

// TestInspectDiffComparesSteps: diff compares the step samples too, so
// two logs that differ only in one server's column diverge, at that
// sample, and the report quotes both lines as written. Equality is of
// the decoded values: a line with its keys in another order is equal.
func TestInspectDiffComparesSteps(t *testing.T) {
	header := fmt.Sprintf(`{"event":"header","seq":0,"schema":%d}`, telemetry.DecisionLogSchema) + "\n"
	first := `{"event":"step","seq":1,"step":1,"cpu_demand":[1,2],"mem_used":[1,2]}` + "\n"
	dir := t.TempDir()
	var paths []string
	for i, second := range []string{
		`{"event":"step","seq":2,"step":2,"cpu_demand":[1,2],"mem_used":[1,2]}`,
		`{"event":"step","seq":2,"step":2,"cpu_demand":[1,2.5],"mem_used":[1,2]}`,
		`{"mem_used":[1,2],"seq":2,"cpu_demand":[1,2],"step":2,"event":"step"}`,
	} {
		path := filepath.Join(dir, fmt.Sprintf("%d.jsonl", i))
		if err := os.WriteFile(path, []byte(header+first+second+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	if out := runMain(t, 0, "inspect", "diff", paths[0], paths[0]); !strings.Contains(out, "identical: 2 events") {
		t.Errorf("diff of a log with itself:\n%s", out)
	}
	if out := runMain(t, 1, "inspect", "diff", paths[0], paths[1]); !strings.Contains(out, "diverge at step sample 1") ||
		!strings.Contains(out, `b: {"event":"step","seq":2,"step":2,"cpu_demand":[1,2.5],"mem_used":[1,2]}`) {
		t.Errorf("diff of logs differing in one step column:\n%s", out)
	}
	if out := runMain(t, 0, "inspect", "diff", paths[0], paths[2]); !strings.Contains(out, "identical: 2 events") {
		t.Errorf("diff of a log and its copy with one line's keys reordered:\n%s", out)
	}
}

// TestInspectReadsPastUnencodableEvent: an event holding a NaN writes
// no line and takes no sequence number, the log's stream keeps the
// error naming the event, and the log around it reads cleanly.
func TestInspectReadsPastUnencodableEvent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l := telemetry.NewDecisionLog(f)
	l.PredSample(&telemetry.PredSample{SimTimeS: 30, Archetype: "matmul", QoS: "jct", Pred: 40, Obs: 42})
	l.PredSample(&telemetry.PredSample{SimTimeS: 60, Archetype: "matmul", QoS: "jct", Pred: 40, Obs: math.NaN()})
	l.Reactive(&telemetry.ReactiveAction{SimTimeS: 90, Action: "spread-service", Service: "e-commerce", Moved: 1})
	if err := l.Stream().Flush(); err == nil || !strings.Contains(err.Error(), "PredSample") {
		t.Fatalf("the log's stream error is %v, want one naming the unwritten PredSample", err)
	}
	summary := runMain(t, 0, "inspect", "summary", path)
	for _, want := range []string{"decision log: 2 events", "  pred_sample        1", "  reactive           1"} {
		if !strings.Contains(summary, want) {
			t.Errorf("summary lacks %q:\n%s", want, summary)
		}
	}
	for i, ev := range logLines(t, path) {
		if ev.Seq != i+1 {
			t.Errorf("event %d (%s) has seq %d", i, ev.Event, ev.Seq)
		}
	}
}
