package cli

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gsight/internal/obs"
	"gsight/internal/telemetry"
)

// inspectVerb is one `gsight inspect` verb.
type inspectVerb struct {
	name, args, summary string
	run                 func(args []string) error
}

// inspectVerbs is the table `gsight inspect` dispatches on and prints
// as its usage.
func inspectVerbs() []inspectVerb {
	return []inspectVerb{
		{"summary", "<recording>", "run overview: decisions, jobs, SLA misses", withRecording(cmdSummary)},
		{"predq", "<recording>", "prediction quality: per-archetype MAPE, drift", withRecording(cmdPredq)},
		{"errors", "<recording>", "prediction error over time", withRecording(cmdErrors)},
		{"heat", "<recording>", "per-server utilization from the flight recording", withRecording(cmdHeat)},
		{"trace", "[-o out.json] <recording>", "export a strict {\"traceEvents\":[...]} JSON file", cmdTrace},
		{"diff", "<a> <b>", "compare two recordings, locate first divergence", cmdDiff},
		{"snapshot", "<file|dir>", "a checkpoint's envelope, controller state and predictor summary", cmdSnapshot},
	}
}

// bindInspect is `gsight inspect <verb>`: it reads the observability
// artifacts the other sub-commands produce — decision logs
// (-decision-log), lifecycle traces (-trace) and flight recordings
// (sim -record) — and answers questions about a run offline: what was
// scheduled where, how good the predictor was, which functions missed
// their SLA, how hot each server ran.
//
// <recording> is a -record directory (trace.json + flight.bin inside),
// or a single artifact file: a trace, a flight recording, or a JSONL
// decision log — the tool sniffs which. Every reader checks the
// format's schema version and rejects streams written by a newer,
// incompatible gsight rather than misparsing them. A torn final record
// — possible when a run was killed before its flush — is dropped.
func bindInspect(fs *flag.FlagSet) func([]string) error {
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s <verb> [args]\n\nverbs:\n", fs.Name())
		for _, v := range inspectVerbs() {
			fmt.Fprintf(fs.Output(), "  %-8s %-26s %s\n", v.name, v.args, v.summary)
		}
	}
	return func(args []string) error {
		if len(args) > 0 {
			for _, v := range inspectVerbs() {
				if v.name == args[0] {
					return v.run(args[1:])
				}
			}
		}
		fs.Usage()
		return &exitError{code: 2}
	}
}

// recording is one run's artifacts, any subset of which may be present.
type recording struct {
	path   string
	trace  []traceEvent
	flight *obs.FlightData
	log    []map[string]interface{}
}

// openRecording resolves path — a -record directory or a single
// artifact file — and loads whatever streams it holds.
func openRecording(path string) (*recording, error) {
	rec := &recording{path: path}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		loaded := false
		if tr := filepath.Join(path, "trace.json"); fileExists(tr) {
			if rec.trace, err = readTrace(tr); err != nil {
				return nil, err
			}
			loaded = true
		}
		if fl := filepath.Join(path, "flight.bin"); fileExists(fl) {
			if rec.flight, err = readFlightFile(fl); err != nil {
				return nil, err
			}
			loaded = true
		}
		if !loaded {
			return nil, fmt.Errorf("%s: no trace.json or flight.bin inside", path)
		}
		return rec, nil
	}
	switch kind, err := sniff(path); {
	case err != nil:
		return nil, err
	case kind == "flight":
		rec.flight, err = readFlightFile(path)
		return rec, err
	case kind == "trace":
		rec.trace, err = readTrace(path)
		return rec, err
	default:
		rec.log, err = readDecisionLog(path)
		return rec, err
	}
}

// withRecording runs fn on the single recording argument.
func withRecording(fn func(*recording) error) func(args []string) error {
	return func(args []string) error {
		if len(args) != 1 {
			return fmt.Errorf("expected exactly one recording path, got %d args", len(args))
		}
		rec, err := openRecording(args[0])
		if err != nil {
			return err
		}
		return fn(rec)
	}
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}

// sniff classifies a single artifact file by its first bytes.
func sniff(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	head := make([]byte, 4)
	n, _ := f.Read(head)
	head = head[:n]
	switch {
	case bytes.HasPrefix(head, []byte("GFR")):
		return "flight", nil
	case bytes.HasPrefix(head, []byte("[")):
		return "trace", nil
	case bytes.HasPrefix(head, []byte("{")):
		return "log", nil
	default:
		return "", fmt.Errorf("%s: not a gsight recording (unrecognized header)", path)
	}
}

// traceEvent is one decoded Chrome trace-event line.
type traceEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"` // microseconds of simulated time
	ID   int                    `json:"id"`
	Args map[string]interface{} `json:"args"`
}

// simS returns the event time in simulated seconds.
func (e *traceEvent) simS() float64 { return e.Ts / 1e6 }

func (e *traceEvent) argStr(key string) string {
	s, _ := e.Args[key].(string)
	return s
}

func (e *traceEvent) argFloat(key string) float64 {
	f, _ := e.Args[key].(float64)
	return f
}

// argBool reports (value, present) for a boolean arg.
func (e *traceEvent) argBool(key string) (bool, bool) {
	b, ok := e.Args[key].(bool)
	return b, ok
}

// readTrace parses the line-oriented trace stream: the "[" opener,
// then one event object per line with a trailing comma. The metadata
// preamble must identify a schema this tool understands. A torn final
// line is dropped.
func readTrace(path string) ([]traceEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var events []traceEvent
	schema := -1
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		line = strings.TrimSuffix(line, ",")
		if first {
			first = false
			if line == "[" {
				continue
			}
			return nil, fmt.Errorf("%s: not a gsight trace (missing array opener)", path)
		}
		if line == "" || line == "]" {
			continue
		}
		var ev traceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			// Only the final line may be torn (crash without flush).
			if sc.Scan() {
				return nil, fmt.Errorf("%s: bad trace line: %v", path, err)
			}
			break
		}
		if ev.Ph == "M" && ev.Name == "gsight_trace" {
			schema = int(ev.argFloat("schema"))
			continue
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if schema == -1 {
		return nil, fmt.Errorf("%s: not a gsight trace (no gsight_trace metadata)", path)
	}
	if schema != obs.TraceSchema {
		return nil, fmt.Errorf("%s: trace schema %d not supported (want %d)", path, schema, obs.TraceSchema)
	}
	return events, nil
}

func readFlightFile(path string) (*obs.FlightData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fd, err := obs.ReadFlight(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return fd, nil
}

// readDecisionLog parses a JSONL decision log, enforcing the schema
// header. A torn final line is dropped.
func readDecisionLog(path string) ([]map[string]interface{}, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var events []map[string]interface{}
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev map[string]interface{}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			if sc.Scan() {
				return nil, fmt.Errorf("%s: bad log line: %v", path, err)
			}
			break
		}
		if first {
			first = false
			if kind, _ := ev["event"].(string); kind != "header" {
				return nil, fmt.Errorf("%s: not a gsight decision log (no schema header)", path)
			}
			schema, _ := ev["schema"].(float64)
			if int(schema) != telemetry.DecisionLogSchema {
				return nil, fmt.Errorf("%s: decision-log schema %d not supported (want %d)",
					path, int(schema), telemetry.DecisionLogSchema)
			}
			continue
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if first {
		return nil, fmt.Errorf("%s: empty decision log", path)
	}
	return events, nil
}

// ---- summary ----

func cmdSummary(rec *recording) error {
	if rec.log != nil {
		summarizeLog(rec.log)
	}
	if rec.trace != nil {
		summarizeTrace(rec.trace)
	}
	if rec.flight != nil {
		summarizeFlight(rec.flight)
	}
	return nil
}

func summarizeLog(events []map[string]interface{}) {
	kinds := map[string]int{}
	outcomes := map[string]int{}
	rejected := map[string]int{}
	tier0Decisions, tier0Kept, tier0Pruned := 0, 0.0, 0.0
	var drifts []map[string]interface{}
	for _, ev := range events {
		kind, _ := ev["event"].(string)
		kinds[kind]++
		if kind == "placement" {
			out, _ := ev["outcome"].(string)
			outcomes[out]++
			if out == "rejected" {
				w, _ := ev["workload"].(string)
				rejected[w]++
			}
			if _, ok := ev["tier0_kept"]; ok {
				tier0Decisions++
				tier0Kept += num(ev["tier0_kept"])
				tier0Pruned += num(ev["tier0_pruned"])
			}
		}
		if kind == "predictor_drift" {
			drifts = append(drifts, ev)
		}
	}
	fmt.Printf("decision log: %d events\n", len(events))
	for _, k := range sortedKeys(kinds) {
		fmt.Printf("  %-18s %d\n", k, kinds[k])
	}
	if len(outcomes) > 0 {
		fmt.Println("placement outcomes:")
		for _, k := range sortedKeys(outcomes) {
			fmt.Printf("  %-18s %d\n", k, outcomes[k])
		}
	}
	if len(rejected) > 0 {
		fmt.Println("top rejected workloads:")
		printTopCounts(rejected, 5)
	}
	if tier0Decisions > 0 {
		scanned := tier0Kept + tier0Pruned
		rate := 0.0
		if scanned > 0 {
			rate = tier0Pruned / scanned
		}
		fmt.Printf("two-tier pruning: %d decisions, %.0f candidates pruned of %.0f scanned (%.1f%%)\n",
			tier0Decisions, tier0Pruned, scanned, 100*rate)
	}
	for _, d := range drifts {
		fmt.Printf("predictor drift at t=%.0fs: qos=%s archetype=%s mape=%.3f ph=%.2f\n",
			num(d["sim_time_s"]), d["qos"], d["archetype"], num(d["mape"]), num(d["ph"]))
	}
	fmt.Println()
}

// jobOutcome aggregates completed job spans per archetype.
type jobOutcome struct {
	completed   int
	checked     int
	violations  int
	sumSlowdown float64
}

func summarizeTrace(events []traceEvent) {
	began, placements, faults, reactive := 0, 0, 0, 0
	outcomes := map[string]int{}
	jobs := map[string]*jobOutcome{}
	var drifts []traceEvent
	for i := range events {
		ev := &events[i]
		switch {
		case ev.Cat == "job" && ev.Ph == "b":
			began++
		case ev.Cat == "job" && ev.Ph == "e":
			jo := jobs[ev.Name]
			if jo == nil {
				jo = &jobOutcome{}
				jobs[ev.Name] = jo
			}
			jo.completed++
			jo.sumSlowdown += ev.argFloat("slowdown")
			if ok, present := ev.argBool("sla_ok"); present {
				jo.checked++
				if !ok {
					jo.violations++
				}
			}
		case ev.Cat == "sched":
			placements++
			outcomes[ev.argStr("outcome")]++
		case ev.Cat == "fault" && ev.Name == "degraded":
			// counted via decision log when present; still a fault event
			faults++
		case ev.Cat == "fault":
			faults++
		case ev.Cat == "reactive":
			reactive++
		case ev.Cat == "predq" && ev.Name == "predictor_drift":
			drifts = append(drifts, *ev)
		}
	}
	completed, violations := 0, 0
	for _, jo := range jobs {
		completed += jo.completed
		violations += jo.violations
	}
	fmt.Printf("trace: %d events — %d jobs begun, %d completed, %d placements, %d fault events, %d reactive actions\n",
		len(events), began, completed, placements, faults, reactive)
	if len(outcomes) > 0 {
		fmt.Println("placement outcomes:")
		for _, k := range sortedKeys(outcomes) {
			fmt.Printf("  %-18s %d\n", k, outcomes[k])
		}
	}
	if violations > 0 {
		fmt.Println("top SLA-violating functions:")
		type viol struct {
			name string
			jo   *jobOutcome
		}
		var vs []viol
		for name, jo := range jobs {
			if jo.violations > 0 {
				vs = append(vs, viol{name, jo})
			}
		}
		sort.Slice(vs, func(i, j int) bool {
			if vs[i].jo.violations != vs[j].jo.violations {
				return vs[i].jo.violations > vs[j].jo.violations
			}
			return vs[i].name < vs[j].name
		})
		for i, v := range vs {
			if i == 5 {
				break
			}
			fmt.Printf("  %-18s %d/%d checked jobs violated, mean slowdown %.2fx\n",
				v.name, v.jo.violations, v.jo.checked, v.jo.sumSlowdown/float64(v.jo.completed))
		}
	}
	for i := range drifts {
		d := &drifts[i]
		fmt.Printf("predictor drift at t=%.0fs: qos=%s archetype=%s mape=%.3f ph=%.2f\n",
			d.simS(), d.argStr("qos"), d.argStr("archetype"), d.argFloat("mape"), d.argFloat("ph"))
	}
	fmt.Println()
}

func summarizeFlight(fd *obs.FlightData) {
	if len(fd.Frames) == 0 {
		fmt.Println("flight recording: empty")
		return
	}
	degraded, predDown := 0, 0
	var cpu, density float64
	for i := range fd.Frames {
		fr := &fd.Frames[i]
		if fr.Flags&obs.FrameDegraded != 0 {
			degraded++
		}
		if fr.Flags&obs.FramePredictorDown != 0 {
			predDown++
		}
		cpu += float64(fr.CPUUtil)
		density += float64(fr.Density)
	}
	n := float64(len(fd.Frames))
	last := &fd.Frames[len(fd.Frames)-1]
	fmt.Printf("flight recording: %d frames over %d servers, step %.0fs, t=[%.0fs, %.0fs]\n",
		len(fd.Frames), fd.Servers, fd.StepS, fd.Frames[0].SimTimeS, last.SimTimeS)
	fmt.Printf("  mean density %.3f, mean CPU util %.3f\n", density/n, cpu/n)
	fmt.Printf("  degraded steps %d, predictor-down steps %d\n", degraded, predDown)
}

// ---- predq ----

func cmdPredq(rec *recording) error {
	if rec.trace == nil {
		return fmt.Errorf("%s: prediction-quality analysis needs a trace (sim -trace or -record)", rec.path)
	}
	byQoS := map[string][]*traceEvent{}
	var recorded []*traceEvent
	for i := range rec.trace {
		ev := &rec.trace[i]
		if ev.Cat != "predq" {
			continue
		}
		if ev.Name == "predictor_drift" {
			recorded = append(recorded, ev)
			continue
		}
		qos := ev.argStr("qos")
		byQoS[qos] = append(byQoS[qos], ev)
	}
	if len(byQoS) == 0 {
		fmt.Println("no prediction-quality samples in trace")
		return nil
	}
	for _, qos := range sortedKeys(byQoS) {
		samples := byQoS[qos]
		// Replay the samples through the same online tracker the
		// platform runs, so the reported rolling stats match what the
		// live run saw.
		q := obs.NewPredQ()
		archetypes := map[string]bool{}
		for _, ev := range samples {
			arch := ev.argStr("archetype")
			archetypes[arch] = true
			q.Track(arch, qos, ev.argFloat("pred"), ev.argFloat("obs"))
		}
		ov := q.Overall()
		fmt.Printf("prediction quality qos=%s: %d samples\n", qos, ov.Count)
		fmt.Printf("  %-18s %8s %8s %9s %8s\n", "archetype", "samples", "window", "mean_err", "MAPE")
		fmt.Printf("  %-18s %8d %8d %+9.3f %8.3f\n", "overall", ov.Count, ov.Window(), ov.MeanErr(), ov.MAPE())
		for _, arch := range sortedKeys(archetypes) {
			st := q.Archetype(arch)
			if st == nil {
				continue
			}
			fmt.Printf("  %-18s %8d %8d %+9.3f %8.3f\n", arch, st.Count, st.Window(), st.MeanErr(), st.MAPE())
		}
		fmt.Println()
	}
	if len(recorded) == 0 {
		fmt.Println("no drift events recorded")
		return nil
	}
	fmt.Printf("drift events recorded: %d\n", len(recorded))
	for _, d := range recorded {
		fmt.Printf("  t=%.0fs qos=%s archetype=%s window=%d mean_err=%+.3f mape=%.3f ph=%.2f\n",
			d.simS(), d.argStr("qos"), d.argStr("archetype"), int(d.argFloat("window")),
			d.argFloat("mean_err"), d.argFloat("mape"), d.argFloat("ph"))
	}
	return nil
}

// ---- errors ----

// errorBuckets is the number of time buckets the errors view renders.
const errorBuckets = 12

func cmdErrors(rec *recording) error {
	if rec.trace == nil {
		return fmt.Errorf("%s: error-over-time needs a trace (sim -trace or -record)", rec.path)
	}
	type sample struct {
		t, pred, obs float64
	}
	byQoS := map[string][]sample{}
	minT, maxT := 0.0, 0.0
	n := 0
	for i := range rec.trace {
		ev := &rec.trace[i]
		if ev.Cat != "predq" || ev.Name != "sample" {
			continue
		}
		s := sample{t: ev.simS(), pred: ev.argFloat("pred"), obs: ev.argFloat("obs")}
		if s.obs <= 0 {
			continue
		}
		if n == 0 || s.t < minT {
			minT = s.t
		}
		if n == 0 || s.t > maxT {
			maxT = s.t
		}
		n++
		qos := ev.argStr("qos")
		byQoS[qos] = append(byQoS[qos], s)
	}
	if n == 0 {
		fmt.Println("no prediction-quality samples in trace")
		return nil
	}
	span := maxT - minT
	if span <= 0 {
		span = 1
	}
	for _, qos := range sortedKeys(byQoS) {
		counts := make([]int, errorBuckets)
		sumAbs := make([]float64, errorBuckets)
		sumSigned := make([]float64, errorBuckets)
		for _, s := range byQoS[qos] {
			b := int((s.t - minT) / span * errorBuckets)
			if b >= errorBuckets {
				b = errorBuckets - 1
			}
			rel := (s.pred - s.obs) / s.obs
			counts[b]++
			sumSigned[b] += rel
			if rel < 0 {
				rel = -rel
			}
			sumAbs[b] += rel
		}
		fmt.Printf("prediction error over time qos=%s (%d samples)\n", qos, len(byQoS[qos]))
		fmt.Printf("  %12s %8s %9s %8s\n", "t_start", "samples", "mean_err", "MAPE")
		for b := 0; b < errorBuckets; b++ {
			t := minT + span*float64(b)/errorBuckets
			if counts[b] == 0 {
				fmt.Printf("  %11.0fs %8d %9s %8s\n", t, 0, "-", "-")
				continue
			}
			c := float64(counts[b])
			fmt.Printf("  %11.0fs %8d %+9.3f %8.3f\n", t, counts[b], sumSigned[b]/c, sumAbs[b]/c)
		}
		fmt.Println()
	}
	return nil
}

// ---- heat ----

func cmdHeat(rec *recording) error {
	if rec.flight == nil {
		return fmt.Errorf("%s: per-server heat needs a flight recording (sim -record)", rec.path)
	}
	fd := rec.flight
	if len(fd.Frames) == 0 {
		fmt.Println("flight recording: empty")
		return nil
	}
	sumCPU := make([]float64, fd.Servers)
	maxCPU := make([]float64, fd.Servers)
	sumMem := make([]float64, fd.Servers)
	down := make([]int, fd.Servers)
	slow := make([]int, fd.Servers)
	for i := range fd.Frames {
		fr := &fd.Frames[i]
		for s := 0; s < fd.Servers; s++ {
			c := float64(fr.CPUDemand[s])
			sumCPU[s] += c
			if c > maxCPU[s] {
				maxCPU[s] = c
			}
			sumMem[s] += float64(fr.MemUsed[s])
			if fr.ServerFlags[s]&obs.ServerDown != 0 {
				down[s]++
			}
			if fr.ServerFlags[s]&obs.ServerSlow != 0 {
				slow[s]++
			}
		}
	}
	n := float64(len(fd.Frames))
	fmt.Printf("per-server heat over %d frames (step %.0fs)\n", len(fd.Frames), fd.StepS)
	fmt.Printf("%6s %9s %9s %9s %6s %6s  %s\n", "server", "cpu_mean", "cpu_max", "mem_mean", "down", "slow", "load")
	for s := 0; s < fd.Servers; s++ {
		fmt.Printf("%6d %9.2f %9.2f %9.2f %6d %6d  %s\n",
			s, sumCPU[s]/n, maxCPU[s], sumMem[s]/n, down[s], slow[s], heatBar(sumCPU[s]/n, maxAll(maxCPU)))
	}
	return nil
}

// heatBar renders mean load as a proportional bar against the cluster
// peak, so relative imbalance is visible at a glance.
func heatBar(v, peak float64) string {
	const width = 30
	if peak <= 0 {
		return ""
	}
	return strings.Repeat("#", min(int(v/peak*width), width))
}

func maxAll(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// ---- trace export ----

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("gsight inspect trace", flag.ContinueOnError)
	out := fs.String("o", "", "write the strict-JSON trace to this file instead of stdout")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one recording path")
	}
	rec, err := openRecording(fs.Arg(0))
	if err != nil {
		return err
	}
	if rec.trace == nil {
		return fmt.Errorf("%s: no trace stream", fs.Arg(0))
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	// Re-emit as a strict JSON object for tools that reject the
	// truncation-tolerant array-body stream.
	bw.WriteString("{\"traceEvents\":[\n")
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	for i := range rec.trace {
		if i > 0 {
			bw.WriteString(",")
		}
		if err := enc.Encode(rec.trace[i]); err != nil {
			return err
		}
	}
	bw.WriteString("]}\n")
	return nil
}

// ---- diff ----

func cmdDiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("diff expects exactly two recording paths")
	}
	a, err := openRecording(args[0])
	if err != nil {
		return err
	}
	b, err := openRecording(args[1])
	if err != nil {
		return err
	}
	identical := true
	compared := false
	if a.trace != nil && b.trace != nil {
		compared = true
		if i := firstDiff(a.trace, b.trace); i >= 0 {
			identical = false
			reportTraceDiff(a.trace, b.trace, i)
		} else {
			fmt.Printf("traces identical: %d events\n", len(a.trace))
		}
	}
	if a.flight != nil && b.flight != nil {
		compared = true
		if i := diffFlights(a.flight, b.flight); i >= 0 {
			identical = false
			reportFlightDiff(a.flight, b.flight, i)
		} else {
			fmt.Printf("flight recordings identical: %d frames\n", len(a.flight.Frames))
		}
	}
	if a.log != nil && b.log != nil {
		compared = true
		if i := firstDiff(a.log, b.log); i >= 0 {
			identical = false
			fmt.Printf("decision logs diverge at event %d:\n  a: %s\n  b: %s\n",
				i, jsonLine(at(a.log, i)), jsonLine(at(b.log, i)))
		} else {
			fmt.Printf("decision logs identical: %d events\n", len(a.log))
		}
	}
	if !compared {
		return fmt.Errorf("recordings share no comparable stream")
	}
	if !identical {
		return &exitError{code: 1}
	}
	return nil
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff[T any](a, b []T) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if jsonLine(a[i]) != jsonLine(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

func reportTraceDiff(a, b []traceEvent, i int) {
	fmt.Printf("traces diverge at event %d (of %d vs %d):\n", i, len(a), len(b))
	if i < len(a) {
		fmt.Printf("  a: %s\n", jsonLine(a[i]))
	} else {
		fmt.Printf("  a: <ended>\n")
	}
	if i < len(b) {
		fmt.Printf("  b: %s\n", jsonLine(b[i]))
	} else {
		fmt.Printf("  b: <ended>\n")
	}
}

// diffFlights returns the first diverging frame index, or -1.
func diffFlights(a, b *obs.FlightData) int {
	if a.Servers != b.Servers || a.StepS != b.StepS {
		return 0
	}
	return firstDiff(a.Frames, b.Frames)
}

func reportFlightDiff(a, b *obs.FlightData, i int) {
	fmt.Printf("flight recordings diverge at frame %d (of %d vs %d)", i, len(a.Frames), len(b.Frames))
	if i < len(a.Frames) {
		fmt.Printf(" — t=%.0fs step %d", a.Frames[i].SimTimeS, a.Frames[i].Step)
	}
	fmt.Println()
}

func at(evs []map[string]interface{}, i int) interface{} {
	if i < len(evs) {
		return evs[i]
	}
	return "<ended>"
}

// ---- small helpers ----

// jsonLine renders v canonically (sorted keys) for comparison and
// divergence reports.
func jsonLine(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	return string(b)
}

func num(v interface{}) float64 {
	f, _ := v.(float64)
	return f
}

// sortedKeys returns the keys of a string-keyed map in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func printTopCounts(m map[string]int, top int) {
	type kv struct {
		k string
		v int
	}
	var kvs []kv
	for k, v := range m {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].v != kvs[j].v {
			return kvs[i].v > kvs[j].v
		}
		return kvs[i].k < kvs[j].k
	})
	for i, e := range kvs {
		if i == top {
			break
		}
		fmt.Printf("  %-18s %d\n", e.k, e.v)
	}
}
