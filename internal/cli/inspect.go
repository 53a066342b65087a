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
		{"trace", "[-o out.json] <recording>", "render the decision log as a Perfetto trace", cmdTrace},
		{"diff", "<a> <b>", "compare two recordings, locate first divergence", cmdDiff},
		{"snapshot", "<file|dir>", "a checkpoint's envelope, controller state and predictor summary", cmdSnapshot},
	}
}

// bindInspect is `gsight inspect <verb>`: it reads the recordings the
// other sub-commands produce — decision logs (-decision-log, sim
// -record) and flight recordings (sim -record) — and answers questions
// about a run offline: what was scheduled where, how good the
// predictor was, which jobs missed their SLA, how hot each server ran.
// A simulator's decision log is its one event stream; the trace verb
// renders it as a Perfetto trace.
//
// <recording> is a -record directory (decisions.jsonl + flight.bin
// inside), or a single artifact file: a JSONL decision log or a flight
// recording — the tool sniffs which. Every reader checks the format's
// schema version and rejects streams written by another, incompatible
// gsight rather than misparsing them. A torn final record — possible
// when a run was killed before its flush — is dropped.
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
	log    []map[string]interface{}
	flight *obs.FlightData
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
		if lp := filepath.Join(path, "decisions.jsonl"); fileExists(lp) {
			if rec.log, err = readDecisionLog(lp); err != nil {
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
			return nil, fmt.Errorf("%s: no decisions.jsonl or flight.bin inside", path)
		}
		return rec, nil
	}
	switch kind, err := sniff(path); {
	case err != nil:
		return nil, err
	case kind == "flight":
		rec.flight, err = readFlightFile(path)
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
	case bytes.HasPrefix(head, []byte("{")):
		return "log", nil
	default:
		return "", fmt.Errorf("%s: not a gsight recording (unrecognized header)", path)
	}
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
			if schema := int(num(ev["schema"])); schema != telemetry.DecisionLogSchema {
				return nil, fmt.Errorf("%s: decision-log schema %d not supported (want %d)",
					path, schema, telemetry.DecisionLogSchema)
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
	if rec.flight != nil {
		summarizeFlight(rec.flight)
	}
	return nil
}

// jobOutcome aggregates completed jobs per archetype.
type jobOutcome struct {
	completed   int
	checked     int
	violations  int
	sumSlowdown float64
}

func summarizeLog(events []map[string]interface{}) {
	kinds := map[string]int{}
	outcomes := map[string]int{}
	rejected := map[string]int{}
	jobs := map[string]*jobOutcome{}
	tier0Decisions, tier0Kept, tier0Pruned := 0, 0.0, 0.0
	var drifts []map[string]interface{}
	for _, ev := range events {
		kind := str(ev["event"])
		kinds[kind]++
		switch kind {
		case "placement":
			out := str(ev["outcome"])
			outcomes[out]++
			if out == "rejected" {
				rejected[str(ev["workload"])]++
			}
			if _, ok := ev["tier0_kept"]; ok {
				tier0Decisions++
				tier0Kept += num(ev["tier0_kept"])
				tier0Pruned += num(ev["tier0_pruned"])
			}
		case "job_end":
			arch := str(ev["archetype"])
			jo := jobs[arch]
			if jo == nil {
				jo = &jobOutcome{}
				jobs[arch] = jo
			}
			jo.completed++
			jo.sumSlowdown += num(ev["slowdown"])
			if ok, checked := ev["sla_ok"].(bool); checked {
				jo.checked++
				if !ok {
					jo.violations++
				}
			}
		case "predictor_drift":
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
	var violating []string
	for _, name := range sortedKeys(jobs) {
		if jobs[name].violations > 0 {
			violating = append(violating, name)
		}
	}
	if len(violating) > 0 {
		fmt.Println("top SLA-violating jobs:")
		sort.SliceStable(violating, func(i, j int) bool {
			return jobs[violating[i]].violations > jobs[violating[j]].violations
		})
		for _, name := range violating[:min(len(violating), 5)] {
			jo := jobs[name]
			fmt.Printf("  %-18s %d/%d checked jobs violated, mean slowdown %.2fx\n",
				name, jo.violations, jo.checked, jo.sumSlowdown/float64(jo.completed))
		}
	}
	for _, d := range drifts {
		fmt.Printf("predictor drift at t=%.0fs: qos=%s archetype=%s mape=%.3f ph=%.2f\n",
			num(d["sim_time_s"]), d["qos"], d["archetype"], num(d["mape"]), num(d["ph"]))
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

// predSamples returns the log's prediction-quality samples by QoS kind,
// or an error naming the recording when it has no decision log.
func predSamples(rec *recording) (map[string][]map[string]interface{}, error) {
	if rec.log == nil {
		return nil, fmt.Errorf("%s: prediction-quality analysis needs a decision log (sim -decision-log or -record)", rec.path)
	}
	byQoS := map[string][]map[string]interface{}{}
	for _, ev := range rec.log {
		if str(ev["event"]) == "pred_sample" {
			qos := str(ev["qos"])
			byQoS[qos] = append(byQoS[qos], ev)
		}
	}
	if len(byQoS) == 0 {
		fmt.Println("no prediction-quality samples in the decision log")
	}
	return byQoS, nil
}

func cmdPredq(rec *recording) error {
	byQoS, err := predSamples(rec)
	if err != nil || len(byQoS) == 0 {
		return err
	}
	for _, qos := range sortedKeys(byQoS) {
		// Replay the samples through the same online tracker the
		// platform runs, so the reported rolling stats match what the
		// live run saw.
		q := obs.NewPredQ()
		archetypes := map[string]bool{}
		for _, ev := range byQoS[qos] {
			arch := str(ev["archetype"])
			archetypes[arch] = true
			q.Track(arch, qos, num(ev["pred"]), num(ev["obs"]))
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
	var recorded []map[string]interface{}
	for _, ev := range rec.log {
		if str(ev["event"]) == "predictor_drift" {
			recorded = append(recorded, ev)
		}
	}
	if len(recorded) == 0 {
		fmt.Println("no drift events recorded")
		return nil
	}
	fmt.Printf("drift events recorded: %d\n", len(recorded))
	for _, d := range recorded {
		fmt.Printf("  t=%.0fs qos=%s archetype=%s window=%d mean_err=%+.3f mape=%.3f ph=%.2f\n",
			num(d["sim_time_s"]), str(d["qos"]), str(d["archetype"]), int(num(d["window"])),
			num(d["mean_err"]), num(d["mape"]), num(d["ph"]))
	}
	return nil
}

// ---- errors ----

// errorBuckets is the number of time buckets the errors view renders.
const errorBuckets = 12

func cmdErrors(rec *recording) error {
	samples, err := predSamples(rec)
	if err != nil || len(samples) == 0 {
		return err
	}
	type sample struct {
		t, pred, obs float64
	}
	byQoS := map[string][]sample{}
	minT, maxT := 0.0, 0.0
	n := 0
	for qos, evs := range samples {
		for _, ev := range evs {
			s := sample{t: num(ev["sim_time_s"]), pred: num(ev["pred"]), obs: num(ev["obs"])}
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
			byQoS[qos] = append(byQoS[qos], s)
		}
	}
	if n == 0 {
		fmt.Println("no prediction-quality samples in the decision log")
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
	out := fs.String("o", "", "write the trace to this file instead of stdout")
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
	if rec.log == nil {
		return fmt.Errorf("%s: no decision log to render", fs.Arg(0))
	}
	var buf bytes.Buffer
	if err := renderTrace(&buf, rec.log); err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	if *out != "" {
		return os.WriteFile(*out, buf.Bytes(), 0o644)
	}
	_, err = os.Stdout.Write(buf.Bytes())
	return err
}

// renderTrace encodes a decision log's simulator events as a Perfetto
// trace through obs.Tracer — one trace event per log event, in log
// order — and closes the tracer's array, so the file is strict JSON.
// Events no simulator writes (training steps, experiment outcomes) are
// not part of the trace.
func renderTrace(w *bytes.Buffer, events []map[string]interface{}) error {
	tr := obs.NewTracer(w)
	for _, ev := range events {
		t := num(ev["sim_time_s"])
		switch str(ev["event"]) {
		case "placement":
			tr.Placement(&telemetry.PlacementDecision{SimTimeS: t, Workload: str(ev["workload"]),
				Outcome: str(ev["outcome"]), Reason: str(ev["reason"]),
				SpreadLevels: int(num(ev["spread_levels"])), SLAChecks: int(num(ev["sla_checks"])),
				Placement: ints(ev["placement"]), PredIPC: num(ev["pred_ipc"]), PredJCTS: num(ev["pred_jct_s"])})
		case "job_begin":
			tr.JobBegin(&telemetry.JobBegin{SimTimeS: t, ID: int(num(ev["id"])), Archetype: str(ev["archetype"]),
				Job: str(ev["job"]), Placement: ints(ev["placement"]), PredJCTS: num(ev["pred_jct_s"])})
		case "job_end":
			ok, checked := ev["sla_ok"].(bool)
			tr.JobEnd(&telemetry.JobEnd{SimTimeS: t, ID: int(num(ev["id"])), Archetype: str(ev["archetype"]),
				JCTS: num(ev["jct_s"]), Slowdown: num(ev["slowdown"]), Checked: checked, SLAOK: ok})
		case "reactive":
			tr.Reactive(&telemetry.ReactiveAction{SimTimeS: t, Action: str(ev["action"]),
				Service: str(ev["service"]), Moved: int(num(ev["moved"]))})
		case "fault":
			tr.Fault(&telemetry.FaultEvent{SimTimeS: t, Kind: str(ev["kind"]), Node: int(num(ev["node"])),
				DisplacedServices: int(num(ev["displaced_services"])), DisplacedJobs: int(num(ev["displaced_jobs"]))})
		case "degraded":
			entered, _ := ev["entered"].(bool)
			tr.Degraded(&telemetry.DegradedTransition{SimTimeS: t, Entered: entered, Reason: str(ev["reason"])})
		case "pred_sample":
			tr.PredSample(&telemetry.PredSample{SimTimeS: t, Archetype: str(ev["archetype"]),
				QoS: str(ev["qos"]), Pred: num(ev["pred"]), Obs: num(ev["obs"])})
		case "predictor_drift":
			tr.Drift(&telemetry.DriftEvent{SimTimeS: t, QoS: str(ev["qos"]), Archetype: str(ev["archetype"]),
				Window: int(num(ev["window"])), MeanErr: num(ev["mean_err"]), MAPE: num(ev["mape"]), PH: num(ev["ph"])})
		}
	}
	if w.Len() == 0 {
		return fmt.Errorf("no simulator events to render")
	}
	w.Truncate(w.Len() - len(",\n"))
	w.WriteString("\n]\n")
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

func str(v interface{}) string {
	s, _ := v.(string)
	return s
}

// ints converts a decoded JSON array of numbers; nil when v is absent.
func ints(v interface{}) []int {
	vs, ok := v.([]interface{})
	if !ok {
		return nil
	}
	out := make([]int, len(vs))
	for i, x := range vs {
		out[i] = int(num(x))
	}
	return out
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
