package cli

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"gsight/internal/obs"
	"gsight/internal/platform"
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
		{"summary", "<log>", "run overview: decisions, jobs, SLA misses, cluster load", withLog(cmdSummary)},
		{"predq", "<log>", "prediction quality: per-archetype MAPE, drift", withLog(simOnly("predq", cmdPredq))},
		{"errors", "<log>", "prediction error over time", withLog(simOnly("errors", cmdErrors))},
		{"heat", "<log>", "per-server utilization from the step samples", withLog(simOnly("heat", cmdHeat))},
		{"trace", "[-o out.json] <log>", "render the decision log as a Perfetto trace", cmdTrace},
		{"diff", "<a> <b>", "compare two decision logs, locate first divergence", cmdDiff},
		{"snapshot", "<file|dir>", "a checkpoint's envelope, controller state and predictor summary", cmdSnapshot},
	}
}

// bindInspect is `gsight inspect <verb>`: it reads the decision logs
// the other sub-commands write (-decision-log) and the serving daemon's
// decisions.jsonl, and answers questions about a run offline: what was
// scheduled where, how good the predictor was, which jobs missed their
// SLA, how hot each server ran. A simulator's decision log is its one
// recording; the trace verb renders it as a Perfetto trace.
//
// A tool's log opens with a schema header, and the reader rejects logs
// written in another schema rather than misparsing them. A daemon's log
// is its WAL payloads ({"seq":…,"kind":…}) and has no header: summary
// and diff read it, the simulator's views refuse it. A torn final
// record — possible when a run was killed before its flush — is
// dropped.
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

// decisionLog is one decision log's events, header excluded. Step
// lines are kept apart, decoded into typed samples: each carries two
// values per server, which generic maps would box one by one. daemon
// marks a serving daemon's log, whose events are WAL records.
type decisionLog struct {
	path   string
	events []map[string]interface{}
	steps  []stepEvent
	daemon bool
}

// stepEvent is one step line.
type stepEvent struct {
	Seq int `json:"seq"`
	telemetry.StepSample
}

// withLog runs fn on the single log argument.
func withLog(fn func(*decisionLog) error) func(args []string) error {
	return func(args []string) error {
		if len(args) != 1 {
			return fmt.Errorf("expected exactly one decision-log path, got %d args", len(args))
		}
		l, err := readDecisionLog(args[0])
		if err != nil {
			return err
		}
		return fn(l)
	}
}

// simOnly refuses a daemon's log for a verb that reads the simulator's
// events.
func simOnly(verb string, fn func(*decisionLog) error) func(*decisionLog) error {
	return func(l *decisionLog) error {
		if l.daemon {
			return fmt.Errorf("%s: a serving daemon's log; %s reads a simulator's decision log (sim -decision-log)", l.path, verb)
		}
		return fn(l)
	}
}

// readDecisionLog parses a JSONL decision log: a tool's, whose schema
// header it enforces, or a daemon's. A torn final line is dropped.
func readDecisionLog(path string) (*decisionLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	l := &decisionLog{path: path}
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		ev, st, err := decodeLine(line, !first)
		if err != nil {
			if sc.Scan() {
				return nil, fmt.Errorf("%s: bad log line: %v", path, err)
			}
			break
		}
		if st != nil {
			l.steps = append(l.steps, *st)
			continue
		}
		if first {
			first = false
			_, seq := ev["seq"]
			_, kind := ev["kind"]
			switch {
			case str(ev["event"]) == "header":
				if schema := int(num(ev["schema"])); schema != telemetry.DecisionLogSchema {
					return nil, fmt.Errorf("%s: decision-log schema %d not supported (want %d)",
						path, schema, telemetry.DecisionLogSchema)
				}
				continue
			case seq && kind:
				l.daemon = true
			default:
				return nil, fmt.Errorf("%s: not a gsight decision log (no schema header)", path)
			}
		}
		l.events = append(l.events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if first {
		return nil, fmt.Errorf("%s: empty decision log", path)
	}
	return l, nil
}

// decodeLine decodes one log line: a step line after the first line
// into its typed sample, any other line into a generic map. The prefix
// test spares a step line the generic decode.
func decodeLine(line string, body bool) (map[string]interface{}, *stepEvent, error) {
	if !body || !strings.HasPrefix(line, `{"event":"step",`) {
		var ev map[string]interface{}
		if err := json.Unmarshal([]byte(line), &ev); err != nil || !body || str(ev["event"]) != "step" {
			return ev, nil, err
		}
	}
	st := new(stepEvent)
	return nil, st, json.Unmarshal([]byte(line), st)
}

// ---- summary ----

func cmdSummary(l *decisionLog) error {
	if l.daemon {
		summarizeDaemonLog(l.events)
	} else {
		summarizeLog(l)
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

func summarizeLog(l *decisionLog) {
	kinds := map[string]int{}
	outcomes := map[string]int{}
	rejected := map[string]int{}
	jobs := map[string]*jobOutcome{}
	tier0Decisions, tier0Kept, tier0Pruned := 0, 0.0, 0.0
	if len(l.steps) > 0 {
		kinds["step"] = len(l.steps)
	}
	var drifts []map[string]interface{}
	for _, ev := range l.events {
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
	fmt.Printf("decision log: %d events\n", len(l.events)+len(l.steps))
	printCounts("", kinds)
	printCounts("placement outcomes:", outcomes)
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
	if len(l.steps) > 0 {
		summarizeSteps(l.steps)
	}
}

// summarizeSteps prints the cluster line: the step samples' span and
// their mean density and CPU utilization over the steps with an active
// server — the series `gsight sim` reports.
func summarizeSteps(steps []stepEvent) {
	degraded, predDown, active := 0, 0, 0
	var cpu, density float64
	for _, ev := range steps {
		if ev.Degraded {
			degraded++
		}
		if ev.PredictorDown {
			predDown++
		}
		if ev.ActiveServers > 0 {
			active++
			cpu += ev.CPUUtil
			density += ev.Density
		}
	}
	fmt.Printf("steps: %d over %d servers, step %.0fs, t=[%.0fs, %.0fs]\n", len(steps),
		len(steps[0].CPUDemand), float64(platform.StepS), steps[0].SimTimeS, steps[len(steps)-1].SimTimeS)
	fmt.Printf("  mean density %.3f, mean CPU util %.3f\n", density/float64(max(active, 1)), cpu/float64(max(active, 1)))
	fmt.Printf("  degraded steps %d, predictor-down steps %d\n", degraded, predDown)
}

// summarizeDaemonLog prints a serving daemon's log: records by kind,
// placement outcomes and reasons, the observations the learner applied
// and the releases that found their instance.
func summarizeDaemonLog(events []map[string]interface{}) {
	kinds, outcomes, reasons := map[string]int{}, map[string]int{}, map[string]int{}
	applied, released := 0, 0
	for _, ev := range events {
		kind := str(ev["kind"])
		kinds[kind]++
		switch kind {
		case "place":
			p, _ := ev["place"].(map[string]interface{})
			outcomes[str(p["outcome"])]++
			if r := str(p["reason"]); r != "" {
				reasons[r]++
			}
		case "observe":
			if o, _ := ev["observe"].(map[string]interface{}); o["applied"] == true {
				applied++
			}
		case "release":
			if r, _ := ev["release"].(map[string]interface{}); r["released"] == true {
				released++
			}
		}
	}
	fmt.Printf("daemon log: %d records, seq %.0f..%.0f\n", len(events), num(events[0]["seq"]), num(events[len(events)-1]["seq"]))
	printCounts("", kinds)
	printCounts("placement outcomes:", outcomes)
	printCounts("placement reasons:", reasons)
	if n := kinds["observe"]; n > 0 {
		fmt.Printf("observations applied: %d of %d\n", applied, n)
	}
	if n := kinds["release"]; n > 0 {
		fmt.Printf("releases that found their instance: %d of %d\n", released, n)
	}
}

// ---- predq ----

// predSamples returns the log's prediction-quality samples by QoS
// kind, and says so when there are none.
func predSamples(l *decisionLog) map[string][]map[string]interface{} {
	byQoS := map[string][]map[string]interface{}{}
	for _, ev := range l.events {
		if str(ev["event"]) == "pred_sample" {
			qos := str(ev["qos"])
			byQoS[qos] = append(byQoS[qos], ev)
		}
	}
	if len(byQoS) == 0 {
		fmt.Println("no prediction-quality samples in the decision log")
	}
	return byQoS
}

func cmdPredq(l *decisionLog) error {
	byQoS := predSamples(l)
	if len(byQoS) == 0 {
		return nil
	}
	// Replay the samples through the same online tracker the platform
	// runs, which keeps each QoS kind apart, so the reported rolling
	// stats match what the live run saw.
	q := obs.NewPredQ()
	for _, qos := range sortedKeys(byQoS) {
		archetypes := map[string]bool{}
		for _, ev := range byQoS[qos] {
			arch := str(ev["archetype"])
			archetypes[arch] = true
			q.Track(arch, qos, num(ev["pred"]), num(ev["obs"]))
		}
		ov := q.Overall(qos)
		fmt.Printf("prediction quality qos=%s: %d samples\n", qos, ov.Count)
		fmt.Printf("  %-18s %8s %8s %9s %8s\n", "archetype", "samples", "window", "mean_err", "MAPE")
		fmt.Printf("  %-18s %8d %8d %+9.3f %8.3f\n", "overall", ov.Count, ov.Window(), ov.MeanErr(), ov.MAPE())
		for _, arch := range sortedKeys(archetypes) {
			st := q.Archetype(qos, arch)
			if st == nil {
				continue
			}
			fmt.Printf("  %-18s %8d %8d %+9.3f %8.3f\n", arch, st.Count, st.Window(), st.MeanErr(), st.MAPE())
		}
		fmt.Println()
	}
	var recorded []map[string]interface{}
	for _, ev := range l.events {
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

func cmdErrors(l *decisionLog) error {
	samples := predSamples(l)
	if len(samples) == 0 {
		return nil
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

func cmdHeat(l *decisionLog) error {
	steps := l.steps
	if len(steps) == 0 {
		fmt.Println("no step samples in the decision log")
		return nil
	}
	servers := len(steps[0].CPUDemand)
	sumCPU := make([]float64, servers)
	maxCPU := make([]float64, servers)
	sumMem := make([]float64, servers)
	down := make([]int, servers)
	slow := make([]int, servers)
	for _, ev := range steps {
		if len(ev.CPUDemand) != servers || len(ev.MemUsed) != servers {
			return fmt.Errorf("%s: step %d samples %d/%d servers, the first step %d", l.path, ev.Step, len(ev.CPUDemand), len(ev.MemUsed), servers)
		}
		for s := range servers {
			c := float64(ev.CPUDemand[s])
			sumCPU[s] += c
			if c > maxCPU[s] {
				maxCPU[s] = c
			}
			sumMem[s] += float64(ev.MemUsed[s])
		}
		for _, col := range []struct {
			servers []int
			count   []int
		}{{ev.Down, down}, {ev.Slow, slow}} {
			for _, s := range col.servers {
				if s < 0 || s >= servers {
					return fmt.Errorf("%s: step %d names server %d of %d", l.path, ev.Step, s, servers)
				}
				col.count[s]++
			}
		}
	}
	n := float64(len(steps))
	fmt.Printf("per-server heat over %d steps (step %.0fs)\n", len(steps), float64(platform.StepS))
	fmt.Printf("%6s %9s %9s %9s %6s %6s  %s\n", "server", "cpu_mean", "cpu_max", "mem_mean", "down", "slow", "load")
	for s := range servers {
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
		return fmt.Errorf("expected exactly one decision-log path")
	}
	return withLog(simOnly("trace", func(l *decisionLog) error {
		var buf bytes.Buffer
		if err := renderTrace(&buf, l.events); err != nil {
			return fmt.Errorf("%s: %w", l.path, err)
		}
		if *out != "" {
			return os.WriteFile(*out, buf.Bytes(), 0o644)
		}
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}))(fs.Args())
}

// renderTrace encodes a decision log's simulator events as a Perfetto
// trace through obs.Tracer — one trace event per log event, in log
// order — and closes the tracer's array, so the file is strict JSON.
// Step samples and the events no simulator writes (training steps,
// experiment outcomes) are not part of the trace.
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
		return fmt.Errorf("diff expects exactly two decision-log paths")
	}
	a, err := readDecisionLog(args[0])
	if err != nil {
		return err
	}
	b, err := readDecisionLog(args[1])
	if err != nil {
		return err
	}
	if i := firstDiff(a.events, b.events); i >= 0 {
		fmt.Printf("decision logs diverge at event %d:\n  a: %s\n  b: %s\n",
			i, jsonLine(at(a.events, i)), jsonLine(at(b.events, i)))
		return &exitError{code: 1}
	}
	if i := firstDiff(a.steps, b.steps); i >= 0 {
		fmt.Printf("decision logs diverge at step sample %d:\n  a: %s\n  b: %s\n",
			i, jsonLine(at(a.steps, i)), jsonLine(at(b.steps, i)))
		return &exitError{code: 1}
	}
	fmt.Printf("decision logs identical: %d events\n", len(a.events)+len(a.steps))
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

func at[T any](evs []T, i int) interface{} {
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

// printCounts prints one line per key of m in sorted order, under
// title when m is not empty and title is.
func printCounts(title string, m map[string]int) {
	if title != "" && len(m) > 0 {
		fmt.Println(title)
	}
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-18s %d\n", k, m[k])
	}
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
