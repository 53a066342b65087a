package cli

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"

	"gsight/internal/obs"
	"gsight/internal/platform"
	"gsight/internal/serve"
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
		{"summary", "<log>", "run overview: decisions, jobs, SLA misses, cluster load", withLog(stepsScalar, "", summarizeLog)},
		{"predq", "<log>", "prediction quality: per-archetype MAPE, drift", withLog(stepsChecked, "predq", cmdPredq)},
		{"errors", "<log>", "prediction error over time", withLog(stepsChecked, "errors", cmdErrors)},
		{"heat", "<log>", "per-server utilization from the step samples", withLog(stepsWhole, "heat", cmdHeat)},
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

// logReader streams one decision log a line at a time, so a verb holds
// its own sums and never the run. A tool's log opens with a schema
// header, and a log in another schema is refused rather than misparsed;
// its lines decode into the telemetry structs of their events
// (telemetry.NewEvent). A daemon's log is its WAL payloads
// ({"seq":…,"kind":…}) with no header, decoded by serve.DecodeRecord:
// summary and diff read it, the simulator's views refuse it.
type logReader struct {
	path   string
	f      *os.File
	sc     *bufio.Scanner
	steps  stepMode
	daemon bool // a serving daemon's log: WAL records, no header
	first  *logEvent
}

// stepMode is how much of a tool log's lines a reader decodes, which is
// what its verb reads. Step lines are most of a simulator's log, and
// their per-server columns most of a step line.
type stepMode int

const (
	stepsChecked stepMode = iota // step lines checked to be JSON and skipped
	stepsScalar                  // a *stepHead: the scalars and the column lengths
	stepsWhole                   // a *telemetry.StepSample
	linesRaw                     // no line decoded past its kind (step lines checked)
)

// logEvent is one decoded line.
type logEvent struct {
	kind string // the line's event, or a daemon record's kind
	seq  uint64
	val  any    // a pointer to the event's telemetry struct, or a *serve.Record
	line []byte // the line as written; valid until the reader's next read
}

// lineHead opens every line of a tool's log; the header adds the schema.
type lineHead struct {
	telemetry.Head
	Schema int `json:"schema"`
}

// stepPrefix opens every step line the log writes, which spares the
// long line a decode of its head.
var stepPrefix = []byte(`{"event":"step",`)

// stepHead is a step line without its per-server values: its columns,
// shadowing the sample's, decode to their lengths alone.
type stepHead struct {
	telemetry.StepSample
	CPUDemand columnLen `json:"cpu_demand"`
	MemUsed   columnLen `json:"mem_used"`
}

// columnLen is the length of a per-server column, a JSON array of
// numbers, counted without converting them.
type columnLen int

func (n *columnLen) UnmarshalJSON(b []byte) error {
	*n = 0
	if b = bytes.TrimSpace(bytes.Trim(b, "[]")); len(b) > 0 && string(b) != "null" {
		*n = columnLen(bytes.Count(b, []byte{','}) + 1)
	}
	return nil
}

// withLog opens the single log argument, decoding its step lines as
// steps says, and runs fn on it. A verb named by sim reads a simulator's log
// and refuses a daemon's.
func withLog(steps stepMode, sim string, fn func(*logReader) error) func(args []string) error {
	return func(args []string) error {
		if len(args) != 1 {
			return fmt.Errorf("expected exactly one decision-log path, got %d args", len(args))
		}
		r, err := openLog(args[0], steps)
		if err != nil {
			return err
		}
		defer r.f.Close()
		if r.daemon && sim != "" {
			return fmt.Errorf("%s: a serving daemon's log; %s reads a simulator's decision log (sim -decision-log)", r.path, sim)
		}
		return fn(r)
	}
}

// openLog opens a JSONL decision log and reads its first line: a tool's
// schema header, which it enforces, or a daemon's first record.
func openLog(path string, steps stepMode) (r *logReader, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	r = &logReader{path: path, f: f, sc: bufio.NewScanner(f), steps: steps}
	r.sc.Buffer(nil, 16<<20)
	var h lineHead
	line, err := r.scan(func(line []byte) error { return json.Unmarshal(line, &h) })
	switch {
	case err != nil:
		return nil, err
	case line == nil:
		return nil, fmt.Errorf("%s: empty decision log", path)
	case h.Event == "header" && h.Schema != telemetry.DecisionLogSchema:
		return nil, fmt.Errorf("%s: decision-log schema %d not supported (want %d)", path, h.Schema, telemetry.DecisionLogSchema)
	case h.Event == "header":
		return r, nil
	case h.Event == "":
		if rec, err := serve.DecodeRecord(line); err == nil && rec.Seq > 0 && rec.Kind != "" {
			r.daemon, r.first = true, &logEvent{kind: rec.Kind, seq: rec.Seq, val: rec, line: line}
			return r, nil
		}
	}
	return nil, fmt.Errorf("%s: not a gsight decision log (no schema header)", path)
}

// scan returns the next non-blank line decode accepts, or nil at the
// end of the file. A line decode refuses is an error naming the file,
// unless it is the last: a record torn when a run was killed before its
// flush is dropped.
func (r *logReader) scan(decode func([]byte) error) ([]byte, error) {
	for r.sc.Scan() {
		line := bytes.TrimSpace(r.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		err := decode(line)
		if err == nil {
			return line, nil
		}
		if r.sc.Scan() {
			return nil, fmt.Errorf("%s: bad log line: %v", r.path, err)
		}
	}
	if err := r.sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", r.path, err)
	}
	return nil, nil
}

// next returns the log's next event, or nil at its end. Step lines come
// back only when the reader decodes them.
func (r *logReader) next() (*logEvent, error) {
	ev := r.first
	r.first = nil
	for ev == nil {
		line, err := r.scan(func(line []byte) (err error) {
			ev, err = r.decode(line)
			return err
		})
		if line == nil || err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// decode decodes one line as the reader's steps says; a step line it
// skips is checked and comes back nil.
func (r *logReader) decode(line []byte) (*logEvent, error) {
	if r.daemon {
		rec, err := serve.DecodeRecord(line)
		if err != nil {
			return nil, err
		}
		return &logEvent{kind: rec.Kind, seq: rec.Seq, val: rec, line: line}, nil
	}
	h := lineHead{Head: telemetry.Head{Event: "step"}}
	if !bytes.HasPrefix(line, stepPrefix) {
		if err := json.Unmarshal(line, &h); err != nil {
			return nil, err
		}
	}
	ev := &logEvent{kind: h.Event, seq: h.Seq, line: line}
	switch {
	case h.Event == "step" && (r.steps == stepsChecked || r.steps == linesRaw):
		if !json.Valid(line) {
			return nil, fmt.Errorf("a step line that is not JSON")
		}
		if r.steps == stepsChecked {
			return nil, nil
		}
	case r.steps == linesRaw:
	case h.Event != "step":
		if ev.val = telemetry.NewEvent(h.Event); ev.val == nil {
			return nil, fmt.Errorf("unknown event %q", h.Event)
		}
		if err := json.Unmarshal(line, ev.val); err != nil {
			return nil, err
		}
	case r.steps == stepsScalar:
		st := new(stepHead)
		if err := json.Unmarshal(line, st); err != nil {
			return nil, err
		}
		ev.seq, ev.val = st.Seq, st
	default:
		st := new(telemetry.StepSample)
		if err := json.Unmarshal(line, st); err != nil {
			return nil, err
		}
		ev.seq, ev.val = st.Seq, st
	}
	return ev, nil
}

// each folds fn over the reader's remaining events.
func (r *logReader) each(fn func(*logEvent) error) error {
	for {
		ev, err := r.next()
		if ev == nil || err != nil {
			return err
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}

// ---- summary ----

func summarizeLog(r *logReader) error {
	if r.daemon {
		return summarizeDaemonLog(r)
	}
	events := 0
	kinds, outcomes, rejected := map[string]int{}, map[string]int{}, map[string]int{}
	// Completed, checked and violating jobs and their summed slowdown,
	// per archetype.
	completed, checked, violated, slowdown := map[string]int{}, map[string]int{}, map[string]int{}, map[string]float64{}
	tier0Decisions, tier0Kept, tier0Pruned := 0, 0, 0
	var drifts []*telemetry.DriftEvent
	// The cluster line: the step samples' span, and their mean density
	// and CPU utilization over the steps with an active server — the
	// series `gsight sim` reports.
	var steps struct {
		n, servers, degraded, predDown, active int
		cpu, density, firstT, lastT            float64
	}
	err := r.each(func(ev *logEvent) error {
		events++
		kinds[ev.kind]++
		switch e := ev.val.(type) {
		case *telemetry.PlacementDecision:
			outcomes[e.Outcome]++
			if e.Outcome == "rejected" {
				rejected[e.Workload]++
			}
			if e.Tier0Kept > 0 {
				tier0Decisions++
				tier0Kept += e.Tier0Kept
				tier0Pruned += e.Tier0Pruned
			}
		case *telemetry.JobEnd:
			completed[e.Archetype]++
			slowdown[e.Archetype] += e.Slowdown
			if e.SLAOK != nil {
				checked[e.Archetype]++
				if !*e.SLAOK {
					violated[e.Archetype]++
				}
			}
		case *telemetry.DriftEvent:
			drifts = append(drifts, e)
		case *stepHead:
			if steps.n++; steps.n == 1 {
				steps.servers, steps.firstT = int(e.CPUDemand), e.SimTimeS
			}
			steps.lastT = e.SimTimeS
			if e.Degraded {
				steps.degraded++
			}
			if e.PredictorDown {
				steps.predDown++
			}
			if e.ActiveServers > 0 {
				steps.active++
				steps.cpu += e.CPUUtil
				steps.density += e.Density
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("decision log: %d events\n", events)
	printCounts("", kinds)
	printCounts("placement outcomes:", outcomes)
	if len(rejected) > 0 {
		fmt.Println("top rejected workloads:")
		for _, w := range topKeys(rejected, 5) {
			fmt.Printf("  %-18s %d\n", w, rejected[w])
		}
	}
	if tier0Decisions > 0 {
		scanned := tier0Kept + tier0Pruned
		fmt.Printf("two-tier pruning: %d decisions, %d candidates pruned of %d scanned (%.1f%%)\n",
			tier0Decisions, tier0Pruned, scanned, 100*float64(tier0Pruned)/float64(max(scanned, 1)))
	}
	if len(violated) > 0 {
		fmt.Println("top SLA-violating jobs:")
		for _, name := range topKeys(violated, 5) {
			fmt.Printf("  %-18s %d/%d checked jobs violated, mean slowdown %.2fx\n",
				name, violated[name], checked[name], slowdown[name]/float64(completed[name]))
		}
	}
	for _, d := range drifts {
		fmt.Printf("predictor drift at t=%.0fs: qos=%s archetype=%s mape=%.3f ph=%.2f\n",
			d.SimTimeS, d.QoS, d.Archetype, d.MAPE, d.PH)
	}
	fmt.Println()
	if steps.n > 0 {
		active := float64(max(steps.active, 1))
		fmt.Printf("steps: %d over %d servers, step %.0fs, t=[%.0fs, %.0fs]\n", steps.n,
			steps.servers, float64(platform.StepS), steps.firstT, steps.lastT)
		fmt.Printf("  mean density %.3f, mean CPU util %.3f\n", steps.density/active, steps.cpu/active)
		fmt.Printf("  degraded steps %d, predictor-down steps %d\n", steps.degraded, steps.predDown)
	}
	return nil
}

// summarizeDaemonLog prints a serving daemon's log: records by kind,
// placement outcomes and reasons, the observations the learner applied
// and the releases that found their instance.
func summarizeDaemonLog(r *logReader) error {
	kinds, outcomes, reasons := map[string]int{}, map[string]int{}, map[string]int{}
	records, applied, released := 0, 0, 0
	var firstSeq, lastSeq uint64
	err := r.each(func(ev *logEvent) error {
		if records++; records == 1 {
			firstSeq = ev.seq
		}
		lastSeq = ev.seq
		kinds[ev.kind]++
		switch rec := ev.val.(*serve.Record); {
		case ev.kind == "place" && rec.Place == nil:
			outcomes[""]++
		case ev.kind == "place":
			outcomes[rec.Place.Outcome]++
			if rec.Place.Reason != "" {
				reasons[rec.Place.Reason]++
			}
		case ev.kind == "observe" && rec.Obs != nil && rec.Obs.Applied:
			applied++
		case ev.kind == "release" && rec.Rel != nil && rec.Rel.Released:
			released++
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("daemon log: %d records, seq %d..%d\n", records, firstSeq, lastSeq)
	printCounts("", kinds)
	printCounts("placement outcomes:", outcomes)
	printCounts("placement reasons:", reasons)
	if n := kinds["observe"]; n > 0 {
		fmt.Printf("observations applied: %d of %d\n", applied, n)
	}
	if n := kinds["release"]; n > 0 {
		fmt.Printf("releases that found their instance: %d of %d\n", released, n)
	}
	return nil
}

// ---- predq ----

const noSamples = "no prediction-quality samples in the decision log"

func cmdPredq(r *logReader) error {
	// Replay the samples through the same online tracker the platform
	// runs, which keeps each QoS kind apart, so the reported rolling
	// stats match what the live run saw.
	q := obs.NewPredQ()
	archetypes := map[string]map[string]bool{} // per QoS kind
	var drifts []*telemetry.DriftEvent
	err := r.each(func(ev *logEvent) error {
		switch e := ev.val.(type) {
		case *telemetry.PredSample:
			if archetypes[e.QoS] == nil {
				archetypes[e.QoS] = map[string]bool{}
			}
			archetypes[e.QoS][e.Archetype] = true
			q.Track(e.Archetype, e.QoS, e.Pred, e.Obs)
		case *telemetry.DriftEvent:
			drifts = append(drifts, e)
		}
		return nil
	})
	if err != nil || len(archetypes) == 0 {
		if err == nil {
			fmt.Println(noSamples)
		}
		return err
	}
	for _, qos := range sortedKeys(archetypes) {
		ov := q.Overall(qos)
		fmt.Printf("prediction quality qos=%s: %d samples\n", qos, ov.Count)
		fmt.Printf("  %-18s %8s %8s %9s %8s\n", "archetype", "samples", "window", "mean_err", "MAPE")
		fmt.Printf("  %-18s %8d %8d %+9.3f %8.3f\n", "overall", ov.Count, ov.Window(), ov.MeanErr(), ov.MAPE())
		for _, arch := range sortedKeys(archetypes[qos]) {
			if st := q.Archetype(qos, arch); st != nil {
				fmt.Printf("  %-18s %8d %8d %+9.3f %8.3f\n", arch, st.Count, st.Window(), st.MeanErr(), st.MAPE())
			}
		}
		fmt.Println()
	}
	if len(drifts) == 0 {
		fmt.Println("no drift events recorded")
		return nil
	}
	fmt.Printf("drift events recorded: %d\n", len(drifts))
	for _, d := range drifts {
		fmt.Printf("  t=%.0fs qos=%s archetype=%s window=%d mean_err=%+.3f mape=%.3f ph=%.2f\n",
			d.SimTimeS, d.QoS, d.Archetype, d.Window, d.MeanErr, d.MAPE, d.PH)
	}
	return nil
}

// ---- errors ----

// errorBuckets is the number of time buckets the errors view renders.
const errorBuckets = 12

// errorSums is one QoS kind's samples and relative-error sums per time
// bucket.
type errorSums struct {
	n                 int
	counts            [errorBuckets]int
	sumAbs, sumSigned [errorBuckets]float64
}

// cmdErrors reads the log twice: the first pass finds the time span
// the buckets divide, the second sums each sample's error into its
// bucket.
func cmdErrors(r *logReader) error {
	n, minT, maxT := 0, 0.0, 0.0
	err := r.each(func(ev *logEvent) error {
		if s, ok := ev.val.(*telemetry.PredSample); ok && s.Obs > 0 {
			if n++; n == 1 {
				minT, maxT = s.SimTimeS, s.SimTimeS
			}
			minT, maxT = min(minT, s.SimTimeS), max(maxT, s.SimTimeS)
		}
		return nil
	})
	if err != nil || n == 0 {
		if err == nil {
			fmt.Println(noSamples)
		}
		return err
	}
	span := maxT - minT
	if span <= 0 {
		span = 1
	}
	again, err := openLog(r.path, stepsChecked)
	if err != nil {
		return err
	}
	defer again.f.Close()
	byQoS := map[string]*errorSums{}
	err = again.each(func(ev *logEvent) error {
		s, ok := ev.val.(*telemetry.PredSample)
		if !ok || s.Obs <= 0 {
			return nil
		}
		sums := byQoS[s.QoS]
		if sums == nil {
			sums = new(errorSums)
			byQoS[s.QoS] = sums
		}
		b := errorBuckets - 1
		if f := (s.SimTimeS - minT) / span * errorBuckets; f < errorBuckets {
			b = int(f)
		}
		rel := (s.Pred - s.Obs) / s.Obs
		sums.n++
		sums.counts[b]++
		sums.sumSigned[b] += rel
		sums.sumAbs[b] += math.Abs(rel)
		return nil
	})
	if err != nil {
		return err
	}
	for _, qos := range sortedKeys(byQoS) {
		sums := byQoS[qos]
		fmt.Printf("prediction error over time qos=%s (%d samples)\n", qos, sums.n)
		fmt.Printf("  %12s %8s %9s %8s\n", "t_start", "samples", "mean_err", "MAPE")
		for b, count := range sums.counts {
			t := minT + span*float64(b)/errorBuckets
			if count == 0 {
				fmt.Printf("  %11.0fs %8d %9s %8s\n", t, 0, "-", "-")
			} else {
				fmt.Printf("  %11.0fs %8d %+9.3f %8.3f\n", t, count, sums.sumSigned[b]/float64(count), sums.sumAbs[b]/float64(count))
			}
		}
		fmt.Println()
	}
	return nil
}

// ---- heat ----

func cmdHeat(r *logReader) error {
	steps, peak := 0, 0.0
	var sumCPU, maxCPU, sumMem []float64
	var down, slow []int
	err := r.each(func(ev *logEvent) error {
		st, ok := ev.val.(*telemetry.StepSample)
		if !ok {
			return nil
		}
		if steps++; steps == 1 {
			n := len(st.CPUDemand)
			sumCPU, maxCPU, sumMem = make([]float64, n), make([]float64, n), make([]float64, n)
			down, slow = make([]int, n), make([]int, n)
		}
		servers := len(sumCPU)
		if len(st.CPUDemand) != servers || len(st.MemUsed) != servers {
			return fmt.Errorf("%s: step %d samples %d/%d servers, the first step %d", r.path, st.Step, len(st.CPUDemand), len(st.MemUsed), servers)
		}
		for s := range servers {
			sumCPU[s] += float64(st.CPUDemand[s])
			maxCPU[s] = max(maxCPU[s], float64(st.CPUDemand[s]))
			peak = max(peak, maxCPU[s])
			sumMem[s] += float64(st.MemUsed[s])
		}
		for _, col := range []struct{ servers, count []int }{{st.Down, down}, {st.Slow, slow}} {
			for _, s := range col.servers {
				if s < 0 || s >= servers {
					return fmt.Errorf("%s: step %d names server %d of %d", r.path, st.Step, s, servers)
				}
				col.count[s]++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if steps == 0 {
		fmt.Println("no step samples in the decision log")
		return nil
	}
	n := float64(steps)
	fmt.Printf("per-server heat over %d steps (step %.0fs)\n", steps, float64(platform.StepS))
	fmt.Printf("%6s %9s %9s %9s %6s %6s  %s\n", "server", "cpu_mean", "cpu_max", "mem_mean", "down", "slow", "load")
	for s := range sumCPU {
		fmt.Printf("%6d %9.2f %9.2f %9.2f %6d %6d  %s\n",
			s, sumCPU[s]/n, maxCPU[s], sumMem[s]/n, down[s], slow[s], heatBar(sumCPU[s]/n, peak))
	}
	return nil
}

// heatBar renders mean load as a proportional bar against the cluster
// peak, so relative imbalance is visible at a glance; a negative load
// draws none.
func heatBar(v, peak float64) string {
	const width = 30
	if peak <= 0 {
		return ""
	}
	return strings.Repeat("#", int(max(0, min(width, v/peak*width))))
}

// ---- trace export ----

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("gsight inspect trace", flag.ContinueOnError)
	out := fs.String("o", "", "write the trace to this file instead of stdout")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	return withLog(stepsChecked, "trace", renderTrace(*out))(fs.Args())
}

// renderTrace encodes a decision log's simulator events as a Perfetto
// trace through obs.Tracer — one trace event per log event, in log
// order, its args the event as the log decoded it — and closes the
// tracer's array, so the file is strict JSON. Step samples and the
// events no simulator writes (training steps, experiment outcomes) are
// not part of the trace. The trace streams to out, or to stdout when
// out is empty; a log refused part-way leaves no out file.
func renderTrace(out string) func(*logReader) error {
	return func(r *logReader) (err error) {
		dst := os.Stdout
		if out != "" {
			if dst, err = os.OpenFile(out, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644); err != nil {
				return err
			}
			defer func() {
				if cerr := dst.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					os.Remove(out)
				}
			}()
		}
		w := &holdLast{w: bufio.NewWriter(dst)}
		tr := obs.NewTracer(w)
		err = r.each(func(ev *logEvent) error {
			tr.Event(ev.val)
			return nil
		})
		if err != nil {
			return err
		}
		if w.last == nil {
			return fmt.Errorf("%s: no simulator events to render", r.path)
		}
		w.w.Write(w.last[:len(w.last)-len(",\n")])
		w.w.WriteString("\n]\n")
		return w.w.Flush()
	}
}

// holdLast passes the tracer's writes — the preamble's lines, then one
// event line each — on to w one write behind, so the trace's end can
// drop the comma after its last event. w keeps its first error for
// Flush.
type holdLast struct {
	w    *bufio.Writer
	last []byte
}

func (h *holdLast) Write(p []byte) (int, error) {
	h.w.Write(h.last)
	h.last = append(h.last[:0], p...)
	return len(p), nil
}

// ---- diff ----

// cmdDiff compares two logs in two passes, each streaming both logs side
// by side: first every event but the step samples, then the step
// samples. Events are equal when their lines are, or else when they
// decode equal, whatever their lines' key order: only lines whose bytes
// differ are decoded. A divergence quotes the two lines as written.
func cmdDiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("diff expects exactly two decision-log paths")
	}
	n := 0
	for pass, what := range []string{"event", "step sample"} {
		steps := pass == 1
		var rs [2]*logReader
		for i, path := range args {
			r, err := openLog(path, linesRaw)
			if err != nil {
				return err
			}
			defer r.f.Close()
			rs[i] = r
		}
		// next skips the events of the other pass.
		next := func(r *logReader) (*logEvent, error) {
			for {
				ev, err := r.next()
				if ev == nil || err != nil || (ev.kind == "step") == steps {
					return ev, err
				}
			}
		}
		for i := 0; ; i, n = i+1, n+1 {
			a, err := next(rs[0])
			if err != nil {
				return err
			}
			b, err := next(rs[1])
			if err != nil {
				return err
			}
			if a == nil && b == nil {
				break
			}
			same := a != nil && b != nil && bytes.Equal(a.line, b.line)
			if !same && a != nil && b != nil {
				if same, err = decodedEqual(rs, a, b); err != nil {
					return err
				}
			}
			if !same {
				fmt.Printf("decision logs diverge at %s %d:\n  a: %s\n  b: %s\n", what, i, a.quote(), b.quote())
				return &exitError{code: 1}
			}
		}
	}
	fmt.Printf("decision logs identical: %d events\n", n)
	return nil
}

// decodedEqual reports whether events a and b, read raw from rs[0] and
// rs[1], decode whole to the same event.
func decodedEqual(rs [2]*logReader, a, b *logEvent) (bool, error) {
	var evs [2]*logEvent
	for i, ev := range []*logEvent{a, b} {
		whole := *rs[i]
		whole.steps = stepsWhole
		var err error
		if evs[i], err = whole.decode(ev.line); err != nil {
			return false, fmt.Errorf("%s: bad log line: %v", rs[i].path, err)
		}
	}
	return evs[0].kind == evs[1].kind && evs[0].seq == evs[1].seq && reflect.DeepEqual(evs[0].val, evs[1].val), nil
}

// quote is the event's line as the log wrote it, or <ended> past the
// log's end.
func (ev *logEvent) quote() []byte {
	if ev == nil {
		return []byte("<ended>")
	}
	return ev.line
}

// ---- small helpers ----

// sortedKeys returns the keys of a string-keyed map in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// topKeys returns the top keys of m by count, descending, ties in key
// order.
func topKeys(m map[string]int, top int) []string {
	ks := sortedKeys(m)
	sort.SliceStable(ks, func(i, j int) bool { return m[ks[i]] > m[ks[j]] })
	return ks[:min(len(ks), top)]
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
