package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exactPercentile returns the value at rank ceil(q*n) of the sorted
// sample — the reference the histogram estimate is compared against.
func exactPercentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Fine linear buckets: the estimate must land within one bucket
	// width of the exact sample percentile.
	const width = 1.0
	h := newHistogram("t", "", LinearBuckets(width, width, 1000))
	rnd := rand.New(rand.NewSource(7))
	var vals []float64
	for i := 0; i < 20000; i++ {
		// Mix of uniform and heavy-tail values inside the bucket range.
		v := rnd.Float64() * 500
		if i%10 == 0 {
			v = 500 + rnd.Float64()*450
		}
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.50, 0.90, 0.95, 0.99} {
		got := h.Quantile(q)
		want := exactPercentile(vals, q)
		if math.Abs(got-want) > width {
			t.Errorf("q=%.2f: got %.3f, exact %.3f (tolerance %.1f)", q, got, want, width)
		}
	}
	if h.Count() != 20000 {
		t.Fatalf("count = %d", h.Count())
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if math.Abs(h.Sum()-sum) > 1e-6*sum {
		t.Fatalf("sum = %v, want %v", h.Sum(), sum)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := newHistogram("t", "", []float64{1, 2, 4})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// Past the raw-sample window, overflow observations interpolate
	// within buckets and the top quantile clamps to the last bound.
	for i := 0; i <= rawSampleCap; i++ {
		h.Observe(100) // overflow
	}
	if got := h.Quantile(0.99); got != 4 {
		t.Fatalf("overflow quantile should clamp to last bound, got %v", got)
	}
	if h.Min() != 100 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v, want 100/100", h.Min(), h.Max())
	}
	var nilH *Histogram
	nilH.Observe(1) // must not panic
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Fatal("nil histogram accessors should be zero")
	}
	if nilH.Min() != 0 || nilH.Max() != 0 {
		t.Fatal("nil histogram min/max should be zero")
	}
}

func TestHistogramExactSmallSamples(t *testing.T) {
	// While the count fits the raw buffer, quantiles are exact — not
	// bucket-interpolated — even with absurdly coarse buckets.
	h := newHistogram("t", "", []float64{1000})
	vals := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	for _, v := range vals {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 5 {
		t.Fatalf("exact p50 = %v, want 5", got)
	}
	if got := h.Quantile(0.99); got != 10 {
		t.Fatalf("exact p99 = %v, want 10", got)
	}
	if h.Min() != 1 || h.Max() != 10 {
		t.Fatalf("min/max = %v/%v, want 1/10", h.Min(), h.Max())
	}
	var out [4]float64
	qs := h.Quantiles([]float64{0.5, 0.95, 0.99, 0.999}, out[:])
	if qs[0] != 5 || qs[3] != 10 {
		t.Fatalf("Quantiles = %v", qs)
	}
	// Crossing the raw-sample capacity falls back to interpolation
	// without losing count/sum/min/max.
	for i := 0; i < rawSampleCap; i++ {
		h.Observe(0.5)
	}
	if h.Count() != uint64(len(vals)+rawSampleCap) || h.Min() != 0.5 || h.Max() != 10 {
		t.Fatalf("after overflow: count=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", CountBuckets())
	const workers, each = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				g.SetInt(w)
				h.Observe(float64(i % 64))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*each {
		t.Fatalf("counter lost updates: %d != %d", c.Value(), workers*each)
	}
	if h.Count() != workers*each {
		t.Fatalf("histogram lost updates: %d != %d", h.Count(), workers*each)
	}
	if v := g.Value(); v < 0 || v >= workers {
		t.Fatalf("gauge out of range: %v", v)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type mismatch")
		}
	}()
	r.Gauge("x", "")
}

func TestDecisionLogJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewDecisionLog(&buf)
	l.Placement(&PlacementDecision{
		Scheduler: "Gsight", Workload: "social-network", Class: "LS",
		Functions: 3, Servers: 8, ActiveServers: 2, SpreadLevels: 2,
		SLAChecks: 5, Outcome: "placed", Placement: []int{0, 0, 1},
	})
	l.PredictorUpdate(&PredictorUpdate{Predictor: "Gsight", Kind: "ipc", Phase: "update", Batch: 100, SamplesSeen: 300})
	l.Reactive(&ReactiveAction{SimTimeS: 120, Action: "evict-corunner", Service: "e-commerce", Moved: 2})
	if l.Stream().Records() != 4 { // schema header + 3 events
		t.Fatalf("events = %d", l.Stream().Records())
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != fmt.Sprintf(`{"event":"header","seq":0,"schema":%d}`, DecisionLogSchema) {
		t.Fatalf("first line is not the schema header: %s", lines[0])
	}
	for i, line := range lines {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		if int(m["seq"].(float64)) != i {
			t.Fatalf("line %d has seq %v", i, m["seq"])
		}
	}
	if !strings.Contains(lines[1], `"placement":[0,0,1]`) {
		t.Fatalf("placement array missing: %s", lines[1])
	}
	// Omitted optional fields stay omitted.
	if strings.Contains(lines[1], `"reason"`) {
		t.Fatalf("empty reason should be omitted: %s", lines[1])
	}
	// The drift event carries the full detector context.
	l.Drift(&DriftEvent{SimTimeS: 900, QoS: "jct", Archetype: "matmul", Window: 64, MeanErr: -0.2, MAPE: 0.35, PH: 2.5})
	if !strings.Contains(buf.String(), `{"event":"predictor_drift","seq":4,"sim_time_s":900,"qos":"jct","archetype":"matmul","window":64,"mean_err":-0.2,"mape":0.35,"ph":2.5}`) {
		t.Fatalf("drift event malformed:\n%s", buf.String())
	}
	// The simulator's lifecycle events and a vetted placement: optional
	// fields appear only when set, and an unchecked job has no verdict.
	l.Placement(&PlacementDecision{SimTimeS: 930, Scheduler: "Gsight", Workload: "matmul", Class: "SC", Functions: 1, Servers: 8,
		SpreadLevels: 1, SLAChecks: 2, Outcome: "placed", Placement: []int{3}, PredIPC: 1.25, PredJCTS: 40.5})
	l.JobBegin(&JobBegin{SimTimeS: 930, ID: 7, Archetype: "matmul", Job: "matmul#7", Placement: []int{3}, PredJCTS: 40.5})
	slaOK := true
	l.JobEnd(&JobEnd{SimTimeS: 990, ID: 7, Archetype: "matmul", JCTS: 42, Slowdown: 1.05, SLAOK: &slaOK})
	l.JobEnd(&JobEnd{SimTimeS: 990, ID: 8, Archetype: "dd", JCTS: 12})
	l.PredSample(&PredSample{SimTimeS: 990, Archetype: "matmul", QoS: "jct", Pred: 40.5, Obs: 42})
	for _, want := range []string{
		`{"event":"placement","seq":5,"sim_time_s":930,"scheduler":"Gsight","workload":"matmul","class":"SC","functions":1,"servers":8,"active_servers":0,"spread_levels":1,"sla_checks":2,"outcome":"placed","placement":[3],"pred_ipc":1.25,"pred_jct_s":40.5}`,
		`{"event":"job_begin","seq":6,"sim_time_s":930,"id":7,"archetype":"matmul","job":"matmul#7","placement":[3],"pred_jct_s":40.5}`,
		`{"event":"job_end","seq":7,"sim_time_s":990,"id":7,"archetype":"matmul","jct_s":42,"slowdown":1.05,"sla_ok":true}`,
		`{"event":"job_end","seq":8,"sim_time_s":990,"id":8,"archetype":"dd","jct_s":12}`,
		`{"event":"pred_sample","seq":9,"sim_time_s":990,"archetype":"matmul","qos":"jct","pred":40.5,"obs":42}`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("decision log lacks the line\n%s", want)
		}
	}
}

func TestDecisionLogDeterminism(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		l := NewDecisionLog(&buf)
		for i := 0; i < 50; i++ {
			l.Placement(&PlacementDecision{
				Scheduler: "Gsight", Workload: fmt.Sprintf("w%d", i), Class: "SC",
				Functions: i % 4, Servers: 8, SpreadLevels: 1 + i%3,
				Outcome: "placed", Placement: []int{i % 8},
			})
		}
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Fatal("identical event sequences must serialize byte-identically")
	}
}

func TestDecisionLogConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	l := NewDecisionLog(&buf)
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Placement(&PlacementDecision{Scheduler: "s", Outcome: "placed", Placement: []int{1}})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != workers*each+1 { // +1 for the schema header
		t.Fatalf("lines = %d, want %d", len(lines), workers*each+1)
	}
	seqs := map[int]bool{}
	for _, line := range lines {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("interleaved write produced invalid JSON: %v", err)
		}
		seqs[int(m["seq"].(float64))] = true
	}
	if len(seqs) != workers*each+1 {
		t.Fatalf("duplicate sequence numbers: %d unique", len(seqs))
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "a counter").Add(3)
	r.Gauge("a_gauge", "a gauge").Set(1.5)
	h := r.Histogram("c_hist", "a histogram", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(10) // overflow
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE a_gauge gauge\na_gauge 1.5\n",
		"# TYPE b_total counter\nb_total 3\n",
		`c_hist_bucket{le="1"} 1`,
		`c_hist_bucket{le="2"} 2`,
		`c_hist_bucket{le="+Inf"} 3`,
		"c_hist_count 3",
		"c_hist_min 0.5",
		"c_hist_max 10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Lexical order: a_gauge before b_total before c_hist.
	if !(strings.Index(out, "a_gauge") < strings.Index(out, "b_total") &&
		strings.Index(out, "b_total") < strings.Index(out, "c_hist")) {
		t.Fatalf("metrics not in lexical order:\n%s", out)
	}
}

func TestSnapshotAndReport(t *testing.T) {
	s := New().WithDecisions(io.Discard)
	ins := s.Scheduler("Gsight")
	ins.Placements.Add(5)
	ins.PlaceSeconds.Observe(0.001)
	s.Decisions.Placement(&PlacementDecision{Scheduler: "Gsight", Outcome: "placed"})
	rep := s.Report("test-tool", map[string]interface{}{"seed": 42}, map[string]interface{}{"ok": true})
	if rep.Tool != "test-tool" || rep.DecisionEvents != 2 { // header + placement
		t.Fatalf("report header wrong: %+v", rep)
	}
	if rep.Metrics.Counters["sched_gsight_placements_total"] != 5 {
		t.Fatalf("snapshot missing counter: %+v", rep.Metrics.Counters)
	}
	hs, ok := rep.Metrics.Histograms["sched_gsight_place_seconds"]
	if !ok || hs.Count != 1 {
		t.Fatalf("snapshot missing histogram: %+v", rep.Metrics.Histograms)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not marshalable: %v", err)
	}
}

func TestNopSinkIsFullyDisabled(t *testing.T) {
	var nop *Sink
	ins := nop.Scheduler("x")
	ins.Placements.Inc()
	ins.PlaceSeconds.Observe(1)
	nop.Platform().Decisions.Placement(&PlacementDecision{})
	span := StartSpan(ins.PlaceSeconds)
	span.End()
	pi := nop.Predictor()
	if pi.Enabled() {
		t.Fatal("nil-sink predictor instruments must be disabled")
	}
	if nop.Report("t", nil, nil).DecisionEvents != 0 {
		t.Fatal("nil-sink report should be empty")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Snapshot() == nil {
		t.Fatal("nil registry must hand out nil instruments and empty snapshots")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil registry must export nothing")
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("up", "").Inc()
	addr, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up 1") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars: code %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code %d", code)
	}
}

func TestDecisionLogOffsetAndRewind(t *testing.T) {
	var buf bytes.Buffer
	l := NewDecisionLog(&buf)
	emit := func(n int) {
		for i := 0; i < n; i++ {
			l.Reactive(&ReactiveAction{SimTimeS: float64(i), Action: "evict-corunner", Service: "svc", Moved: 1})
		}
	}
	emit(3)
	seq, bytesAt := l.Stream().Offset()
	if seq != 4 || bytesAt != int64(buf.Len()) { // header + 3 events
		t.Fatalf("offset = (%d, %d), want (4, %d)", seq, bytesAt, buf.Len())
	}
	emit(1)
	crashed := append([]byte(nil), buf.Bytes()...) // one event past the checkpoint
	emit(1)

	// A resumed run cuts its log back to the checkpointed offset and
	// re-emits: the bytes must line up exactly.
	f2 := &memFile{data: crashed}
	l2 := NewDecisionLog(f2)
	if err := l2.Stream().TruncateTo(seq, bytesAt); err != nil {
		t.Fatal(err)
	}
	if int64(len(f2.data)) != bytesAt {
		t.Fatalf("truncated log holds %d bytes, want %d", len(f2.data), bytesAt)
	}
	for i := 0; i < 2; i++ {
		l2.Reactive(&ReactiveAction{Action: "evict-corunner", Service: "svc", Moved: 1})
	}
	if err := l2.Stream().Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), f2.data) {
		t.Fatalf("resumed log diverged:\n%q\n%q", buf.Bytes(), f2.data)
	}
	if s2, b2 := l2.Stream().Offset(); s2 != 6 || b2 != int64(len(f2.data)) {
		t.Fatalf("post-resume offset = (%d, %d)", s2, b2)
	}
	// A truncate to a non-zero offset must not re-emit the header; only
	// a log cut to zero writes it again (TestStreamModel).
	if strings.Count(string(f2.data), `"event":"header"`) != 1 {
		t.Fatalf("resumed log duplicated the header:\n%s", f2.data)
	}
	// A log shorter than the offset is refused.
	if err := NewDecisionLog(&memFile{data: crashed[:bytesAt-1]}).Stream().TruncateTo(seq, bytesAt); err == nil {
		t.Fatal("a log shorter than the resume offset was accepted")
	}
	// Nil log is inert.
	var nilLog *DecisionLog
	if s, b := nilLog.Stream().Offset(); s != 0 || b != 0 {
		t.Fatal("nil Offset not zero")
	}
	if err := nilLog.Stream().TruncateTo(1, 1); err != nil {
		t.Fatal(err)
	}
}
