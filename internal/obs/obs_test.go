package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsight/internal/telemetry"
)

// crashFile creates the file a crashed run recorded into; a resumed
// stream reopens it and cuts it back to a checkpointed offset.
func crashFile(t *testing.T) *os.File {
	f, err := os.Create(filepath.Join(t.TempDir(), "crashed"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// flushed flushes s and returns everything in f.
func flushed(t *testing.T, s *telemetry.Stream, f *os.File) []byte {
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// driveTracer emits a fixed event sequence, each event stamped with the
// head its decision-log line would carry; split lets tests cut the
// sequence at an arbitrary point to simulate a crash/resume.
func driveTracer(t *Tracer, from, to int) {
	slaOK := true
	for i := from; i < to; i++ {
		ts := float64(i) * 30
		head := func(kind string) telemetry.Head { return telemetry.Head{Event: kind, Seq: uint64(i + 1)} }
		switch i % 4 {
		case 0:
			t.Event(&telemetry.JobBegin{Head: head("job_begin"), SimTimeS: ts, ID: i, Archetype: "matmul", Job: "matmul#0", Placement: []int{i % 3}, PredJCTS: 1.5})
		case 1:
			t.Event(&telemetry.PlacementDecision{Head: head("placement"),
				SimTimeS: ts, Scheduler: "Gsight", Workload: "social-network", Class: "LS", Functions: 2, Servers: 8,
				ActiveServers: 2, Placement: []int{0, 1}, Outcome: "placed", SpreadLevels: 3, SLAChecks: 7, PredIPC: 1.2,
			})
		case 2:
			t.Event(&telemetry.PredSample{Head: head("pred_sample"), SimTimeS: ts, Archetype: "matmul", QoS: "jct", Pred: 1.4, Obs: 1.6})
		case 3:
			t.Event(&telemetry.JobEnd{Head: head("job_end"), SimTimeS: ts, ID: i - 3, Archetype: "matmul", JCTS: 42.5, Slowdown: 1.18, SLAOK: &slaOK})
		}
	}
}

func TestTracerStreamShape(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	driveTracer(tr, 0, 8)
	for _, ev := range []any{
		&telemetry.FaultEvent{Head: telemetry.Head{Event: "fault", Seq: 9}, SimTimeS: 300, Kind: "node-down", Node: 2, DisplacedServices: 2, DisplacedJobs: 3},
		&telemetry.DegradedTransition{Head: telemetry.Head{Event: "degraded", Seq: 10}, SimTimeS: 310, Entered: true, Reason: "predictor-unavailable", Fallback: "WorstFit"},
		&telemetry.ReactiveAction{Head: telemetry.Head{Event: "reactive", Seq: 11}, SimTimeS: 320, Action: "evict-corunner", Service: "social-network", Moved: 2},
		&telemetry.DriftEvent{Head: telemetry.Head{Event: "predictor_drift", Seq: 12}, SimTimeS: 330, QoS: "ipc", Archetype: "matmul", Window: 64, MeanErr: 0.25, MAPE: 0.5, PH: 2.5},
	} {
		if !tr.Event(ev) {
			t.Fatalf("the trace does not show %T", ev)
		}
	}
	if tr.Event(&telemetry.StepSample{}) || tr.Event(&telemetry.PredictorUpdate{}) || tr.Event(&telemetry.ExperimentRun{}) {
		t.Fatal("the trace shows a step sample, a training step or an experiment outcome")
	}

	out := buf.String()
	if !strings.HasPrefix(out, "[\n") {
		t.Fatalf("stream must open with the array bracket, got %q", out[:10])
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	// Every event line must be valid JSON once the trailing comma is
	// stripped — that is the truncation-tolerance contract.
	var events int
	for _, ln := range lines[1:] {
		ln = strings.TrimSuffix(ln, ",")
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		events++
		if _, ok := ev["ts"]; !ok && ev["ph"] != "M" {
			t.Fatalf("non-metadata event without ts: %q", ln)
		}
	}
	if got := tr.s.Records(); got != uint64(events) {
		t.Fatalf("Records() = %d, stream has %d", got, events)
	}
	if _, b := tr.s.Offset(); b != int64(len(out)) {
		t.Fatalf("Offset bytes = %d, wrote %d", b, len(out))
	}
	if !strings.Contains(out, `"schema":1`) {
		t.Fatal("preamble must carry the schema version")
	}
	// The tracer renders the decision log's event structs: each trace
	// event keeps its own name, category and phase, and its args are
	// the log's event, head included.
	for _, want := range []string{
		`{"name":"node-down","cat":"fault","ph":"i","ts":300000000,"pid":1,"tid":0,"s":"g","args":{"event":"fault","seq":9,"sim_time_s":300,"kind":"node-down","node":2,"displaced_services":2,"displaced_jobs":3}},`,
		`{"name":"degraded","cat":"fault","ph":"i","ts":310000000,"pid":1,"tid":0,"s":"g","args":{"event":"degraded","seq":10,"sim_time_s":310,"entered":true,"reason":"predictor-unavailable","fallback":"WorstFit"}},`,
		`{"name":"evict-corunner","cat":"reactive","ph":"i","ts":320000000,"pid":1,"tid":0,"s":"t","args":{"event":"reactive","seq":11,"sim_time_s":320,"action":"evict-corunner","service":"social-network","moved":2}},`,
		`{"name":"predictor_drift","cat":"predq","ph":"i","ts":330000000,"pid":1,"tid":0,"s":"g","args":{"event":"predictor_drift","seq":12,"sim_time_s":330,"qos":"ipc","archetype":"matmul","window":64,"mean_err":0.25,"mape":0.5,"ph":2.5}},`,
		`{"name":"placement","cat":"sched","ph":"i","ts":30000000,"pid":1,"tid":0,"s":"t","args":{"event":"placement","seq":2,"sim_time_s":30,"scheduler":"Gsight","workload":"social-network","class":"LS","functions":2,"servers":8,"active_servers":2,"spread_levels":3,"sla_checks":7,"outcome":"placed","placement":[0,1],"pred_ipc":1.2}},`,
		`{"name":"matmul","cat":"job","ph":"b","ts":0,"pid":1,"tid":0,"id":0,"args":{"event":"job_begin","seq":1,"sim_time_s":0,"id":0,"archetype":"matmul","job":"matmul#0","placement":[0],"pred_jct_s":1.5}},`,
		`{"name":"sample","cat":"predq","ph":"i","ts":60000000,"pid":1,"tid":0,"s":"t","args":{"event":"pred_sample","seq":3,"sim_time_s":60,"archetype":"matmul","qos":"jct","pred":1.4,"obs":1.6}},`,
		`{"name":"matmul","cat":"job","ph":"e","ts":90000000,"pid":1,"tid":0,"id":0,"args":{"event":"job_end","seq":4,"sim_time_s":90,"id":0,"archetype":"matmul","jct_s":42.5,"slowdown":1.18,"sla_ok":true}},`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("trace lacks the line\n%s", want)
		}
	}
}

func TestTracerDeterminismAndRewind(t *testing.T) {
	var full bytes.Buffer
	tr := NewTracer(&full)
	driveTracer(tr, 0, 12)

	// Same calls, second tracer: byte-identical.
	var again bytes.Buffer
	tr2 := NewTracer(&again)
	driveTracer(tr2, 0, 12)
	if !bytes.Equal(full.Bytes(), again.Bytes()) {
		t.Fatal("same event sequence must produce byte-identical traces")
	}

	// Crash after 7 events, resume from a checkpoint taken at 5: cut
	// back to the checkpointed offset, replay the tail.
	crashed := crashFile(t)
	tr3 := NewTracer(crashed)
	driveTracer(tr3, 0, 5)
	ckEvents, ckBytes := tr3.s.Offset()
	driveTracer(tr3, 5, 7) // lost to the crash
	flushed(t, tr3.s, crashed)
	tr4 := NewTracer(crashed)
	if err := tr4.s.TruncateTo(ckEvents, ckBytes); err != nil {
		t.Fatal(err)
	}
	driveTracer(tr4, 5, 12)
	if !bytes.Equal(full.Bytes(), flushed(t, tr4.s, crashed)) {
		t.Fatal("crash/resume trace differs from uninterrupted trace")
	}
}

func TestPredQStats(t *testing.T) {
	q := NewPredQ()
	// Constant +10% over-prediction: MAPE 0.1, mean +0.1, no drift.
	for i := 0; i < 50; i++ {
		if _, fired := q.Track("matmul", "jct", 1.1, 1.0); fired {
			t.Fatal("steady errors must not fire drift")
		}
	}
	if m := q.Overall("jct").MAPE(); math.Abs(m-0.1) > 1e-9 {
		t.Fatalf("MAPE = %v, want 0.1", m)
	}
	if m := q.Archetype("jct", "matmul").MeanErr(); math.Abs(m-0.1) > 1e-9 {
		t.Fatalf("mean err = %v, want 0.1", m)
	}
	if q.Archetype("jct", "dd") != nil {
		t.Fatal("unseen archetype must report nil stats")
	}
	// Samples with no meaningful relative error are ignored.
	q.Track("matmul", "jct", 1.0, 0)
	q.Track("matmul", "jct", math.NaN(), 1.0)
	if q.Overall("jct").Count != 50 {
		t.Fatalf("count = %d, want 50", q.Overall("jct").Count)
	}
}

func TestPredQDrift(t *testing.T) {
	q := NewPredQ()
	// Accurate phase, then the predictor goes badly wrong: drift fires.
	for i := 0; i < 100; i++ {
		if _, fired := q.Track("matmul", "ipc", 1.0, 1.0); fired {
			t.Fatalf("drift fired during the accurate phase (sample %d)", i)
		}
	}
	fired := false
	for i := 0; i < 100 && !fired; i++ {
		var d telemetry.DriftEvent
		d, fired = q.Track("matmul", "ipc", 2.0, 1.0)
		if fired {
			if d.Archetype != "matmul" || d.QoS != "ipc" || d.PH <= 2.0 {
				t.Fatalf("bad drift info: %+v", d)
			}
		}
	}
	if !fired {
		t.Fatal("sustained 100% errors must fire the drift detector")
	}
	// The detector re-arms after firing: once a new accurate baseline
	// is established, a fresh error shift fires again.
	for i := 0; i < 100; i++ {
		q.Track("matmul", "ipc", 1.02, 1.0)
	}
	fired = false
	for i := 0; i < 200 && !fired; i++ {
		_, fired = q.Track("matmul", "ipc", 3.0, 1.0)
	}
	if !fired {
		t.Fatal("drift detector must re-arm after firing")
	}
}

// TestPredQKindsApart: each QoS kind has its own window and drift
// detector. Steady JCT errors at another level than the IPC ones
// neither move the IPC statistics nor fire, and a drift event carries
// the statistics of its own kind only.
func TestPredQKindsApart(t *testing.T) {
	q := NewPredQ()
	for i := 0; i < 100; i++ {
		if _, fired := q.Track("matmul", "ipc", 1.02, 1.0); fired {
			t.Fatalf("steady IPC errors fired drift (sample %d)", i)
		}
		if _, fired := q.Track("matmul", "jct", 1.5, 1.0); fired {
			t.Fatalf("steady JCT errors fired drift (sample %d)", i)
		}
	}
	if m := q.Overall("ipc").MAPE(); math.Abs(m-0.02) > 1e-9 {
		t.Fatalf("IPC MAPE = %v, want 0.02 (JCT errors leaked in)", m)
	}
	if q.Overall("ipc").Count != 100 || q.Archetype("ipc", "matmul").Count != 100 {
		t.Fatalf("IPC counts %d/%d, want 100", q.Overall("ipc").Count, q.Archetype("ipc", "matmul").Count)
	}
	for i := 0; i < 100; i++ {
		if d, fired := q.Track("matmul", "ipc", 2.0, 1.0); fired {
			if d.QoS != "ipc" || d.Window != 100+i+1 || d.MAPE >= 0.5 {
				t.Fatalf("IPC drift event %+v: want the IPC window only", d)
			}
			return
		}
	}
	t.Fatal("sustained IPC errors never fired the IPC detector")
}

// TestNilStreamsAreSafe: a nil *PredQ is tracking disabled — it never
// fires and reports no samples.
func TestNilStreamsAreSafe(t *testing.T) {
	var q *PredQ
	if _, fired := q.Track("a", "jct", 2, 1); fired {
		t.Fatal("nil tracker fired drift")
	}
	if q.Overall("jct").Count != 0 || q.Archetype("jct", "a") != nil {
		t.Fatal("nil tracker reports samples")
	}
}
