package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// driveTracer emits a fixed event sequence; split lets tests cut the
// sequence at an arbitrary point to simulate a crash/resume.
func driveTracer(t *Tracer, from, to int) {
	for i := from; i < to; i++ {
		ts := float64(i) * 30
		switch i % 4 {
		case 0:
			t.JobBegin(i, "matmul", "matmul#0", ts, []int{i % 3}, 1.5)
		case 1:
			t.Placement(ts, &PlacementInfo{
				Workload: "social-network", Outcome: "placed",
				SpreadLevels: 3, SLAChecks: 7, Placement: []int{0, 1}, PredIPC: 1.2,
			})
		case 2:
			t.PredSample(ts, "matmul", "jct", 1.4, 1.6)
		case 3:
			t.JobEnd(i-3, "matmul", ts, 42.5, 1.18, true, true)
		}
	}
}

func TestTracerStreamShape(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	driveTracer(tr, 0, 8)
	tr.Fault(300, "node-down", 2, 5)
	tr.Degraded(310, true, "predictor-unavailable")
	tr.Reactive(320, "evict-corunner", "social-network", 2)

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
	if got := tr.Stream().Records(); got != uint64(events) {
		t.Fatalf("Records() = %d, stream has %d", got, events)
	}
	if _, b := tr.Stream().Offset(); b != int64(len(out)) {
		t.Fatalf("Offset bytes = %d, wrote %d", b, len(out))
	}
	if !strings.Contains(out, `"schema":1`) {
		t.Fatal("preamble must carry the schema version")
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
	var crashed bytes.Buffer
	tr3 := NewTracer(&crashed)
	driveTracer(tr3, 0, 5)
	ckEvents, ckBytes := tr3.Stream().Offset()
	driveTracer(tr3, 5, 7) // lost to the crash
	tr4 := NewTracer(&crashed)
	if err := tr4.Stream().TruncateTo(ckEvents, ckBytes); err != nil {
		t.Fatal(err)
	}
	driveTracer(tr4, 5, 12)
	if !bytes.Equal(full.Bytes(), crashed.Bytes()) {
		t.Fatal("crash/resume trace differs from uninterrupted trace")
	}
}

func makeFrame(i, servers int) *Frame {
	fr := &Frame{
		SimTimeS:      float64(i) * 30,
		Step:          uint32(i),
		Flags:         uint8(i % 4),
		ActiveServers: uint16(servers - i%2),
		Pending:       uint32(10 + i),
		Density:       float32(i) * 0.5,
		GoodDensity:   float32(i) * 0.4,
		CPUUtil:       0.7,
		MemUtil:       0.3,
		CPUDemand:     make([]float32, servers),
		MemUsed:       make([]float32, servers),
		ServerFlags:   make([]uint8, servers),
	}
	for s := 0; s < servers; s++ {
		fr.CPUDemand[s] = float32(i*s) * 0.1
		fr.MemUsed[s] = float32(s) * 1.5
		fr.ServerFlags[s] = uint8(s % 3)
	}
	return fr
}

func TestFlightRoundTrip(t *testing.T) {
	const servers = 4
	var buf bytes.Buffer
	fl := NewFlight(&buf, servers, 30)
	for i := 0; i < 10; i++ {
		fl.Record(makeFrame(i, servers))
	}
	if n := fl.Stream().Records(); n != 10 {
		t.Fatalf("Records() = %d, want 10", n)
	}
	if _, b := fl.Stream().Offset(); b != int64(buf.Len()) {
		t.Fatalf("Offset bytes = %d, wrote %d", b, buf.Len())
	}
	fd, err := ReadFlight(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if fd.Servers != servers || fd.StepS != 30 || len(fd.Frames) != 10 {
		t.Fatalf("decoded servers=%d stepS=%v frames=%d", fd.Servers, fd.StepS, len(fd.Frames))
	}
	got := fd.Frames[7]
	want := makeFrame(7, servers)
	if got.SimTimeS != want.SimTimeS || got.Step != want.Step || got.Flags != want.Flags ||
		got.Pending != want.Pending || got.Density != want.Density {
		t.Fatalf("frame 7 mismatch: got %+v want %+v", got, *want)
	}
	for s := 0; s < servers; s++ {
		if got.CPUDemand[s] != want.CPUDemand[s] || got.MemUsed[s] != want.MemUsed[s] ||
			got.ServerFlags[s] != want.ServerFlags[s] {
			t.Fatalf("frame 7 server %d mismatch", s)
		}
	}

	// A torn final frame (crash mid-write) is dropped, not an error.
	torn := buf.Bytes()[:buf.Len()-5]
	fd, err = ReadFlight(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Frames) != 9 {
		t.Fatalf("torn recording decoded %d frames, want 9", len(fd.Frames))
	}
}

func TestFlightRewind(t *testing.T) {
	const servers = 3
	var full bytes.Buffer
	fl := NewFlight(&full, servers, 30)
	for i := 0; i < 8; i++ {
		fl.Record(makeFrame(i, servers))
	}

	var crashed bytes.Buffer
	fl2 := NewFlight(&crashed, servers, 30)
	for i := 0; i < 4; i++ {
		fl2.Record(makeFrame(i, servers))
	}
	ckFrames, ckBytes := fl2.Stream().Offset()
	fl2.Record(makeFrame(4, servers)) // lost to the crash
	fl3 := NewFlight(&crashed, servers, 30)
	if err := fl3.Stream().TruncateTo(ckFrames, ckBytes); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		fl3.Record(makeFrame(i, servers))
	}
	if !bytes.Equal(full.Bytes(), crashed.Bytes()) {
		t.Fatal("crash/resume recording differs from uninterrupted recording")
	}
}

func TestFlightRejectsUnknownSchema(t *testing.T) {
	var buf bytes.Buffer
	fl := NewFlight(&buf, 2, 30)
	fl.Record(makeFrame(0, 2))
	data := buf.Bytes()
	data[4] = 99 // bump the version field
	if _, err := ReadFlight(bytes.NewReader(data)); err == nil {
		t.Fatal("unknown flight schema must be rejected")
	}
	if _, err := ReadFlight(bytes.NewReader([]byte("not a recording"))); err == nil {
		t.Fatal("bad magic must be rejected")
	}
}

func TestPredQStats(t *testing.T) {
	q := NewPredQ(0, 0)
	// Constant +10% over-prediction: MAPE 0.1, mean +0.1, no drift.
	for i := 0; i < 50; i++ {
		if _, fired := q.Track("matmul", "jct", 1.1, 1.0); fired {
			t.Fatal("steady errors must not fire drift")
		}
	}
	if m := q.Overall().MAPE(); math.Abs(m-0.1) > 1e-9 {
		t.Fatalf("MAPE = %v, want 0.1", m)
	}
	if m := q.Archetype("matmul").MeanErr(); math.Abs(m-0.1) > 1e-9 {
		t.Fatalf("mean err = %v, want 0.1", m)
	}
	if q.Archetype("dd") != nil {
		t.Fatal("unseen archetype must report nil stats")
	}
	// Samples with no meaningful relative error are ignored.
	q.Track("matmul", "jct", 1.0, 0)
	q.Track("matmul", "jct", math.NaN(), 1.0)
	if q.Overall().Count != 50 {
		t.Fatalf("count = %d, want 50", q.Overall().Count)
	}
}

func TestPredQDrift(t *testing.T) {
	q := NewPredQ(2.0, 0.05)
	// Accurate phase, then the predictor goes badly wrong: drift fires.
	for i := 0; i < 100; i++ {
		if _, fired := q.Track("matmul", "ipc", 1.0, 1.0); fired {
			t.Fatalf("drift fired during the accurate phase (sample %d)", i)
		}
	}
	fired := false
	for i := 0; i < 100 && !fired; i++ {
		var d DriftInfo
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

// TestRecorderCheckpointResume drives a full Recorder through a
// simulated crash/resume and requires both streams plus the tracker to
// continue exactly as an uninterrupted run would.
func TestRecorderCheckpointResume(t *testing.T) {
	const servers = 3
	drive := func(r *Recorder, from, to int) {
		for i := from; i < to; i++ {
			ts := float64(i) * 30
			driveTracer(r.Trace(), i, i+1)
			r.Flight().Record(makeFrame(i, servers))
			pred := 1.0 + float64(i%7)*0.3
			if d, fired := r.TrackPrediction(ts, "matmul", "jct", pred, 1.0); fired {
				r.Trace().Drift(ts, &d)
			}
		}
	}
	newRec := func(tb, fb *bytes.Buffer) *Recorder {
		return New(Config{Trace: tb, Flight: fb, Servers: servers, StepS: 30, PHLambda: 1.0, PHDelta: 0.01})
	}

	var ftr, ffl bytes.Buffer
	full := newRec(&ftr, &ffl)
	drive(full, 0, 40)

	var ctr, cfl bytes.Buffer
	rec := newRec(&ctr, &cfl)
	drive(rec, 0, 25)
	raw, err := rec.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	drive(rec, 25, 31) // lost to the crash
	rec2 := newRec(&ctr, &cfl)
	if err := rec2.RestoreCheckpoint(raw); err != nil {
		t.Fatal(err)
	}
	drive(rec2, 25, 40)

	if !bytes.Equal(ftr.Bytes(), ctr.Bytes()) {
		t.Fatal("crash/resume trace differs from uninterrupted trace")
	}
	if !bytes.Equal(ffl.Bytes(), cfl.Bytes()) {
		t.Fatal("crash/resume flight recording differs from uninterrupted recording")
	}
	a, _ := full.CheckpointState()
	b, _ := rec2.CheckpointState()
	if !bytes.Equal(a, b) {
		t.Fatalf("tracker state diverged:\n%s\n%s", a, b)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder must report disabled")
	}
	r.Trace().JobBegin(1, "a", "a#0", 0, nil, 0)
	r.Flight().Record(nil)
	if _, fired := r.TrackPrediction(0, "a", "jct", 1, 1); fired {
		t.Fatal("nil recorder fired drift")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if raw, err := r.CheckpointState(); raw != nil || err != nil {
		t.Fatal("nil recorder checkpoint state must be empty")
	}
	if err := r.RestoreCheckpoint(nil); err != nil {
		t.Fatal(err)
	}
}
