package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gsight/internal/serve"
	"gsight/internal/telemetry"
)

// sloLimit is the latency limit: a placement is acknowledged within
// 10 ms of the instant it was due.
const sloLimit = 10 * time.Millisecond

// stallThreshold is the shortest silence, with a request outstanding
// and no acknowledgement on any connection, that counts as a stall.
const stallThreshold = 20 * time.Millisecond

// daemonServers is the gsight-serve default cluster (the paper's
// 8-node testbed); placements must name servers below it.
const daemonServers = 8

// daemonStage describes one served workload.
type daemonStage struct {
	name         string  // stage name in spans and the stage table
	rate         float64 // open-loop placements per second
	observeFrac  float64 // share of placements followed by an observation
	openFirst    bool    // run the open-loop phase before the closed one
	closedPerSec float64 // closed-loop placements per second of --seconds
	tailObserve  bool    // every crash-tail placement carries an observation
	tailOps      int     // placements between the forced snapshot and the crash
}

// daemonConfig is gsight-serve's flag defaults: nothing is tuned for
// the benchmark.
func daemonConfig(dir string, sink *telemetry.Sink) serve.Config {
	return serve.Config{DataDir: dir, Seed: 42, Train: 40, Placers: 4, QueueCap: 256, SnapshotEvery: 1024, Sink: sink}
}

type opKind uint8

const (
	opPlace opKind = iota
	opObserve
	opRelease
)

var opNames = [...]string{"place", "observe", "release"}

// op is one HTTP operation as the client saw it. Times are offsets
// from the phase start; due equals start in a closed loop.
type op struct {
	kind            opKind
	due, start, end time.Duration
	seq             uint64
	ok              bool
	rejected        bool // placement answered "rejected": a valid decision
	early           bool // open loop: the worker was waiting when the slot came due
}

// placeAck is the part of the daemon's placement answer the harness
// reads.
type placeAck struct {
	Seq       uint64  `json:"seq"`
	Name      string  `json:"name"`
	Placement []int   `json:"placement"`
	PredIPC   float64 `json:"pred_ipc"`
}

type seqAck struct {
	Seq uint64 `json:"seq"`
}

// daemon is one served workload in flight: the server under test, the
// loopback listener in front of it and the bookkeeping the self-checks
// need.
type daemon struct {
	r     *run
	rec   *recorder // r.rec, or nil while the overhead window runs untraced
	stage daemonStage
	srv   *serve.Server
	sink  *telemetry.Sink
	dir   string
	hs    *httptest.Server
	hc    *http.Client

	nextID   atomic.Uint64
	mu       sync.Mutex
	acked    int    // acknowledged mutating operations (decision-log lines expected)
	lastSeq  uint64 // highest acknowledged sequence number
	rejected int
}

const (
	hdrSpan = "X-Bench-Span"
	hdrID   = "X-Bench-Id"
)

// tracedHandler records a serve.handler span around the daemon's
// handler, as a child of the client span named in the request headers.
func tracedHandler(h http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get(hdrSpan))
		if err != nil { // an untraced client: the overhead comparison window
			h.ServeHTTP(w, req)
			return
		}
		id, _ := strconv.ParseUint(req.Header.Get(hdrID), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, req)
		rec.add("serve.handler"+req.URL.Path[len("/v1"):], t0, time.Now(), parent, id)
	})
}

// post sends one JSON request and decodes a 200 answer into out. Any
// transport error or non-200 status is a failed operation.
func (d *daemon) post(path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, d.hs.URL+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	spanIdx := -1
	if d.rec != nil {
		id := d.nextID.Add(1)
		spanIdx = d.rec.begin("client"+path[len("/v1"):], -1, id)
		req.Header.Set(hdrSpan, strconv.Itoa(spanIdx))
		req.Header.Set(hdrID, strconv.FormatUint(id, 10))
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		d.rec.end(spanIdx)
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d.rec.end(spanIdx)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// chain runs one generated placement to completion on the calling
// client: place, then an observation if the slot carries one, then the
// release. It appends what happened to ops. epoch is the phase start;
// due < 0 means closed loop (due = send time).
func (d *daemon) chain(s slot, epoch time.Time, due time.Duration, early bool, ops *[]op) {
	start := time.Since(epoch)
	if due < 0 {
		due = start
	}
	var ack placeAck
	err := d.post("/v1/place", serve.PlaceRequest{Workload: s.arch}, &ack)
	o := op{kind: opPlace, due: due, start: start, end: time.Since(epoch), seq: ack.Seq, ok: err == nil, early: early}
	if err == nil {
		for _, sv := range ack.Placement {
			if sv < 0 || sv >= daemonServers {
				d.r.problem("%s: placement %s names server %d outside [0,%d)", d.stage.name, ack.Name, sv, daemonServers)
			}
		}
		o.rejected = len(ack.Placement) == 0
	} else {
		d.r.note("%s: place: %v", d.stage.name, err)
	}
	*ops = append(*ops, o)
	if err != nil || o.rejected {
		return
	}
	if s.observe {
		ipc := ack.PredIPC
		if ipc <= 0 {
			ipc = 1
		}
		d.follow(opObserve, "/v1/observe", serve.ObserveRequest{Name: ack.Name, QoS: "ipc", Value: ipc * s.noise}, epoch, ops)
	}
	d.follow(opRelease, "/v1/release", serve.ReleaseRequest{Name: ack.Name}, epoch, ops)
}

func (d *daemon) follow(kind opKind, path string, body any, epoch time.Time, ops *[]op) {
	start := time.Since(epoch)
	var ack seqAck
	err := d.post(path, body, &ack)
	if err != nil {
		d.r.note("%s: %s: %v", d.stage.name, opNames[kind], err)
	}
	*ops = append(*ops, op{kind: kind, due: start, start: start, end: time.Since(epoch), seq: ack.Seq, ok: err == nil})
}

// absorb folds one client's operations into the run totals and checks
// that the sequence numbers it was acknowledged rise strictly.
func (d *daemon) absorb(ops []op) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var prev uint64
	for _, o := range ops {
		d.r.attempted++
		if !o.ok {
			d.r.failed++
			continue
		}
		d.acked++
		if o.rejected {
			d.rejected++
		}
		if o.seq <= prev {
			d.r.problem("%s: acknowledged seq %d after %d on one connection", d.stage.name, o.seq, prev)
		}
		prev = o.seq
		if o.seq > d.lastSeq {
			d.lastSeq = o.seq
		}
	}
}

// closedLoop runs every client back to back until `count` placements
// were sent in total. The next request of a client leaves only after
// its previous one was acknowledged.
func (d *daemon) closedLoop(stream string, count int, observeFrac float64, forceObserve bool) (ops []op, took time.Duration) {
	epoch := time.Now()
	var sent atomic.Int64
	per := make([][]op, d.r.clients)
	var wg sync.WaitGroup
	for c := 0; c < d.r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := newGenerator(d.r.seed, fmt.Sprintf("%s/%s/%d", d.stage.name, stream, c), 0, observeFrac)
			for {
				if sent.Add(1) > int64(count) {
					return
				}
				s := g.next()
				s.observe = s.observe || forceObserve
				d.chain(s, epoch, -1, false, &per[c])
			}
		}(c)
	}
	wg.Wait()
	took = time.Since(epoch)
	for _, p := range per {
		d.absorb(p)
		ops = append(ops, p...)
	}
	return ops, took
}

// openLoop sends the precomputed schedule over the same clients: a
// free client takes the next slot, waits until it is due and sends. A
// slot whose due instant passed while every client was busy waits in
// the harness, unbounded, and its latency still counts from due.
func (d *daemon) openLoop(schedule []slot) (ops []op) {
	epoch := time.Now()
	var next atomic.Int64
	per := make([][]op, d.r.clients)
	var wg sync.WaitGroup
	for c := 0; c < d.r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(schedule) {
					return
				}
				s := schedule[i]
				wait := s.due - time.Since(epoch)
				if wait > 0 {
					time.Sleep(wait)
				}
				d.chain(s, epoch, s.due, wait > 0, &per[c])
			}
		}(c)
	}
	wg.Wait()
	for _, p := range per {
		d.absorb(p)
		ops = append(ops, p...)
	}
	return ops
}

// stalls finds the intervals longer than threshold during which at
// least one request was outstanding and nothing was acknowledged.
func stalls(ops []op, threshold time.Duration) (count int, longest, total time.Duration) {
	type event struct {
		t   time.Duration
		ack bool
	}
	evs := make([]event, 0, 2*len(ops))
	for _, o := range ops {
		evs = append(evs, event{o.start, false}, event{o.end, true})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return !evs[i].ack && evs[j].ack // a zero-length op starts before it ends
	})
	inflight := 0
	var quietSince time.Duration
	for _, e := range evs {
		if !e.ack {
			if inflight == 0 {
				quietSince = e.t
			}
			inflight++
			continue
		}
		if gap := e.t - quietSince; gap > threshold {
			count++
			total += gap
			if gap > longest {
				longest = gap
			}
		}
		quietSince = e.t
		inflight--
	}
	return count, longest, total
}

// placeSamples extracts the placement latencies of a phase: from the
// due instant in the open loop, which for a closed loop is the send.
// A failed placement has no latency; callers count it separately.
func placeSamples(ops []op) []sample {
	var out []sample
	for _, o := range ops {
		if o.kind == opPlace && o.ok {
			out = append(out, sample{at: o.due, v: ms(o.end - o.due)})
		}
	}
	return out
}

func kindLatencies(ops []op, kind opKind) []float64 {
	var out []float64
	for _, o := range ops {
		if o.kind == kind && o.ok {
			out = append(out, ms(o.end-o.start))
		}
	}
	sort.Float64s(out)
	return out
}

// daemonArtifacts is what the layer probes of the traced pass replay.
type daemonArtifacts struct {
	crashDir     string  // a copy of the data dir the un-drained server left behind
	handlerP50Ms float64 // serve.handler median for /v1/place in the closed phase
	batchMean    float64 // mean records per commit batch
}

// runDaemon runs one served workload: fresh starts, warm-up, the closed
// and open phases in the stage's order, a crash and three restores.
func runDaemon(r *run, st daemonStage) (*daemonArtifacts, error) {
	d := &daemon{r: r, rec: r.rec, stage: st}
	// Set-up: serve.New on an empty directory, three times; the last
	// server is the one measured.
	var fresh []float64
	for i := 0; i < setupRepeats; i++ {
		dir, err := os.MkdirTemp(r.dataRoot, st.name+"-")
		if err != nil {
			return nil, err
		}
		sink := telemetry.New()
		var srv *serve.Server
		took := r.rec.timed(st.name+".setup", func() { srv, err = serve.New(daemonConfig(dir, sink)) })
		if err != nil {
			return nil, fmt.Errorf("%s: fresh start: %w", st.name, err)
		}
		fresh = append(fresh, took.Seconds())
		if i < setupRepeats-1 {
			if err := stopServer(srv); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
			continue
		}
		d.srv, d.sink, d.dir = srv, sink, dir
	}
	r.setupParts["serve"] = median(fresh)

	d.hs = httptest.NewServer(tracedHandler(d.srv.Handler(), r.rec))
	defer d.hs.Close()
	d.hc = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: r.clients, MaxConnsPerHost: r.clients},
	}
	defer d.hc.CloseIdleConnections()

	d.closedLoop("warmup", r.count(1000), st.observeFrac, false)

	// The closed phase is fixed by count, not by time: the same number
	// of records means the same number of snapshots and learner flushes
	// in every run, which a time box would leave to chance.
	var closed, open []op
	var closedLen, closedFrom, closedTo time.Duration // closedFrom/To: recorder offsets
	var mem0, mem1 runtime.MemStats
	openLen := r.share(openShare)
	schedule := poissonSchedule(r.seed, st.name+"/open", st.rate, st.observeFrac, openLen)
	runClosed := func() {
		runtime.ReadMemStats(&mem0)
		closedFrom = r.rec.now()
		closed, closedLen = d.closedLoop("closed", int(st.closedPerSec*r.seconds), st.observeFrac, false)
		closedTo = r.rec.now()
		runtime.ReadMemStats(&mem1)
	}
	if st.openFirst {
		open = d.openLoop(schedule)
		runClosed()
	} else {
		runClosed()
		open = d.openLoop(schedule)
	}

	// Closed loop: throughput and request-to-ack latency.
	cs := placeSamples(closed)
	if len(cs) == 0 || len(placeSamples(open)) == 0 {
		return nil, fmt.Errorf("%s: a measured phase acknowledged no placement", st.name)
	}
	closedP99 := medianWindowPercentile(numWindows, cs, closedLen, 99)
	r.set("serve.place_per_s", float64(len(cs))/closedLen.Seconds(), "1/s")
	closedP50 := percentile(sortedCopy(values(cs)), 50)
	r.set("serve.closed_p50_ms", closedP50, "ms")
	r.set("serve.closed_p99_ms", closedP99, "ms")

	// Open loop: latency from the due instant; a failed or refused
	// request misses the limit. The requests beyond p99 are the ones a
	// stall held, so the tail is taken over thirds of the phase, each
	// long enough to hold several stalls, and the median third reported:
	// one stall that happens to run long does not set the number.
	dueP99 := medianWindowPercentile(openWindows, placeSamples(open), openLen, 99)
	r.set("serve.due_p99_ms", dueP99, "ms")
	within, due := 0, 0
	var lateMax time.Duration
	var lastEnd time.Duration
	for _, o := range open {
		if o.end > lastEnd {
			lastEnd = o.end
		}
		if o.kind != opPlace {
			continue
		}
		due++
		if o.ok && o.end-o.due <= sloLimit {
			within++
		}
		if o.early && o.start-o.due > lateMax {
			lateMax = o.start - o.due
		}
	}
	okFrac := float64(within) / float64(due)
	r.set("slo_ok_frac", okFrac, "share")
	nStall, stallMax, stallTotal := stalls(open, stallThreshold)
	r.note("%s: closed loop %d placements in %.1fs, %d clients; open loop %d due at %.0f/s, achieved/offered %.3f; %d rejected",
		st.name, len(cs), closedLen.Seconds(), r.clients, due, st.rate, openLen.Seconds()/lastEnd.Seconds(), d.rejected)
	r.note("%s: closed loop p50 %.3f ms, p99 %.2f ms; open loop p99 from due %.1f ms, %.1fx the closed-loop p99 of the same run; %d stalls, longest %.0f ms",
		st.name, closedP50, closedP99, dueP99, dueP99/closedP99, nStall, ms(stallMax))

	art := &daemonArtifacts{}
	if r.rec != nil {
		handler := sortedCopy(r.rec.byName("serve.handler/place", false, closedFrom, closedTo))
		art.handlerP50Ms = percentile(handler, 50)
		r.set("serve.handler_p50_ms", art.handlerP50Ms, "ms")
		r.set("serve.handler_p99_ms", percentile(handler, 99), "ms")
		r.set("serve.http_overhead_p50_ms", percentile(sortedCopy(r.rec.byName("client/place", true, closedFrom, closedTo)), 50), "ms")
		all := append(append([]op(nil), closed...), open...)
		r.set("serve.observe_p50_ms", percentile(kindLatencies(all, opObserve), 50), "ms")
		r.set("serve.release_p50_ms", percentile(kindLatencies(all, opRelease), 50), "ms")
		r.set("serve.slo_miss_frac", 1-okFrac, "share")
		r.set("serve.stall_count", float64(nStall), "count")
		r.set("serve.stall_ms_max", ms(stallMax), "ms")
		r.set("serve.stall_time_frac", stallTotal.Seconds()/openLen.Seconds(), "share")
		r.set("env.gen_late_ms_max", ms(lateMax), "ms")
		places := float64(len(cs))
		r.set("proc.allocs_per_place", float64(mem1.Mallocs-mem0.Mallocs)/places, "count")
		r.set("proc.gc_pause_ms_total", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, "ms")

		// Tracing overhead: one more closed window with the recorder
		// off. Medians are compared, which snapshot stalls do not move.
		d.rec = nil
		plain, _ := d.closedLoop("untraced", int(st.closedPerSec*r.seconds)/numWindows, st.observeFrac, false)
		d.rec = r.rec
		plainP50 := percentile(sortedCopy(values(placeSamples(plain))), 50)
		r.set("env.trace_overhead_serve_frac", closedP50/plainP50-1, "share")

		// Forced snapshots, timed by the client.
		var snaps []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			err := d.post("/v1/snapshot", struct{}{}, nil)
			r.attempted++
			if err != nil {
				r.failed++
				r.note("%s: snapshot: %v", st.name, err)
				continue
			}
			snaps = append(snaps, ms(time.Since(t0)))
		}
		r.set("serve.snapshot_ms_p50", median(snaps), "ms")
	}

	// Crash: force a snapshot, run a fixed tail so every restore
	// replays the same amount of log, then abandon the server without
	// draining it and restore copies of what it left behind.
	r.attempted++
	if err := d.post("/v1/snapshot", struct{}{}, nil); err != nil {
		r.failed++
		r.note("%s: snapshot: %v", st.name, err)
	}
	d.closedLoop("tail", r.count(st.tailOps), 0, st.tailObserve)

	if r.rec != nil {
		snap := d.sink.Registry.Snapshot()
		batches := snap.Histograms["serve_batch_records"]
		if batches.Count > 0 {
			art.batchMean = batches.Sum / float64(batches.Count)
		}
		r.set("serve.batch_records_mean", art.batchMean, "count")
		r.set("serve.shed_total", float64(snap.Counters["serve_shed_total"]), "count")
		r.set("serve.timeout_total", float64(snap.Counters["serve_timeout_total"]), "count")
		r.set("serve.commit_conflicts_total", float64(snap.Counters["serve_commit_conflicts_total"]), "count")
		r.set("serve.snapshots_total", float64(snap.Counters["serve_snapshots_total"]), "count")
	}

	lines, err := countLines(filepath.Join(d.dir, "decisions.jsonl"))
	if err != nil {
		return nil, err
	}
	if lines != d.acked {
		r.problem("%s: decisions.jsonl has %d lines, %d mutating operations were acknowledged", st.name, lines, d.acked)
	}

	var restores []float64
	for i := 0; i < setupRepeats; i++ {
		copyDir := filepath.Join(r.dataRoot, fmt.Sprintf("%s-crash%d", st.name, i))
		if err := copyTree(d.dir, copyDir); err != nil {
			return nil, err
		}
		sink := telemetry.New()
		var srv *serve.Server
		took := r.rec.timed(st.name+".restore", func() { srv, err = serve.New(daemonConfig(copyDir, sink)) })
		r.attempted++
		if err != nil {
			return nil, fmt.Errorf("%s: restore: %w", st.name, err)
		}
		restores = append(restores, took.Seconds())
		if applied, err := appliedSeq(srv); err != nil {
			return nil, err
		} else if applied != d.lastSeq {
			r.problem("%s: restored server reports applied seq %d, last acknowledged was %d", st.name, applied, d.lastSeq)
		}
		if i == 0 {
			r.set("serve.restore_replayed_records", float64(sink.Registry.Snapshot().Counters["serve_replayed_records_total"]), "count")
		}
		if err := stopServer(srv); err != nil {
			return nil, err
		}
	}
	r.set("serve.restore_s", median(restores), "s")

	// One more copy for the probes, taken before the original drains.
	art.crashDir = filepath.Join(r.dataRoot, st.name+"-probe")
	if err := copyTree(d.dir, art.crashDir); err != nil {
		return nil, err
	}
	if err := stopServer(d.srv); err != nil {
		return nil, err
	}
	return art, nil
}

// openShare is the share of --seconds the open-loop phase takes, and
// openWindows how many windows its tail is the median of.
const (
	openShare   = 0.40
	openWindows = 3
)

// setupRepeats is how often a set-up or restore is repeated; the
// median is reported.
const setupRepeats = 3

func stopServer(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Stop(ctx)
}

// appliedSeq asks /v1/state for the applied sequence number.
func appliedSeq(srv *serve.Server) (uint64, error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/state", nil))
	var st struct {
		Applied uint64 `json:"applied"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, fmt.Errorf("/v1/state: %w", err)
	}
	return st.Applied, nil
}

func countLines(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return bytes.Count(data, []byte{'\n'}), nil
}

// copyTree copies the regular files of a flat directory.
func copyTree(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
