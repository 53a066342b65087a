package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gsight/internal/core"
	"gsight/internal/perfmodel"
	"gsight/internal/persist"
	"gsight/internal/resources"
	"gsight/internal/scenario"
	"gsight/internal/sched"
	"gsight/internal/serve"
	"gsight/internal/telemetry"
)

// The layer probes of the traced pass. Each replays the run's own
// recorded inputs — the decision log is the WAL payload stream
// verbatim — through one layer's public functions and times the calls
// from outside. Nothing here feeds an end-to-end metric.

// logRecord mirrors the fields of a decision-log line the probes need.
type logRecord struct {
	Seq   uint64 `json:"seq"`
	Kind  string `json:"kind"`
	Place *struct {
		Workload  string  `json:"workload"`
		QPSFrac   float64 `json:"qps_frac"`
		Name      string  `json:"name"`
		Placement []int   `json:"placement"`
	} `json:"place"`
	Obs *struct {
		Name    string  `json:"name"`
		Value   float64 `json:"value"`
		Applied bool    `json:"applied"`
	} `json:"observe"`
	Rel *struct {
		Name string `json:"name"`
	} `json:"release"`
}

func readDecisionLog(path string) (payloads [][]byte, records []logRecord, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte{'\n'}) {
		var rec logRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, nil, fmt.Errorf("decision log: %w", err)
		}
		payloads = append(payloads, line)
		records = append(records, rec)
	}
	return payloads, records, nil
}

// observe feeds one measurement to the twin's learner the way the
// daemon does: the target first, then every running workload sharing a
// server with it, in running-set order.
func (t *twin) observe(name string, value float64) (applied bool, took time.Duration) {
	st := t.state.Base()
	idx := -1
	for i := range st.Running {
		if st.Running[i].Input.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, 0
	}
	on := map[int]bool{}
	for _, sv := range st.Running[idx].Input.Placement {
		on[sv] = true
	}
	inputs := []core.WorkloadInput{st.Running[idx].Input}
	for i := range st.Running {
		if i == idx {
			continue
		}
		for _, sv := range st.Running[i].Input.Placement {
			if on[sv] {
				inputs = append(inputs, st.Running[i].Input)
				break
			}
		}
	}
	t0 := time.Now()
	err := t.pred.Observe(core.IPCQoS, 0, inputs, value)
	return err == nil, time.Since(t0)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// persistTimes is what the persist probes hand to the stage budgets.
type persistTimes struct {
	appendUs    float64 // WAL group commit, per record
	snapWriteMs float64 // persist.WriteSnapshot of the run's newest snapshot
	replayMs    float64 // persist.ReplayWAL of the crashed server's live WAL
}

// persistProbes replays the run's payloads and the files the crashed
// server left through the persist layer's public functions.
func persistProbes(r *run, art *daemonArtifacts, payloads [][]byte) (persistTimes, error) {
	var out persistTimes
	var err error
	// persist: group-commit the run's payloads at the observed batch size.
	batch := int(art.batchMean + 0.5)
	if batch < 1 {
		batch = 1
	}
	replayed := payloads
	if len(replayed) > probeMaxRecords {
		replayed = replayed[:probeMaxRecords]
	}
	walPath := filepath.Join(r.dataRoot, "probe.wal")
	wal, err := persist.CreateWAL(walPath)
	if err != nil {
		return out, err
	}
	gw := persist.NewGroupWAL(wal, 0)
	syncs := 0
	appendTook := r.rec.timed("persist.append_batches", func() {
		for i := 0; i < len(replayed) && err == nil; i += batch {
			end := i + batch
			if end > len(replayed) {
				end = len(replayed)
			}
			err = gw.AppendBatch(replayed[i:end])
			syncs++
		}
	})
	if err != nil {
		return out, fmt.Errorf("persist probe: %w", err)
	}
	if err := gw.Close(); err != nil {
		return out, fmt.Errorf("persist probe: %w", err)
	}
	info, err := os.Stat(walPath)
	if err != nil {
		return out, err
	}
	n := float64(len(replayed))
	appendUs := us(appendTook) / n
	r.set("persist.append_us_per_record", appendUs, "us")
	r.set("persist.syncs_per_record", float64(syncs)/n, "count")
	r.set("persist.bytes_per_record", float64(info.Size())/n, "B")

	// persist: the snapshot the crashed server left, and its live WAL.
	snapPayload, gen, err := persist.LatestSnapshot(art.crashDir)
	if err != nil {
		return out, fmt.Errorf("persist probe: %w", err)
	}
	r.set("persist.snapshot_bytes", float64(len(snapPayload)), "B")
	var writes []float64
	for i := 0; i < setupRepeats; i++ {
		var werr error
		took := r.rec.timed("persist.write_snapshot", func() {
			_, werr = persist.WriteSnapshot(r.dataRoot, uint64(i+1), snapPayload)
		})
		if werr != nil {
			return out, fmt.Errorf("persist probe: %w", werr)
		}
		writes = append(writes, ms(took))
	}
	snapWriteMs := median(writes)
	r.set("persist.snapshot_write_ms", snapWriteMs, "ms")
	var walRecords [][]byte
	replayTook := r.rec.timed("persist.replay_wal", func() {
		walRecords, _, err = persist.ReplayWAL(persist.WALPath(art.crashDir, gen))
	})
	if err != nil || len(walRecords) == 0 {
		return out, fmt.Errorf("persist probe: replay of the live WAL gave %d records: %v", len(walRecords), err)
	}
	r.set("persist.replay_us_per_record", us(replayTook)/float64(len(walRecords)), "us")

	// persist: what one fsync costs on the checkout's real disk. A
	// sandbox diagnostic, capped at 200 syncs so it cannot trigger the
	// throttling it is there to reveal.
	diskPath := filepath.Join(r.outDir, "fsync-probe.wal")
	disk, err := persist.CreateWAL(diskPath)
	if err != nil {
		return out, err
	}
	var fsyncs []float64
	for i := 0; i < 200 && err == nil; i++ {
		t0 := time.Now()
		if err = disk.Append(payloads[i%len(payloads)]); err == nil {
			err = disk.Sync()
		}
		fsyncs = append(fsyncs, us(time.Since(t0)))
	}
	disk.Close()
	os.Remove(diskPath)
	if err != nil {
		return out, fmt.Errorf("fsync probe: %w", err)
	}
	r.set("persist.fsync_disk_us_p50", median(fsyncs), "us")
	out.appendUs, out.snapWriteMs, out.replayMs = appendUs, snapWriteMs, ms(replayTook)
	return out, nil
}

// probeMaxRecords bounds how much of the log the persist probe replays.
const probeMaxRecords = 20000

func runProbes(r *run, w workload, art *daemonArtifacts) error {
	stage := w.daemon.name
	payloads, records, err := readDecisionLog(filepath.Join(art.crashDir, "decisions.jsonl"))
	if err != nil {
		return err
	}

	pt, err := persistProbes(r, art, payloads)
	if err != nil {
		return err
	}

	// sched, core, ml: a twin of the daemon's placement machinery takes
	// the logged sequence again, one call at a time.
	sink := telemetry.New()
	t, err := newTwin(daemonServers, 0, 4, 0, sink)
	if err != nil {
		return err
	}
	r.set("ml.fit_ms", 1000*sink.Registry.Snapshot().Histograms["ml_forest_fit_seconds"].Sum, "ms")
	var placeUs, commitUs, releaseUs, observeUs, flushMs []float64
	mismatch := 0
	for _, rec := range records {
		switch {
		case rec.Place != nil:
			req, err := t.cat.Request(rec.Place.Workload, rec.Place.Name, rec.Place.QPSFrac)
			if err != nil {
				return err
			}
			t0 := time.Now()
			res := t.pool.PlaceAll([]*sched.Request{req})
			t1 := time.Now()
			r.rec.add("sched.place", t0, t1, -1, rec.Seq)
			placeUs = append(placeUs, us(t1.Sub(t0)))
			if !equalInts(res[0].Placement, rec.Place.Placement) {
				mismatch++
				// Follow the log, so one difference does not cascade.
				if res[0].Err == nil {
					t.state.Release(rec.Place.Name)
				}
				if len(rec.Place.Placement) > 0 {
					in := req.Input
					in.Placement = rec.Place.Placement
					t.state.Commit(in, req.SLA)
				}
			}
		case rec.Obs != nil:
			seen := t.pred.SamplesSeen(core.IPCQoS)
			applied, took := t.observe(rec.Obs.Name, rec.Obs.Value)
			if applied != rec.Obs.Applied {
				mismatch++
			}
			if t.pred.SamplesSeen(core.IPCQoS) != seen {
				flushMs = append(flushMs, ms(took))
			} else if applied {
				observeUs = append(observeUs, us(took))
			}
		case rec.Rel != nil:
			t0 := time.Now()
			t.state.Release(rec.Rel.Name)
			releaseUs = append(releaseUs, us(time.Since(t0)))
		}
	}
	sort.Float64s(placeUs)
	placeP50 := percentile(placeUs, 50)
	r.set("sched.place_us_p50", placeP50, "us")
	r.set("sched.place_us_p99", percentile(placeUs, 99), "us")
	r.set("sched.release_us", median(releaseUs), "us")
	r.set("sched.replay_mismatch", float64(mismatch), "count")
	if mismatch != 0 && w.daemon.observeFrac == 0 {
		r.problem("%s: %d logged decisions differ from the twin placer's", stage, mismatch)
	}
	r.set("ml.flush_count", float64(len(flushMs)), "count")

	// core: checkpoint the predictor as the run left it, restore it
	// into a fresh one.
	var state json.RawMessage
	ckptTook := r.rec.timed("core.checkpoint", func() { state, err = t.pred.CheckpointState() })
	if err != nil {
		return err
	}
	fresh := core.NewPredictor(core.Config{Seed: 42})
	restoreTook := r.rec.timed("core.restore", func() { err = fresh.RestoreCheckpoint(state) })
	if err != nil {
		return err
	}
	r.set("core.checkpoint_ms", ms(ckptTook), "ms")
	r.set("core.checkpoint_bytes", float64(len(state)), "B")
	r.set("core.restore_ms", ms(restoreTook), "ms")

	// core: inference and encoding on colocations of the mix; sched:
	// commit and release of the same inputs on the twin.
	var queries []core.Query
	for i, arch := range mix {
		target, err := t.cat.Request(arch, fmt.Sprintf("%s#q%d", arch, i), 0)
		if err != nil {
			return err
		}
		other, err := t.cat.Request(antagonist, fmt.Sprintf("%s#c%d", antagonist, i), 0)
		if err != nil {
			return err
		}
		for _, in := range []*core.WorkloadInput{&target.Input, &other.Input} {
			in.Placement = make([]int, len(in.Profiles))
			for f := range in.Placement {
				in.Placement[f] = (i + f) % daemonServers
			}
		}
		queries = append(queries, core.Query{Target: 0, Inputs: []core.WorkloadInput{target.Input, other.Input}})
		t0 := time.Now()
		t.state.Commit(target.Input, target.SLA)
		commitUs = append(commitUs, us(time.Since(t0)))
	}
	r.set("sched.commit_us", median(commitUs), "us")
	out := make([]float64, len(queries))
	const reps = 400
	inferTook := r.rec.timed("core.predict_batch", func() {
		for i := 0; i < reps && err == nil; i++ {
			err = t.pred.PredictBatchInto(core.IPCQoS, queries, out)
		}
	})
	if err != nil {
		return err
	}
	r.set("core.infer_us_per_query", us(inferTook)/float64(reps*len(queries)), "us")
	coder := t.pred.Coder()
	code := make([]float64, coder.Dim())
	encodeTook := r.rec.timed("core.encode", func() {
		for i := 0; i < reps && err == nil; i++ {
			for _, q := range queries {
				err = coder.EncodeInto(code, q.Target, q.Inputs)
			}
		}
	})
	if err != nil {
		return err
	}
	r.set("core.encode_us", us(encodeTook)/float64(reps*len(queries)), "us")

	// core, ml: one more update interval of observations on the twin,
	// so both workloads price an Observe and a flush.
	for i := 0; i < 100; i++ {
		q := queries[i%len(queries)]
		seen := t.pred.SamplesSeen(core.IPCQoS)
		t0 := time.Now()
		if err := t.pred.Observe(core.IPCQoS, q.Target, q.Inputs, out[i%len(queries)]); err != nil {
			return err
		}
		took := time.Since(t0)
		if t.pred.SamplesSeen(core.IPCQoS) != seen {
			r.rec.add("ml.flush", t0, t0.Add(took), -1, 0)
			flushMs = append(flushMs, ms(took))
		} else {
			observeUs = append(observeUs, us(took))
		}
	}
	r.set("core.observe_us_p50", median(observeUs), "us")
	flushP50 := median(flushMs)
	r.set("ml.flush_ms_p50", flushP50, "ms")
	r.set("ml.flush_ms_max", percentile(sortedCopy(flushMs), 100), "ms")
	r.set("ml.window_size", sink.Registry.Snapshot().Gauges["ml_forest_window_size"], "count")

	// serve: profiling the catalog, which every start and restore pays;
	// perfmodel: the public evaluate call on generator scenarios.
	lab := perfmodel.New(resources.DefaultTestbed())
	scenario.FastConfig(lab)
	catalogTook := r.rec.timed("serve.new_catalog", func() { serve.NewCatalog(lab, 42) })
	r.set("serve.catalog_ms", ms(catalogTook), "ms")
	g := scenario.NewGenerator(lab, r.seed)
	var evalUs []float64
	for i := 0; i < 50; i++ {
		sc := g.Colocation(core.LSSC, 3)
		t0 := time.Now()
		if _, err := lab.Evaluate(sc, g.Rand()); err != nil {
			return fmt.Errorf("perfmodel probe: %w", err)
		}
		evalUs = append(evalUs, us(time.Since(t0)))
	}
	r.set("perfmodel.evaluate_us_p50", median(evalUs), "us")

	// Stage budgets of the served path.
	clientP50 := r.metrics["serve.closed_p50_ms"].Value
	r.table(stage+": closed-loop placement, request to ack, median", clientP50, "ms", []row{
		{"HTTP client, loopback and server mux (serve.http_overhead_p50_ms)", r.metrics["serve.http_overhead_p50_ms"].Value},
		{"daemon handler (serve.handler_p50_ms)", art.handlerP50Ms},
	})
	unattributed := r.table(stage+": daemon handler, median", art.handlerP50Ms, "ms", []row{
		{"scheduler PlaceAll of one request (sched.place_us_p50)", placeP50 / 1000},
		{fmt.Sprintf("WAL group commit of a mean batch of %.2f (persist.append_us_per_record x batch)", art.batchMean), pt.appendUs * art.batchMean / 1000},
	})
	r.set("serve.unattributed_frac", unattributed, "share")
	snapMs := r.metrics["serve.snapshot_ms_p50"].Value
	r.table(stage+": forced snapshot, client-timed median", snapMs, "ms", []row{
		{"predictor CheckpointState (core.checkpoint_ms)", ms(ckptTook)},
		{"persist.WriteSnapshot of the same bytes (persist.snapshot_write_ms)", pt.snapWriteMs},
	})
	replayedRecords := r.metrics["serve.restore_replayed_records"].Value
	r.table(stage+": restore after a crash", 1000*r.metrics["serve.restore_s"].Value, "ms", []row{
		{"catalog profiling and SLA curves (serve.catalog_ms)", ms(catalogTook)},
		{"predictor RestoreCheckpoint (core.restore_ms)", ms(restoreTook)},
		{"WAL read (persist.replay_us_per_record x records)", pt.replayMs},
		{fmt.Sprintf("learner flushes while re-applying %d records (ml.flush_ms_p50 x flushes)", int(replayedRecords)), flushP50 * float64(w.daemon.tailFlushes())},
		{"compaction snapshot on the way up (serve.snapshot_ms_p50)", snapMs},
	})
	return nil
}

// tailFlushes is how many learner flushes the fixed crash tail carries:
// one per 100 observations (core.Config.UpdateEvery's default).
func (st daemonStage) tailFlushes() int {
	if !st.tailObserve {
		return 0
	}
	return st.tailOps / 100
}
