package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gsight/internal/core"
	"gsight/internal/persist"
	"gsight/internal/resources"
	"gsight/internal/scenario"
	"gsight/internal/sched"
	"gsight/internal/telemetry"
)

// Server is the crash-tolerant placement daemon: a single committer
// goroutine serializes every state mutation, applying each record in
// admitted order, and acknowledges nothing before its WAL record is
// group-commit fsynced.
//
// Determinism contract (what the servecheck gate proves): the decision
// stream is a pure function of the admitted record order. Ordered
// requests (client-stamped order numbers) are admitted strictly in
// order through a reorder buffer, so the stream is independent of
// network interleaving, batch boundaries and crash/takeover timing:
//
//   - A placement is decided when its record applies: Propose against
//     the state every earlier record left, Commit on success. Batch
//     boundaries decide only which records share an fsync.
//   - The online learner's flush cadence is a function of the
//     observation count, and observations apply in record order. A
//     flush at record N trains in the background and installs exactly
//     at record N+learnerLag (core.Config.InstallLag; the predictor
//     counts records through Tick, which every record calls after it
//     applies).
//   - Restore re-executes the acknowledged requests through the same
//     commit path, and the store verifies every regenerated record
//     against the WAL byte for byte, so a resumed or taken-over daemon
//     continues from exactly the acknowledged prefix — or refuses to
//     start. Duplicate retries of acknowledged orders are answered from
//     a response cache instead of re-executed.
type Server struct {
	cfg   Config
	cat   *Catalog
	pred  *core.Predictor
	state *sched.State
	// placer is the daemon's one scheduler, Gsight; fallback serves
	// what its predictor cannot vet (sched.ProposeOrDegrade).
	placer   *sched.Gsight
	fallback *sched.WorstFit

	intake   chan *pending
	stopC    chan struct{}
	doneC    chan struct{}
	stopOnce sync.Once

	// durableGen is the newest generation whose snapshot is on disk;
	// the publisher stores it, /v1/state reads it.
	durableGen atomic.Uint64
	// The committer publishes its applied seq, running-set size and
	// whether the IPC model has seen a sample here for /v1/state and
	// Applied, which read them off the committer.
	pubApplied atomic.Uint64
	pubRunning atomic.Int64
	pubTrained atomic.Bool

	// Committer-owned state (single goroutine; no locks).
	store     *persist.Store    // snapshot generations and the live WAL
	log       *telemetry.Stream // decisions.jsonl: WAL payloads verbatim
	logF      io.Closer         // the file under log
	applied   uint64            // last applied record seq
	snapSeq   uint64            // applied seq at the last snapshot
	nextOrder uint64            // next client order the reorder buffer admits
	parked    map[uint64]*pending
	resp      map[uint64]json.RawMessage // order → response (dup answers)
	respRing  []uint64                   // eviction order for resp

	// Snapshot publishing (snapshot.go). The committer cuts, one
	// background goroutine at a time publishes.
	publishing  bool       // a cut is being published in the background
	pubDone     chan error // the publisher's result; buffered, one in flight
	pubErr      error      // a failed publish, fencing at the next boundary
	deferred    bool       // a snapshot came due while publishing (counted once)
	snapWaiters []*pending // forced snapshots waiting for the next cut
	// publishHook, when set by a test, is called at the named stages of
	// a publish; blocking in it abandons the publish there.
	publishHook func(stage string)

	// applyObserve scratch.
	obsInputs []core.WorkloadInput
	obsOn     []bool // servers hosting the observed target

	met     serveMetrics
	health  *telemetry.Health
	logf    func(string, ...interface{})
	started time.Time
}

// Config configures a Server.
type Config struct {
	// DataDir holds snapshots, WAL generations, decisions.jsonl and
	// lease.json. Required.
	DataDir string
	// Servers is the cluster size (0 = the paper's 8-node testbed).
	Servers int
	// Placers is read by nothing: placement is serial. The field stays
	// because the frozen benchmark harness sets it.
	Placers int
	// Seed drives the catalog, SLA curves and bootstrap training.
	Seed uint64
	// Train is the bootstrap scenario count; 0 starts untrained, so
	// every placement takes the degraded fallback path until
	// observations accumulate.
	Train int
	// QueueCap bounds the admission queue; a full queue sheds with
	// 429 + Retry-After instead of queueing unboundedly. Default 256.
	QueueCap int
	// SnapshotEvery snapshots after this many records. Default 1024.
	SnapshotEvery int
	// Sink receives serving metrics; nil allocates a private one.
	Sink *telemetry.Sink
	// Health, when set, tracks readiness through restore and drain.
	Health *telemetry.Health
	// Logf, when set, receives progress lines.
	Logf func(string, ...interface{})
}

func (c *Config) fill() error {
	if c.DataDir == "" {
		return errors.New("serve: Config.DataDir is required")
	}
	if c.Servers <= 0 {
		c.Servers = resources.DefaultTestbed().NumServers()
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1024
	}
	if c.Sink == nil {
		c.Sink = telemetry.New()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return nil
}

// respCacheCap bounds the duplicate-answer cache. It must exceed any
// client's retry window; evicted orders answer 410 Gone.
const respCacheCap = 4096

// learnerLag is the records between a learner flush and the install of
// the trees it trains in the background: long enough for an update to
// finish under load (serve_learner_install_wait_seconds says whether it
// is), short enough that the model is at most this many records stale.
// A variable so a test can shorten the window; nothing outside tests
// assigns it.
var learnerLag = 256

// maxBatch bounds the records of one commit batch. A variable so a test
// can commit one record per batch; nothing outside tests assigns it.
var maxBatch = 64

// keepGenerations is how many checkpoint generations (snapshot plus the
// WAL chain it needs) the data dir retains. A variable so a test can
// stand in for a daemon that pruned harder; nothing outside tests
// assigns it.
var keepGenerations = 3

// serveMetrics are the serving-path instruments.
type serveMetrics struct {
	place, observe, release *telemetry.Counter
	shed, dups, timeouts    *telemetry.Counter
	walRecords, snapshots   *telemetry.Counter
	replayed, takeovers     *telemetry.Counter
	deferred                *telemetry.Counter
	batchSize               *telemetry.Histogram
	placeLatency            *telemetry.Histogram
	capture, publish        *telemetry.Histogram
	inflight                *telemetry.Gauge
	learner                 core.LearnerInstruments
}

func newServeMetrics(reg *telemetry.Registry) serveMetrics {
	return serveMetrics{
		place:        reg.Counter("serve_place_total", "placement requests acknowledged"),
		observe:      reg.Counter("serve_observe_total", "observations acknowledged"),
		release:      reg.Counter("serve_release_total", "releases acknowledged"),
		shed:         reg.Counter("serve_shed_total", "requests shed with 429 (queue or reorder buffer full)"),
		dups:         reg.Counter("serve_duplicate_total", "duplicate ordered requests answered from cache"),
		timeouts:     reg.Counter("serve_timeout_total", "requests that timed out waiting for the committer"),
		walRecords:   reg.Counter("serve_wal_records_total", "records group-committed to the WAL"),
		snapshots:    reg.Counter("serve_snapshots_total", "snapshots written"),
		deferred:     reg.Counter("serve_snapshots_deferred_total", "snapshots that came due while another was being published and waited for it"),
		capture:      reg.Histogram("serve_snapshot_capture_seconds", "committer time per snapshot cut (state copy + WAL rotation)", telemetry.DurationBuckets()),
		publish:      reg.Histogram("serve_snapshot_publish_seconds", "time to encode, fsync and prune one snapshot off the committer", telemetry.DurationBuckets()),
		inflight:     reg.Gauge("serve_snapshot_inflight", "1 while a snapshot is being published in the background"),
		replayed:     reg.Counter("serve_replayed_records_total", "WAL records replayed at startup"),
		takeovers:    reg.Counter("serve_takeovers_total", "restores from an existing snapshot (restart or takeover)"),
		batchSize:    reg.Histogram("serve_batch_records", "records per commit batch", telemetry.ExpBuckets(1, 2, 12)),
		placeLatency: reg.Histogram("serve_place_seconds", "placement request latency", telemetry.DurationBuckets()),
		learner: core.LearnerInstruments{
			TrainSeconds:       reg.Histogram("serve_learner_train_seconds", "learner flush training on the background goroutine", telemetry.DurationBuckets()),
			InstallWaitSeconds: reg.Histogram("serve_learner_install_wait_seconds", "committer time blocked at an install point on unfinished training", telemetry.DurationBuckets()),
			InFlight:           reg.Gauge("serve_learner_inflight", "1 from a learner flush to the install of its trees"),
		},
	}
}

// pending is one request waiting for the committer.
type pending struct {
	kind  string // kindPlace, kindObserve, kindRelease, ctlSnapshot
	order uint64
	arch  string  // place: archetype
	qps   float64 // place: LS load override
	name  string  // observe/release: instance name
	qos   string  // observe: QoS kind ("ipc", "p99", "jct")
	value float64 // observe: measured value
	reply chan pendingResp
	// abandoned is set by enqueue when its caller stopped waiting (503).
	abandoned atomic.Bool
	// dups are retries of this ordered request admitted before it was
	// acknowledged; they get its answer.
	dups []*pending
}

// answer replies to the request and to its retries.
func (p *pending) answer(r pendingResp) {
	p.reply <- r
	for _, d := range p.dups {
		d.reply <- r
	}
}

// ctlSnapshot is the admin snapshot control message (no WAL record).
const ctlSnapshot = "snapshot-ctl"

// pendingResp is the committer's answer. status 0 means 200.
type pendingResp struct {
	payload json.RawMessage
	status  int
	err     error
}

// New builds the daemon: construct the catalog, restore from the
// newest snapshot + WAL (or bootstrap-train on a fresh data dir),
// regenerate the decision log to the acknowledged prefix, and start
// the committer. On return the server is ready (Config.Health flipped
// true); mount Handler on a listener to serve.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	store, err := persist.OpenStore(cfg.DataDir, keepGenerations)
	if err != nil {
		return nil, fmt.Errorf("serve: data dir: %w", err)
	}
	cfg.Health.SetReady(false, "starting")

	cat := NewCatalog(scenario.Lab(), cfg.Seed)
	pred := core.NewPredictor(core.Config{Seed: cfg.Seed, InstallLag: learnerLag})

	s := &Server{
		cfg:     cfg,
		cat:     cat,
		pred:    pred,
		state:   sched.StateFromProfiles(cat.Spec(), cfg.Servers),
		store:   store,
		intake:  make(chan *pending, cfg.QueueCap),
		stopC:   make(chan struct{}),
		doneC:   make(chan struct{}),
		pubDone: make(chan error, 1),
		parked:  map[uint64]*pending{},
		resp:    map[uint64]json.RawMessage{},
		met:     newServeMetrics(cfg.Sink.Registry),
		health:  cfg.Health,
		logf:    cfg.Logf,
		started: time.Now(),
	}
	s.nextOrder = 1
	pred.InstrumentLearner(s.met.learner)
	s.placer = sched.NewGsight(pred)
	s.fallback = sched.NewWorstFit()

	if err := s.restore(); err != nil {
		s.store.Close()
		return nil, err
	}
	s.publishState() // the restored (or bootstrapped) state
	go s.committerLoop()
	cfg.Health.SetReady(true, "")
	return s, nil
}

func (s *Server) logPath() string { return filepath.Join(s.cfg.DataDir, "decisions.jsonl") }

// LeasePath returns the lease file shared by active and standby for
// a data dir.
func LeasePath(dir string) string { return filepath.Join(dir, "lease.json") }

// Applied returns the last applied record sequence number (advisory
// under load).
func (s *Server) Applied() uint64 { return s.pubApplied.Load() }

// publishState stores the committer's advisory values for /v1/state.
func (s *Server) publishState() {
	s.pubApplied.Store(s.applied)
	s.pubRunning.Store(int64(len(s.state.Running)))
	s.pubTrained.Store(s.pred.SamplesSeen(core.IPCQoS) > 0)
}

// openLog opens decisions.jsonl. A variable so a test can record the
// order of its writes and fsyncs; nothing outside tests assigns it.
var openLog = func(path string, flag int) (io.WriteCloser, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// openDecisionLog opens the decision log as a counted stream: created
// empty for a fresh lineage, otherwise as it stands, for restore to cut
// back to the snapshot's offset.
func (s *Server) openDecisionLog(fresh bool) error {
	flag := os.O_RDWR | os.O_CREATE
	if fresh {
		flag |= os.O_TRUNC
	}
	f, err := openLog(s.logPath(), flag)
	if err != nil {
		return fmt.Errorf("serve: decision log: %w", err)
	}
	s.logF = f
	s.log = telemetry.NewStream(f, nil, 0)
	return nil
}

// restore recovers the data dir through the store — newest valid
// snapshot, then the WAL chain after it — re-executes every chained
// record's request on top of the snapshot, the store verifying each
// regenerated record against the stored one, and regenerates the
// decision log to exactly the acknowledged prefix. A record that
// re-executes differently (another build's model or scheduler, a
// snapshot the checksum missed) is refused, and the decision log is
// only cut once the whole chain has verified, so a refusal leaves every
// file as it was. The chain is longer than one file when the previous
// incarnation died between rotating the WAL and publishing that
// generation's snapshot, or when the newest snapshot is corrupt; either
// way every acknowledged record is in it, and record sequence numbers
// must continue without a gap across the files. A directory without a
// snapshot is a fresh start: bootstrap-train and write the genesis
// generation, so every later incarnation (restart, standby takeover)
// restores the same trained lineage instead of re-training divergently.
func (s *Server) restore() error {
	rec, err := s.store.Recover()
	if errors.Is(err, persist.ErrNoSnapshot) {
		if fi, serr := os.Stat(s.logPath()); serr == nil && fi.Size() > 0 {
			return fmt.Errorf("serve: restore: %w, but %s holds %d bytes of acknowledged decisions; refusing to bootstrap over them",
				err, s.logPath(), fi.Size())
		}
		return s.bootstrap()
	}
	if err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	s.met.takeovers.Inc()

	snap, blob, err := decodeSnapshotPayload(rec.Payload)
	if err != nil {
		return err
	}
	if snap.Servers != s.state.NumServers() {
		return fmt.Errorf("serve: snapshot %d is of a %d-server cluster, daemon configured with %d",
			rec.Gen, snap.Servers, s.state.NumServers())
	}
	if err := s.restoreState(snap); err != nil {
		return fmt.Errorf("serve: snapshot %d: %w", rec.Gen, err)
	}
	if err := s.pred.RestoreCheckpoint(blob); err != nil {
		return fmt.Errorf("serve: predictor restore: %w", err)
	}
	if s.pred.Ticks() != snap.Applied {
		return fmt.Errorf("serve: snapshot %d is at record %d, its predictor at record %d", rec.Gen, snap.Applied, s.pred.Ticks())
	}
	carried, _ := s.pred.InstallDue()
	s.applied = snap.Applied
	s.snapSeq = snap.Applied
	s.nextOrder = snap.NextOrder
	if s.nextOrder == 0 {
		s.nextOrder = 1
	}
	for _, cr := range snap.Responses {
		s.cacheResponse(cr.Order, cr.Resp)
	}
	s.durableGen.Store(rec.Gen)

	// Re-execute with the decision lines going nowhere, then continue the
	// decision log from the snapshot's recorded offset (one line per
	// applied record) with the verified records, so the bytes line up
	// exactly with an uninterrupted run.
	s.log = telemetry.NewStream(io.Discard, nil, 0)
	for i, records := range rec.Chain {
		for _, raw := range records {
			if err := s.replay(raw, rec.Gen+uint64(i)); err != nil {
				return err
			}
			s.met.replayed.Inc()
		}
	}
	if err := s.openDecisionLog(false); err != nil {
		return err
	}
	if err := s.log.TruncateTo(snap.Applied, snap.LogBytes); err != nil {
		return fmt.Errorf("serve: decision log: %w", err)
	}
	for _, records := range rec.Chain {
		for _, raw := range records {
			s.emitLog(raw)
		}
	}
	learner := ""
	if due, ok := s.pred.InstallDue(); ok {
		from := "begun in the replay"
		if due == carried {
			from = "carried by the snapshot"
		}
		learner = fmt.Sprintf("; learner install pending at seq %d, %s", due, from)
	}
	s.logf("restored snapshot gen %d, replayed %d wal records from generations %d..%d (applied seq %d, next order %d)%s",
		rec.Gen, s.applied-snap.Applied, rec.Gen, s.store.Gen(), s.applied, s.nextOrder, learner)
	// Compact immediately: the takeover (or restart) starts its own
	// generation, so the replayed window is never replayed twice.
	return s.snapshot(false)
}

// bootstrap initializes a fresh data dir: train, open a fresh decision
// log, write the genesis snapshot and its WAL.
func (s *Server) bootstrap() error {
	t0 := time.Now()
	if err := s.cat.Train(s.pred, s.cfg.Train); err != nil {
		return err
	}
	if s.cfg.Train > 0 {
		s.logf("bootstrap-trained predictor on %d scenarios in %v",
			s.cfg.Train, time.Since(t0).Round(time.Millisecond))
	} else {
		s.logf("predictor untrained (-train 0): placements degrade to the fallback scheduler")
	}
	if err := s.openDecisionLog(true); err != nil {
		return err
	}
	return s.snapshot(false)
}

// emitLog appends one decision line (a WAL payload verbatim) to the
// stream's buffer; the committer flushes once per batch, before the
// acknowledgements.
func (s *Server) emitLog(payload []byte) {
	b, _ := s.log.Begin()
	s.log.End(append(append(b, payload...), '\n'))
}

// restoreState rebuilds the cluster state a snapshot recorded: the
// running set re-committed from the catalog, each stored placement
// checked against the cluster first — a data dir written for another
// archetype set is refused, not indexed out of range — and then Used
// verbatim over the rebuilt vectors, whose rounding is not the live
// state's (decodeSnapshotPayload and restore checked it has one per
// server).
func (s *Server) restoreState(snap *snapshotState) error {
	st := s.state
	for _, d := range snap.Running {
		req, err := s.cat.Request(d.Archetype, d.Name, d.QPSFrac)
		if err != nil {
			return err
		}
		if len(d.Placement) != len(req.Input.Profiles) {
			return fmt.Errorf("serve: %s: stored placement has %d entries, archetype %s has %d functions",
				d.Name, len(d.Placement), d.Archetype, len(req.Input.Profiles))
		}
		for _, sv := range d.Placement {
			if sv < 0 || sv >= s.state.NumServers() {
				return fmt.Errorf("serve: %s: stored placement names server %d, cluster has %d", d.Name, sv, s.state.NumServers())
			}
		}
		req.Input.Placement = d.Placement
		st.Commit(req.Input, sched.SLA{MinIPC: d.MinIPC, MaxJCTFactor: d.MaxJCT})
	}
	copy(st.Used, snap.Used)
	s.state.Recount()
	return nil
}

// replay re-executes the request of one recovered WAL record of
// generation gen through the committer's own path; the store verifies
// the record it regenerates against raw. The request is parsed and
// checked as the handlers check one, so a record that could never have
// been acknowledged is refused like a divergent one, and a refusal
// leaves the applied sequence where it was.
func (s *Server) replay(raw []byte, gen uint64) error {
	r, err := DecodeRecord(raw)
	if err != nil {
		return err
	}
	if r.Seq != s.applied+1 {
		return fmt.Errorf("serve: wal replay: generation %d holds seq %d after seq %d; the chain has a gap",
			gen, r.Seq, s.applied)
	}
	p := &pending{kind: r.Kind, order: r.Order, reply: make(chan pendingResp, 1)}
	switch {
	case r.Kind == kindPlace && r.Place != nil:
		p.arch, p.qps = r.Place.Workload, r.Place.QPSFrac
	case r.Kind == kindObserve && r.Obs != nil:
		p.name, p.qos, p.value = r.Obs.Name, r.Obs.QoS, r.Obs.Value
	case r.Kind == kindRelease && r.Rel != nil:
		p.name = r.Rel.Name
	default:
		return fmt.Errorf("serve: wal replay seq %d: a %q record without its request", r.Seq, r.Kind)
	}
	if err := s.validate(p.kind, p.arch, p.qos); err != nil {
		return fmt.Errorf("serve: wal replay seq %d: %w", r.Seq, err)
	}
	if err := s.commitBatch([]*pending{p}); err != nil {
		return fmt.Errorf("serve: wal replay seq %d: %w", r.Seq, err)
	}
	if r.Order >= s.nextOrder {
		s.nextOrder = r.Order + 1
	}
	return nil
}

// validate makes the checks the handlers make before a request reaches
// the committer: a placement names a catalog archetype (not an instance
// name like "matmul#17"), an observation a known QoS kind.
func (s *Server) validate(kind, workload, qos string) error {
	switch kind {
	case kindPlace:
		if _, ok := s.cat.byName[workload]; !ok {
			return fmt.Errorf("unknown workload %q (see /v1/state for the catalog)", workload)
		}
	case kindObserve:
		if _, ok := qosKind(qos); !ok {
			return fmt.Errorf("unknown qos kind %q (want ipc, p99 or jct)", qos)
		}
	}
	return nil
}

// tick advances the learner's record clock past one applied record,
// installing the background training whose record this is.
func (s *Server) tick() error {
	if err := s.pred.Tick(); err != nil {
		return fmt.Errorf("serve: learner install: %w", err)
	}
	return nil
}

// applyObserve feeds one QoS measurement to the online learner. The
// observation's colocation context is the target plus every running
// workload sharing at least one of its servers, in running-set order —
// a pure function of the applied record prefix, so replay rebuilds the
// identical learning stream.
func (s *Server) applyObserve(name, qos string, value float64) bool {
	kind, ok := qosKind(qos)
	if !ok {
		return false
	}
	idx := s.state.IndexOf(name)
	if idx < 0 {
		return false
	}
	st := s.state
	target := &st.Running[idx]
	if s.obsOn == nil {
		s.obsOn = make([]bool, s.state.NumServers())
	}
	for _, sv := range target.Input.Placement {
		s.obsOn[sv] = true
	}
	inputs := append(s.obsInputs[:0], target.Input)
	for i := range st.Running {
		if i == idx {
			continue
		}
		for _, sv := range st.Running[i].Input.Placement {
			if s.obsOn[sv] {
				inputs = append(inputs, st.Running[i].Input)
				break
			}
		}
	}
	for _, sv := range target.Input.Placement {
		s.obsOn[sv] = false
	}
	s.obsInputs = inputs
	return s.pred.Observe(kind, 0, inputs, value) == nil
}

// qosKind parses the wire QoS kind names (core.QoSKind.String values).
func qosKind(s string) (core.QoSKind, bool) {
	switch s {
	case "ipc":
		return core.IPCQoS, true
	case "p99":
		return core.TailLatencyQoS, true
	case "jct":
		return core.JCTQoS, true
	}
	return 0, false
}

// cacheResponse retains one ordered answer for duplicate retries.
func (s *Server) cacheResponse(order uint64, resp json.RawMessage) {
	if _, ok := s.resp[order]; !ok {
		s.respRing = append(s.respRing, order)
		if len(s.respRing) > respCacheCap {
			evict := s.respRing[0]
			s.respRing = s.respRing[1:]
			delete(s.resp, evict)
		}
	}
	s.resp[order] = resp
}

// ---------------------------------------------------------------------
// Committer
// ---------------------------------------------------------------------

// committerLoop is the daemon's single mutation thread. Every pass ends
// at a record boundary, where a due snapshot is cut and a failed
// background publish fences.
func (s *Server) committerLoop() {
	defer close(s.doneC)
	for {
		batch, stopped := s.nextBatch()
		var err error
		if len(batch) > 0 {
			err = s.commitBatch(batch)
		}
		if err == nil && !stopped {
			err = s.maybeSnapshot()
		}
		if err != nil {
			s.fence(batch, err)
			return
		}
		if stopped {
			s.failParked("draining")
			s.awaitPublish()
			if s.pubErr != nil {
				s.logf("snapshot publish: %v", s.pubErr)
			}
			if err := s.snapshot(false); err != nil {
				s.logf("final snapshot: %v", err)
			}
			if err := s.store.Close(); err != nil {
				s.logf("wal close: %v", err)
			}
			if err := s.log.Sync(); err != nil {
				s.logf("decision log: %v", err)
			}
			s.logF.Close()
			return
		}
	}
}

// nextBatch blocks for the first admissible request, then drains the
// intake queue opportunistically up to maxBatch. stopped reports the
// drain signal; the returned batch is still committed. A background
// publish finishing also ends the wait, with an empty batch, so an idle
// daemon still fences on its error or cuts the snapshot that was
// deferred behind it.
func (s *Server) nextBatch() (batch []*pending, stopped bool) {
	for len(batch) == 0 {
		select {
		case p := <-s.intake:
			s.admit(p, &batch)
		case err := <-s.pubDone:
			s.reapPublish(err)
			return nil, false
		case <-s.stopC:
			for {
				select {
				case p := <-s.intake:
					s.admit(p, &batch)
				default:
					return batch, true
				}
			}
		}
	}
	for len(batch) < maxBatch {
		select {
		case p := <-s.intake:
			s.admit(p, &batch)
		default:
			return batch, false
		}
	}
	return batch, false
}

// admit routes one intake item through the reorder buffer: unordered
// items pass straight through; the expected order admits and unparks
// its successors; duplicates answer from the response cache, or — when
// the original is admitted in this batch but not yet acknowledged —
// with the original's answer at its ack; future orders park (bounded —
// overflow sheds).
//
// An unordered item whose caller already gave up is dropped: its client
// was told 503 and has no name to release, so committing it would hold
// capacity for nobody. An abandoned ordered item still commits — the
// stream must not skip an order, and the client's retry of that order is
// answered from the response cache.
func (s *Server) admit(p *pending, batch *[]*pending) {
	if p.order == 0 || p.kind == ctlSnapshot {
		if !p.abandoned.Load() {
			*batch = append(*batch, p)
		}
		return
	}
	switch {
	case p.order < s.nextOrder:
		s.met.dups.Inc()
		if cached, ok := s.resp[p.order]; ok {
			p.reply <- pendingResp{payload: cached}
			return
		}
		for _, q := range *batch {
			if q.order == p.order {
				q.dups = append(q.dups, p)
				return
			}
		}
		p.reply <- pendingResp{status: 410,
			err: fmt.Errorf("serve: order %d acknowledged long ago; response evicted", p.order)}
	case p.order == s.nextOrder:
		*batch = append(*batch, p)
		s.nextOrder++
		for {
			q, ok := s.parked[s.nextOrder]
			if !ok {
				break
			}
			delete(s.parked, s.nextOrder)
			*batch = append(*batch, q)
			s.nextOrder++
		}
	default: // future order: park
		if old, ok := s.parked[p.order]; ok {
			old.reply <- pendingResp{status: 409,
				err: fmt.Errorf("serve: order %d superseded by a retry", p.order)}
		} else if len(s.parked) >= s.cfg.QueueCap {
			s.met.shed.Inc()
			p.reply <- pendingResp{status: 429,
				err: fmt.Errorf("serve: reorder buffer full (%d parked)", len(s.parked))}
			return
		}
		s.parked[p.order] = p
	}
}

// failParked answers every parked request with a retryable error.
func (s *Server) failParked(reason string) {
	for order, p := range s.parked {
		p.reply <- pendingResp{status: 503, err: fmt.Errorf("serve: %s", reason)}
		delete(s.parked, order)
	}
}

// fence stops acknowledging after an unrecoverable commit or publish
// error: the batch's waiters and the forced snapshots not yet cut get
// the error, health goes down, and the committer exits — a standby's
// takeover is the recovery path. The sends do not block: a waiter the
// failed batch had already answered has a full reply buffer.
func (s *Server) fence(batch []*pending, err error) {
	s.logf("FENCED: %v", err)
	s.health.Down(fmt.Sprintf("fenced: %v", err))
	for _, p := range append(batch, s.snapWaiters...) {
		for _, q := range append([]*pending{p}, p.dups...) {
			select {
			case q.reply <- pendingResp{status: 503, err: err}:
			default:
			}
		}
	}
	s.snapWaiters = nil
	s.failParked("fenced")
	s.awaitPublish() // the publisher answers its own cut's waiters
}

// commitBatch processes one admitted batch: apply every record in
// admitted order, append the records to the WAL under ONE fsync, write
// the decision lines, then acknowledge. Snapshot controls split the
// batch: the records before the control are acknowledged first, so the
// cut the control asks for covers them.
func (s *Server) commitBatch(batch []*pending) error {
	s.met.batchSize.Observe(float64(len(batch)))
	var (
		records []*Record
		waiters []*pending
	)
	nextSeq := s.applied
	ack := func() error {
		if len(records) == 0 {
			return nil
		}
		payloads := make([][]byte, len(records))
		for i, rec := range records {
			b, err := encodeRecord(rec)
			if err != nil {
				return err
			}
			payloads[i] = b
		}
		// While restore re-executes, the store verifies instead of
		// appending.
		replaying := s.store.Replaying()
		if err := s.store.AppendBatch(payloads); err != nil {
			return fmt.Errorf("serve: wal: %w", err)
		}
		// The decision lines reach the file in one write, before any
		// acknowledgement: a reader of decisions.jsonl never sees fewer
		// lines than there are acknowledged operations.
		for _, b := range payloads {
			s.emitLog(b)
		}
		if err := s.log.Flush(); err != nil {
			return fmt.Errorf("serve: decision log: %w", err)
		}
		if !replaying {
			s.met.walRecords.Add(uint64(len(records)))
		}
		for i, rec := range records {
			s.applied = rec.Seq
			s.publishState()
			resp, err := responseFor(rec)
			if err != nil {
				return err
			}
			if rec.Order > 0 {
				s.cacheResponse(rec.Order, resp)
			}
			waiters[i].answer(pendingResp{payload: resp})
		}
		records = records[:0]
		waiters = waiters[:0]
		return nil
	}

	for _, p := range batch {
		switch p.kind {
		case kindPlace:
			nextSeq++
			pr, err := s.applyPlace(p, nextSeq)
			if err != nil {
				return err
			}
			records = append(records, &Record{Seq: nextSeq, Kind: kindPlace, Order: p.order, Place: pr})
			waiters = append(waiters, p)
			if err := s.tick(); err != nil {
				return err
			}
		case kindObserve:
			nextSeq++
			applied := s.applyObserve(p.name, p.qos, p.value)
			records = append(records, &Record{Seq: nextSeq, Kind: kindObserve, Order: p.order,
				Obs: &observeRecord{Name: p.name, QoS: p.qos, Value: p.value, Applied: applied}})
			waiters = append(waiters, p)
			if err := s.tick(); err != nil {
				return err
			}
		case kindRelease:
			nextSeq++
			released := s.state.Release(p.name)
			records = append(records, &Record{Seq: nextSeq, Kind: kindRelease, Order: p.order,
				Rel: &releaseRecord{Name: p.name, Released: released}})
			waiters = append(waiters, p)
			if err := s.tick(); err != nil {
				return err
			}
		case ctlSnapshot:
			if err := ack(); err != nil {
				return err
			}
			// Answered by the publisher once the generation is durable.
			s.snapWaiters = append(s.snapWaiters, p)
			if err := s.maybeSnapshot(); err != nil {
				return err
			}
		default:
			p.reply <- pendingResp{status: 400, err: fmt.Errorf("serve: unknown request kind %q", p.kind)}
		}
	}
	if err := ack(); err != nil {
		return err
	}
	s.countKinds(batch)
	return nil
}

// applyPlace decides the placement record at seq: the request built
// from the catalog is proposed against the current state, through the
// fallback when the predictor cannot vet it, and committed on success.
func (s *Server) applyPlace(p *pending, seq uint64) (*placeRecord, error) {
	name := fmt.Sprintf("%s#%d", p.arch, seq)
	if p.order > 0 {
		name = fmt.Sprintf("%s#o%d", p.arch, p.order)
	}
	req, err := s.cat.Request(p.arch, name, p.qps)
	if err != nil {
		return nil, err // handler validates archetypes; this is a bug
	}
	placement, err := s.state.ProposeOrDegrade(s.placer, s.fallback, false, req)
	d := &req.Detail
	pr := &placeRecord{
		Workload: p.arch,
		QPSFrac:  req.Input.QPSFrac,
		Name:     req.Input.Name,
		Outcome:  d.Outcome,
		Reason:   d.Reason,
	}
	if placement == nil {
		if pr.Outcome == "" {
			pr.Outcome = "error"
		}
		if pr.Reason == "" {
			pr.Reason = err.Error()
		}
		return pr, nil
	}
	in := req.Input
	in.Placement = placement
	s.state.Commit(in, req.SLA)
	pr.Placement = placement
	pr.PredIPC, pr.PredJCTS = d.PredIPC, d.PredJCTS
	return pr, nil
}

func (s *Server) countKinds(batch []*pending) {
	for _, p := range batch {
		switch p.kind {
		case kindPlace:
			s.met.place.Inc()
		case kindObserve:
			s.met.observe.Inc()
		case kindRelease:
			s.met.release.Inc()
		}
	}
}

// responseFor builds the canonical API response for a committed
// record — also used to rebuild the duplicate-answer cache on replay,
// so a retried order receives the exact bytes the original did.
func responseFor(rec *Record) (json.RawMessage, error) {
	switch rec.Kind {
	case kindPlace:
		return json.Marshal(PlaceAck{
			Seq: rec.Seq, Order: rec.Order,
			Name: rec.Place.Name, Outcome: rec.Place.Outcome,
			Placement: rec.Place.Placement, Reason: rec.Place.Reason,
			PredIPC: rec.Place.PredIPC, PredJCTS: rec.Place.PredJCTS,
		})
	case kindObserve:
		return json.Marshal(observeResponse{Seq: rec.Seq, Order: rec.Order, Applied: rec.Obs.Applied})
	case kindRelease:
		return json.Marshal(releaseResponse{Seq: rec.Seq, Order: rec.Order, Released: rec.Rel.Released})
	}
	return nil, fmt.Errorf("serve: no response for record kind %q", rec.Kind)
}

// enqueue hands a request to the committer, shedding with 429 when
// the admission queue is full. A caller whose context ends first gets
// 503 and the request is marked abandoned (see admit).
func (s *Server) enqueue(ctx context.Context, p *pending) pendingResp {
	select {
	case <-s.stopC:
		return pendingResp{status: 503, err: errors.New("serve: draining")}
	default:
	}
	select {
	case s.intake <- p:
	default:
		s.met.shed.Inc()
		return pendingResp{status: 429, err: errors.New("serve: admission queue full")}
	}
	select {
	case r := <-p.reply:
		return r
	case <-ctx.Done():
		p.abandoned.Store(true)
		s.met.timeouts.Inc()
		return pendingResp{status: 503, err: fmt.Errorf("serve: %w", ctx.Err())}
	}
}

// Stop drains the daemon: readiness flips false, the committer
// finishes the queued work, writes a final snapshot and closes the
// WAL and decision log. ctx bounds the wait. Safe to call more than
// once and from several goroutines; every call waits for the drain.
func (s *Server) Stop(ctx context.Context) error {
	s.stopOnce.Do(func() {
		s.health.SetReady(false, "draining")
		close(s.stopC)
	})
	select {
	case <-s.doneC:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}
