package serve

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"gsight/internal/core"
	"gsight/internal/persist"
	"gsight/internal/telemetry"
)

// Snapshots are taken in two halves so that placements keep committing
// while megabytes of predictor state are encoded and fsynced.
//
// The CUT is the committer's half, at a record boundary N: copy the
// running set, every server's usage, the response cache and the log
// offset, take a frozen view of the predictor (core.Predictor.Capture:
// slice headers and tree pointers only), and rotate the store's WAL at
// once. From here on
// the new generation's WAL holds exactly the records after N, whether
// or not its snapshot ever reaches the disk.
//
// The PUBLISH is everything slow — encode, fsync the decision log,
// publish the snapshot, prune — and runs on one background goroutine,
// at most one at a time; a snapshot that comes due meanwhile is
// deferred to the boundary after the publish ends, not queued. Callers
// with nothing to overlap (bootstrap, restore-time compaction, drain)
// run the same two functions back to back.
//
// What is durable when: an acknowledged record is fsynced in the live
// WAL before its ack, as ever. Until the cut's snapshot lands, recovery
// starts from the previous one and replays the WAL chain through the
// rotated file (persist.Store.Recover, DESIGN.md §12); once it lands,
// from it and its own WAL alone. A crash anywhere in between loses
// nothing and re-derives the same stream.

// snapshotCut is generation gen's snapshot, frozen at a record boundary.
type snapshotCut struct {
	gen     uint64
	state   snapshotState
	pred    *core.PredictorCapture
	waiters []*pending // forced snapshots, answered once gen is durable
}

// maybeSnapshot runs at a record boundary: it collects a finished
// background publish (returning its error, which fences the daemon) and
// cuts the next snapshot when one is due — SnapshotEvery records since
// the last cut, or a forced snapshot waiting — unless a publish is
// still in flight, in which case the cut waits for a later boundary.
func (s *Server) maybeSnapshot() error {
	if s.publishing {
		select {
		case err := <-s.pubDone:
			s.reapPublish(err)
		default:
		}
	}
	if s.pubErr != nil {
		return s.pubErr
	}
	if len(s.snapWaiters) == 0 && s.applied-s.snapSeq < uint64(s.cfg.SnapshotEvery) {
		return nil
	}
	if s.publishing {
		if !s.deferred {
			s.deferred = true
			s.met.deferred.Inc()
		}
		return nil
	}
	s.deferred = false
	return s.snapshot(true)
}

// snapshot cuts a generation at the current record boundary and
// publishes it, on the publisher goroutine when background is set.
func (s *Server) snapshot(background bool) error {
	cut, err := s.cut()
	if err != nil {
		return err
	}
	if !background {
		return s.publish(cut)
	}
	s.publishing = true
	s.met.inflight.Set(1)
	go func() { s.pubDone <- s.publish(cut) }()
	return nil
}

// reapPublish records the result of the background publish.
func (s *Server) reapPublish(err error) {
	s.publishing = false
	s.met.inflight.Set(0)
	if err != nil && s.pubErr == nil {
		s.pubErr = err
	}
}

// awaitPublish blocks until no publish is in flight.
func (s *Server) awaitPublish() {
	if s.publishing {
		s.reapPublish(<-s.pubDone)
	}
}

// cut freezes the next generation's snapshot at the current record
// boundary and rotates the WAL to it. Committer only; everything it
// copies is either a value or immutable once written (placements,
// response bytes, predictor rows and trees), so the publisher may read
// the cut while the committer moves on.
func (s *Server) cut() (*snapshotCut, error) {
	span := telemetry.StartSpan(s.met.capture)
	defer span.End()
	cut := &snapshotCut{waiters: s.snapWaiters}
	s.snapWaiters = nil
	fail := func(err error) (*snapshotCut, error) {
		cut.answer(pendingResp{status: 500, err: err})
		return nil, err
	}

	pred, err := s.pred.Capture()
	if err != nil {
		return fail(fmt.Errorf("serve: predictor checkpoint: %w", err))
	}
	cut.pred = pred
	st := s.state
	_, logBytes := s.log.Offset()
	cut.state = snapshotState{
		Version:   snapshotStateVersion,
		Applied:   s.applied,
		NextOrder: s.nextOrder,
		LogBytes:  logBytes,
		Servers:   s.state.NumServers(),
		Used:      slices.Clone(st.Used),
	}
	for i := range st.Running {
		d := &st.Running[i]
		base, _ := core.BaseName(d.Input.Name)
		cut.state.Running = append(cut.state.Running, deployedState{
			Name:      d.Input.Name,
			Archetype: base,
			QPSFrac:   d.Input.QPSFrac,
			Placement: d.Input.Placement,
			MinIPC:    d.SLA.MinIPC,
			MaxJCT:    d.SLA.MaxJCTFactor,
		})
	}
	for _, o := range s.respRing {
		cut.state.Responses = append(cut.state.Responses, cachedResponse{Order: o, Resp: s.resp[o]})
	}

	// Rotate fsyncs the new WAL's directory entry, so the file exists
	// durably before the first record appended to it is acknowledged.
	if cut.gen, err = s.store.Rotate(); err != nil {
		return fail(fmt.Errorf("serve: wal rotate: %w", err))
	}
	s.snapSeq = s.applied
	return cut, nil
}

// answer replies to the forced snapshots riding on the cut.
func (c *snapshotCut) answer(r pendingResp) {
	for _, p := range c.waiters {
		p.reply <- r
	}
}

// publish makes the cut's generation durable: decision log fsynced
// first (so LogBytes is on disk — the file only grows, so syncing later
// than the cut covers it), then the snapshot; old generations are
// pruned. It touches no committer-owned state, so it runs on the
// publisher goroutine as well as inline.
func (s *Server) publish(cut *snapshotCut) (err error) {
	span := telemetry.StartSpan(s.met.publish)
	defer func() {
		span.End()
		if err != nil {
			cut.answer(pendingResp{status: 500, err: err})
			return
		}
		cut.answer(pendingResp{payload: json.RawMessage(
			fmt.Sprintf(`{"snapshot":%d,"applied":%d}`, cut.gen, cut.state.Applied))})
	}()
	if s.publishHook != nil {
		s.publishHook("start")
	}
	rs := cut.state.Responses
	sort.Slice(rs, func(i, j int) bool { return rs[i].Order < rs[j].Order })
	ctl, err := json.Marshal(&cut.state)
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	payload := persist.FramePayload(ctl, cut.pred.Encode())
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("serve: decision log sync: %w", err)
	}
	if err := s.store.Publish(cut.gen, payload); err != nil {
		return err
	}
	s.durableGen.Store(cut.gen)
	s.met.snapshots.Inc()
	if s.publishHook != nil {
		s.publishHook("published")
	}
	return nil
}
