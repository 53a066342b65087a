package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"gsight/internal/persist"
)

// Crash recovery by re-execution (DESIGN.md §12). A run is a pure
// function of its config and seed, so a resumed run starts again at
// t = 0 and writes every output itself. The one thing it cannot derive
// from its config is how many injected controller crashes earlier
// incarnations already took: that count, stamped with the identity of
// the run it belongs to, is the whole checkpoint. Taking a crash writes
// it as a marker — a persist snapshot whose generation is the count —
// and a resumed run skips that many crashes.

// ErrControllerCrashed reports a run killed by an injected
// controller-crash fault. A run with Config.Checkpoint.Dir set can be
// rerun with Checkpoint.Resume to get past the crashes already taken.
var ErrControllerCrashed = errors.New("platform: controller crashed")

// CheckpointConfig configures crash markers.
type CheckpointConfig struct {
	// Dir holds the crash markers; empty disables them.
	Dir string
	// Resume skips the controller crashes the newest valid marker in
	// Dir counts. With no marker the run starts fresh — so a retry loop
	// can pass Resume unconditionally. Without Resume the run deletes
	// every marker in Dir first and takes every crash.
	Resume bool
}

// markersKept is the number of marker generations retained: the newest
// plus one fallback.
const markersKept = 2

// crashMarker is a marker's payload: the crashes taken so far and the
// identity of the run that took them.
type crashMarker struct {
	Crashes   int     `json:"crashes"`
	Seed      uint64  `json:"seed"`
	Scheduler string  `json:"scheduler"`
	DurationS float64 `json:"duration_s"`
	StepS     float64 `json:"step_s"`
	Servers   int     `json:"servers"`
}

// marker stamps a crash count with this run's identity.
func (r *runner) marker(crashes int) crashMarker {
	return crashMarker{
		Crashes:   crashes,
		Seed:      r.cfg.Seed,
		Scheduler: r.cfg.Scheduler.Name(),
		DurationS: r.cfg.DurationS,
		StepS:     r.cfg.StepS,
		Servers:   r.m.Testbed.NumServers(),
	}
}

func (m crashMarker) identity() string {
	return fmt.Sprintf("seed %d, scheduler %q, %g s in %g s steps, %d servers",
		m.Seed, m.Scheduler, m.DurationS, m.StepS, m.Servers)
}

// openMarkers prepares the marker directory: a resumed run learns from
// the newest valid marker how many crashes to skip, and a fresh run
// deletes the markers an earlier run left.
func (r *runner) openMarkers() error {
	dir := r.cfg.Checkpoint.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("platform: checkpoint dir: %w", err)
	}
	if !r.cfg.Checkpoint.Resume {
		if err := persist.PruneCheckpoints(dir, math.MaxUint64); err != nil {
			return fmt.Errorf("platform: clearing crash markers: %w", err)
		}
		return nil
	}
	payload, _, err := persist.LatestSnapshot(dir)
	if errors.Is(err, persist.ErrNoSnapshot) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("platform: crash marker: %w", err)
	}
	ctl, _, err := persist.SplitPayload(payload)
	if err != nil {
		return fmt.Errorf("platform: crash marker: %w", err)
	}
	var got crashMarker
	if err := json.Unmarshal(ctl, &got); err != nil {
		return fmt.Errorf("platform: crash marker: %w", err)
	}
	if want := r.marker(got.Crashes); got != want {
		return fmt.Errorf("platform: crash marker in %s is for %s; the run is configured with %s",
			dir, got.identity(), want.identity())
	}
	r.skipCrashes = got.Crashes
	r.ins.Resumes.Inc()
	return nil
}

// controllerCrash takes an injected controller crash, unless an earlier
// incarnation already took it. With markers on, the crash count is
// durable before the run unwinds with ErrControllerCrashed. The op is
// invisible in every run output (no decision events, no RNG draws, no
// Stats), so a crashed-and-resumed run stays byte-identical to one that
// never crashed.
func (r *runner) controllerCrash() {
	r.crashes++
	if r.crashes <= r.skipCrashes {
		return
	}
	r.crashErr = ErrControllerCrashed
	if dir := r.cfg.Checkpoint.Dir; dir != "" {
		if err := writeMarker(dir, r.marker(r.crashes)); err != nil {
			r.crashErr = fmt.Errorf("platform: crash marker: %w", err)
		}
	}
	r.cancel()
}

// writeMarker publishes m as generation m.Crashes and prunes the
// generations before the fallback.
func writeMarker(dir string, m crashMarker) error {
	ctl, err := json.Marshal(m)
	if err != nil {
		return err
	}
	gen := uint64(m.Crashes)
	if _, err := persist.WriteSnapshot(dir, gen, persist.FramePayload(ctl, nil)); err != nil {
		return err
	}
	return persist.PruneCheckpoints(dir, gen+1-markersKept)
}
