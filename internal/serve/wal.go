package serve

import (
	"encoding/json"
	"fmt"

	"gsight/internal/persist"
	"gsight/internal/resources"
)

// The daemon's durability schema. Every acknowledged request is one
// WAL record carrying BOTH the request and the decision, appended and
// group-commit fsynced BEFORE the acknowledgement leaves the process.
// That ordering is the whole failover story: the decision log the
// daemon emits is the WAL payloads verbatim, so a standby that replays
// the WAL regenerates the exact acknowledged byte stream — takeover
// cannot lose or reinvent an acked decision, and the servecheck gate
// can demand byte identity with an uninterrupted run.
//
// Replay re-executes each record's request — kind, workload, qps_frac,
// order, name, qos and value — through the committer's own path, and
// persist.Store verifies the record that produces against the stored
// one byte for byte. The decision fields are never applied, only
// compared: a standby restores by proving it would have decided the
// same, and refuses to serve when it would not.

// Record kinds.
const (
	kindPlace   = "place"
	kindObserve = "observe"
	kindRelease = "release"
)

// Record is one acknowledged API request with its decision. The
// JSON field order is fixed by this struct — the byte-identity gate
// compares marshaled lines directly.
type Record struct {
	Seq   uint64 `json:"seq"`
	Kind  string `json:"kind"`
	Order uint64 `json:"order,omitempty"`

	Place *placeRecord   `json:"place,omitempty"`
	Obs   *observeRecord `json:"observe,omitempty"`
	Rel   *releaseRecord `json:"release,omitempty"`
}

// placeRecord is a placement request and its decision.
type placeRecord struct {
	Workload string  `json:"workload"`
	QPSFrac  float64 `json:"qps_frac,omitempty"`

	Name      string  `json:"name"`
	Outcome   string  `json:"outcome"`
	Placement []int   `json:"placement,omitempty"`
	Reason    string  `json:"reason,omitempty"`
	PredIPC   float64 `json:"pred_ipc,omitempty"`
	PredJCTS  float64 `json:"pred_jct_s,omitempty"`
	// Commit retry counts and view widths are deliberately absent:
	// they depend on batch boundaries and worker interleaving, and the
	// record must be a pure function of the admitted request order
	// (the byte-identity gate compares these lines directly). They go
	// to metrics instead.
}

// observeRecord is one QoS observation fed to the online learner.
type observeRecord struct {
	Name    string  `json:"name"`
	QoS     string  `json:"qos"`
	Value   float64 `json:"value"`
	Applied bool    `json:"applied"`
}

// releaseRecord frees a placed instance's capacity.
type releaseRecord struct {
	Name     string `json:"name"`
	Released bool   `json:"released"`
}

// encodeRecord marshals a record to its canonical WAL payload (also
// the decision-log line, newline excluded).
func encodeRecord(r *Record) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("serve: encode wal record %d: %w", r.Seq, err)
	}
	return b, nil
}

// DecodeRecord parses one WAL payload or decisions.jsonl line.
func DecodeRecord(payload []byte) (*Record, error) {
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, fmt.Errorf("serve: corrupt wal record: %w", err)
	}
	return &r, nil
}

// snapshotState is the JSON section of the daemon's checkpoint payload
// (persist.FramePayload): everything needed to continue the decision
// stream byte-identically except the online learner — cluster running
// set, the applied high-water marks, and the response cache that
// answers duplicate retries after takeover. The learner's full
// checkpoint (forests, windows, pending observation buffers) is the
// binary blob framed after it.
type snapshotState struct {
	Version int `json:"version"`
	// Applied is the last applied record sequence number; WAL records
	// with Seq <= Applied are already folded into this snapshot.
	Applied uint64 `json:"applied"`
	// NextOrder is the next client order number the reorder buffer
	// admits; orders below it are duplicates.
	NextOrder uint64 `json:"next_order"`
	// LogBytes is the decision log's byte length at the cut (fsynced
	// before the snapshot is published). Takeover truncates the log here
	// and re-emits the replayed WAL records after it.
	LogBytes int64 `json:"log_bytes"`
	// Servers is the cluster size the running set's placements index
	// into; restore refuses a daemon configured with another.
	Servers int `json:"servers"`
	// Running is the deployed set (profiles rehydrate from the catalog
	// by archetype).
	Running []deployedState `json:"running,omitempty"`
	// Used is every server's allocated vector, verbatim: the live values
	// are the outcome of an exact sequence of adds and subtracts that a
	// rebuild from Running would not round the same, and replay must
	// re-execute on exactly the state that decided. One per server.
	Used []resources.Vector `json:"used"`
	// Responses is the duplicate-answer cache: order → response JSON
	// for recently acknowledged ordered requests.
	Responses []cachedResponse `json:"responses,omitempty"`
}

const snapshotStateVersion = 1

// decodeSnapshotPayload splits a snapshot payload into the daemon's
// JSON section, parsed and checked — its version, a cluster size and a
// used vector per server — and the predictor blob, untouched.
func decodeSnapshotPayload(payload []byte) (*snapshotState, []byte, error) {
	ctl, blob, err := persist.SplitPayload(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	var snap snapshotState
	if err := json.Unmarshal(ctl, &snap); err != nil {
		return nil, nil, fmt.Errorf("serve: snapshot payload: %w", err)
	}
	if snap.Version != snapshotStateVersion {
		return nil, nil, fmt.Errorf("serve: unsupported snapshot version %d", snap.Version)
	}
	if snap.Servers <= 0 || len(snap.Used) != snap.Servers {
		return nil, nil, fmt.Errorf("serve: malformed snapshot: %d servers, usage of %d", snap.Servers, len(snap.Used))
	}
	return &snap, blob, nil
}

// deployedState serializes one running deployment.
type deployedState struct {
	Name      string  `json:"name"`
	Archetype string  `json:"archetype"`
	QPSFrac   float64 `json:"qps_frac,omitempty"`
	Placement []int   `json:"placement"`
	MinIPC    float64 `json:"min_ipc,omitempty"`
	MaxJCT    float64 `json:"max_jct_factor,omitempty"`
}

// cachedResponse is one retained duplicate answer.
type cachedResponse struct {
	Order uint64          `json:"order"`
	Resp  json.RawMessage `json:"resp"`
}
