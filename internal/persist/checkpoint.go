package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Crash-consistent snapshot envelope. A checkpoint directory holds a
// rolling set of generations, each a snapshot file plus the WAL of
// records appended after it:
//
//	snap-000000001.ckpt   wal-000000001.jsonl
//	snap-000000002.ckpt   wal-000000002.jsonl
//
// A snapshot file is one JSON object {version, seq, sha256, payload}:
// the sha256 is the hex digest of the payload's raw bytes, so any
// torn, truncated or bit-flipped snapshot is detected on load and the
// loader falls back to the previous generation. What the fallback means
// for the WALs is the caller's to decide, because the two controllers
// recover differently: the platform re-executes the span after the
// snapshot it loaded and drops the newer WALs (RemoveWALsAfter); the
// serving daemon's WALs hold acknowledged records, so it replays the
// whole chain wal-N, wal-(N+1), … on top of snapshot N. Snapshots are
// written via WriteFileAtomic, so a crash during a write never destroys
// the previous valid snapshot. The payload itself is opaque to this
// package — the caller owns its schema — which keeps persist free of
// import cycles.

// SnapshotVersion is the envelope format version.
const SnapshotVersion = 1

const (
	snapPrefix = "snap-"
	snapSuffix = ".ckpt"
	walPrefix  = "wal-"
	walSuffix  = ".jsonl"
)

// ErrNoSnapshot reports a checkpoint directory with no valid snapshot.
var ErrNoSnapshot = errors.New("persist: no valid snapshot")

// SnapshotPath returns the snapshot file name for a generation.
func SnapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%09d%s", snapPrefix, seq, snapSuffix))
}

// WALPath returns the WAL file name for a generation.
func WALPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%09d%s", walPrefix, seq, walSuffix))
}

type snapshotEnvelope struct {
	Version int             `json:"version"`
	Seq     uint64          `json:"seq"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// EncodeSnapshot wraps a payload in a checksummed envelope.
// Marshalling a RawMessage validates it, so an invalid payload is
// rejected without a separate scan of what may be tens of megabytes; an
// empty one is checked here because it would marshal as null and fail
// its checksum only on load.
func EncodeSnapshot(seq uint64, payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("persist: snapshot %d: empty payload", seq)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(snapshotEnvelope{
		Version: SnapshotVersion,
		Seq:     seq,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: payload,
	})
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot %d: payload is not valid JSON: %w", seq, err)
	}
	return data, nil
}

// DecodeSnapshot validates an envelope and returns its sequence number
// and payload. Corruption anywhere — malformed JSON, a version skew, a
// checksum mismatch — is an error, never a silently wrong payload.
func DecodeSnapshot(data []byte) (uint64, []byte, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var env snapshotEnvelope
	if err := dec.Decode(&env); err != nil {
		return 0, nil, fmt.Errorf("persist: snapshot: %w", err)
	}
	if env.Version != SnapshotVersion {
		return 0, nil, fmt.Errorf("persist: unsupported snapshot version %d", env.Version)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return 0, nil, fmt.Errorf("persist: snapshot %d: checksum mismatch", env.Seq)
	}
	return env.Seq, env.Payload, nil
}

// WriteSnapshot writes generation seq's snapshot atomically and returns
// its path.
func WriteSnapshot(dir string, seq uint64, payload []byte) (string, error) {
	data, err := EncodeSnapshot(seq, payload)
	if err != nil {
		return "", err
	}
	path := SnapshotPath(dir, seq)
	if err := WriteFileAtomic(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// SnapshotInfo names one snapshot generation on disk.
type SnapshotInfo struct {
	Path string
	Seq  uint64
}

// Snapshots lists the snapshot generations in dir, ascending by
// sequence. Leftover temp files from interrupted writes are ignored.
// A directory that does not exist yet lists as empty: a run killed
// before its first snapshot landed looks exactly like a fresh start,
// so retry loops can pass -resume unconditionally.
func Snapshots(dir string) ([]SnapshotInfo, error) {
	return generations(dir, snapPrefix, snapSuffix)
}

// generations lists the files named prefix + sequence + suffix in dir,
// ascending by sequence.
func generations(dir, prefix, suffix string) ([]SnapshotInfo, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: %s: %w", dir, err)
	}
	var out []SnapshotInfo
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		seqStr := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			continue // temp file or foreign name
		}
		out = append(out, SnapshotInfo{Path: filepath.Join(dir, name), Seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// LatestSnapshot loads the newest valid snapshot in dir, falling back
// over corrupt or truncated generations: each rejected snapshot file is
// deleted so the directory converges back to a valid state. WALs are
// never touched — a rejected generation's WAL may hold records the
// caller has acknowledged. It returns ErrNoSnapshot when the directory
// holds no valid snapshot.
func LatestSnapshot(dir string) (payload []byte, seq uint64, err error) {
	infos, err := Snapshots(dir)
	if err != nil {
		return nil, 0, err
	}
	var lastErr error
	for i := len(infos) - 1; i >= 0; i-- {
		info := infos[i]
		data, err := os.ReadFile(info.Path)
		if err == nil {
			var gotSeq uint64
			gotSeq, payload, err = DecodeSnapshot(data)
			if err == nil && gotSeq != info.Seq {
				err = fmt.Errorf("persist: %s: envelope seq %d does not match file name", info.Path, gotSeq)
			}
			if err == nil {
				return payload, info.Seq, nil
			}
		}
		lastErr = fmt.Errorf("persist: %s: %w", info.Path, err)
		os.Remove(info.Path)
	}
	if lastErr != nil {
		return nil, 0, fmt.Errorf("%w (newest rejected: %v)", ErrNoSnapshot, lastErr)
	}
	return nil, 0, ErrNoSnapshot
}

// PruneCheckpoints deletes generations older than keepFrom: snapshots
// and WALs with seq < keepFrom. The two are listed separately, since a
// generation can have a WAL and no snapshot (a rotation whose snapshot
// was never published).
func PruneCheckpoints(dir string, keepFrom uint64) error {
	snaps, err := Snapshots(dir)
	if err != nil {
		return err
	}
	wals, err := generations(dir, walPrefix, walSuffix)
	if err != nil {
		return err
	}
	return removeWhere(append(snaps, wals...), func(seq uint64) bool { return seq < keepFrom })
}

// RemoveWALsAfter deletes the WALs of generations newer than seq. A
// controller that recovers by re-execution calls it after loading
// snapshot seq: those WALs describe a future it is about to re-create.
func RemoveWALsAfter(dir string, seq uint64) error {
	wals, err := generations(dir, walPrefix, walSuffix)
	if err != nil {
		return err
	}
	return removeWhere(wals, func(s uint64) bool { return s > seq })
}

func removeWhere(files []SnapshotInfo, drop func(seq uint64) bool) error {
	for _, f := range files {
		if !drop(f.Seq) {
			continue
		}
		if err := os.Remove(f.Path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("persist: remove %s: %w", f.Path, err)
		}
	}
	return nil
}
