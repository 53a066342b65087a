package persist

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"gsight/internal/wire"
)

// Crash-consistent snapshot envelope. A checkpoint directory holds a
// rolling set of generations, each a snapshot file plus the WAL of
// records appended after it:
//
//	snap-000000001.ckpt   wal-000000001.jsonl
//	snap-000000002.ckpt   wal-000000002.jsonl
//
// A snapshot file is a fixed little-endian header followed by an opaque
// payload (byte layout in DESIGN.md §12):
//
//	magic "GSIGHTSN" | format version u32 | seq u64 | payload length u64 | sha256(payload)
//
// so any torn, truncated or bit-flipped snapshot is detected on load
// and the loader falls back to the previous generation; the WALs of the
// generations it fell back over are kept and read as one chain on top
// of the snapshot it loaded (Store.Recover). Snapshots are written via
// WriteFileAtomic, so a crash during a write never destroys the
// previous valid snapshot. The
// payload is opaque to the envelope — the caller owns its schema —
// which keeps persist free of import cycles; controllers that carry a
// predictor frame theirs with FramePayload.

// SnapshotVersion is the snapshot format version: it covers the
// envelope header and the payload framing of FramePayload. Format 1 was
// a JSON object {version, seq, sha256, payload}.
const SnapshotVersion = 2

const (
	snapPrefix = "snap-"
	snapSuffix = ".ckpt"
	walPrefix  = "wal-"
	walSuffix  = ".jsonl"

	snapMagic      = "GSIGHTSN"
	snapHeaderSize = len(snapMagic) + 4 + 8 + 8 + sha256.Size
)

// ErrNoSnapshot reports a checkpoint directory with no valid snapshot.
var ErrNoSnapshot = errors.New("persist: no valid snapshot")

// ErrSnapshotVersion reports a snapshot written in a format this build
// does not read — older (the JSON envelope) or newer. It is not
// corruption: the file is intact and some other build reads it, so
// nothing is deleted and nothing falls back.
var ErrSnapshotVersion = errors.New("persist: unsupported snapshot format")

// ErrSnapshotCorrupt reports a snapshot that is not a whole envelope of
// any known format: truncated, bit-flipped or foreign bytes.
var ErrSnapshotCorrupt = errors.New("persist: corrupt snapshot")

// SnapshotPath returns the snapshot file name for a generation.
func SnapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%09d%s", snapPrefix, seq, snapSuffix))
}

// WALPath returns the WAL file name for a generation.
func WALPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%09d%s", walPrefix, seq, walSuffix))
}

// snapshotHeader builds the envelope header for a payload, hashing it
// (the one pass over its bytes besides the write).
func snapshotHeader(seq uint64, payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("persist: snapshot %d: empty payload", seq)
	}
	h := make([]byte, 0, snapHeaderSize)
	h = append(h, snapMagic...)
	h = wire.AppendU32(h, SnapshotVersion)
	h = wire.AppendU64(h, seq)
	h = wire.AppendU64(h, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	return append(h, sum[:]...), nil
}

// EncodeSnapshot wraps a payload in a checksummed envelope. The payload
// is opaque; only an empty one is rejected, since no controller state
// encodes to nothing.
func EncodeSnapshot(seq uint64, payload []byte) ([]byte, error) {
	h, err := snapshotHeader(seq, payload)
	if err != nil {
		return nil, err
	}
	return append(h, payload...), nil
}

// SnapshotHeader is a decoded envelope header.
type SnapshotHeader struct {
	Format     uint32
	Seq        uint64
	PayloadLen uint64
	SHA256     [sha256.Size]byte
}

// DecodeSnapshotHeader validates an envelope and returns its header and
// payload (a view of data, not a copy). A recognisable envelope of
// another format version — the `{` of the JSON envelope, or this magic
// with a different version word — is ErrSnapshotVersion; anything else
// that does not verify — short, foreign, wrong length, checksum
// mismatch — is ErrSnapshotCorrupt, never a silently wrong payload.
func DecodeSnapshotHeader(data []byte) (SnapshotHeader, []byte, error) {
	var h SnapshotHeader
	if len(data) > 0 && data[0] == '{' {
		return h, nil, fmt.Errorf("%w: file is format 1 (JSON envelope), this build reads format %d", ErrSnapshotVersion, SnapshotVersion)
	}
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return h, nil, fmt.Errorf("%w: not a snapshot envelope", ErrSnapshotCorrupt)
	}
	r := wire.NewReader(data[len(snapMagic):])
	h.Format = r.U32("format version")
	if h.Format != SnapshotVersion {
		return h, nil, fmt.Errorf("%w: file is format %d, this build reads format %d", ErrSnapshotVersion, h.Format, SnapshotVersion)
	}
	h.Seq = r.U64("seq")
	h.PayloadLen = r.U64("payload length")
	copy(h.SHA256[:], r.Bytes(sha256.Size, "checksum"))
	if err := r.Err(); err != nil {
		return h, nil, fmt.Errorf("%w: truncated header: %v", ErrSnapshotCorrupt, err)
	}
	payload := r.Rest()
	if h.PayloadLen != uint64(len(payload)) {
		return h, nil, fmt.Errorf("%w: snapshot %d: header says %d payload bytes, file holds %d", ErrSnapshotCorrupt, h.Seq, h.PayloadLen, len(payload))
	}
	if sha256.Sum256(payload) != h.SHA256 {
		return h, nil, fmt.Errorf("%w: snapshot %d: checksum mismatch", ErrSnapshotCorrupt, h.Seq)
	}
	return h, payload, nil
}

// DecodeSnapshot validates an envelope and returns its sequence number
// and payload; see DecodeSnapshotHeader for the errors.
func DecodeSnapshot(data []byte) (uint64, []byte, error) {
	h, payload, err := DecodeSnapshotHeader(data)
	return h.Seq, payload, err
}

// WriteSnapshot writes generation seq's snapshot atomically and returns
// its path. Header and payload go to the file as they are, with no
// joined copy in between.
func WriteSnapshot(dir string, seq uint64, payload []byte) (string, error) {
	h, err := snapshotHeader(seq, payload)
	if err != nil {
		return "", err
	}
	path := SnapshotPath(dir, seq)
	if err := writeFileAtomic(path, 0o644, h, payload); err != nil {
		return "", err
	}
	return path, nil
}

// FramePayload lays out a controller's snapshot payload: the length of
// its JSON section (u32), the JSON section, then the predictor blob to
// the end (empty when the controller runs without one). The blob never
// passes through a JSON encoder or decoder.
func FramePayload(controllerJSON, predictorBlob []byte) []byte {
	p := make([]byte, 0, 4+len(controllerJSON)+len(predictorBlob))
	p = wire.AppendU32(p, uint32(len(controllerJSON)))
	p = append(p, controllerJSON...)
	return append(p, predictorBlob...)
}

// SplitPayload undoes FramePayload, returning views of payload.
func SplitPayload(payload []byte) (controllerJSON, predictorBlob []byte, err error) {
	r := wire.NewReader(payload)
	n := r.Count(1, "controller section length")
	controllerJSON = r.Bytes(n, "controller section")
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("persist: snapshot payload: %w", err)
	}
	return controllerJSON, r.Rest(), nil
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
// over corrupt or truncated generations: each snapshot whose bytes were
// read and failed the envelope check is deleted so the directory
// converges back to a valid state. WALs are never touched — a rejected
// generation's WAL may hold records the caller has acknowledged. It
// returns ErrNoSnapshot when the directory holds no valid snapshot.
//
// Only verified corruption is fallen back over. A snapshot in another
// format version, or one that could not be read at all (EIO, EACCES,
// EMFILE: the bytes may be fine), stops the walk with an error naming
// the file and deletes nothing, not even the corrupt generations passed
// on the way: a build pointed at another build's data directory, or at
// a disk having a bad moment, must leave it as it found it.
func LatestSnapshot(dir string) (payload []byte, seq uint64, err error) {
	infos, err := Snapshots(dir)
	if err != nil {
		return nil, 0, err
	}
	var (
		lastErr  error
		rejected []string
	)
	for i := len(infos) - 1; i >= 0; i-- {
		info := infos[i]
		data, err := os.ReadFile(info.Path)
		if err != nil {
			return nil, 0, fmt.Errorf("persist: snapshot unreadable, nothing deleted: %w", err)
		}
		gotSeq, payload, err := DecodeSnapshot(data)
		if errors.Is(err, ErrSnapshotVersion) {
			return nil, 0, fmt.Errorf("%s: %w", info.Path, err)
		}
		if err == nil && gotSeq != info.Seq {
			err = fmt.Errorf("%w: envelope seq %d does not match file name", ErrSnapshotCorrupt, gotSeq)
		}
		if err == nil {
			removeAll(rejected)
			return payload, info.Seq, nil
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("%s: %w", info.Path, err)
		}
		rejected = append(rejected, info.Path)
	}
	removeAll(rejected)
	if lastErr != nil {
		return nil, 0, fmt.Errorf("%w (newest rejected: %v)", ErrNoSnapshot, lastErr)
	}
	return nil, 0, ErrNoSnapshot
}

// removeAll deletes rejected snapshot files, best effort: one that
// stays behind is rejected again by the next load.
func removeAll(paths []string) {
	for _, p := range paths {
		os.Remove(p)
	}
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
	for _, f := range append(snaps, wals...) {
		if f.Seq >= keepFrom {
			continue
		}
		if err := os.Remove(f.Path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("persist: remove %s: %w", f.Path, err)
		}
	}
	return nil
}
