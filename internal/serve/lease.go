package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"syscall"
	"time"

	"gsight/internal/persist"
)

// Expiry-based leadership lease over a shared file. Exactly one
// process serves at a time: the active holds the lease and renews it
// at a fraction of its TTL; a standby polls, and the moment the lease
// expires it acquires with a bumped fencing epoch and takes over. A
// deposed active discovers the epoch change on its next renewal and
// self-fences — it stops acknowledging before it can fork the decision
// stream. Writes go through WriteFileAtomic so a torn lease file is
// impossible; clock injection keeps the unit tests instant.

// ErrLeaseLost reports a renewal that found the lease held by someone
// else (or at a different epoch): the holder must fence immediately.
var ErrLeaseLost = errors.New("serve: lease lost")

// ErrLeaseHeld reports an acquisition attempt against a live lease.
var ErrLeaseHeld = errors.New("serve: lease held")

// leaseFile is the on-disk schema.
type leaseFile struct {
	Epoch   uint64 `json:"epoch"`
	Owner   string `json:"owner"`
	Expires int64  `json:"expires_unix_ns"`
}

// Lease is one process's handle on the lease file.
type Lease struct {
	path  string
	owner string
	ttl   time.Duration
	epoch uint64
	now   func() time.Time
}

// NewLease builds a handle (no acquisition yet). owner must be unique
// per process — pid-qualified names work.
func NewLease(path, owner string, ttl time.Duration) *Lease {
	return &Lease{path: path, owner: owner, ttl: ttl, now: time.Now}
}

// Epoch returns the fencing epoch of the currently-held lease.
func (l *Lease) Epoch() uint64 { return l.epoch }

// TTL returns the lease duration.
func (l *Lease) TTL() time.Duration { return l.ttl }

// withLock runs fn holding an exclusive flock on a sidecar lock file,
// serializing the read-check-write critical sections across processes.
// Without it, two processes racing a free lease can both read "no
// holder" and both write epoch 1 — the loser then self-fences on its
// first renewal even though no takeover happened. The kernel drops a
// flock when its holder dies, so a crash mid-acquire cannot wedge the
// lease the way a lock *file* would.
func (l *Lease) withLock(fn func() error) error {
	f, err := os.OpenFile(l.path+".lock", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("serve: lease lock %s: %w", l.path, err)
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("serve: lease lock %s: %w", l.path, err)
	}
	defer syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	return fn()
}

// read parses the lease file; a missing file is a zero lease (never
// held).
func (l *Lease) read() (leaseFile, error) {
	var lf leaseFile
	data, err := os.ReadFile(l.path)
	if os.IsNotExist(err) {
		return lf, nil
	}
	if err != nil {
		return lf, fmt.Errorf("serve: lease %s: %w", l.path, err)
	}
	if err := json.Unmarshal(data, &lf); err != nil {
		// A corrupt lease file counts as expired: the fencing epoch
		// restarts above any epoch a live holder could hold, because
		// acquire bumps from 0 only when the file is unreadable, and a
		// live holder's renewal will then fence on the owner mismatch.
		return leaseFile{}, nil
	}
	return lf, nil
}

// write stores the lease atomically.
func (l *Lease) write(lf leaseFile) error {
	data, err := json.Marshal(lf)
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(l.path, data, 0o644)
}

// Acquire takes the lease if it is free or expired, bumping the
// fencing epoch. It returns ErrLeaseHeld while another owner's lease
// is live.
func (l *Lease) Acquire() error {
	return l.withLock(func() error {
		cur, err := l.read()
		if err != nil {
			return err
		}
		now := l.now()
		if cur.Owner != "" && cur.Owner != l.owner && now.UnixNano() < cur.Expires {
			return fmt.Errorf("%w by %s for %s", ErrLeaseHeld, cur.Owner,
				time.Duration(cur.Expires-now.UnixNano()).Round(time.Millisecond))
		}
		next := leaseFile{Epoch: cur.Epoch + 1, Owner: l.owner, Expires: now.Add(l.ttl).UnixNano()}
		if err := l.write(next); err != nil {
			return err
		}
		l.epoch = next.Epoch
		return nil
	})
}

// Renew extends the held lease. A changed owner or epoch means the
// lease was taken over — the caller must stop serving immediately
// (ErrLeaseLost).
func (l *Lease) Renew() error {
	return l.withLock(func() error {
		cur, err := l.read()
		if err != nil {
			return err
		}
		if cur.Owner != l.owner || cur.Epoch != l.epoch {
			return fmt.Errorf("%w: now held by %s at epoch %d (we held epoch %d)",
				ErrLeaseLost, cur.Owner, cur.Epoch, l.epoch)
		}
		cur.Expires = l.now().Add(l.ttl).UnixNano()
		return l.write(cur)
	})
}

// Release expires the held lease immediately (clean shutdown handoff).
// Losing a race with a takeover is fine — the successor's lease is
// left untouched.
func (l *Lease) Release() error {
	return l.withLock(func() error {
		cur, err := l.read()
		if err != nil {
			return err
		}
		if cur.Owner != l.owner || cur.Epoch != l.epoch {
			return nil // already taken over; nothing of ours to release
		}
		cur.Expires = 0
		return l.write(cur)
	})
}
