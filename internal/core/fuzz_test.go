package core

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzRestoreCheckpoint throws arbitrary bytes at the predictor blob
// decoder, the trust boundary every restart, takeover and resume reads
// through. It must never panic; what it allocates must stay within a
// constant factor of the input plus what the receiving predictor's own
// configuration allows (window and pending rows of coder-dimension
// floats — a length prefix never buys more); and a blob it accepts must
// be the blob the restored predictor writes back.
func FuzzRestoreCheckpoint(f *testing.F) {
	fresh, err := ckptPredictor(7).CheckpointState()
	if err != nil {
		f.Fatal(err)
	}
	trained := ckptPredictor(7)
	for i := 0; i < 84; i++ {
		tier0Obs(f, trained, i)
	}
	full, err := trained.CheckpointState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fresh)
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add([]byte(`{"version":1,"kinds":[]}`))
	f.Add([]byte("GSPC\x02\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))

	p := ckptPredictor(7)
	// What the configuration lets a blob ask for: per kind a full window
	// and as many pending rows, each coder-dimension floats, and the
	// trees' importance rows; generously rounded.
	budget := uint64(4 << 20)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := p.RestoreCheckpoint(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget+64*uint64(len(data)) {
			t.Fatalf("restoring %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		again, err := p.CheckpointState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted checkpoint re-encodes to different bytes")
		}
	})
}
