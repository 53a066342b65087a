package persist

import "time"

// The serving daemon's committer appends and fsyncs its own batches
// (WAL.AppendBatch); what is left here is what the frozen
// benchmark/probes.go compiles against. Owed to the next [benchmark]
// PR: call CreateWAL + AppendBatch there and delete this file.

// GroupWAL is the WAL.
type GroupWAL = WAL

// NewGroupWAL returns w; the window is ignored.
func NewGroupWAL(w *WAL, _ time.Duration) *WAL { return w }
