package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"gsight/internal/ml"
	"gsight/internal/wire"
	"gsight/internal/workload"
)

func ckptPredictor(seed uint64) *Predictor {
	return NewPredictor(Config{
		Coder:       Coder{NumServers: 4, MaxWorkloads: 3},
		Factory:     func(s uint64) ml.Incremental { return ml.NewForest(ml.ForestConfig{Trees: 6, Seed: s, Window: 64}) },
		UpdateEvery: 10,
		Seed:        seed,
	})
}

// TestPredictorCheckpointRoundTrip: restoring a checkpoint into a fresh
// same-configured predictor must continue the learning stream exactly —
// same predictions before and after further observations on both.
func TestPredictorCheckpointRoundTrip(t *testing.T) {
	a := ckptPredictor(5)
	mm := scInput(workload.MatMul(), 0, 0)
	obsAt := func(p *Predictor, i int) {
		dd := scInput(workload.DD(), i%2, float64(i%7)*10)
		if err := p.Observe(IPCQoS, 0, []WorkloadInput{mm, dd}, 1.9-0.01*float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	// Past the first flush (trained) with a part-filled pending buffer.
	for i := 0; i < 24; i++ {
		obsAt(a, i)
	}
	raw, err := a.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}

	b := ckptPredictor(5)
	if err := b.RestoreCheckpoint(raw); err != nil {
		t.Fatal(err)
	}
	if a.SamplesSeen(IPCQoS) != b.SamplesSeen(IPCQoS) {
		t.Fatalf("samples seen: %d vs %d", a.SamplesSeen(IPCQoS), b.SamplesSeen(IPCQoS))
	}
	// Drive both through more observations (crossing another flush) and
	// compare predictions bit-for-bit.
	for i := 24; i < 40; i++ {
		obsAt(a, i)
		obsAt(b, i)
	}
	dd := scInput(workload.DD(), 1, 30)
	pa, errA := a.Predict(IPCQoS, 0, []WorkloadInput{mm, dd})
	pb, errB := b.Predict(IPCQoS, 0, []WorkloadInput{mm, dd})
	if errA != nil || errB != nil {
		t.Fatalf("predict errors: %v, %v", errA, errB)
	}
	if pa != pb {
		t.Fatalf("restored predictor diverged: %v != %v", pb, pa)
	}
}

// ckptLayout locates the sections of a predictor blob.
type ckptLayout struct {
	forest      [numQoSKinds]int // start of the kind's forest section
	trees       [numQoSKinds]int // the forest's tree count
	windowCount [numQoSKinds]int // the forest's window row count
	pending     [numQoSKinds]int // the kind's pending row count
	tier0       int              // tier-0 generation
	ridge       int              // ridge section
}

// layoutOf walks a valid blob field by field, as DESIGN.md §12 lays it
// out, noting where the sections start.
func layoutOf(t *testing.T, blob []byte) ckptLayout {
	t.Helper()
	var l ckptLayout
	r := wire.NewReader(blob)
	at := func() int { return len(blob) - r.Len() }
	r.Bytes(8, "magic, version")
	dim := int(r.U32("coder dim"))
	r.U32("kind count")
	for k := range l.forest {
		r.Bytes(1+8, "trained flag, sample count")
		l.forest[k] = at()
		fdim := int(r.U32("forest dim"))
		r.Bytes(1+32, "fitted flag, rng state")
		l.trees[k] = at()
		for n := r.U32("tree count"); n > 0; n-- {
			r.U32("tree dim")
			r.Bytes(28*int(r.U32("node count")), "nodes")
			r.Sparse(nil, int(r.U32("importance length")), "importance")
		}
		l.windowCount[k] = at()
		rows := int(r.U32("window rows"))
		for i := 0; i < rows; i++ {
			r.Sparse(nil, fdim, "window row")
		}
		r.Bytes(8*rows, "window labels")
		l.pending[k] = at()
		rows = int(r.U32("pending rows"))
		for i := 0; i < rows; i++ {
			r.Sparse(nil, dim, "pending row")
		}
		r.Bytes(8*rows, "pending labels")
	}
	l.tier0 = at()
	l.ridge = l.tier0 + 8
	if err := r.Err(); err != nil {
		t.Fatalf("walking the blob: %v", err)
	}
	return l
}

// splice returns blob with n bytes at off replaced by with.
func splice(blob []byte, off, n int, with []byte) []byte {
	out := append([]byte(nil), blob[:off]...)
	out = append(out, with...)
	return append(out, blob[off+n:]...)
}

// TestPredictorRestoreRejectsCorruptState takes one valid checkpoint and
// breaks it once per rule the decoder enforces. Every case must fail
// with that rule's error and leave the receiving predictor — which
// holds state of its own — exactly as it was.
func TestPredictorRestoreRejectsCorruptState(t *testing.T) {
	src := ckptPredictor(5)
	for i := 0; i < 84; i++ { // 8 flushes: the 64-row ring wrapped, 4 pending
		tier0Obs(t, src, i)
	}
	capture := func() *PredictorCapture {
		c, err := src.Capture()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	good := capture().Encode()
	lay := layoutOf(t, good)
	dim := src.coder.Dim()
	u32 := func(v uint32) []byte { return wire.AppendU32(nil, v) }
	firstRow := lay.windowCount[IPCQoS] + 4 // nnz varint of the oldest window row
	_, nnzLen := binary.Uvarint(good[firstRow:])
	_, gapLen := binary.Uvarint(good[firstRow+nnzLen:])

	type tc struct {
		name string
		blob func() []byte
		want string
	}
	// mutated encodes a capture after changing it: for rules about
	// values, which need no byte surgery.
	mutated := func(f func(c *PredictorCapture)) func() []byte {
		return func() []byte { c := capture(); f(c); return c.Encode() }
	}
	cases := []tc{
		{"magic", func() []byte { return splice(good, 0, 4, []byte("JSON")) }, "not a predictor checkpoint"},
		{"blob version", func() []byte { return splice(good, 4, 4, u32(1)) }, "unsupported predictor checkpoint version 1, want 2"},
		{"coder dim", mutated(func(c *PredictorCapture) { c.dim++ }), "coder dim is"},
		{"kind count", func() []byte { return splice(good, 12, 4, u32(2)) }, "has 2 kinds, want 3"},
		{"sample count", func() []byte { return splice(good, 17, 8, wire.AppendU64(nil, 1<<63)) }, "sample count"},
		{"trained flag", func() []byte { return splice(good, 16, 1, []byte{2}) }, "want 0 or 1"},
		{"forest dim", func() []byte { return splice(good, lay.forest[IPCQoS], 4, u32(uint32(dim-1))) }, "forest dim"},
		{"rng state", func() []byte { return splice(good, lay.forest[IPCQoS]+5, 32, make([]byte, 32)) }, "all-zero state"},
		{"trees over MaxTrees", func() []byte { return splice(good, lay.trees[IPCQoS], 4, u32(7)) }, "configured max is 6"},
		{"fitted without trees", func() []byte {
			// An unfitted JCT forest: set its fitted flag.
			return splice(good, lay.forest[JCTQoS]+4, 1, []byte{1})
		}, "fitted but has no"},
		{"child index", func() []byte {
			// First node of the first IPC tree is a split: point its
			// left child at itself. Offsets: dim, flag, rng, tree count,
			// tree dim, node count, then feature|left|right.
			return splice(good, lay.forest[IPCQoS]+4+1+32+4+4+4+4, 4, u32(0))
		}, "child out of range"},
		{"split feature", func() []byte {
			return splice(good, lay.forest[IPCQoS]+4+1+32+4+4+4, 4, u32(uint32(dim)))
		}, "outside dim"},
		{"node threshold finiteness", func() []byte {
			return splice(good, lay.forest[IPCQoS]+4+1+32+4+4+4+12, 8, wire.AppendF64(nil, math.Inf(1)))
		}, "non-finite"},
		{"window over capacity", func() []byte {
			return splice(good, lay.windowCount[IPCQoS], 4, u32(65))
		}, "exceeds configured capacity 64"},
		{"window feature finiteness", func() []byte {
			return splice(good, firstRow+nnzLen+gapLen, 8, wire.AppendF64(nil, math.NaN()))
		}, "zero or non-finite"},
		{"window label finiteness", func() []byte {
			return splice(good, lay.pending[IPCQoS]-8, 8, wire.AppendF64(nil, math.Inf(-1)))
		}, "non-finite"},
		{"length prefix past the input", func() []byte {
			return splice(good, lay.windowCount[IPCQoS], 4, u32(1<<31))
		}, "needs at least"},
		{"nnz over the row length", func() []byte {
			return splice(good, firstRow, nnzLen, binary.AppendUvarint(nil, uint64(dim+1)))
		}, "entries in a row of"},
		{"index gap past the row end", func() []byte {
			return splice(good, firstRow+nnzLen, gapLen, binary.AppendUvarint(nil, uint64(dim)))
		}, "runs past the row end"},
		{"stored zero", func() []byte {
			return splice(good, firstRow+nnzLen+gapLen, 8, make([]byte, 8))
		}, "zero or non-finite"},
		{"overlong varint", func() []byte {
			return splice(good, firstRow+nnzLen, gapLen, []byte{0x80 | good[firstRow+nnzLen], 0})
		}, "shortest form"},
		{"pending over capacity", func() []byte {
			return splice(good, lay.pending[IPCQoS], 4, u32(65))
		}, "pending rows"},
		{"pending feature finiteness", mutated(func(c *PredictorCapture) {
			row := append([]float64(nil), c.kinds[IPCQoS].pendingX[0]...)
			row[0] = math.Inf(1)
			c.kinds[IPCQoS].pendingX[0] = row
		}), "non-finite"},
		{"pending label finiteness", mutated(func(c *PredictorCapture) { c.kinds[IPCQoS].pendingY[1] = math.NaN() }), "non-finite"},
		{"ridge dim", func() []byte { return splice(good, lay.ridge, 4, u32(Tier0Dim+1)) }, "ridge dim"},
		{"ridge accumulator finiteness", func() []byte {
			return splice(good, lay.ridge+13, 8, wire.AppendF64(nil, math.NaN()))
		}, "non-finite"},
		{"ridge ring over capacity", func() []byte {
			return splice(good, lay.ridge+13+8*(Tier0Dim*Tier0Dim+2*Tier0Dim), 4, u32(tier0Window+1))
		}, "ridge ring"},
		{"trailing bytes", func() []byte { return append(append([]byte(nil), good...), 0) }, "1 trailing bytes"},
		{"empty", func() []byte { return nil }, "needs 4 bytes, 0 remain"},
	}
	// Truncated at, one byte before and one byte after every section
	// boundary.
	bounds := []int{4, 8, 12, 16, lay.tier0, lay.ridge, len(good) - 1}
	for k := range lay.forest {
		bounds = append(bounds, lay.forest[k], lay.trees[k], lay.windowCount[k], lay.pending[k])
	}
	for _, b := range bounds {
		for _, n := range []int{b - 1, b, b + 1} {
			if n < 0 || n >= len(good) {
				continue
			}
			n := n
			cases = append(cases, tc{fmt.Sprintf("truncated at %d", n), func() []byte { return good[:n] }, "remain"})
		}
	}

	dst := ckptPredictor(9)
	for i := 0; i < 37; i++ {
		tier0Obs(t, dst, i)
	}
	before, err := dst.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		blob := c.blob()
		if bytes.Equal(blob, good) {
			t.Errorf("%s: the case changed nothing", c.name)
			continue
		}
		err := dst.RestoreCheckpoint(blob)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
		// The configuration-free read shares the decoder: it rejects the
		// same blobs, bar the one that is whole and only disagrees with
		// this predictor's coder.
		if _, serr := SummarizeCheckpoint(blob); (serr == nil) != (c.name == "coder dim") {
			t.Errorf("%s: configuration-free read says %v", c.name, serr)
		}
		after, err := dst.CheckpointState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("%s: the rejected checkpoint changed the predictor", c.name)
		}
	}
	if err := dst.RestoreCheckpoint(good); err != nil {
		t.Fatalf("the uncorrupted checkpoint: %v", err)
	}
}

// specialRow is a feature row carrying the floats a lossy codec would
// mangle: negative zero, the smallest subnormal, the largest
// magnitudes.
func specialRow(dim, i int) []float64 {
	row := make([]float64, dim)
	row[0] = float64(i%5) + 1
	row[1+i%3] = math.Copysign(0, -1)
	row[10] = math.SmallestNonzeroFloat64 * float64(1+i%4)
	row[dim/2] = float64(i % 7)
	if i%11 == 0 {
		row[dim-2] = math.MaxFloat64
	}
	if i%13 == 0 {
		row[dim-1] = -math.MaxFloat64
	}
	return row
}

// TestPredictorCheckpointContinuesStream is the round-trip property:
// for a predictor that has trained, wrapped its ring, holds pending
// rows and has seen -0.0, subnormals and ±MaxFloat64 in its features,
// encode → restore → encode is byte-equal, and the restored predictor's
// further observations, flushes and batch predictions are those of the
// one that was never interrupted.
func TestPredictorCheckpointContinuesStream(t *testing.T) {
	a := ckptPredictor(11)
	dim := a.coder.Dim()
	feed := func(p *Predictor, i int) {
		tier0Obs(t, p, i)
		// JCT rows go in as encoded features directly, to carry the
		// special values; Observe would encode real profiles.
		p.pending[JCTQoS].Append(specialRow(dim, i), 1+float64(i%9)/4)
		if p.pending[JCTQoS].Len() >= p.cfg.UpdateEvery {
			if err := p.Flush(JCTQoS); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 87; i++ { // both 64-row rings wrapped; 7 rows pending per kind
		feed(a, i)
	}
	first, err := a.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	b := ckptPredictor(11)
	if err := b.RestoreCheckpoint(first); err != nil {
		t.Fatal(err)
	}
	second, err := b.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("encode → restore → encode changed the bytes")
	}
	negZero := false
	for _, row := range b.pending[JCTQoS].X {
		for _, v := range row {
			negZero = negZero || (v == 0 && math.Signbit(v))
		}
	}
	if !negZero {
		t.Fatal("-0.0 did not survive in the pending rows")
	}

	mm := scInput(workload.MatMul(), 0, 0)
	var queries []Query
	for i := 0; i < 6; i++ {
		queries = append(queries, Query{Target: 0, Inputs: []WorkloadInput{mm, scInput(workload.DD(), i%2, float64(i)*10)}})
	}
	outA, outB := make([]float64, len(queries)), make([]float64, len(queries))
	for i := 87; i < 140; i++ {
		feed(a, i)
		feed(b, i)
		for _, kind := range []QoSKind{IPCQoS, JCTQoS} {
			if err := a.PredictBatchInto(kind, queries, outA); err != nil {
				t.Fatal(err)
			}
			if err := b.PredictBatchInto(kind, queries, outB); err != nil {
				t.Fatal(err)
			}
			for q := range outA {
				if math.Float64bits(outA[q]) != math.Float64bits(outB[q]) {
					t.Fatalf("observation %d, %v query %d: restored %v, uninterrupted %v", i, kind, q, outB[q], outA[q])
				}
			}
		}
	}
	endA, _ := a.CheckpointState()
	endB, _ := b.CheckpointState()
	if !bytes.Equal(endA, endB) {
		t.Fatal("the two predictors' states differ after the continued stream")
	}
}

// TestCheckpointCodecHasNoJSON: the predictor blob is written and read
// without a JSON encoder or decoder anywhere beneath it — none of the
// packages the codec is built from imports encoding/json in its
// checkpoint files.
func TestCheckpointCodecHasNoJSON(t *testing.T) {
	for _, file := range []string{"checkpoint.go", "../ml/checkpoint.go", "../ml/ridge.go", "../wire/wire.go"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(src, []byte(`"encoding/json"`)) {
			t.Errorf("%s imports encoding/json", file)
		}
	}
}

// TestCaptureDoesNotAliasLiveState is the aliasing audit: a capture
// taken at observation n must encode to the CheckpointState bytes of
// observation n however far the predictor has moved on. The 250
// further observations cross two flushes (the pending buffer is reset
// in place, the forest grows and prunes trees in place) and wrap the
// 120-row ring, and the encode runs on another goroutine while they
// are applied — under -race that also proves the capture shares
// nothing the learner still writes.
func TestCaptureDoesNotAliasLiveState(t *testing.T) {
	p := NewPredictor(Config{
		Coder:       Coder{NumServers: 4, MaxWorkloads: 3},
		Factory:     func(s uint64) ml.Incremental { return ml.NewForest(ml.ForestConfig{Trees: 6, Seed: s, Window: 120}) },
		UpdateEvery: 100,
		Seed:        5,
	})
	mm := scInput(workload.MatMul(), 0, 0)
	observe := func(i int) {
		dd := scInput(workload.DD(), i%2, float64(i%7)*10)
		if err := p.Observe(IPCQoS, 0, []WorkloadInput{mm, dd}, 1.9-0.01*float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	// One fit and one update behind it (so the tree slice has the spare
	// capacity later updates append and prune within), the ring wrapped
	// once, 30 rows pending.
	const n = 230
	for i := 0; i < n; i++ {
		observe(i)
	}
	want, err := p.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Capture()
	if err != nil {
		t.Fatal(err)
	}

	early := make(chan []byte, 1)
	go func() { early <- c.Encode() }()
	for i := n; i < n+250; i++ {
		observe(i)
	}
	if got := p.SamplesSeen(IPCQoS); got != 400 {
		t.Fatalf("samples seen = %d, want 400 (two flushes after the capture)", got)
	}
	if !bytes.Equal(<-early, want) {
		t.Fatal("encode concurrent with 250 observations differs from the checkpoint taken at the capture point")
	}
	if !bytes.Equal(c.Encode(), want) {
		t.Fatal("encode after 250 observations differs from the checkpoint taken at the capture point")
	}
	now, err := p.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(now, want) {
		t.Fatal("checkpoint did not change across 250 observations: the test exercises nothing")
	}
}
