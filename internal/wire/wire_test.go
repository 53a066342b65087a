package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestSparseRoundTripIsBitExact(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rows := [][]float64{
		{},
		{0, 0, 0},
		{1, 2, 3},
		{0, negZero, 0, math.SmallestNonzeroFloat64, 0, math.MaxFloat64, -math.MaxFloat64},
		make([]float64, 300),
	}
	rows[4][0], rows[4][129], rows[4][299] = 1, -2, 3 // a two-byte gap
	for _, row := range rows {
		enc := AppendSparse([]byte("prefix"), row)
		if !bytes.HasPrefix(enc, []byte("prefix")) {
			t.Fatal("AppendSparse clobbered what was before it")
		}
		for _, dst := range [][]float64{make([]float64, len(row)), nil} {
			r := NewReader(enc[len("prefix"):])
			r.Sparse(dst, len(row), "row")
			if err := r.Done(); err != nil {
				t.Fatalf("row %v: %v", row, err)
			}
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(row[i]) {
					t.Fatalf("row %v: entry %d came back as %v", row, i, dst[i])
				}
			}
		}
	}
	size := 0
	for _, row := range rows {
		size += len(AppendSparse(nil, row))
	}
	if hint := SparseSizeHint(rows); hint < size/2 || hint > 4*size {
		t.Errorf("SparseSizeHint %d for %d encoded bytes", hint, size)
	}
}

func TestReaderRejects(t *testing.T) {
	entry := func(gap uint64, v float64) []byte {
		return AppendF64(binary.AppendUvarint(nil, gap), v)
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name string
		data []byte
		read func(r *Reader)
		want string
	}{
		{"short u32", []byte{1, 2, 3}, func(r *Reader) { r.U32("x") }, "x needs 4 bytes, 3 remain"},
		{"bool", []byte{2}, func(r *Reader) { r.Bool("flag") }, "flag is 2, want 0 or 1"},
		{"nan", AppendF64(nil, math.NaN()), func(r *Reader) { r.F64("v") }, "non-finite"},
		{"inf in a run", AppendF64s(nil, []float64{1, math.Inf(-1)}), func(r *Reader) { r.F64s(nil, 2, "run") }, "non-finite"},
		{"run past the end", AppendF64s(nil, []float64{1}), func(r *Reader) { r.F64s(nil, 2, "run") }, "needs 2 floats"},
		{"count past the end", AppendU32(nil, 3), func(r *Reader) { r.Count(1, "rows") }, "rows 3 needs at least 3 bytes, 0 remain"},
		{"huge count", AppendU32(nil, math.MaxUint32), func(r *Reader) { r.Count(1<<20, "rows") }, "needs at least"},
		{"nnz over row", join([]byte{4}, entry(0, 1)), func(r *Reader) { r.Sparse(nil, 3, "row") }, "4 entries in a row of 3"},
		{"nnz over input", []byte{3}, func(r *Reader) { r.Sparse(nil, 3, "row") }, "need at least 27 bytes"},
		{"gap past row end", join([]byte{2}, entry(0, 1), entry(2, 1)), func(r *Reader) { r.Sparse(nil, 3, "row") }, "runs past the row end"},
		{"gap overflow", join([]byte{2}, entry(1, 1), entry(math.MaxUint64, 1)), func(r *Reader) { r.Sparse(nil, 3, "row") }, "runs past the row end"},
		{"stored zero", join([]byte{1}, entry(0, 0)), func(r *Reader) { r.Sparse(nil, 3, "row") }, "zero or non-finite"},
		{"stored nan", join([]byte{1}, entry(0, math.NaN())), func(r *Reader) { r.Sparse(nil, 3, "row") }, "zero or non-finite"},
		{"overlong varint", join([]byte{0x81, 0}, entry(0, 1)), func(r *Reader) { r.Sparse(nil, 3, "row") }, "shortest form"},
		{"varint cut short", []byte{0x80}, func(r *Reader) { r.Sparse(nil, 3, "row") }, "cut short"},
		{"varint overflow", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Sparse(nil, 3, "row") }, "overflows"},
		{"trailing", []byte{0, 9}, func(r *Reader) { r.Sparse(nil, 3, "row") }, "1 trailing bytes"},
	}
	for _, c := range cases {
		r := NewReader(c.data)
		c.read(r)
		err := r.Done()
		if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want ErrCorrupt containing %q", c.name, err, c.want)
		}
	}
}

// TestReaderFailureSticks: after the first failure every read returns
// zero and the first error stays, so decoders can check once per
// section.
func TestReaderFailureSticks(t *testing.T) {
	r := NewReader(AppendU32(nil, 7))
	r.U64("first")
	first := r.Err()
	if first == nil {
		t.Fatal("short read accepted")
	}
	if r.U32("second") != 0 || r.Count(1, "n") != 0 || r.Bool("b") || r.F64("f") != 0 || r.Bytes(1, "x") != nil {
		t.Fatal("reads after a failure returned data")
	}
	r.Failf("later")
	r.Annotate("section")
	if err := r.Done(); !errors.Is(err, ErrCorrupt) || !strings.HasPrefix(err.Error(), "section: ") || !strings.Contains(err.Error(), "first") {
		t.Fatalf("got %v", err)
	}
}
