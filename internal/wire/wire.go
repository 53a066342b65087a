// Package wire is the little-endian binary vocabulary the checkpoint
// formats are written in (DESIGN.md §12): fixed-width integers and
// IEEE-754 bit patterns, counted sections and sparse float rows. The
// append functions write; Reader reads back and is the trust boundary —
// every length prefix is checked against the bytes that remain before
// anything is allocated for it, every float must be finite, and every
// varint must be in its shortest form, so a blob a Reader accepts is the
// blob the append functions would write for the same values.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// AppendU32 appends v as 4 little-endian bytes.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends v as 8 little-endian bytes.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendBool appends b as one byte, 0 or 1.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendF64 appends v's IEEE-754 bit pattern.
func AppendF64(dst []byte, v float64) []byte { return AppendU64(dst, math.Float64bits(v)) }

// AppendF64s appends the bit patterns of vs back to back, with no count.
func AppendF64s(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = AppendU64(dst, math.Float64bits(v))
	}
	return dst
}

// AppendSparse appends row as a sparse float row: the number of entries
// whose bit pattern is non-zero (uvarint), then for each, in index
// order, the gap from the index after the previous entry (uvarint) and
// the bit pattern. Only +0.0 is left out: -0.0, subnormals and every
// other value come back bit for bit. The row length is not written; the
// reader is told it.
func AppendSparse(dst []byte, row []float64) []byte {
	nnz := SparseLen(row)
	// Reserve the most these entries can take, then write by index: the
	// rows are most of a checkpoint, and an append per field costs
	// several times the scan.
	at := len(dst)
	dst = slices.Grow(dst, uvarintLen(uint64(nnz))+nnz*(uvarintLen(uint64(len(row)))+8))
	dst = dst[:cap(dst)]
	at += binary.PutUvarint(dst[at:], uint64(nnz))
	next := 0
	for i, v := range row {
		pattern := math.Float64bits(v)
		if pattern == 0 {
			continue
		}
		if gap := i - next; gap < 0x80 {
			dst[at] = byte(gap)
			at++
		} else {
			at += binary.PutUvarint(dst[at:], uint64(gap))
		}
		binary.LittleEndian.PutUint64(dst[at:], pattern)
		at += 8
		next = i + 1
	}
	return dst[:at]
}

// SparseLen counts the entries AppendSparse stores for row: those whose
// bit pattern is non-zero.
func SparseLen(row []float64) int {
	nnz := 0
	for _, v := range row {
		if math.Float64bits(v) != 0 {
			nnz++
		}
	}
	return nnz
}

// SparseSizeHint estimates what AppendSparse writes for all of rows from
// an even sample of at most 64 of them, with an eighth to spare: enough
// to size a buffer once without scanning every row twice.
func SparseSizeHint(rows [][]float64) int {
	if len(rows) == 0 {
		return 0
	}
	step := (len(rows) + 63) / 64
	nnz, sampled := 0, 0
	for i := 0; i < len(rows); i += step {
		nnz += SparseLen(rows[i])
		sampled++
	}
	perRow := 3 + (2+8)*nnz/sampled
	return len(rows) * perRow * 9 / 8
}

// uvarintLen is the length of v's shortest varint.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// ErrCorrupt is matched (errors.Is) by every error a Reader reports.
var ErrCorrupt = errors.New("wire: corrupt input")

// Reader decodes what the append functions wrote. The first failure
// sticks: later reads return zero values and Err reports it, so a
// decoder reads a whole section and checks once. Counts come back zero
// after a failure, so loops over them do not run.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader reads from b, which it does not copy.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Rest returns the unread bytes without consuming them.
func (r *Reader) Rest() []byte { return r.buf[r.off:] }

// Failf records a failure found by the caller (a value out of range for
// the configuration, say), with the offset read so far, unless one is already
// recorded.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: offset %d: %s", ErrCorrupt, r.off, fmt.Sprintf(format, args...))
	}
}

// Annotate prefixes the recorded failure, if any, with the section it
// was found in.
func (r *Reader) Annotate(section string) {
	if r.err != nil {
		r.err = fmt.Errorf("%s: %w", section, r.err)
	}
}

// Bytes consumes n bytes and returns them (a view, not a copy), or
// fails and returns nil.
func (r *Reader) Bytes(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.Len() {
		r.Failf("%s needs %d bytes, %d remain", what, n, r.Len())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U32 reads a 4-byte little-endian integer.
func (r *Reader) U32(what string) uint32 {
	b := r.Bytes(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads an 8-byte little-endian integer.
func (r *Reader) U64(what string) uint64 {
	b := r.Bytes(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool(what string) bool {
	b := r.Bytes(1, what)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.Failf("%s is %d, want 0 or 1", what, b[0])
		return false
	}
	return b[0] == 1
}

// F64 reads one float, which must be finite.
func (r *Reader) F64(what string) float64 {
	b := r.Bytes(8, what)
	if b == nil {
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(b))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Failf("%s is non-finite", what)
		return 0
	}
	return v
}

// F64s reads n finite floats into dst[:n]; a nil dst checks and skips
// them. The caller bounds n (Count, or a configured dimension) before
// allocating dst.
func (r *Reader) F64s(dst []float64, n int, what string) {
	if n < 0 || n > r.Len()/8 {
		r.Failf("%s needs %d floats, %d bytes remain", what, n, r.Len())
		return
	}
	b := r.Bytes(8*n, what)
	for i := 0; i < len(b); i += 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.Failf("%s has a non-finite value", what)
			return
		}
		if dst != nil {
			dst[i/8] = v
		}
	}
}

// uvarint reads a shortest-form unsigned varint.
func (r *Reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n == 0 {
		r.Failf("%s: varint cut short, %d bytes remain", what, r.Len())
		return 0
	}
	if n < 0 {
		r.Failf("%s: varint overflows 64 bits", what)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.Failf("%s: varint not in shortest form", what)
		return 0
	}
	r.off += n
	return v
}

// Count reads a 4-byte element count and checks that count elements of
// at least elemBytes each fit in what remains, so the caller may
// allocate for them.
func (r *Reader) Count(elemBytes int, what string) int {
	n := r.U32(what)
	if r.err != nil {
		return 0
	}
	if uint64(n)*uint64(elemBytes) > uint64(r.Len()) {
		r.Failf("%s %d needs at least %d bytes, %d remain", what, n, uint64(n)*uint64(elemBytes), r.Len())
		return 0
	}
	return int(n)
}

// Sparse reads a sparse row of length n written by AppendSparse into
// dst[:n], which must be zeroed; a nil dst checks and skips it. It
// rejects more entries than the row has slots, an index past the row's
// end, a stored +0.0 (the writer never stores one) and non-finite
// values.
func (r *Reader) Sparse(dst []float64, n int, what string) {
	nnz := r.uvarint(what)
	if r.err != nil {
		return
	}
	if nnz > uint64(n) {
		r.Failf("%s: %d entries in a row of %d", what, nnz, n)
		return
	}
	if nnz*9 > uint64(r.Len()) {
		r.Failf("%s: %d entries need at least %d bytes, %d remain", what, nnz, nnz*9, r.Len())
		return
	}
	next := uint64(0)
	for k := uint64(0); k < nnz; k++ {
		gap := r.uvarint(what)
		b := r.Bytes(8, what)
		if b == nil {
			return
		}
		idx := next + gap
		if gap >= uint64(n) || idx >= uint64(n) {
			r.Failf("%s: index gap %d runs past the row end %d", what, gap, n)
			return
		}
		bits := binary.LittleEndian.Uint64(b)
		v := math.Float64frombits(bits)
		if bits == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			r.Failf("%s: entry %d is zero or non-finite", what, idx)
			return
		}
		if dst != nil {
			dst[idx] = v
		}
		next = idx + 1
	}
}

// Done fails if unread bytes remain, and returns Err.
func (r *Reader) Done() error {
	if r.err == nil && r.Len() > 0 {
		r.Failf("%d trailing bytes", r.Len())
	}
	return r.err
}
