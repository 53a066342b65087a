package persist

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Append-only write-ahead log: one record per line, each line carrying
// its own CRC-32C so replay can stop exactly at the first torn or
// corrupt byte. The format is
//
//	crc32c(payload) as 8 hex digits, one space, payload, '\n'
//
// Payloads are opaque single-line byte strings (the platform writes
// compact JSON). A record only counts as valid when its newline made it
// to disk and its checksum matches, so a crash mid-append loses at most
// the record being written — never the prefix before it.

var walTable = crc32.MakeTable(crc32.Castagnoli)

// WAL is an open write-ahead log. Appends are buffered; Sync flushes
// and fsyncs. Not goroutine-safe — the platform appends from its
// single-threaded event loop, the serving daemon from its committer.
type WAL struct {
	f   *os.File
	w   *bufio.Writer
	buf []byte
	err error // sticky; the first failed AppendBatch
}

// CreateWAL creates (or truncates) the log at path and fsyncs the
// parent directory, so the file an acknowledged record is about to be
// fsynced into still exists after a power cut.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("persist: wal %s: %w", path, err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f, w: bufio.NewWriter(f)}, nil
}

// OpenWALAppend opens the log at path for appending after its valid
// prefix: the file is truncated to validLen (discarding any torn tail
// ReplayWAL rejected) and positioned at the end. A missing file is
// created, so like CreateWAL it fsyncs the parent directory before
// returning.
func OpenWALAppend(path string, validLen int64) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: wal %s: %w", path, err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: wal %s: truncate: %w", path, err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: wal %s: %w", path, err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f, w: bufio.NewWriter(f)}, nil
}

// Append writes one record. The payload must not contain a newline.
func (w *WAL) Append(payload []byte) error {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return fmt.Errorf("persist: wal record contains newline")
	}
	b := w.buf[:0]
	b = appendCRCHex(b, crc32.Checksum(payload, walTable))
	b = append(b, ' ')
	b = append(b, payload...)
	b = append(b, '\n')
	w.buf = b
	_, err := w.w.Write(b)
	return err
}

// AppendBatch writes the payloads contiguously, in order, covered by a
// single fsync. An empty batch is a sync barrier: it returns after
// every previously-appended record is durable.
//
// Durability contract: when AppendBatch returns nil, the records'
// bytes — checksummed line framing included — have been fsynced. A
// write or sync failure is sticky: it is delivered to the failed batch
// and every later call, because a WAL whose tail state is unknown must
// not accept more acknowledgements.
func (w *WAL) AppendBatch(payloads [][]byte) error {
	if w.err != nil {
		return w.err
	}
	for _, p := range payloads {
		if w.err = w.Append(p); w.err != nil {
			return w.err
		}
	}
	w.err = w.Sync()
	return w.err
}

// Sync flushes buffered records and fsyncs the file.
func (w *WAL) Sync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendCRCHex appends the checksum as exactly 8 lowercase hex digits.
func appendCRCHex(b []byte, crc uint32) []byte {
	const hexdig = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, hexdig[(crc>>uint(shift))&0xf])
	}
	return b
}

// ReplayWAL reads the longest valid prefix of the log at path: records
// are returned in order and validLen is the byte offset where the
// prefix ends (pass it to OpenWALAppend to continue the log). A torn
// tail — a half-written line, a checksum mismatch, a missing final
// newline — ends the prefix silently; that is the expected shape of a
// crash. A missing file is an empty log.
func ReplayWAL(path string) (records [][]byte, validLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("persist: wal %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var off int64
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// No trailing newline: the last append was torn.
			return records, off, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("persist: wal %s: %w", path, err)
		}
		rec, ok := parseWALLine(line)
		if !ok {
			return records, off, nil
		}
		// Copy: the reader's buffer is reused across lines.
		records = append(records, append([]byte(nil), rec...))
		off += int64(len(line))
	}
}

// parseWALLine validates one "crc payload\n" line and returns the
// payload.
func parseWALLine(line []byte) ([]byte, bool) {
	// 8 hex digits + space + newline is the minimum frame.
	if len(line) < 10 || line[8] != ' ' || line[len(line)-1] != '\n' {
		return nil, false
	}
	var crc uint32
	for _, c := range line[:8] {
		var v byte
		switch {
		case c >= '0' && c <= '9':
			v = c - '0'
		case c >= 'a' && c <= 'f':
			v = c - 'a' + 10
		default:
			return nil, false
		}
		crc = crc<<4 | uint32(v)
	}
	payload := line[9 : len(line)-1]
	if crc32.Checksum(payload, walTable) != crc {
		return nil, false
	}
	return payload, true
}
