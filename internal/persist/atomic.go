package persist

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path crash-consistently: the bytes go
// to a temporary file in the same directory, are fsynced, and the temp
// file is renamed over path, followed by a directory fsync so the new
// entry survives a power cut. A crash at any instant leaves either the
// old file or the complete new one on disk — never a torn mix.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return writeFileAtomic(path, perm, data)
}

// writeFileAtomic is WriteFileAtomic over a file given in parts, written
// in order.
func writeFileAtomic(path string, perm os.FileMode, parts ...[]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("persist: %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op once the rename has happened
	for _, part := range parts {
		if _, err := tmp.Write(part); err != nil {
			tmp.Close()
			return fmt.Errorf("persist: %s: %w", path, err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %s: sync: %w", path, err)
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("persist: %s: %w", path, err)
	}
	return syncDir(dir)
}

// writeFileWith renders content into memory via render and writes it
// atomically — the file-path save helpers all funnel through here so no
// writer in the package can tear a file on crash.
func writeFileWith(path string, render func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return err
	}
	return WriteFileAtomic(path, buf.Bytes(), 0o644)
}

// syncDir fsyncs a directory so a just-created or just-renamed entry is
// durable. A variable so tests can record the calls; nothing outside
// tests assigns it.
var syncDir = fsyncDir

func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: sync %s: %w", dir, err)
	}
	return nil
}
