package wal

import (
	"io"
	"os"
)

// FS is the log's filesystem seam. Production code uses OSFS; tests
// inject FaultFS to exercise disk failures (failed fsyncs, torn writes,
// slow syncs) deterministically — the fail-stop latch, degraded-mode
// surfacing, and torn-tail recovery are all behaviors that only a lying
// or dying disk can trigger, and real disks do not lie on cue.
type FS interface {
	MkdirAll(dir string, perm os.FileMode) error
	ReadDir(dir string) ([]os.DirEntry, error)
	// OpenFile opens a log segment with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens a file read-only (replay).
	Open(name string) (File, error)
	Truncate(name string, size int64) error
	Remove(name string) error
	// SyncDir fsyncs a directory, making renames/creations/removals in it
	// durable.
	SyncDir(dir string) error
}

// File is the subset of *os.File the log touches.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (OSFS) ReadDir(dir string) ([]os.DirEntry, error)   { return os.ReadDir(dir) }
func (OSFS) Truncate(name string, size int64) error      { return os.Truncate(name, size) }
func (OSFS) Remove(name string) error                    { return os.Remove(name) }
func (OSFS) Open(name string) (File, error)              { return os.Open(name) }
func (OSFS) SyncDir(dir string) error                    { return SyncDir(dir) }
func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
