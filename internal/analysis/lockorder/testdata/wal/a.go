// Package wal is a fixture for the lockorder analyzer: syncMu before
// mu is the only permitted order, and no fsync may run while mu is
// held.
package wal

import (
	"os"
	"sync"
)

// Log mirrors the real WAL's lock layout.
type Log struct {
	mu     sync.Mutex
	syncMu sync.Mutex
	f      *os.File
	n      int64
}

// goodOrder takes syncMu first, releases mu across the fsync — the
// shape syncTo uses.
func (l *Log) goodOrder() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	f := l.f
	l.mu.Unlock()
	return f.Sync()
}

// badInversion acquires syncMu while holding mu.
func (l *Log) badInversion() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncMu.Lock() // want `syncMu.Lock\(\) while mu is held`
	l.syncMu.Unlock()
}

// badDirectFsync syncs the file with mu held.
func (l *Log) badDirectFsync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync() // want `fsync while mu is held`
}

// syncHelper fsyncs; harmless on its own.
func (l *Log) syncHelper() error {
	return l.f.Sync()
}

// badTransitiveFsync reaches syncHelper's fsync with mu held.
func (l *Log) badTransitiveFsync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncHelper() // want `call to syncHelper reaches an fsync while mu is held`
}

// lockHelper acquires syncMu; harmless on its own.
func (l *Log) lockHelper() {
	l.syncMu.Lock()
	l.syncMu.Unlock()
}

// badTransitiveInversion reaches lockHelper's syncMu.Lock with mu held.
func (l *Log) badTransitiveInversion() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lockHelper() // want `call to lockHelper acquires syncMu while mu is held`
}

// branchRelease unlocks mu on the early-return path and before the
// fsync on the main path; the analyzer must track both.
func (l *Log) branchRelease(skip bool) error {
	l.mu.Lock()
	if skip {
		l.mu.Unlock()
		return nil
	}
	f := l.f
	l.mu.Unlock()
	return f.Sync()
}

// sealLocked fsyncs under mu by design — the justified waiver keeps it
// and its callers clean.
//
//ppqvet:allow lockorder fixture twin of rotateLocked: seal and swap must be atomic under mu; rare and bounded.
func (l *Log) sealLocked() error {
	return l.f.Sync()
}

// rotate calls the waived sealLocked under mu: no finding.
func (l *Log) rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealLocked()
}

// unjustifiedWaiver has a waiver with no reason, which suppresses
// nothing.
func (l *Log) unjustifiedWaiver() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	//ppqvet:allow lockorder
	return l.f.Sync() // want `fsync while mu is held`
}
