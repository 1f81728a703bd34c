// Package serve is the repository serving layer on top of the paper's
// machinery: it shards a live trajectory stream into time-bounded sealed
// segments — each one a quantized core.Summary plus its TPI engine — with
// a raw in-memory hot tail for the freshest ticks. A background compactor
// drains the hot tail through the parallel core.Builder into new sealed
// segments (persisted with core's summary serialization and a manifest
// for crash-safe reload), while STRQ/TPQ traffic fans out across segments
// and the hot tail concurrently and merges the answers.
package serve

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ppqtraj/internal/core"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/query"
	"ppqtraj/internal/traj"
	"ppqtraj/internal/wal"
)

// Segment is one sealed, immutable shard of the repository: the quantized
// summary of a contiguous tick range plus the query engine over it. After
// seal it is only ever read, so segment queries need no locking (the
// engine's access counter is atomic).
type Segment struct {
	ID        uint64
	StartTick int // first tick covered (inclusive)
	EndTick   int // last tick covered (inclusive)
	Points    int
	Sum       *core.Summary
	Eng       *query.Engine
	File      string // manifest-relative file name; "" when memory-only
	SizeBytes int64  // serialized size on disk (0 when memory-only)
	// CacheOwner is the segment's token in the repository's shared
	// decoded-cell cache (0 when the cache is disabled); invalidating it
	// drops every cached decode of this segment.
	CacheOwner uint64
	// Zone is the segment's pruning summary (tick span, spatial bounds,
	// populated-cell bitmap); the window planner skips the segment when
	// the zone map cannot intersect the query's search area.
	Zone *ZoneMap
	// zoneRebuilt marks a Zone rebuilt at load time because the sidecar
	// was missing or stale; the loader re-persists it best-effort.
	zoneRebuilt bool
}

// buildSegment drains one batch of columns (ascending ticks) through a
// fresh builder and seals the result into a queryable segment. raw, when
// non-nil, enables exact-mode verification on the segment's engine.
func buildSegment(id uint64, cols []*traj.Column, bopts core.Options, iopts index.Options, raw *traj.Dataset) (*Segment, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("serve: empty segment build")
	}
	b := core.NewBuilder(bopts)
	for _, col := range cols {
		b.Append(col)
	}
	sum := b.Summary()
	eng, err := query.BuildEngine(sum, iopts, raw)
	if err != nil {
		return nil, fmt.Errorf("serve: building segment %d engine: %w", id, err)
	}
	start, end := cols[0].Tick, cols[len(cols)-1].Tick
	return &Segment{
		ID:        id,
		StartTick: start,
		EndTick:   end,
		Points:    sum.NumPoints,
		Sum:       sum,
		Eng:       eng,
		Zone:      buildZoneMap(eng, iopts.GC, start, end),
	}, nil
}

// Covers reports whether the segment's tick range contains tick.
func (s *Segment) Covers(tick int) bool {
	return tick >= s.StartTick && tick <= s.EndTick
}

// segmentFileName is the canonical on-disk name of a segment.
func segmentFileName(id uint64) string { return fmt.Sprintf("seg-%06d.ppqs", id) }

// durableSwap atomically and durably replaces dir/name: write fills a
// temp file in dir, which is fsynced, closed, renamed over name, and
// the directory fsynced after the rename — the full crash-safe publish
// sequence shared by segment blobs and the manifest. The contents are
// on stable storage before the new name exists, and the rename itself
// is durable when durableSwap returns, so a crash at any instant leaves
// either the complete old file or the complete new one (plus, at worst,
// an orphaned temp file for startup GC). Returns write's byte count.
func durableSwap(dir, name string, write func(*os.File) (int64, error)) (int64, error) {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return 0, err
	}
	n, err := write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return n, err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return n, err
	}
	return n, wal.SyncDir(dir)
}

// persist writes the segment's summary blob to dir under its canonical
// name via durableSwap, so by the time the manifest references the
// file, both its contents and its directory entry are on stable
// storage — a crash can never publish a manifest pointing at a hollow
// or missing segment.
func (s *Segment) persist(dir string) error {
	name := segmentFileName(s.ID)
	n, err := durableSwap(dir, name, func(f *os.File) (int64, error) { return s.Sum.WriteTo(f) })
	if err != nil {
		return fmt.Errorf("serve: persisting segment %d: %w", s.ID, err)
	}
	s.File = name
	s.SizeBytes = n
	return nil
}

// loadSegment reloads a persisted segment: the summary blob is decoded
// (which replays the decoder and verifies self-containment) and the TPI
// engine is rebuilt from the reconstructions — reconstruction is
// deterministic, so a reloaded segment answers queries identically to the
// one that was persisted. It touches only its own files and the returned
// segment, so loadManifest runs many at once; the caller wraps a failure
// in a SegmentError naming the file.
func loadSegment(dir string, m manifestSegment, iopts index.Options, raw *traj.Dataset) (*Segment, error) {
	f, err := os.Open(filepath.Join(dir, m.File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sum, err := core.ReadSummary(f)
	if err != nil {
		return nil, fmt.Errorf("reading summary: %w", err)
	}
	eng, err := query.BuildEngine(sum, iopts, raw)
	if err != nil {
		return nil, fmt.Errorf("rebuilding engine: %w", err)
	}
	sz, _ := f.Seek(0, io.SeekEnd)
	seg := &Segment{
		ID:        m.ID,
		StartTick: m.StartTick,
		EndTick:   m.EndTick,
		Points:    sum.NumPoints,
		Sum:       sum,
		Eng:       eng,
		File:      m.File,
		SizeBytes: sz,
	}
	// Zone maps arrived after the first manifests: a missing or stale
	// sidecar is rebuilt from the engine (the caller re-persists it,
	// best-effort — the in-memory zone map is what pruning needs).
	if z, ok := loadZoneMap(dir, m.ID, iopts.GC); ok {
		seg.Zone = z
	} else {
		seg.Zone = buildZoneMap(eng, iopts.GC, m.StartTick, m.EndTick)
		seg.zoneRebuilt = true
	}
	return seg, nil
}

// reconstructedPath returns the segment's reconstruction of id over
// [from, from+l), clipped to the segment's coverage, with the tick of the
// first returned point.
func (s *Segment) reconstructedPath(id traj.ID, from, l int) (pts []geo.Point, start int) {
	lo, hi := from, from+l
	if lo < s.StartTick {
		lo = s.StartTick
	}
	if hi > s.EndTick+1 {
		hi = s.EndTick + 1
	}
	if lo >= hi {
		return nil, from
	}
	tr, ok := s.Sum.Trajs[id]
	if !ok {
		return nil, from
	}
	if lo < tr.Start {
		lo = tr.Start
	}
	return s.Sum.ReconstructPath(id, lo, hi-lo), lo
}
