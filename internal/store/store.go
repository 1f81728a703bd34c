// Package store simulates the disk layer of the Table 9 experiments: a
// page-structured store (1 MB pages, following TrajStore's setting) with
// read/write accounting. Index structures serialize their blobs into the
// store; queries charge one I/O per distinct page touched.
//
// The store tracks only sizes and page boundaries — the bytes themselves
// live in the in-memory structures — which is exactly what the I/O-count
// and response-time comparisons need.
package store

import (
	"fmt"
	"sync/atomic"
)

// DefaultPageSize is 1 MB, the page size used by the paper's disk
// experiments (§6.5).
const DefaultPageSize = 1 << 20

// PageRange is a contiguous run of pages [First, Last].
type PageRange struct {
	First, Last int
}

// PageStore is an append-only page allocator with I/O accounting. The
// read/write counters are atomic, so concurrent queries (each with its own
// ReadTracker) can charge I/Os without a data race; allocation itself
// (Alloc/AlignToPage) remains single-writer, matching the build phase.
type PageStore struct {
	pageSize int
	offset   int // next free byte (global address space)
	reads    atomic.Int64
	writes   atomic.Int64
}

// New creates a store with the given page size (DefaultPageSize if ≤ 0).
func New(pageSize int) *PageStore {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &PageStore{pageSize: pageSize}
}

// Alloc appends a blob of the given size and returns the page range it
// occupies. Zero-sized blobs occupy the current page. Writes are charged
// per page touched.
func (s *PageStore) Alloc(size int) PageRange {
	if size < 0 {
		panic(fmt.Sprintf("store: negative alloc %d", size))
	}
	first := s.offset / s.pageSize
	end := s.offset + size
	last := first
	if size > 0 {
		last = (end - 1) / s.pageSize
	}
	s.offset = end
	s.writes.Add(int64(last - first + 1))
	return PageRange{First: first, Last: last}
}

// AlignToPage advances the allocation cursor to the next page boundary —
// used to start a new object (e.g. a new period's index) on a fresh page.
func (s *PageStore) AlignToPage() {
	if rem := s.offset % s.pageSize; rem != 0 {
		s.offset += s.pageSize - rem
	}
}

// ReadTracker deduplicates page reads within one logical operation (one
// query): the same page is charged once per operation, mirroring a buffer
// that survives for the duration of a single query.
type ReadTracker struct {
	store *PageStore
	seen  map[int]bool
}

// BeginRead starts a tracked read operation.
func (s *PageStore) BeginRead() *ReadTracker {
	return &ReadTracker{store: s, seen: make(map[int]bool)}
}

// Read charges the pages of r not yet touched in this operation.
func (t *ReadTracker) Read(r PageRange) {
	for p := r.First; p <= r.Last; p++ {
		if !t.seen[p] {
			t.seen[p] = true
			t.store.reads.Add(1)
		}
	}
}

// Reads returns the cumulative page reads.
func (s *PageStore) Reads() int { return int(s.reads.Load()) }

// ResetCounters zeroes the I/O counters (allocation state is kept), so a
// benchmark can measure the query phase separately from the build phase.
func (s *PageStore) ResetCounters() { s.reads.Store(0); s.writes.Store(0) }
