package store

import "testing"

// numPages counts the pages allocated so far.
func numPages(s *PageStore) int { return (s.offset + s.pageSize - 1) / s.pageSize }

// pages counts the pages of r.
func pages(r PageRange) int { return r.Last - r.First + 1 }

func TestAllocSinglePage(t *testing.T) {
	s := New(1024)
	r := s.Alloc(100)
	if r.First != 0 || r.Last != 0 || pages(r) != 1 {
		t.Fatalf("range = %+v", r)
	}
	r = s.Alloc(100)
	if r.First != 0 || r.Last != 0 {
		t.Fatalf("second small alloc should stay on page 0: %+v", r)
	}
	if numPages(s) != 1 {
		t.Fatalf("pages = %d", numPages(s))
	}
}

func TestAllocSpansPages(t *testing.T) {
	s := New(1024)
	r := s.Alloc(3000)
	if r.First != 0 || r.Last != 2 || pages(r) != 3 {
		t.Fatalf("range = %+v", r)
	}
	if numPages(s) != 3 {
		t.Fatalf("pages = %d", numPages(s))
	}
	if s.writes.Load() != 3 {
		t.Fatalf("writes = %d", s.writes.Load())
	}
}

func TestAllocZero(t *testing.T) {
	s := New(1024)
	r := s.Alloc(0)
	if pages(r) != 1 {
		t.Fatalf("zero alloc range = %+v", r)
	}
	if s.offset != 0 {
		t.Fatal("zero alloc must not consume bytes")
	}
}

func TestAllocNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0).Alloc(-1)
}

func TestAlignToPage(t *testing.T) {
	s := New(1024)
	s.Alloc(10)
	s.AlignToPage()
	r := s.Alloc(10)
	if r.First != 1 {
		t.Fatalf("after align, alloc should start on page 1: %+v", r)
	}
	// Aligning when already aligned is a no-op.
	s.AlignToPage()
	s.AlignToPage()
	r = s.Alloc(10)
	if r.First != 2 {
		t.Fatalf("range = %+v", r)
	}
}

func TestDefaultPageSize(t *testing.T) {
	s := New(0)
	if s.pageSize != DefaultPageSize {
		t.Fatalf("page size = %d", s.pageSize)
	}
}

func TestReadTrackerDedup(t *testing.T) {
	s := New(1024)
	a := s.Alloc(1024) // page 0
	b := s.Alloc(2048) // pages 1-2
	tr := s.BeginRead()
	tr.Read(a)
	tr.Read(a) // duplicate within the same operation: free
	tr.Read(b)
	if s.Reads() != 3 {
		t.Fatalf("Reads = %d, want 3", s.Reads())
	}
	if len(tr.seen) != 3 {
		t.Fatalf("pages touched = %d", len(tr.seen))
	}
	// A new operation pays again.
	tr2 := s.BeginRead()
	tr2.Read(a)
	if s.Reads() != 4 {
		t.Fatalf("Reads = %d, want 4", s.Reads())
	}
}

func TestResetCounters(t *testing.T) {
	s := New(1024)
	s.Alloc(5000)
	s.BeginRead().Read(PageRange{0, 2})
	s.ResetCounters()
	if s.Reads() != 0 || s.writes.Load() != 0 {
		t.Fatal("counters not reset")
	}
	if numPages(s) == 0 {
		t.Fatal("allocation state must survive reset")
	}
}
