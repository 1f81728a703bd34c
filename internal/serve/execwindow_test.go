package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"ppqtraj/internal/traj"
)

// openWindowRepo builds the equivalence-suite repository: several sealed
// segments plus a live hot tail, compaction only via explicit Flush.
func openWindowRepo(t *testing.T) (*Repository, lastTickCols) {
	t.Helper()
	d, cols := testData(t)
	opts := testOptions(d)
	opts.CompactInterval = time.Hour
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	lastTick := cols[len(cols)-1].Tick
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
		if col.Tick == lastTick-10 {
			if err := repo.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if repo.Stats().Segments < 2 {
		t.Fatalf("want ≥ 2 sealed segments, got %d", repo.Stats().Segments)
	}
	if repo.Stats().HotPoints == 0 {
		t.Fatal("want a non-empty hot tail")
	}
	return repo, lastTickCols{cols: cols, lastTick: lastTick}
}

type lastTickCols struct {
	cols     []*traj.Column
	lastTick int
}

// TestExecutorEquivalenceSuite runs the executor over a second span and
// rect matrix: every answer must match the per-tick reference and, in
// exact mode, ground truth (checkWindow), and every window must account
// for exactly one plan whose zone-pruned segments move the skip counter
// by the count the answer reports. Run with -race.
func TestExecutorEquivalenceSuite(t *testing.T) {
	repo, w := openWindowRepo(t)
	ctx := context.Background()
	for _, rect := range windowRects(w.cols, 6, 29) {
		for _, sp := range windowSpans(w.lastTick, 17) {
			for _, exact := range []bool{false, true} {
				before := repo.Stats().Window
				got, err := repo.Window(ctx, rect, sp[0], sp[1], exact)
				if err != nil {
					t.Fatalf("Window(%v, %d..%d, exact=%v): %v", rect, sp[0], sp[1], exact, err)
				}
				after := repo.Stats().Window
				if plans := after.Plans - before.Plans; plans != 1 {
					t.Fatalf("rect %v span %d..%d exact=%v: one window = one plan, got %d",
						rect, sp[0], sp[1], exact, plans)
				}
				if skipped := after.SegmentsSkipped - before.SegmentsSkipped; skipped != int64(got.SegmentsSkipped) {
					t.Fatalf("rect %v span %d..%d exact=%v: skip counter moved %d for a plan reporting %d skips",
						rect, sp[0], sp[1], exact, skipped, got.SegmentsSkipped)
				}
				checkWindow(t, repo, w.cols, rect, sp, exact, got)
			}
		}
	}
}

// TestExecutorRacingCompaction runs exact windows concurrently with live
// ingestion and compaction (raceWindows): every answer must equal
// brute-force ground truth wherever the sealed watermark lands
// mid-request, and the plan counter must account for exactly one plan
// per answered window. Run with -race.
func TestExecutorRacingCompaction(t *testing.T) {
	repo, answered := raceWindows(t, 61, 90, false)
	if plans := repo.Stats().Window.Plans; plans != answered {
		t.Fatalf("%d windows answered under racing compaction recorded %d plans", answered, plans)
	}
}

// TestExecutorPlanTelemetry checks the window plan accounting:
// zone-pruned segments are counted once per plan, and Plans and Operators
// land in the stats window section.
func TestExecutorPlanTelemetry(t *testing.T) {
	repo, w := openWindowRepo(t)
	ctx := context.Background()
	offData := windowRects(w.cols, 0, 1)[0] // only the far-away rect

	before := repo.Stats().Window
	res, err := repo.Window(ctx, offData, 0, w.lastTick, false)
	if err != nil {
		t.Fatal(err)
	}
	after := repo.Stats().Window
	if res.SegmentsSkipped == 0 {
		t.Fatalf("far-away rect not zone-pruned: %+v", res)
	}
	if got := after.Plans - before.Plans; got != 1 {
		t.Fatalf("one window = one plan, got %d", got)
	}
	if after.Operators <= before.Operators {
		t.Fatalf("plan recorded no operators: %+v -> %+v", before, after)
	}
	// Every overlapping segment is pruned or scanned exactly once per
	// plan: the per-request skip count must equal the counter delta.
	if got := after.SegmentsSkipped - before.SegmentsSkipped; got != int64(res.SegmentsSkipped) {
		t.Fatalf("skip counter moved %d for one plan reporting %d skips", got, res.SegmentsSkipped)
	}
	if scanned := after.SegmentsScanned - before.SegmentsScanned; scanned+int64(res.SegmentsSkipped) > int64(res.Sources) {
		t.Fatalf("segments counted more than once per plan: scanned %d + skipped %d > sources %d",
			scanned, res.SegmentsSkipped, res.Sources)
	}
}

// TestExecutorCancellation checks a cancelled context aborts a window
// with the context error.
func TestExecutorCancellation(t *testing.T) {
	repo, w := openWindowRepo(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repo.Window(ctx, windowRects(w.cols, 1, 5)[0], 0, w.lastTick, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled window: err = %v, want context.Canceled", err)
	}
}

// BenchmarkWindow times the window executor on one warmed repository.
func BenchmarkWindow(b *testing.B) {
	d, cols := testData(b)
	opts := testOptions(d)
	opts.CompactInterval = time.Hour
	repo, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			b.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		b.Fatal(err)
	}
	lastTick := cols[len(cols)-1].Tick
	rects := windowRects(cols, 8, 13)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rect := rects[i%len(rects)]
		if _, err := repo.Window(ctx, rect, 0, lastTick, false); err != nil {
			b.Fatal(err)
		}
	}
}
