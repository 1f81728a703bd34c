package exec

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ppqtraj/internal/cache"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/traj"
)

// testWorld is a dataset plus a TPI over its *exact* points, so the
// "reconstruction" is the raw position and brute-force answers are
// computable with plain geometry.
type testWorld struct {
	ds  *traj.Dataset
	idx *index.TPI
}

func (w *testWorld) ReconstructedPoint(id traj.ID, tick int) (geo.Point, bool) {
	tr, ok := w.ds.Lookup(id)
	if !ok {
		return geo.Point{}, false
	}
	return tr.At(tick)
}

func buildWorld(t *testing.T, withCache bool) *testWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var trajs []*traj.Trajectory
	for i := 0; i < 60; i++ {
		start := rng.Intn(10)
		n := 20 + rng.Intn(25)
		p := geo.Pt(rng.Float64()*8, rng.Float64()*8)
		pts := make([]geo.Point, 0, n)
		for k := 0; k < n; k++ {
			p = p.Add(geo.Pt(rng.Float64()*0.3-0.15, rng.Float64()*0.3-0.15))
			pts = append(pts, p)
		}
		trajs = append(trajs, &traj.Trajectory{Start: start, Points: pts})
	}
	ds := traj.NewDataset(trajs)
	idx := index.NewTPI(index.Options{EpsS: 2, GC: 0.25, EpsC: 0.5, EpsD: 0.5, Seed: 3})
	for tick := 0; tick < ds.MaxTick(); tick++ {
		var ids []traj.ID
		var pts []geo.Point
		for _, tr := range ds.All() {
			if p, ok := tr.At(tick); ok {
				ids = append(ids, tr.ID)
				pts = append(pts, p)
			}
		}
		if len(ids) > 0 {
			idx.Append(ids, pts, tick)
		}
	}
	if err := idx.Seal(); err != nil {
		t.Fatal(err)
	}
	if withCache {
		idx.SetCache(cache.New(4<<20), 1)
	}
	return &testWorld{ds: ds, idx: idx}
}

// bruteCols computes the ground-truth per-tick columns directly from
// raw points: approximate mode keeps dist(p, rect) ≤ m+1e-12, exact
// mode keeps rect.Contains(p).
func bruteCols(ds *traj.Dataset, rect geo.Rect, m float64, from, to int, exact bool) []Column {
	var cols []Column
	for tick := from; tick <= to; tick++ {
		var ids []traj.ID
		for _, tr := range ds.All() {
			p, ok := tr.At(tick)
			if !ok {
				continue
			}
			if exact {
				if rect.Contains(p) {
					ids = append(ids, tr.ID)
				}
			} else if p.DistToRect(rect) <= m+1e-12 {
				ids = append(ids, tr.ID)
			}
		}
		if len(ids) > 0 {
			slices.Sort(ids)
			cols = append(cols, Column{Tick: tick, IDs: ids})
		}
	}
	return cols
}

// collect drains in and buckets its rows per tick over [from, to],
// sorted and deduplicated: the per-tick approximate answer the pipeline
// tests compare against brute force.
func collect(in Iterator, from, to int) ([]Column, error) {
	buckets := make([][]traj.ID, max(to-from+1, 0))
	if err := drain(in, from, to, func(tick int, ids []traj.ID) {
		buckets[tick-from] = append(buckets[tick-from], ids...)
	}); err != nil {
		return nil, err
	}
	var cols []Column
	for i, ids := range buckets {
		if len(ids) > 0 {
			slices.Sort(ids)
			cols = append(cols, Column{Tick: from + i, IDs: traj.DedupSorted(ids)})
		}
	}
	return cols, nil
}

// scan opens an untraced pooled pipe over [from, to] of w's index; the
// caller drains it and calls Close.
func (w *testWorld) scan(ctx context.Context, cls Classifier, from, to int) *ScanPipe {
	var st index.ScanStats
	var rows int64
	return OpenScanPipe(ctx, w.idx, w, cls, from, to, &st, &rows, nil)
}

func TestPipelineMatchesBruteForce(t *testing.T) {
	for _, withCache := range []bool{false, true} {
		w := buildWorld(t, withCache)
		rng := rand.New(rand.NewSource(99))
		ctx := context.Background()
		for trial := 0; trial < 25; trial++ {
			cx, cy := rng.Float64()*8, rng.Float64()*8
			s := 0.2 + rng.Float64()*1.5
			rect := geo.Rect{MinX: cx, MinY: cy, MaxX: cx + s, MaxY: cy + s}
			m := rng.Float64() * 0.4
			from := rng.Intn(40) - 2
			to := from + rng.Intn(45)
			cls := Classifier{Rect: rect, Margin: m}

			pipe := w.scan(ctx, cls, from, to)
			got, err := collect(pipe.Iterator(), from, to)
			pipe.Close()
			if err != nil {
				t.Fatal(err)
			}
			want := bruteCols(w.ds, rect, m, from, to, false)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("approx rect %v m %.3f span %d..%d:\ngot  %v\nwant %v", rect, m, from, to, got, want)
			}
			candidates := 0
			for _, c := range got {
				candidates += len(c.IDs)
			}

			pipe = w.scan(ctx, cls, from, to)
			gotX, err := ExactVerify(ctx, pipe.Iterator(), w.ds, rect, from, to, nil)
			pipe.Close()
			if err != nil {
				t.Fatal(err)
			}
			wantX := bruteCols(w.ds, rect, m, from, to, true)
			if !reflect.DeepEqual(gotX.Cols, wantX) {
				t.Fatalf("exact rect %v span %d..%d:\ngot  %v\nwant %v", rect, from, to, gotX.Cols, wantX)
			}
			if gotX.Candidates != candidates {
				t.Fatalf("exact candidates %d != approx candidates %d", gotX.Candidates, candidates)
			}
			// Visited must be the distinct-candidate count, not per tick.
			distinct := map[traj.ID]bool{}
			for _, c := range got {
				for _, id := range c.IDs {
					distinct[id] = true
				}
			}
			if gotX.Visited != len(distinct) {
				t.Fatalf("Visited = %d, want %d distinct candidates", gotX.Visited, len(distinct))
			}
		}
	}
}

func TestCancelledContextStopsPipeline(t *testing.T) {
	w := buildWorld(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cls := Classifier{Rect: geo.Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8}, Margin: 0.2}
	pipe := w.scan(ctx, cls, 0, 50)
	defer pipe.Close()
	if _, err := collect(pipe.Iterator(), 0, 50); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestInstrument(t *testing.T) {
	w := buildWorld(t, false)
	ctx := context.Background()
	cls := Classifier{Rect: geo.Rect{MinX: 2, MinY: 2, MaxX: 5, MaxY: 5}, Margin: 0.2}
	scan := func() *SegmentScan {
		var st index.ScanStats
		s := &SegmentScan{}
		s.init(ctx, new(index.RangeCursor), w.idx, cls, 0, 40, &st)
		return s
	}

	// nil trace: the pipe wires no instrument stage.
	pipe := w.scan(ctx, cls, 0, 40)
	if pipe.Iterator() != Iterator(&pipe.verify) {
		t.Fatal("untraced pipe is not the bare verify stage")
	}
	pipe.Close()

	var rows int64
	if _, err := collect(&CountRowsOp{in: scan(), n: &rows}, 0, 40); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("scan emitted no rows; the instrument check would be vacuous")
	}
	tr := obs.NewTrace()
	var op InstrumentOp
	op.reset(ctx, scan(), tr, "op_scan", "op_scan_rows")
	if _, err := collect(&op, 0, 40); err != nil {
		t.Fatal(err)
	}
	if got := tr.Report().Facts["op_scan_rows"]; got != rows {
		t.Fatalf("op_scan_rows = %d, want %d", got, rows)
	}
	if _, ok := tr.Stages()["op_scan"]; !ok {
		t.Fatalf("stages: %v", tr.Stages())
	}
}

// TestScanPipeInstrumentAccounting checks that a traced pipe reports
// exactly the rows that crossed each boundary — op_scan_rows equals the
// pipe's own CountRows total and op_verify_rows equals a CountRows over
// its output — whether the stream is drained, cancelled mid-way, or
// abandoned and closed, and that the report reaches the trace once.
func TestScanPipeInstrumentAccounting(t *testing.T) {
	w := buildWorld(t, false)
	cls := Classifier{Rect: geo.Rect{MinX: 1, MinY: 1, MaxX: 7, MaxY: 7}, Margin: 0.2}
	for _, tc := range []struct {
		name  string
		pulls int // batches pulled before stopping; -1 drains
		stop  func(cancel context.CancelFunc, it Iterator)
	}{
		{"drained", -1, nil},
		{"cancelled", 3, func(cancel context.CancelFunc, it Iterator) {
			cancel()
			if _, ok := it.Next(); ok || it.Err() != context.Canceled {
				t.Fatalf("pull after cancel: ok=%v err=%v", ok, it.Err())
			}
		}},
		{"abandoned", 3, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tr := obs.NewTrace()
			var st index.ScanStats
			var scanRows, outRows int64
			pipe := OpenScanPipe(ctx, w.idx, w, cls, 0, 40, &st, &scanRows, tr)
			it := &CountRowsOp{in: pipe.Iterator(), n: &outRows}
			pulled := 0
			for tc.pulls < 0 || pulled < tc.pulls {
				if _, ok := it.Next(); !ok {
					break
				}
				pulled++
			}
			if tc.pulls >= 0 && pulled < tc.pulls {
				t.Fatalf("stream ended after %d batches; the %s check needs %d", pulled, tc.name, tc.pulls)
			}
			if tc.stop != nil {
				tc.stop(cancel, it)
			}
			pipe.Close()
			facts := tr.Report().Facts
			if scanRows == 0 || outRows == 0 {
				t.Fatalf("no rows flowed (scan %d, out %d); the check would be vacuous", scanRows, outRows)
			}
			if got := facts["op_scan_rows"]; got != scanRows {
				t.Fatalf("op_scan_rows = %d, CountRows at the source = %d", got, scanRows)
			}
			if got := facts["op_verify_rows"]; got != outRows {
				t.Fatalf("op_verify_rows = %d, CountRows at the output = %d", got, outRows)
			}
			stages := tr.Stages()
			for _, name := range []string{"op_scan", "op_verify"} {
				if _, ok := stages[name]; !ok {
					t.Fatalf("stage %s missing: %v", name, stages)
				}
			}
		})
	}
}

// TestTracedScanPipeAllocatesNothingPerBatch drains the same pooled scan
// with and without a trace: instrumenting it must add no allocation per
// batch.
func TestTracedScanPipeAllocatesNothingPerBatch(t *testing.T) {
	w := buildWorld(t, false)
	ctx := context.Background()
	cls := Classifier{Rect: geo.Rect{MinX: 1, MinY: 1, MaxX: 7, MaxY: 7}, Margin: 0.2}
	tr := obs.NewTrace()
	batches := 0
	drain := func(tr *obs.Trace) func() {
		return func() {
			var st index.ScanStats
			var rows int64
			pipe := OpenScanPipe(ctx, w.idx, w, cls, 0, 40, &st, &rows, tr)
			it := pipe.Iterator()
			batches = 0
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				batches++
			}
			pipe.Close()
		}
	}
	drain(tr)() // the trace's first report creates its map entries
	untraced := testing.AllocsPerRun(50, drain(nil))
	traced := testing.AllocsPerRun(50, drain(tr))
	if batches < 5 {
		t.Fatalf("only %d batches; the per-batch check would be vacuous", batches)
	}
	// The race detector's sync.Pool drops pooled pipes at random, and a
	// refilled pipe regrows its scratch, so allow a few allocations per
	// drain — far below one per batch.
	if traced-untraced >= float64(batches)/10 {
		t.Fatalf("traced drain of %d batches: %.0f allocs, untraced %.0f", batches, traced, untraced)
	}
}

func TestSplitSpan(t *testing.T) {
	ranges := []TickRange{{0, 9}, {10, 19}, {20, 29}, {40, 49}}
	var got [][3]int
	SplitSpan(5, 44, len(ranges), func(i int) TickRange { return ranges[i] },
		func(i int, r TickRange) { got = append(got, [3]int{i, r.Lo, r.Hi}) })
	want := [][3]int{{0, 5, 9}, {1, 10, 19}, {2, 20, 29}, {3, 40, 44}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splits: %v", got)
	}
	got = nil
	SplitSpan(10, 5, len(ranges), func(i int) TickRange { return ranges[i] },
		func(i int, r TickRange) { got = append(got, [3]int{i, r.Lo, r.Hi}) })
	if got != nil {
		t.Fatalf("empty span still split: %v", got)
	}
}

func TestPlanOrdersAndPrunes(t *testing.T) {
	ordered, pruned := Plan([]Scan{
		{ID: 0, Span: TickRange{0, 9}, Score: 0.2},
		{ID: 1, Span: TickRange{10, 19}, Score: 0}, // zone-disjoint
		{ID: 2, Span: TickRange{20, 29}, Score: 0.9},
		{ID: 3, Span: TickRange{30, 29}, Score: 0.5}, // empty span
		{ID: 4, Span: TickRange{40, 49}, Score: 0.2}, // ties with 0 → ID order
	})
	var prunedIDs []int
	for _, s := range pruned {
		prunedIDs = append(prunedIDs, s.ID)
	}
	if !reflect.DeepEqual(prunedIDs, []int{1, 3}) {
		t.Fatalf("pruned: %v", pruned)
	}
	var ids []int
	for _, s := range ordered {
		ids = append(ids, s.ID)
	}
	if !reflect.DeepEqual(ids, []int{2, 0, 4}) {
		t.Fatalf("order: %v", ids)
	}
}
