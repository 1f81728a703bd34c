package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppqtraj/internal/core"
	"ppqtraj/internal/gen"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/query"
	"ppqtraj/internal/traj"
)

// testData is the shared small workload: enough trajectories and ticks to
// force several compactions, small enough for -race runs.
func testData(t testing.TB) (*traj.Dataset, []*traj.Column) {
	t.Helper()
	d := gen.Porto(gen.Config{NumTrajectories: 80, MinLen: 45, MaxLen: 80, Seed: 11})
	var cols []*traj.Column
	_ = d.Stream(func(col *traj.Column) error {
		cols = append(cols, &traj.Column{
			Tick:   col.Tick,
			IDs:    append([]traj.ID(nil), col.IDs...),
			Points: append([]geo.Point(nil), col.Points...),
		})
		return nil
	})
	return d, cols
}

func testOptions(raw *traj.Dataset) Options {
	b := core.DefaultOptions(partition.Spatial, 0.1)
	b.Seed = 7
	return Options{
		Build: b,
		Index: index.Options{
			EpsS: 0.1,
			GC:   geo.MetersToDegrees(100),
			EpsC: 0.5,
			EpsD: 0.5,
			Seed: 7,
		},
		HotTicks:        12,
		KeepHotTicks:    3,
		MaxSegmentTicks: 16,
		CompactInterval: 2 * time.Millisecond,
		Raw:             raw,
		Log:             obs.Discard(),
	}
}

// TestConcurrentMixedWorkloadMatchesStatic is the acceptance test: four
// query workers fire exact STRQ at a repository while ingestion and
// background compaction run, checking every answer against ground truth
// on the fly; after the stream is flushed, a batch of exact queries must
// match a single static engine built over the whole dataset, cell for
// cell. Run with -race.
func TestConcurrentMixedWorkloadMatchesStatic(t *testing.T) {
	d, cols := testData(t)
	opts := testOptions(d)
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	const workers, pathLen = 4, 3
	var ingested atomic.Int64 // index into cols of the last fully ingested column
	ingested.Store(-1)
	var done atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, workers)

	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + wk)))
			for !done.Load() {
				hi := ingested.Load()
				if hi < 0 {
					continue
				}
				col := cols[rng.Intn(int(hi)+1)]
				p := col.Points[rng.Intn(col.Len())]
				ans, err := repo.STRQ(context.Background(), STRQRequest{P: p, Tick: col.Tick, Exact: true, PathLen: pathLen})
				if err != nil {
					errCh <- err
					return
				}
				after := ingested.Load()
				want := query.GroundTruth(d, ans.Cell, col.Tick)
				if !sameIDs(ans.IDs, want) {
					errCh <- fmt.Errorf("worker %d: tick %d cell %v: got %v want %v (source %s)",
						wk, col.Tick, ans.Cell, ans.IDs, want, ans.Source)
					return
				}
				// The next column may already be resident while its ingest
				// is still being recorded, so it bounds what a path can see.
				seenTo := cols[min(int(after)+1, len(cols)-1)].Tick
				for _, id := range ans.IDs {
					p := ans.Paths[id]
					if err := checkPath(repo, d, id, p, col.Tick, pathLen, cols[hi].Tick, seenTo); err != nil {
						errCh <- fmt.Errorf("worker %d: %w", wk, err)
						return
					}
					// The probe and its paths read one view: a hot answer's
					// paths start at the raw point the probe matched, never
					// at a reconstruction sealed after the probe.
					if tr, _ := d.Lookup(id); ans.Source == "hot" && p.Points[0] != tr.Points[col.Tick-tr.Start] {
						errCh <- fmt.Errorf("worker %d: hot answer at tick %d: trajectory %d's path starts at %v, not the raw %v",
							wk, col.Tick, id, p.Points[0], tr.Points[col.Tick-tr.Start])
						return
					}
				}
			}
		}(wk)
	}

	for i, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatalf("ingest tick %d: %v", col.Tick, err)
		}
		ingested.Store(int64(i))
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	done.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	st := repo.Stats()
	if st.Compactions < 2 {
		t.Fatalf("workload should compact repeatedly, got %d compactions", st.Compactions)
	}
	if st.HotPoints != 0 {
		t.Fatalf("flush left %d hot points", st.HotPoints)
	}
	if st.SegmentPoints != d.NumPoints() {
		t.Fatalf("segments hold %d of %d ingested points", st.SegmentPoints, d.NumPoints())
	}

	// The equivalent static engine: one build over the full dataset.
	sum := core.Build(d, opts.Build)
	eng, err := query.BuildEngine(sum, opts.Index, d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var reqs []STRQRequest
	for q := 0; q < 200; q++ {
		col := cols[rng.Intn(len(cols))]
		reqs = append(reqs, STRQRequest{
			P:     col.Points[rng.Intn(col.Len())],
			Tick:  col.Tick,
			Exact: true,
		})
	}
	answers := repo.Batch(context.Background(), reqs)
	for i, ans := range answers {
		if ans.Err != "" {
			t.Fatalf("batch query %d: %s", i, ans.Err)
		}
		res, err := eng.STRQRect(context.Background(), ans.Cell, reqs[i].Tick, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(ans.IDs, res.IDs) {
			t.Fatalf("query %d tick %d: repository %v (from %s) vs static engine %v",
				i, reqs[i].Tick, ans.IDs, ans.Source, res.IDs)
		}
	}
}

// checkPath validates one STRQ path against raw data while ingest and
// compaction may still be running. The path starts at the query tick.
// Its length is min(pathLen, the trajectory's ticks from there) for an
// ingest frontier between ingestedTo (fully ingested when the query
// started) and seenTo (possibly resident when it returned). Every point
// equals raw (hot tail) or lies within its segment's deviation bound.
func checkPath(repo *Repository, d *traj.Dataset, id traj.ID, p Path, tick, pathLen, ingestedTo, seenTo int) error {
	tr, ok := d.Lookup(id)
	if !ok {
		return fmt.Errorf("trajectory %d not in the dataset", id)
	}
	if p.Start != tick {
		return fmt.Errorf("trajectory %d: path starts at %d, want the query tick %d", id, p.Start, tick)
	}
	avail := func(frontier int) int { return min(pathLen, max(0, min(tr.End()-1, frontier)-tick+1)) }
	if n := len(p.Points); n < avail(ingestedTo) || n > avail(seenTo) {
		return fmt.Errorf("trajectory %d: path from tick %d has %d points, want %d..%d",
			id, tick, n, avail(ingestedTo), avail(seenTo))
	}
	segs := repo.Segments()
	for i, pt := range p.Points {
		at := tick + i
		raw, _ := tr.At(at)
		if pt == raw {
			continue
		}
		seg := findSegment(segs, at)
		if seg == nil {
			return fmt.Errorf("trajectory %d tick %d: %v is not raw %v and no segment covers the tick", id, at, pt, raw)
		}
		if dev, bound := pt.Dist(raw), seg.Sum.MaxDeviation()+1e-12; dev > bound {
			return fmt.Errorf("trajectory %d tick %d: deviation %v exceeds segment %d's bound %v", id, at, dev, seg.ID, bound)
		}
	}
	return nil
}

func sameIDs(a, b []traj.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestApproxRecallIsOne checks the local-search guarantee survives the
// sharded path: approximate answers from sealed segments must contain
// every true resident of the query cell.
func TestApproxRecallIsOne(t *testing.T) {
	d, cols := testData(t)
	repo, err := Open(testOptions(d))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 300; q++ {
		col := cols[rng.Intn(len(cols))]
		p := col.Points[rng.Intn(col.Len())]
		ans, err := repo.STRQ(context.Background(), STRQRequest{P: p, Tick: col.Tick})
		if err != nil {
			t.Fatal(err)
		}
		want := query.GroundTruth(d, ans.Cell, col.Tick)
		_, recall := query.PrecisionRecall(ans.IDs, want)
		if recall < 1 {
			t.Fatalf("tick %d: recall %v < 1 (%s)", col.Tick, recall, ans.Source)
		}
	}
}

// TestSegmentSerializeReloadRoundTrip persists a repository, reopens it
// from the manifest, and checks queries and paths answer identically.
func TestSegmentSerializeReloadRoundTrip(t *testing.T) {
	d, cols := testData(t)
	dir := t.TempDir()
	opts := testOptions(d)
	opts.Dir = dir
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(21))
	var reqs []STRQRequest
	for q := 0; q < 120; q++ {
		col := cols[rng.Intn(len(cols))]
		reqs = append(reqs, STRQRequest{
			P:       col.Points[rng.Intn(col.Len())],
			Tick:    col.Tick,
			PathLen: 6,
		})
	}
	before := repo.Batch(context.Background(), reqs)
	nSegs := repo.Stats().Segments
	if nSegs < 2 {
		t.Fatalf("expected several persisted segments, got %d", nSegs)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	reloaded, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	if got := reloaded.Stats().Segments; got != nSegs {
		t.Fatalf("reloaded %d segments, want %d", got, nSegs)
	}
	after := reloaded.Batch(context.Background(), reqs)
	for i := range before {
		if before[i].Err != "" || after[i].Err != "" {
			t.Fatalf("query %d errored: %q / %q", i, before[i].Err, after[i].Err)
		}
		if !sameIDs(before[i].IDs, after[i].IDs) {
			t.Fatalf("query %d: IDs %v before vs %v after reload", i, before[i].IDs, after[i].IDs)
		}
		if before[i].Candidates != after[i].Candidates {
			t.Fatalf("query %d: candidates %d vs %d", i, before[i].Candidates, after[i].Candidates)
		}
		if !reflect.DeepEqual(before[i].Paths, after[i].Paths) {
			t.Fatalf("query %d: paths diverge after reload", i)
		}
	}

	// The reloaded repository accepts fresh ingest strictly above the
	// sealed watermark.
	sealed := reloaded.Stats().SealedThrough
	if err := reloaded.Ingest(sealed, []traj.ID{1}, []geo.Point{{X: 1, Y: 1}}); err == nil {
		t.Fatal("ingest at the sealed watermark should be rejected")
	}
	if err := reloaded.Ingest(sealed+1, []traj.ID{1}, []geo.Point{{X: 1, Y: 1}}); err != nil {
		t.Fatalf("ingest above the watermark: %v", err)
	}
}

// TestWindowMatchesBruteForce drives the cross-shard scatter/gather with
// data split across several segments plus a live hot tail.
func TestWindowMatchesBruteForce(t *testing.T) {
	d, cols := testData(t)
	repo, err := Open(testOptions(d))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	// Ingest everything but keep the final quarter hot (no flush).
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 40; q++ {
		col := cols[rng.Intn(len(cols))]
		center := col.Points[rng.Intn(col.Len())]
		rect := geo.Rect{
			MinX: center.X - 0.004, MinY: center.Y - 0.004,
			MaxX: center.X + 0.004, MaxY: center.Y + 0.004,
		}
		from, to := col.Tick-6, col.Tick+6
		res, err := repo.Window(context.Background(), rect, from, to, true)
		if err != nil {
			t.Fatal(err)
		}
		want := map[traj.ID]struct{}{}
		for _, tr := range d.All() {
			for k := from; k <= to; k++ {
				if p, ok := tr.At(k); ok && rect.Contains(p) {
					want[tr.ID] = struct{}{}
					break
				}
			}
		}
		if len(res.IDs) != len(want) {
			t.Fatalf("window [%d,%d] rect %v: got %d ids want %d (sources %d)",
				from, to, rect, len(res.IDs), len(want), res.Sources)
		}
		for _, id := range res.IDs {
			if _, ok := want[id]; !ok {
				t.Fatalf("window returned spurious trajectory %d", id)
			}
		}
	}
}

// TestIngestValidation covers the hot tail's admission rules.
func TestIngestValidation(t *testing.T) {
	repo, err := Open(testOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	// An empty batch is a no-op: it must not register a phantom tick that
	// would drag the compaction watermark into the far future.
	if err := repo.Ingest(1<<30, nil, nil); err != nil {
		t.Fatalf("empty batch should be a no-op: %v", err)
	}
	if _, _, ok := repo.hot.tickSpan(); ok {
		t.Fatal("empty batch registered a hot tick")
	}
	pt := []geo.Point{{X: 1, Y: 1}}
	if err := repo.Ingest(5, []traj.ID{9}, pt); err != nil {
		t.Fatal(err)
	}
	if err := repo.Ingest(5, []traj.ID{9}, pt); err == nil {
		t.Fatal("duplicate (id, tick) should be rejected")
	}
	if err := repo.Ingest(8, []traj.ID{9}, pt); err == nil {
		t.Fatal("sampling gap should be rejected")
	}
	if err := repo.Ingest(6, []traj.ID{9}, []geo.Point{{X: math.Inf(1), Y: 0}}); err == nil {
		t.Fatal("non-finite point should be rejected")
	}
	if err := repo.Ingest(6, []traj.ID{9, 10}, pt); err == nil {
		t.Fatal("length mismatch should be rejected")
	}
	if err := repo.Ingest(6, []traj.ID{9}, pt); err != nil {
		t.Fatalf("contiguous continuation should be accepted: %v", err)
	}
	dup := []geo.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	if err := repo.Ingest(7, []traj.ID{9, 9}, dup); err == nil {
		t.Fatal("duplicate ID within one batch should be rejected")
	}
	// Unsorted batches are accepted and served in ID order (all three
	// points share one query cell).
	if err := repo.Ingest(7, []traj.ID{30, 9, 20}, []geo.Point{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}}); err != nil {
		t.Fatalf("unsorted batch: %v", err)
	}
	ans, err := repo.STRQ(context.Background(), STRQRequest{P: geo.Pt(1, 1), Tick: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.IDs) == 0 {
		t.Fatalf("unsorted ingest not queryable: %+v", ans)
	}
	for i := 1; i < len(ans.IDs); i++ {
		if ans.IDs[i-1] >= ans.IDs[i] {
			t.Fatalf("answer IDs not sorted: %v", ans.IDs)
		}
	}
}

// TestExactQueryUnknownIDErrs checks that an ID outside the attached raw
// store degrades an exact query to an error instead of a process panic.
func TestExactQueryUnknownIDErrs(t *testing.T) {
	d, _ := testData(t)
	opts := testOptions(d) // raw covers only the dataset's own IDs
	opts.HotTicks = 2
	opts.KeepHotTicks = 1
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	p := geo.Pt(2, 2)
	unknown := traj.ID(900000)
	start := 1000 // far past the dataset's own ticks
	for tick := start; tick < start+6; tick++ {
		if err := repo.Ingest(tick, []traj.ID{unknown}, []geo.Point{p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.STRQ(context.Background(), STRQRequest{P: p, Tick: start + 1, Exact: true}); !errors.Is(err, query.ErrNoRaw) {
		t.Fatalf("exact query over unknown raw ID: want ErrNoRaw class, got %v", err)
	}
	// Approximate mode keeps working.
	ans, err := repo.STRQ(context.Background(), STRQRequest{P: p, Tick: start + 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.IDs) != 1 || ans.IDs[0] != unknown {
		t.Fatalf("approximate answer = %+v", ans)
	}
}

// TestWindowClipsUnboundedSpan guards the DoS fix: an absurd window span
// must be clipped to resident data, not probed tick by tick.
func TestWindowClipsUnboundedSpan(t *testing.T) {
	d, cols := testData(t)
	repo, err := Open(testOptions(d))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	for _, col := range cols[:len(cols)/2] {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	rect := geo.NewRect(-180, -90, 180, 90)
	start := time.Now()
	res, err := repo.Window(context.Background(), rect, 0, 1<<40, false)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("unbounded window took %v", elapsed)
	}
	if len(res.IDs) != d.Len() {
		t.Fatalf("window over everything found %d of %d trajectories", len(res.IDs), d.Len())
	}
}

// TestExactWithoutRawErrors checks the satellite: a mis-configured exact
// request degrades to an error, never a crash, and only for the sealed
// tier (the hot tail is raw and always answers exactly).
func TestExactWithoutRawErrors(t *testing.T) {
	d, cols := testData(t)
	_ = d
	repo, err := Open(testOptions(nil)) // no raw access
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	half := len(cols) / 2
	for _, col := range cols[:half] {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, col := range cols[half:] {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	sealedCol, hotCol := cols[0], cols[len(cols)-1]
	_, err = repo.STRQ(context.Background(), STRQRequest{P: sealedCol.Points[0], Tick: sealedCol.Tick, Exact: true})
	if !errors.Is(err, query.ErrNoRaw) {
		t.Fatalf("sealed exact without raw: want ErrNoRaw, got %v", err)
	}
	ans, err := repo.STRQ(context.Background(), STRQRequest{P: hotCol.Points[0], Tick: hotCol.Tick, Exact: true})
	if err != nil {
		t.Fatalf("hot exact: %v", err)
	}
	if ans.Source != "hot" || !ans.Covered {
		t.Fatalf("expected covered hot answer, got %+v", ans)
	}
	// Windows follow the same rule.
	everywhere := geo.NewRect(-180, -90, 180, 90)
	if _, err := repo.Window(context.Background(), everywhere, sealedCol.Tick, sealedCol.Tick+2, true); !errors.Is(err, query.ErrNoRaw) {
		t.Fatalf("sealed exact window without raw: want ErrNoRaw, got %v", err)
	}
	if _, err := repo.Window(context.Background(), everywhere, hotCol.Tick, hotCol.Tick+5, true); err != nil {
		t.Fatalf("hot exact window: %v", err)
	}
	// Batch must absorb the failure per-answer instead of failing whole.
	answers := repo.Batch(context.Background(), []STRQRequest{
		{P: sealedCol.Points[0], Tick: sealedCol.Tick, Exact: true},
		{P: hotCol.Points[0], Tick: hotCol.Tick},
	})
	if answers[0].Err == "" {
		t.Fatal("batch answer 0 should carry the ErrNoRaw failure")
	}
	if answers[1].Err != "" {
		t.Fatalf("batch answer 1 should succeed: %s", answers[1].Err)
	}
	if repo.Stats().QueryErrors == 0 {
		t.Fatal("query errors should be counted")
	}
}

// TestHotTailAccountingUnderRacingCompaction hammers ingest against an
// aggressive compactor and checks conservation: every ingested point ends
// up in exactly one tier, and nothing is lost or double-counted. Run
// with -race.
func TestHotTailAccountingUnderRacingCompaction(t *testing.T) {
	d, cols := testData(t)
	opts := testOptions(d)
	opts.HotTicks = 4
	opts.KeepHotTicks = 1
	opts.CompactInterval = time.Millisecond
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent reader keeps the routing path busy
		defer wg.Done()
		rng := rand.New(rand.NewSource(8))
		for !done.Load() {
			col := cols[rng.Intn(len(cols))]
			if _, err := repo.STRQ(context.Background(), STRQRequest{P: col.Points[0], Tick: col.Tick}); err != nil {
				panic(err)
			}
		}
	}()
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	done.Store(true)
	wg.Wait()

	st := repo.Stats()
	if st.IngestedPoints != int64(d.NumPoints()) {
		t.Fatalf("ingested %d, want %d", st.IngestedPoints, d.NumPoints())
	}
	if st.SegmentPoints+st.HotPoints != d.NumPoints() {
		t.Fatalf("conservation violated: %d sealed + %d hot != %d ingested",
			st.SegmentPoints, st.HotPoints, d.NumPoints())
	}
	if st.HotPoints != 0 {
		t.Fatalf("flush left %d hot points", st.HotPoints)
	}
	if st.CompactedPoints != int64(d.NumPoints()) {
		t.Fatalf("compacted %d, want %d", st.CompactedPoints, d.NumPoints())
	}
	// Tick coverage is a partition: consecutive segments, no overlap.
	segs := repo.Segments()
	for i := 1; i < len(segs); i++ {
		if segs[i].StartTick <= segs[i-1].EndTick {
			t.Fatalf("segments %d and %d overlap: [%d,%d] then [%d,%d]", i-1, i,
				segs[i-1].StartTick, segs[i-1].EndTick, segs[i].StartTick, segs[i].EndTick)
		}
	}
}

// TestPathStitchesAcrossSegments reconstructs paths spanning segment
// boundaries and the hot tail, checking tick alignment and the deviation
// bound against raw data.
func TestPathStitchesAcrossSegments(t *testing.T) {
	d, cols := testData(t)
	repo, err := Open(testOptions(d))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	// No flush: the freshest ticks stay hot, so long paths cross tiers.
	segs := repo.Segments()
	if len(segs) < 2 {
		t.Skip("workload did not compact into multiple segments")
	}
	bound := segs[0].Sum.MaxDeviation() + 1e-12
	checked := 0
	for _, tr := range d.All() {
		if tr.Len() < 10 {
			continue
		}
		got := repo.Path(context.Background(), tr.ID, tr.Start, tr.Len())
		if len(got.Points) == 0 {
			continue
		}
		checked++
		if got.Start != tr.Start {
			t.Fatalf("trajectory %d: path starts at %d, want %d", tr.ID, got.Start, tr.Start)
		}
		if len(got.Points) != tr.Len() {
			t.Fatalf("trajectory %d: path has %d points, want %d", tr.ID, len(got.Points), tr.Len())
		}
		for i, p := range got.Points {
			raw, ok := tr.At(got.Start + i)
			if !ok {
				t.Fatalf("trajectory %d: tick %d beyond raw range", tr.ID, got.Start+i)
			}
			if p.Dist(raw) > bound {
				t.Fatalf("trajectory %d tick %d: deviation %v exceeds bound %v",
					tr.ID, got.Start+i, p.Dist(raw), bound)
			}
		}
	}
	if checked < d.Len()/2 {
		t.Fatalf("only %d of %d trajectories produced full paths", checked, d.Len())
	}
}

// TestOpenValidatesOptions covers the misconfiguration error paths.
func TestOpenValidatesOptions(t *testing.T) {
	bad := []Options{
		{},
		{Index: index.Options{GC: 1}},
		{Index: index.Options{GC: 1, EpsS: 1}, Build: core.Options{UseCQC: true, Epsilon1: 1}},
	}
	for i, o := range bad {
		if _, err := Open(o); err == nil {
			t.Fatalf("options %d should be rejected", i)
		}
	}
}

// TestGoAPIValidationMatchesHTTP checks programmatic callers get errors
// (not silent empties) for the inputs the HTTP layer 400s.
func TestGoAPIValidationMatchesHTTP(t *testing.T) {
	repo, err := Open(testOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	ctx := context.Background()
	if _, err := repo.STRQ(ctx, STRQRequest{P: geo.Pt(math.NaN(), 0), Tick: 0}); err == nil {
		t.Fatal("non-finite STRQ point should error")
	}
	if _, err := repo.STRQ(ctx, STRQRequest{P: geo.Pt(1, 1), Tick: 0, PathLen: -1}); err == nil {
		t.Fatal("negative path length should error")
	}
	if _, err := repo.Window(ctx, geo.Rect{MinX: 2, MinY: 0, MaxX: 1, MaxY: 1}, 0, 1, false); err == nil {
		t.Fatal("inverted window rect should error")
	}
	if _, err := repo.Window(ctx, geo.Rect{MinX: math.Inf(1), MaxX: 1, MaxY: 1}, 0, 1, false); err == nil {
		t.Fatal("non-finite window rect should error")
	}
}
