package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// windowRects samples query rectangles anchored on ingested positions
// (so probes hit populated space) at sizes from sub-cell to several
// cells, plus one far-away rect that exercises the zone-map planner.
func windowRects(cols []*traj.Column, n int, seed int64) []geo.Rect {
	rng := rand.New(rand.NewSource(seed))
	gc := geo.MetersToDegrees(100)
	rects := make([]geo.Rect, 0, n+1)
	for i := 0; i < n; i++ {
		col := cols[rng.Intn(len(cols))]
		p := col.Points[rng.Intn(col.Len())]
		w := gc * (0.5 + 3*rng.Float64())
		rects = append(rects, geo.Rect{MinX: p.X - w/2, MinY: p.Y - w/2, MaxX: p.X + w/2, MaxY: p.Y + w/2})
	}
	rects = append(rects, geo.Rect{MinX: 10, MinY: 10, MaxX: 11, MaxY: 11}) // nowhere near Porto
	return rects
}

// perTickWindow is the window reference: every tick of [from, to] is
// probed on its own — Segment.Eng.STRQRect on the segment covering it,
// brute force over the ingested columns above the sealed watermark — and
// the distinct IDs, covered ticks and overlapping sources the executor
// must reproduce are tallied. The repository must be quiescent.
func perTickWindow(t *testing.T, repo *Repository, cols []*traj.Column, rect geo.Rect, from, to int, exact bool) (ids []traj.ID, ticks, sources int) {
	t.Helper()
	v := repo.readView(0, -1)
	segs, sealed := v.segs, v.sealed
	seen := make(map[traj.ID]struct{})
	for _, s := range segs {
		lo, hi := max(from, s.StartTick), min(to, s.EndTick)
		if lo > hi {
			continue
		}
		sources++
		for tick := lo; tick <= hi; tick++ {
			res, err := s.Eng.STRQRect(context.Background(), rect, tick, exact, nil)
			if err != nil {
				t.Fatalf("segment %d STRQRect tick %d: %v", s.ID, tick, err)
			}
			if !res.Covered {
				continue
			}
			ticks++
			for _, id := range res.IDs {
				seen[id] = struct{}{}
			}
		}
	}
	hotLo, hotHi := math.MaxInt, math.MinInt
	for _, col := range cols {
		if col.Tick <= sealed {
			continue
		}
		hotLo, hotHi = min(hotLo, col.Tick), max(hotHi, col.Tick)
		if col.Tick < from || col.Tick > to {
			continue
		}
		ticks++
		for i, id := range col.IDs {
			if rect.Contains(col.Points[i]) {
				seen[id] = struct{}{}
			}
		}
	}
	// The hot tail counts as a source when the span overlaps its resident
	// tick range, whether or not the overlapped ticks hold data.
	if max(from, sealed+1, hotLo) <= min(to, hotHi) {
		sources++
	}
	for id := range seen {
		ids = append(ids, id)
	}
	return sortedIDs(ids), ticks, sources
}

// windowSpans is the equivalence suites' span matrix: the whole history,
// the sealed/hot frontier, the epoch, and empty future ticks, plus eight
// random spans drawn from seed.
func windowSpans(lastTick int, seed int64) [][2]int {
	spans := [][2]int{
		{0, lastTick},                 // whole history: every segment + hot
		{lastTick - 12, lastTick + 5}, // straddles sealed/hot and runs past the data
		{-10, 3},                      // straddles the epoch
		{lastTick + 3, lastTick + 30}, // hot-only plus empty future ticks
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 8; i++ {
		lo := rng.Intn(lastTick + 1)
		spans = append(spans, [2]int{lo, lo + rng.Intn(lastTick-lo+4)})
	}
	return spans
}

// checkWindow compares one Window answer with the per-tick reference
// (perTickWindow) in IDs, ticks probed and sources and, in exact mode,
// with brute-force ground truth.
func checkWindow(t *testing.T, repo *Repository, cols []*traj.Column, rect geo.Rect, sp [2]int, exact bool, got *WindowResult) {
	t.Helper()
	want, ticks, sources := perTickWindow(t, repo, cols, rect, sp[0], sp[1], exact)
	if !sameIDs(got.IDs, want) {
		t.Fatalf("exact=%v: %v", exact, errMismatch(rect, sp[0], sp[1], got.IDs, want))
	}
	if got.Ticks != ticks || got.Sources != sources {
		t.Fatalf("rect %v span %d..%d exact=%v: ticks probed %d vs %d, sources %d vs %d",
			rect, sp[0], sp[1], exact, got.Ticks, ticks, got.Sources, sources)
	}
	if got.SegmentsSkipped > got.Sources {
		t.Fatalf("rect %v span %d..%d: %d segments skipped of %d sources",
			rect, sp[0], sp[1], got.SegmentsSkipped, got.Sources)
	}
	if exact {
		if truth := bruteWindow(cols, rect, sp[0], sp[1]); !sameIDs(got.IDs, truth) {
			t.Fatalf("ground truth: %v", errMismatch(rect, sp[0], sp[1], got.IDs, truth))
		}
	}
}

// TestWindowEquivalenceSuite is the window executor's acceptance suite:
// Window must match the per-tick reference (perTickWindow) in IDs, ticks
// probed and sources, in both modes, and brute-force ground truth in
// exact mode — on spans straddling segment boundaries, the sealed/hot
// frontier, empty ticks, and spans entirely off the data. Run with -race.
func TestWindowEquivalenceSuite(t *testing.T) {
	repo, w := openWindowRepo(t)
	ctx := context.Background()
	for _, rect := range windowRects(w.cols, 6, 21) {
		for _, sp := range windowSpans(w.lastTick, 7) {
			for _, exact := range []bool{false, true} {
				got, err := repo.Window(ctx, rect, sp[0], sp[1], exact)
				if err != nil {
					t.Fatalf("Window(%v, %d..%d, exact=%v): %v", rect, sp[0], sp[1], exact, err)
				}
				checkWindow(t, repo, w.cols, rect, sp, exact, got)
			}
		}
	}

	st := repo.Stats()
	if st.Window.Queries == 0 || st.Window.SegmentsScanned == 0 {
		t.Fatalf("window stats not populated: %+v", st.Window)
	}
	if st.Window.SegmentsSkipped == 0 {
		t.Fatalf("the far-away rect should have been zone-map pruned: %+v", st.Window)
	}
}

// TestWindowRacingCompaction runs windows concurrently with live
// ingestion and compaction. Every answer over the fully ingested prefix
// must equal brute-force ground truth in exact mode, and contain it in
// approximate mode, no matter where the sealed watermark lands
// mid-request. This guards the one-read-view rule: compaction publishes a
// segment and trims its hot ticks in one write section, so a window that
// reads the view once never misses or re-plans a tick. Run with -race.
func TestWindowRacingCompaction(t *testing.T) {
	raceWindows(t, 33, 50, true)
}

// raceWindows runs four window workers (rng seeds workerSeed+0..3) over
// rects drawn from rectSeed, concurrently with live ingestion and
// compaction of the test data. Every answer over the fully ingested
// prefix must equal brute-force ground truth in exact mode and contain it
// in approximate mode; with mixed false every window is exact. It
// returns the flushed, quiescent repository and the number of windows
// answered.
func raceWindows(t *testing.T, rectSeed, workerSeed int64, mixed bool) (*Repository, int64) {
	t.Helper()
	d, cols := testData(t)
	opts := testOptions(d)
	repo, err := Open(opts) // fast CompactInterval: compactor races for real
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })

	rects := windowRects(cols, 4, rectSeed)
	var ingested, answered atomic.Int64
	ingested.Store(-1)
	var done atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for wk := 0; wk < 4; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(workerSeed + int64(wk)))
			for !done.Load() {
				hi := ingested.Load()
				if hi < 1 {
					continue
				}
				// Only ticks fully ingested before the query starts have a
				// fixed ground truth.
				to := cols[rng.Intn(int(hi))].Tick
				from := to - rng.Intn(20)
				rect := rects[rng.Intn(len(rects))]
				exact := !mixed || rng.Intn(2) == 0
				res, err := repo.Window(context.Background(), rect, from, to, exact)
				if err != nil {
					errCh <- err
					return
				}
				answered.Add(1)
				want := bruteWindow(cols, rect, from, to)
				if exact && !sameIDs(res.IDs, want) || !exact && len(minusIDs(want, res.IDs)) > 0 {
					errCh <- errMismatch(rect, from, to, res.IDs, want)
					return
				}
			}
		}(wk)
	}
	for i, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
		ingested.Store(int64(i))
		if i%7 == 0 {
			time.Sleep(time.Millisecond) // let the compactor overlap queries
		}
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
	return repo, answered.Load()
}

type windowMismatch struct {
	rect      geo.Rect
	from, to  int
	got, want []traj.ID
}

func errMismatch(rect geo.Rect, from, to int, got, want []traj.ID) error {
	return &windowMismatch{rect: rect, from: from, to: to, got: got, want: want}
}

func (m *windowMismatch) Error() string {
	return fmt.Sprintf("window mismatch: rect %v span %d..%d: missing %v, extra %v (got %d ids, want %d)",
		m.rect, m.from, m.to, minusIDs(m.want, m.got), minusIDs(m.got, m.want), len(m.got), len(m.want))
}

// minusIDs returns the IDs of ascending a that ascending b lacks.
func minusIDs(a, b []traj.ID) []traj.ID {
	var out []traj.ID
	j := 0
	for _, id := range a {
		for j < len(b) && b[j] < id {
			j++
		}
		if j == len(b) || b[j] != id {
			out = append(out, id)
		}
	}
	return out
}

// TestZoneMapPersistenceAndRebuild checks the sidecar lifecycle: zone
// maps are written next to segments, reload from disk, are rebuilt (and
// re-persisted) when deleted — the old-manifest upgrade path — and prune
// identically either way.
func TestZoneMapPersistenceAndRebuild(t *testing.T) {
	d, cols := testData(t)
	opts := testOptions(d)
	opts.Dir = t.TempDir()
	opts.CompactInterval = time.Hour
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
	segs := repo.Segments()
	if len(segs) < 2 {
		t.Fatalf("want ≥ 2 segments, got %d", len(segs))
	}
	farRect := geo.Rect{MinX: 10, MinY: 10, MaxX: 11, MaxY: 11}
	res, err := repo.Window(context.Background(), farRect, 0, cols[len(cols)-1].Tick, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 || res.SegmentsSkipped != len(segs) {
		t.Fatalf("far rect: ids %v, skipped %d of %d segments", res.IDs, res.SegmentsSkipped, len(segs))
	}
	zones := make(map[uint64]*ZoneMap, len(segs))
	for _, s := range segs {
		if s.Zone == nil {
			t.Fatalf("segment %d has no zone map", s.ID)
		}
		zones[s.ID] = s.Zone
		if _, err := os.Stat(filepath.Join(opts.Dir, zoneFileName(s.ID))); err != nil {
			t.Fatalf("segment %d zone sidecar: %v", s.ID, err)
		}
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	// Reload from the persisted sidecars.
	repo2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range repo2.Segments() {
		want := zones[s.ID]
		if s.Zone == nil || s.Zone.Bounds != want.Bounds || s.Zone.TickLo != want.TickLo ||
			s.Zone.TickHi != want.TickHi || s.Zone.W != want.W || s.Zone.H != want.H {
			t.Fatalf("segment %d zone map changed across reload: %+v vs %+v", s.ID, s.Zone, want)
		}
	}
	if err := repo2.Close(); err != nil {
		t.Fatal(err)
	}

	// Delete the sidecars (an old-format directory) and reopen: the zone
	// maps must be rebuilt from the engines and re-persisted.
	for id := range zones {
		if err := os.Remove(filepath.Join(opts.Dir, zoneFileName(id))); err != nil {
			t.Fatal(err)
		}
	}
	repo3, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo3.Close()
	for _, s := range repo3.Segments() {
		want := zones[s.ID]
		if s.Zone == nil || s.Zone.Bounds != want.Bounds || s.Zone.TickLo != want.TickLo ||
			s.Zone.TickHi != want.TickHi {
			t.Fatalf("segment %d zone map not rebuilt faithfully: %+v vs %+v", s.ID, s.Zone, want)
		}
		if _, err := os.Stat(filepath.Join(opts.Dir, zoneFileName(s.ID))); err != nil {
			t.Fatalf("segment %d zone sidecar not re-persisted: %v", s.ID, err)
		}
	}
	res, err = repo3.Window(context.Background(), farRect, 0, cols[len(cols)-1].Tick, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 || res.SegmentsSkipped != len(zones) {
		t.Fatalf("far rect after rebuild: ids %v, skipped %d of %d", res.IDs, res.SegmentsSkipped, len(zones))
	}
}

// TestZoneMapRejectsCorruptSidecar checks loadZoneMap refuses malformed
// frames instead of trusting them: a negative-dimension bitmap would
// make MayIntersect silently prune its segment forever.
func TestZoneMapRejectsCorruptSidecar(t *testing.T) {
	dir := t.TempDir()
	gc := geo.MetersToDegrees(100)
	// ZoneMap holds an atomic counter, so each trial builds a fresh value
	// instead of copying one.
	good := func() *ZoneMap {
		return &ZoneMap{Version: zoneMapVersion, GC: gc, TickLo: 0, TickHi: 9,
			Bounds: geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, X0: 0, Y0: 0, W: 2, H: 2, Bits: []byte{0xf}}
	}
	for name, mutate := range map[string]func(z *ZoneMap){
		"negative-w":    func(z *ZoneMap) { z.W, z.H = -4, -2 },
		"short-bits":    func(z *ZoneMap) { z.W, z.H, z.Bits = 100, 100, []byte{1} },
		"wrong-version": func(z *ZoneMap) { z.Version = 99 },
		"wrong-gc":      func(z *ZoneMap) { z.GC = gc * 2 },
	} {
		z := good()
		mutate(z)
		blob, err := json.Marshal(z)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, zoneFileName(1)), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := loadZoneMap(dir, 1, gc); ok {
			t.Fatalf("%s: corrupt sidecar accepted", name)
		}
	}
	blob, err := json.Marshal(good())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, zoneFileName(1)), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadZoneMap(dir, 1, gc); !ok {
		t.Fatal("well-formed sidecar rejected")
	}
}

// TestZoneOrphanGC checks startup GC reclaims zone sidecars whose
// segment the manifest no longer references.
func TestZoneOrphanGC(t *testing.T) {
	d, cols := testData(t)
	opts := testOptions(d)
	opts.Dir = t.TempDir()
	opts.CompactInterval = time.Hour
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range cols[:20] {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(opts.Dir, zoneFileName(987654))
	if err := os.WriteFile(orphan, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	repo2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan zone sidecar survived startup GC: %v", err)
	}
	if repo2.Stats().OrphansRemoved == 0 {
		t.Fatal("orphan removal not counted")
	}
}

// TestWindowDeadline checks the range executor still honors deadlines
// promptly (the per-shard scans check ctx between emits).
func TestWindowDeadline(t *testing.T) {
	d, cols := testData(t)
	opts := testOptions(d)
	opts.CompactInterval = time.Hour
	repo, err := Open(opts)
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
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repo.Window(ctx, geo.Rect{MinX: -9, MinY: 41, MaxX: -8, MaxY: 42}, 0, cols[len(cols)-1].Tick, false); err != context.Canceled {
		t.Fatalf("cancelled window: err = %v, want context.Canceled", err)
	}
}
