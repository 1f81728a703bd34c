package index

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ppqtraj/internal/cache"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// scanTestCol is one tick of scanTestTPI's input; point i is trajectory
// i's position.
type scanTestCol struct {
	tick int
	pts  []geo.Point
}

// scanTestInput is a few dozen ticks of drifting clusters — enough to
// span multiple periods, cache chunks, and sparse cells.
func scanTestInput() []scanTestCol {
	rng := rand.New(rand.NewSource(4))
	var cols []scanTestCol
	for tick := 3; tick < 40; tick++ {
		if tick%7 == 0 {
			continue // leave holes in the tick axis
		}
		drift := float64(tick) * 0.05
		pts := clusterPoints(rng, []geo.Point{geo.Pt(drift, 0), geo.Pt(10-drift, 10)}, 20, 0.4)
		cols = append(cols, scanTestCol{tick: tick, pts: pts})
	}
	return cols
}

// scanTestTPI builds and seals a TPI over scanTestInput, optionally with
// a decoded-cell cache attached.
func scanTestTPI(t *testing.T, withCache bool) *TPI {
	t.Helper()
	tpi := NewTPI(Options{EpsS: 2, GC: 0.25, EpsC: 0.5, EpsD: 0.5, Seed: 9})
	for _, col := range scanTestInput() {
		tpi.Append(idsSeq(len(col.pts)), col.pts, col.tick)
	}
	if err := tpi.Seal(); err != nil {
		t.Fatal(err)
	}
	if withCache {
		tpi.SetCache(cache.New(4<<20), 1)
	}
	return tpi
}

// randomScan draws a random query area and tick span around and beyond
// scanTestInput's data.
func randomScan(rng *rand.Rand) (area geo.Rect, from, to int) {
	cx, cy := rng.Float64()*12-1, rng.Float64()*12-1
	w := 0.3 + rng.Float64()*3
	from = rng.Intn(45) - 2
	return geo.Rect{MinX: cx, MinY: cy, MaxX: cx + w, MaxY: cy + w}, from, from + rng.Intn(45)
}

// TestSealedReadsMatchGeometricOracle checks both read paths against
// geometry alone, reading no posting and no directory: LookupArea(area,
// tick) must return exactly the input IDs at tick whose cell (CellRect)
// intersects area, and a drained RangeCursor over [from, to] must return
// that set at every tick of the span.
func TestSealedReadsMatchGeometricOracle(t *testing.T) {
	cols := scanTestInput()
	for _, cfg := range []struct {
		name      string
		withCache bool
	}{{"sealed", false}, {"sealed+cache", true}} {
		t.Run(cfg.name, func(t *testing.T) {
			tpi := scanTestTPI(t, cfg.withCache)
			oracle := func(area geo.Rect, tick int) []traj.ID {
				var out []traj.ID
				for _, col := range cols {
					if col.tick != tick {
						continue
					}
					for i, p := range col.pts {
						if cell, ok := tpi.CellRect(p, tick); ok && cell.Intersects(area) {
							out = append(out, traj.ID(i))
						}
					}
				}
				return out
			}
			rng := rand.New(rand.NewSource(41))
			for trial := 0; trial < 60; trial++ {
				area, from, to := randomScan(rng)
				want := make(map[int][]traj.ID)
				for tick := from; tick <= to; tick++ {
					w := oracle(area, tick)
					if got := tpi.LookupArea(area, tick, nil); !slices.Equal(got, w) {
						t.Fatalf("area %v tick %d: LookupArea %v, oracle %v", area, tick, got, w)
					}
					if len(w) > 0 {
						want[tick] = w
					}
				}
				if got, _, _ := collectCursor(tpi, area, from, to, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("area %v span %d..%d:\ncursor %v\noracle %v", area, from, to, got, want)
				}
			}
		})
	}
}

// TestScanRangeMatchesPerTickLookupArea proves the range scan (a drained
// RangeCursor) answers every tick of the span exactly as a per-tick
// LookupArea probe does, on sealed and cached indexes across random
// areas/spans.
func TestScanRangeMatchesPerTickLookupArea(t *testing.T) {
	for _, cfg := range []struct {
		name      string
		withCache bool
	}{{"sealed", false}, {"sealed+cache", true}} {
		t.Run(cfg.name, func(t *testing.T) {
			tpi := scanTestTPI(t, cfg.withCache)
			rng := rand.New(rand.NewSource(12))
			for trial := 0; trial < 30; trial++ {
				area, from, to := randomScan(rng)
				got, _, _ := collectCursor(tpi, area, from, to, nil)
				want := make(map[int][]traj.ID)
				for tick := from; tick <= to; tick++ {
					if ids := tpi.LookupArea(area, tick, nil); len(ids) > 0 {
						want[tick] = ids
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("area %v span %d..%d:\nscan    %v\npertick %v", area, from, to, got, want)
				}
			}
		})
	}
}

func TestScanRangeTickRangePruning(t *testing.T) {
	tpi := scanTestTPI(t, false)
	// A span with no data at all: every populated cell is pruned by its
	// tick range, nothing is scanned.
	got, st, _ := collectCursor(tpi, geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}, 100, 140, nil)
	if len(got) != 0 {
		t.Fatalf("scan past the data returned %v", got)
	}
	if st.CellsScanned != 0 {
		t.Fatalf("expected zero cells scanned, got %+v", st)
	}
	// The early ticks live in the early periods only; scanning them must
	// not walk cells populated exclusively later. (Cells are per period,
	// so the late periods' regions contribute skips or nothing.)
	_, st, _ = collectCursor(tpi, geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}, 3, 4, nil)
	if st.CellsScanned == 0 {
		t.Fatalf("expected some cells scanned over populated ticks, got %+v", st)
	}
}

func TestScanRangeVisitVeto(t *testing.T) {
	tpi := scanTestTPI(t, false)
	area := geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}
	var st ScanStats
	emitted := 0
	cur := tpi.RangeCursor(area, 0, 50, &st, func(geo.Rect) bool { return false })
	for {
		cs, ok := cur.Next()
		if !ok {
			break
		}
		emitted += len(cs.Ticks)
	}
	if emitted != 0 || st.CellsScanned != 0 || st.CellsSkipped == 0 {
		t.Fatalf("vetoing visit still scanned: emitted=%d stats=%+v", emitted, st)
	}
}

// TestScanRangeAbort stops a range scan after three cell batches: the
// cells not pulled stay unscanned, and the abandoned cursor still holds
// the rest of the scan.
func TestScanRangeAbort(t *testing.T) {
	tpi := scanTestTPI(t, false)
	area := geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}
	_, full, batches := collectCursor(tpi, area, 0, 50, nil)
	if batches <= 3 {
		t.Fatalf("need more than 3 cell batches to abort mid-scan, got %d", batches)
	}
	var st ScanStats
	cur := tpi.RangeCursor(area, 0, 50, &st, nil)
	for i := 0; i < 3; i++ {
		if _, ok := cur.Next(); !ok {
			t.Fatalf("scan ended after %d of %d batches", i, batches)
		}
	}
	if st.CellsScanned >= full.CellsScanned {
		t.Fatalf("abort after 3 batches scanned all %d cells", st.CellsScanned)
	}
	if _, ok := cur.Next(); !ok {
		t.Fatal("aborted scan has no batches left")
	}
}

func TestAppendLookupAreaReusesBuffer(t *testing.T) {
	tpi := scanTestTPI(t, false)
	area := geo.Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}
	fresh := tpi.LookupArea(area, 3, nil)
	buf := make([]traj.ID, 0, 1024)
	buf = append(buf, 7777) // pre-existing content must survive
	out := tpi.AppendLookupArea(buf, area, 3, nil)
	if out[0] != 7777 {
		t.Fatalf("prefix clobbered: %v", out[:1])
	}
	if !reflect.DeepEqual(out[1:], fresh) {
		t.Fatalf("append form differs: %v vs %v", out[1:], fresh)
	}
	if &out[0] != &buf[0] {
		t.Fatal("append form reallocated despite sufficient capacity")
	}
}

func TestCoveredTicks(t *testing.T) {
	tpi := scanTestTPI(t, false)
	for _, sp := range [][2]int{{0, 50}, {3, 3}, {6, 8}, {41, 60}, {-5, 2}} {
		want := 0
		for tick := sp[0]; tick <= sp[1]; tick++ {
			if tpi.PeriodOf(tick) != nil {
				want++
			}
		}
		if got := tpi.CoveredTicks(sp[0], sp[1]); got != want {
			t.Fatalf("CoveredTicks(%d, %d) = %d, want %d", sp[0], sp[1], got, want)
		}
	}
}

func TestPopulatedCellsCoverData(t *testing.T) {
	tpi := scanTestTPI(t, false)
	var cells []geo.Rect
	lo, hi := 1<<30, -(1 << 30)
	tpi.PopulatedCells(func(cell geo.Rect, tickLo, tickHi int) {
		cells = append(cells, cell)
		if tickLo < lo {
			lo = tickLo
		}
		if tickHi > hi {
			hi = tickHi
		}
	})
	if len(cells) == 0 {
		t.Fatal("no populated cells emitted")
	}
	if lo != 3 || hi != 39 {
		t.Fatalf("tick range %d..%d, want 3..39", lo, hi)
	}
	// Every indexed position must fall inside some emitted cell.
	emitted := make(map[geo.Rect]bool, len(cells))
	for _, c := range cells {
		emitted[c] = true
	}
	for _, col := range scanTestInput() {
		for _, p := range col.pts {
			if cell, ok := tpi.CellRect(p, col.tick); ok && !emitted[cell] {
				t.Fatalf("tick %d: cell %v of %v not among populated cells", col.tick, cell, p)
			}
		}
	}
}
