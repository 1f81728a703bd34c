package index

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// collectCursor drains a RangeCursor into sorted, deduplicated per-tick
// ID sets, plus the per-cell batch count.
func collectCursor(tpi *TPI, area geo.Rect, from, to int, visit func(geo.Rect) bool) (map[int][]traj.ID, ScanStats, int) {
	var st ScanStats
	got := make(map[int][]traj.ID)
	cur := tpi.RangeCursor(area, from, to, &st, visit)
	cells := 0
	for {
		cs, ok := cur.Next()
		if !ok {
			break
		}
		cells++
		if len(cs.Ticks) != len(cs.IDs) {
			panic("cursor batch shape mismatch")
		}
		for i, tick := range cs.Ticks {
			got[tick] = append(got[tick], cs.IDs[i]...)
		}
	}
	for tick, ids := range got {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		got[tick] = traj.DedupSorted(ids)
	}
	return got, st, cells
}

// cursorBatch is one drained cell batch, copied out of the cursor's
// reused buffers.
type cursorBatch struct {
	Ticks []int
	IDs   [][]traj.ID
}

// drainBatches pulls every cell batch of cur in emission order.
func drainBatches(cur *RangeCursor) []cursorBatch {
	var out []cursorBatch
	for {
		cs, ok := cur.Next()
		if !ok {
			return out
		}
		b := cursorBatch{Ticks: append([]int(nil), cs.Ticks...)}
		for _, ids := range cs.IDs {
			b.IDs = append(b.IDs, append([]traj.ID(nil), ids...))
		}
		out = append(out, b)
	}
}

// TestRangeCursorMatchesScanRange proves a pooled cursor re-armed with
// Reset (the executor's scan source reuses cursors this way) is
// batch-for-batch and stat-for-stat equivalent to a fresh range scan on
// sealed and cached indexes across random areas/spans: no state from an
// earlier scan leaks into the next.
func TestRangeCursorMatchesScanRange(t *testing.T) {
	for _, cfg := range []struct {
		name      string
		withCache bool
	}{{"sealed", false}, {"sealed+cache", true}} {
		t.Run(cfg.name, func(t *testing.T) {
			tpi := scanTestTPI(t, cfg.withCache)
			rng := rand.New(rand.NewSource(31))
			var pooled RangeCursor
			for trial := 0; trial < 30; trial++ {
				area, from, to := randomScan(rng)
				var wantSt, gotSt ScanStats
				want := drainBatches(tpi.RangeCursor(area, from, to, &wantSt, nil))
				pooled.Reset(tpi, area, from, to, &gotSt, nil)
				got := drainBatches(&pooled)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("area %v span %d..%d:\nreset %v\nfresh %v", area, from, to, got, want)
				}
				// Every counter but the decode time is a function of the
				// scan alone, whatever ran before it.
				if got, want := gotSt.CellsScanned, wantSt.CellsScanned; got != want {
					t.Fatalf("CellsScanned %d vs %d", got, want)
				}
				if got, want := gotSt.CellsSkipped, wantSt.CellsSkipped; got != want {
					t.Fatalf("CellsSkipped %d vs %d", got, want)
				}
				if got, want := gotSt.DecodedBytes, wantSt.DecodedBytes; got != want {
					t.Fatalf("DecodedBytes %d vs %d", got, want)
				}
			}
		})
	}
}

// TestRangeCursorVisitVeto checks a vetoing visit callback skips every
// cell before any decode.
func TestRangeCursorVisitVeto(t *testing.T) {
	tpi := scanTestTPI(t, false)
	area := geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}
	got, st, cells := collectCursor(tpi, area, 0, 50, func(geo.Rect) bool { return false })
	if len(got) != 0 || cells != 0 || st.CellsScanned != 0 || st.CellsSkipped == 0 {
		t.Fatalf("vetoing visit still scanned: batches=%d stats=%+v", cells, st)
	}
}

// TestRangeCursorAbandon checks laziness: stopping after the first pull
// must leave the remaining cells undecoded (stats stop accumulating).
func TestRangeCursorAbandon(t *testing.T) {
	tpi := scanTestTPI(t, false)
	area := geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}
	_, full, _ := collectCursor(tpi, area, 0, 50, nil)
	if full.CellsScanned < 2 {
		t.Skipf("need ≥2 scanned cells for the laziness check, got %+v", full)
	}
	var st ScanStats
	cur := tpi.RangeCursor(area, 0, 50, &st, nil)
	if _, ok := cur.Next(); !ok {
		t.Fatal("first pull returned nothing")
	}
	if st.CellsScanned >= full.CellsScanned {
		t.Fatalf("one pull scanned all %d cells — cursor is not lazy", st.CellsScanned)
	}
}

// TestRangeCursorTicksAscend checks the per-batch contract: ticks within
// one cell batch ascend and fall inside the requested span.
func TestRangeCursorTicksAscend(t *testing.T) {
	for _, withCache := range []bool{false, true} {
		tpi := scanTestTPI(t, withCache)
		var st ScanStats
		cur := tpi.RangeCursor(geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}, 5, 30, &st, nil)
		for {
			cs, ok := cur.Next()
			if !ok {
				break
			}
			if len(cs.Ticks) == 0 {
				t.Fatal("empty batch emitted")
			}
			for i, tick := range cs.Ticks {
				if tick < 5 || tick > 30 {
					t.Fatalf("tick %d outside span", tick)
				}
				if i > 0 && cs.Ticks[i-1] >= tick {
					t.Fatalf("ticks not ascending: %v", cs.Ticks)
				}
				if len(cs.IDs[i]) == 0 {
					t.Fatalf("empty posting emitted at tick %d", tick)
				}
			}
		}
	}
}

// TestRangeCursorInnerListsMayBeKept holds the CellScan contract: a
// caller may keep every inner ID list of every batch without copying,
// and once the cursor is drained the kept lists still answer each tick
// exactly as a per-tick LookupArea probe does.
func TestRangeCursorInnerListsMayBeKept(t *testing.T) {
	tpi := scanTestTPI(t, false)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		area, from, to := randomScan(rng)
		var st ScanStats
		kept := make(map[int][][]traj.ID)
		cur := tpi.RangeCursor(area, from, to, &st, nil)
		for cs, ok := cur.Next(); ok; cs, ok = cur.Next() {
			for i, tick := range cs.Ticks {
				kept[tick] = append(kept[tick], cs.IDs[i])
			}
		}
		for tick := from; tick <= to; tick++ {
			var got []traj.ID
			for _, ids := range kept[tick] {
				got = append(got, ids...)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			got = traj.DedupSorted(got)
			if want := tpi.LookupArea(area, tick, nil); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("area %v tick %d: kept lists %v, LookupArea %v", area, tick, got, want)
			}
		}
	}
}
