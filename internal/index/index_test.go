package index

import (
	"math/rand"
	"slices"
	"testing"

	"ppqtraj/internal/cache"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/store"
	"ppqtraj/internal/traj"
)

func idsSeq(n int) []traj.ID {
	ids := make([]traj.ID, n)
	for i := range ids {
		ids[i] = traj.ID(i)
	}
	return ids
}

func clusterPoints(rng *rand.Rand, centers []geo.Point, per int, spread float64) []geo.Point {
	var out []geo.Point
	for _, c := range centers {
		for i := 0; i < per; i++ {
			out = append(out, geo.Pt(c.X+rng.NormFloat64()*spread, c.Y+rng.NormFloat64()*spread))
		}
	}
	return out
}

// cellProbe shrinks a cell rectangle by a hair, so that a LookupArea over
// it reads that one cell and not the neighbours its closed edges touch.
func cellProbe(cell geo.Rect) geo.Rect {
	return cell.Expand(-1e-6 * min(cell.Width(), cell.Height()))
}

func TestBuildPICoversAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := clusterPoints(rng, []geo.Point{geo.Pt(0, 0), geo.Pt(10, 10)}, 50, 0.5)
	pi := BuildPI(idsSeq(len(pts)), pts, 0, 2, 0.25, 2)
	for i, p := range pts {
		if pi.regionOf(p) == nil {
			t.Fatalf("point %d %v not covered", i, p)
		}
	}
}

func TestPIRegionsDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Overlapping clusters force the remove_overlap path.
	pts := clusterPoints(rng, []geo.Point{geo.Pt(0, 0), geo.Pt(1.5, 1.5), geo.Pt(3, 0)}, 60, 1)
	pi := BuildPI(idsSeq(len(pts)), pts, 0, 2, 0.25, 3)
	for i := range pi.Regions {
		for j := i + 1; j < len(pi.Regions); j++ {
			if pi.Regions[i].Rect.Intersects(pi.Regions[j].Rect) {
				t.Fatalf("regions %d and %d overlap: %v vs %v",
					i, j, pi.Regions[i].Rect, pi.Regions[j].Rect)
			}
		}
	}
}

func TestPILookupFindsInsertedIDs(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(0.01, 0.01), geo.Pt(5, 5)}
	pi := BuildPI(idsSeq(3), pts, 7, 10, 0.1, 4)
	if err := pi.Seal(); err != nil {
		t.Fatal(err)
	}
	q := geo.Pt(0.005, 0.005)
	r := pi.regionOf(q)
	if r == nil {
		t.Fatal("query point should be covered")
	}
	cell := r.CellRect(q)
	if !cell.Contains(q) {
		t.Fatal("cell does not contain the query point")
	}
	// Both nearby points share the 0.1-sized cell at the region corner.
	if ids := pi.LookupArea(cellProbe(cell), 7, nil); !slices.Equal(ids, []traj.ID{0, 1}) {
		t.Fatalf("ids = %v, want the two nearby points", ids)
	}
	// Wrong tick: nothing indexed.
	if ids := pi.LookupArea(cellProbe(cell), 8, nil); len(ids) != 0 {
		t.Fatalf("tick 8 should be empty, got %v", ids)
	}
}

func TestPILookupAreaDedups(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(0.3, 0), geo.Pt(0.6, 0)}
	pi := BuildPI(idsSeq(3), pts, 0, 10, 0.25, 7)
	if err := pi.Seal(); err != nil {
		t.Fatal(err)
	}
	got := pi.LookupArea(geo.NewRect(-1, -1, 1, 1), 0, nil)
	if len(got) != 3 {
		t.Fatalf("LookupArea = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("ids not sorted/deduped")
		}
	}
}

func TestPISizeShrinksAfterSeal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Many IDs in few cells: compression must help.
	pts := make([]geo.Point, 2000)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*0.09, rng.Float64()*0.09)
	}
	pi := BuildPI(idsSeq(len(pts)), pts, 0, 1, 0.1, 9)
	if err := pi.Seal(); err != nil {
		t.Fatal(err)
	}
	// Uncompressed, the postings alone take 4 B per indexed ID.
	raw := 4 * len(pts)
	if sealed := pi.SizeBytes(); sealed >= raw {
		t.Fatalf("sealed size %d should be below the %d B of raw IDs", sealed, raw)
	}
}

func TestTPIPanicsOnBadOptions(t *testing.T) {
	for name, opts := range map[string]Options{
		"no gc":   {EpsS: 1},
		"no epsS": {GC: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewTPI(opts)
		}()
	}
}

func TestTPIPeriodsTileTime(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tpi := NewTPI(Options{EpsS: 3, GC: 0.25, EpsC: 0.5, EpsD: 0.5, Seed: 11})
	n := 40
	pts := clusterPoints(rng, []geo.Point{geo.Pt(0, 0), geo.Pt(10, 10)}, n/2, 0.5)
	for tick := 0; tick < 30; tick++ {
		// Drift; at tick 15 everything jumps (forces a re-build).
		for i := range pts {
			pts[i] = geo.Pt(pts[i].X+rng.NormFloat64()*0.05, pts[i].Y+rng.NormFloat64()*0.05)
		}
		if tick == 15 {
			for i := range pts {
				pts[i] = geo.Pt(pts[i].X+100, pts[i].Y+100)
			}
		}
		tpi.Append(idsSeq(n), pts, tick)
	}
	if tpi.NumPeriods() < 2 {
		t.Fatalf("the jump should have forced a re-build; periods = %d", tpi.NumPeriods())
	}
	// Periods tile [0, 29] without gaps or overlap.
	expect := 0
	for _, p := range tpi.Periods {
		if p.Start != expect {
			t.Fatalf("period starts at %d, want %d", p.Start, expect)
		}
		if p.End < p.Start {
			t.Fatalf("bad period %+v", p)
		}
		expect = p.End + 1
	}
	if expect != 30 {
		t.Fatalf("periods end at %d, want 30", expect)
	}
}

func TestTPIInsertionForUncovered(t *testing.T) {
	tpi := NewTPI(Options{EpsS: 5, GC: 0.5, EpsC: 0.9, EpsD: 0.99, Seed: 12})
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(0.5, 0.5)}
	tpi.Append(idsSeq(2), pts, 0)
	// New trajectory appears far outside the covered area; ADR won't
	// trigger (others stay), so this must be an Insertion, not a rebuild.
	pts2 := []geo.Point{geo.Pt(0.05, 0.05), geo.Pt(0.55, 0.55), geo.Pt(50, 50)}
	tpi.Append(idsSeq(3), pts2, 1)
	if tpi.NumPeriods() != 1 {
		t.Fatalf("should still be one period, got %d", tpi.NumPeriods())
	}
	if tpi.Stats().Insertions != 1 {
		t.Fatalf("Insertions = %d, want 1", tpi.Stats().Insertions)
	}
	if err := tpi.Seal(); err != nil {
		t.Fatal(err)
	}
	cell, ok := tpi.CellRect(geo.Pt(50, 50), 1)
	if !ok {
		t.Fatal("inserted region does not cover its point")
	}
	if ids := tpi.LookupArea(cellProbe(cell), 1, nil); !slices.Equal(ids, []traj.ID{2}) {
		t.Fatalf("inserted region lookup = %v", ids)
	}
}

func TestTPIRebuildOnDensityDrop(t *testing.T) {
	// Two dense areas at t=0; at t=1 one empties → ADR = 0.5 region
	// dropping... build with εd low enough to trigger.
	tpi := NewTPI(Options{EpsS: 2, GC: 0.25, EpsC: 0.5, EpsD: 0.3, Seed: 13})
	rng := rand.New(rand.NewSource(14))
	a := clusterPoints(rng, []geo.Point{geo.Pt(0, 0)}, 20, 0.3)
	b := clusterPoints(rng, []geo.Point{geo.Pt(20, 20)}, 20, 0.3)
	tpi.Append(idsSeq(40), append(append([]geo.Point{}, a...), b...), 0)
	// All 40 move to cluster a's area: cluster b's regions drop to ~0.
	all := clusterPoints(rng, []geo.Point{geo.Pt(0, 0)}, 40, 0.3)
	tpi.Append(idsSeq(40), all, 1)
	if tpi.Stats().Rebuilds < 2 {
		t.Fatalf("density collapse should force a re-build; rebuilds = %d", tpi.Stats().Rebuilds)
	}
	if tpi.PeriodOf(1).Start != 1 {
		t.Fatal("tick 1 should start a fresh period")
	}
}

func TestTPIHigherEpsDFewerPeriods(t *testing.T) {
	// Tables 7/8 shape: higher tolerance ⇒ fewer rebuilds/periods.
	run := func(epsD float64) int {
		rng := rand.New(rand.NewSource(15))
		tpi := NewTPI(Options{EpsS: 3, GC: 0.25, EpsC: 0.5, EpsD: epsD, Seed: 16})
		pts := clusterPoints(rng, []geo.Point{geo.Pt(0, 0), geo.Pt(5, 5), geo.Pt(-5, 5)}, 20, 0.5)
		for tick := 0; tick < 40; tick++ {
			for i := range pts {
				pts[i] = geo.Pt(pts[i].X+rng.NormFloat64()*0.4, pts[i].Y+rng.NormFloat64()*0.4)
			}
			tpi.Append(idsSeq(len(pts)), pts, tick)
		}
		return tpi.NumPeriods()
	}
	strict, loose := run(0.05), run(0.9)
	if loose > strict {
		t.Fatalf("higher ε_d should not increase periods: strict=%d loose=%d", strict, loose)
	}
}

func TestTPILookupOutsidePeriods(t *testing.T) {
	tpi := NewTPI(Options{EpsS: 1, GC: 0.25, EpsC: 0.5, EpsD: 0.5, Seed: 17})
	tpi.Append(idsSeq(1), []geo.Point{geo.Pt(0, 0)}, 5)
	if err := tpi.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tpi.CellRect(geo.Pt(0, 0), 99); ok {
		t.Fatal("CellRect outside any period should fail")
	}
	if got := tpi.LookupArea(geo.NewRect(-1, -1, 1, 1), 99, nil); got != nil {
		t.Fatalf("LookupArea outside period = %v", got)
	}
}

func TestTPIAppendPanicsOnTickRegression(t *testing.T) {
	tpi := NewTPI(Options{EpsS: 1, GC: 0.25, Seed: 18})
	tpi.Append(idsSeq(1), []geo.Point{geo.Pt(0, 0)}, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tpi.Append(idsSeq(1), []geo.Point{geo.Pt(0, 0)}, 3)
}

// TestAppendAfterSealPanics appends a fleet shifted by half a cell after
// Seal. The new tick's cells are missing from the sealed directory, so
// had the Append gone through, range scans would silently drop the IDs
// that point probes still found.
func TestAppendAfterSealPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tpi := NewTPI(Options{EpsS: 2, GC: 0.25, EpsC: 0.5, EpsD: 0.5, Seed: 23})
	pts := clusterPoints(rng, []geo.Point{geo.Pt(0, 0)}, 40, 0.3)
	tpi.Append(idsSeq(len(pts)), pts, 0)
	if err := tpi.Seal(); err != nil {
		t.Fatal(err)
	}
	shifted := make([]geo.Point, len(pts))
	for i, p := range pts {
		shifted[i] = geo.Pt(p.X+0.125, p.Y+0.125)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Append after Seal did not panic")
		}
	}()
	tpi.Append(idsSeq(len(shifted)), shifted, 1)
}

// TestReadsOfUnsealedIndexPanic checks that every read entry point
// refuses an index still being built.
func TestReadsOfUnsealedIndexPanic(t *testing.T) {
	tpi := NewTPI(Options{EpsS: 1, GC: 0.25, Seed: 24})
	tpi.Append(idsSeq(2), []geo.Point{geo.Pt(0, 0), geo.Pt(0.5, 0.5)}, 0)
	area := geo.NewRect(-1, -1, 1, 1)
	var st ScanStats
	for name, read := range map[string]func(){
		"TPI.LookupArea":     func() { tpi.LookupArea(area, 0, nil) },
		"TPI.RangeCursor":    func() { tpi.RangeCursor(area, 0, 0, &st, nil) },
		"TPI.PopulatedCells": func() { tpi.PopulatedCells(func(geo.Rect, int, int) {}) },
		"PI.LookupArea":      func() { tpi.Periods[0].PI.LookupArea(area, 0, nil) },
		"PI.SizeBytes":       func() { tpi.Periods[0].PI.SizeBytes() },
		"PI.AssignPages":     func() { tpi.Periods[0].PI.AssignPages(store.New(4096)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an unsealed index did not panic", name)
				}
			}()
			read()
		}()
	}
}

// TestSealReleasesBuildState checks that a sealed TPI keeps only what
// reads use: no cell map, no raw ID lists or their arena, no insert
// scratch — and that a second Seal changes nothing.
func TestSealReleasesBuildState(t *testing.T) {
	tpi := NewTPI(Options{EpsS: 2, GC: 0.25, EpsC: 0.5, EpsD: 0.5, Seed: 9})
	for _, col := range scanTestInput() {
		tpi.Append(idsSeq(len(col.pts)), col.pts, col.tick)
	}
	if tpi.hint == nil || tpi.Periods[0].PI.idArena == nil {
		t.Fatal("the build left no state to release; the test proves nothing")
	}
	if err := tpi.Seal(); err != nil {
		t.Fatal(err)
	}
	if tpi.cover != nil || tpi.regIdx != nil || tpi.uncov != nil || tpi.hint != nil {
		t.Error("TPI append scratch survives Seal")
	}
	cells := 0
	for i, p := range tpi.Periods {
		pi := p.PI
		if pi.idArena != nil || pi.pairs != nil || pi.regCnt != nil || pi.regOff != nil || pi.regScratch != nil {
			t.Errorf("period %d: PI build scratch survives Seal", i)
		}
		for ri, r := range pi.Regions {
			if r.cells != nil {
				t.Errorf("period %d region %d: cell map survives Seal", i, ri)
			}
			for _, chunk := range r.cd {
				for ci := range chunk {
					if chunk[ci].raw != nil {
						t.Fatalf("period %d region %d cell %d: raw lists survive Seal", i, ri, ci)
					}
				}
			}
			cells += len(r.dir)
		}
	}
	if cells == 0 {
		t.Fatal("sealed index has an empty directory")
	}
	before := tpi.LookupArea(geo.NewRect(-5, -5, 15, 15), 10, nil)
	if err := tpi.Seal(); err != nil {
		t.Fatal(err)
	}
	if after := tpi.LookupArea(geo.NewRect(-5, -5, 15, 15), 10, nil); len(before) == 0 || !slices.Equal(after, before) {
		t.Fatalf("second Seal changed a lookup: %v vs %v", after, before)
	}
}

func TestAssignPagesAndIOAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tpi := NewTPI(Options{EpsS: 5, GC: 0.1, EpsC: 0.5, EpsD: 0.5, Seed: 20})
	pts := clusterPoints(rng, []geo.Point{geo.Pt(0, 0)}, 500, 1)
	for tick := 0; tick < 5; tick++ {
		tpi.Append(idsSeq(len(pts)), pts, tick)
	}
	if err := tpi.Seal(); err != nil {
		t.Fatal(err)
	}
	ps := store.New(4096) // small pages to force multi-page layout
	tpi.AssignPages(ps)
	// Once aligned, the next allocation starts on the first free page.
	ps.AlignToPage()
	pages := ps.Alloc(0).First
	if pages < 2 {
		t.Fatalf("expected multi-page layout, got %d pages", pages)
	}
	got := tpi.LookupArea(geo.NewRect(-0.2, -0.2, 0.2, 0.2), 2, ps.BeginRead())
	if len(got) == 0 {
		t.Fatal("query should find points")
	}
	if ps.Reads() == 0 {
		t.Fatal("disk query should touch pages")
	}
	if ps.Reads() >= pages {
		t.Fatal("query should not scan the whole store")
	}
}

// TestLookupOracle cross-checks sealed PI cell probes against brute force
// over many random configurations.
func TestLookupOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 50 + rng.Intn(150)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*10, rng.Float64()*10)
		}
		pi := BuildPI(idsSeq(n), pts, 0, 2+rng.Float64()*4, 0.2+rng.Float64()*0.3, int64(trial))
		if err := pi.Seal(); err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 30; probe++ {
			q := pts[rng.Intn(n)]
			r := pi.regionOf(q)
			if r == nil {
				t.Fatalf("indexed point %v not covered", q)
			}
			cell := r.CellRect(q)
			ids := pi.LookupArea(cellProbe(cell), 0, nil)
			want := map[traj.ID]bool{}
			for i, p := range pts {
				if cell.Contains(p) {
					want[traj.ID(i)] = true
				}
			}
			if len(ids) != len(want) {
				t.Fatalf("trial %d: got %d ids, want %d", trial, len(ids), len(want))
			}
			for _, id := range ids {
				if !want[id] {
					t.Fatalf("unexpected id %d", id)
				}
			}
		}
	}
}

// TestCachedLookupsMatchCold builds a sealed TPI, attaches a decoded-cell
// cache, and checks every LookupArea answer — area and single-cell
// probes — is identical to the cold decode, and that repeated probes
// actually hit.
func TestCachedLookupsMatchCold(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	tpi := NewTPI(Options{EpsS: 3, GC: 0.25, EpsC: 0.5, EpsD: 0.5, Seed: 21})
	n := 60
	pts := clusterPoints(rng, []geo.Point{geo.Pt(0, 0), geo.Pt(8, 8)}, n/2, 0.5)
	for tick := 0; tick < 25; tick++ {
		for i := range pts {
			pts[i] = geo.Pt(pts[i].X+rng.NormFloat64()*0.05, pts[i].Y+rng.NormFloat64()*0.05)
		}
		tpi.Append(idsSeq(n), pts, tick)
	}
	if err := tpi.Seal(); err != nil {
		t.Fatal(err)
	}

	type probe struct {
		area geo.Rect
		tick int
	}
	var probes []probe
	for q := 0; q < 120; q++ {
		c := pts[rng.Intn(len(pts))]
		probes = append(probes, probe{
			area: geo.NewRect(c.X-0.4, c.Y-0.4, c.X+0.4, c.Y+0.4),
			tick: rng.Intn(25),
		})
	}
	cold := make([][]traj.ID, len(probes))
	for i, p := range probes {
		cold[i] = append([]traj.ID(nil), tpi.LookupArea(p.area, p.tick, nil)...)
	}

	cc := cache.New(1 << 22)
	tpi.SetCache(cc, cc.NewOwner())
	for pass := 0; pass < 2; pass++ {
		for i, p := range probes {
			got := tpi.LookupArea(p.area, p.tick, nil)
			if len(got) != len(cold[i]) {
				t.Fatalf("pass %d probe %d: %d ids vs cold %d", pass, i, len(got), len(cold[i]))
			}
			for j := range got {
				if got[j] != cold[i][j] {
					t.Fatalf("pass %d probe %d: ids diverge at %d: %v vs %v", pass, i, j, got, cold[i])
				}
			}
		}
	}
	st := cc.Snapshot()
	if st.Hits == 0 {
		t.Fatalf("repeated probes should hit the cache: %+v", st)
	}
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cache never filled: %+v", st)
	}

	// Single-cell probes agree too.
	cell, ok := tpi.CellRect(pts[0], 24)
	if !ok {
		t.Fatal("point should be covered")
	}
	if !cell.Contains(pts[0]) {
		t.Fatal("cell does not contain the point")
	}
	ids1 := tpi.LookupArea(cellProbe(cell), 24, nil)
	tpi.SetCache(nil, 0)
	ids2 := tpi.LookupArea(cellProbe(cell), 24, nil)
	if len(ids1) == 0 || !slices.Equal(ids1, ids2) {
		t.Fatalf("cached cell probe %v vs cold %v", ids1, ids2)
	}
}
