package trajstore

import (
	"math/rand"
	"testing"

	"ppqtraj/internal/gen"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/store"
	"ppqtraj/internal/traj"
)

func region() geo.Rect { return geo.NewRect(0, 0, 100, 100) }

func TestNewPanicsOnEmptyRegion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Options{})
}

func TestSplitOnOverflow(t *testing.T) {
	s := New(Options{Region: region(), MaxPointsPerCell: 10, MinPointsPerCell: 1})
	rng := rand.New(rand.NewSource(1))
	ids := make([]traj.ID, 50)
	pts := make([]geo.Point, 50)
	for i := range pts {
		ids[i] = traj.ID(i)
		pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	s.Append(ids, pts, 0)
	if s.Stats().Splits == 0 {
		t.Fatal("50 points with a 10-point cap must split")
	}
	if len(s.leaves()) < 4 {
		t.Fatalf("leaf cells = %d", len(s.leaves()))
	}
	if s.NumPoints() != 50 {
		t.Fatalf("NumPoints = %d", s.NumPoints())
	}
}

func TestMergeSparseSiblings(t *testing.T) {
	s := New(Options{Region: region(), MaxPointsPerCell: 4, MinPointsPerCell: 3})
	// Force a split with clustered points...
	ids := []traj.ID{0, 1, 2, 3, 4}
	pts := []geo.Point{
		geo.Pt(10, 10), geo.Pt(12, 12), geo.Pt(90, 90), geo.Pt(88, 88), geo.Pt(50, 50),
	}
	s.Append(ids, pts, 0)
	// The merge pass runs per Append; with few points and MinPointsPerCell
	// 3, deep sparse sibling groups collapse back.
	if s.Stats().Splits > 0 && s.Stats().Merges == 0 {
		// Merging is opportunistic; at minimum the tree must stay
		// consistent (all points findable).
		for i, p := range pts {
			found := false
			for _, id := range s.Lookup(p, 0, nil) {
				if id == ids[i] {
					found = true
				}
			}
			if !found {
				t.Fatalf("point %d lost after split/merge", i)
			}
		}
	}
}

func TestLookupFiltersByTick(t *testing.T) {
	s := New(Options{Region: region(), MaxPointsPerCell: 100})
	s.Append([]traj.ID{1}, []geo.Point{geo.Pt(10, 10)}, 0)
	s.Append([]traj.ID{2}, []geo.Point{geo.Pt(10, 10)}, 1)
	got := s.Lookup(geo.Pt(10, 10), 0, nil)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("tick 0 lookup = %v", got)
	}
	got = s.Lookup(geo.Pt(10, 10), 1, nil)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("tick 1 lookup = %v", got)
	}
}

func TestClampKeepsOutOfRegionPoints(t *testing.T) {
	s := New(Options{Region: region(), MaxPointsPerCell: 100})
	s.Append([]traj.ID{7}, []geo.Point{geo.Pt(-50, 500)}, 0)
	if s.NumPoints() != 1 {
		t.Fatal("clamped point lost")
	}
	got := s.Lookup(geo.Pt(-50, 500), 0, nil)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("lookup = %v", got)
	}
}

func TestCompressFixedProportionalBudget(t *testing.T) {
	d := gen.Porto(gen.Config{NumTrajectories: 15, MinLen: 30, MaxLen: 50, Seed: 2})
	s := New(Options{Region: gen.PortoRegion.Expand(0.01), MaxPointsPerCell: 64})
	_ = d.Stream(func(col *traj.Column) error {
		s.Append(col.IDs, col.Points, col.Tick)
		return nil
	})
	f, used, err := s.CompressFixed(128, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumPoints != d.NumPoints() {
		t.Fatalf("NumPoints = %d, want %d", f.NumPoints, d.NumPoints())
	}
	if used == 0 || used > 128+len(s.leaves()) {
		t.Fatalf("codewords used = %d", used)
	}
	if f.MAE() <= 0 {
		t.Fatal("MAE should be positive")
	}
}

func TestCompressBoundedRespectsEps(t *testing.T) {
	d := gen.Porto(gen.Config{NumTrajectories: 10, MinLen: 30, MaxLen: 40, Seed: 4})
	s := New(Options{Region: gen.PortoRegion.Expand(0.01), MaxPointsPerCell: 64})
	_ = d.Stream(func(col *traj.Column) error {
		s.Append(col.IDs, col.Points, col.Tick)
		return nil
	})
	eps := geo.MetersToDegrees(300)
	f, words, err := s.CompressBounded(eps, false)
	if err != nil {
		t.Fatal(err)
	}
	if f.MaxDeviation() > eps+1e-12 {
		t.Fatalf("max deviation %v > eps", f.MaxDeviation())
	}
	if words == 0 {
		t.Fatal("no codewords")
	}
}

func TestDiskLayoutTimeInterleavingCostsIOs(t *testing.T) {
	// The Table 9 effect: one cell holds many ticks, so a single query
	// reads all of the cell's pages.
	s := New(Options{Region: region(), MaxPointsPerCell: 1 << 20}) // never split
	ids := []traj.ID{0, 1, 2, 3}
	for tick := 0; tick < 2000; tick++ {
		pts := []geo.Point{geo.Pt(10, 10), geo.Pt(11, 11), geo.Pt(12, 12), geo.Pt(13, 13)}
		s.Append(ids, pts, tick)
	}
	ps := store.New(4096)
	s.AssignPages(ps)
	s.Lookup(geo.Pt(10, 10), 1000, ps.BeginRead())
	// 8000 entries * 20 B = 160 kB / 4 kB pages = ~40 pages for one query.
	if ps.Reads() < 10 {
		t.Fatalf("expected a multi-page fetch, got %d", ps.Reads())
	}
}

func TestSizeBytesGrowsWithData(t *testing.T) {
	s := New(Options{Region: region(), MaxPointsPerCell: 100})
	before := s.SizeBytes()
	ids := make([]traj.ID, 100)
	pts := make([]geo.Point, 100)
	rng := rand.New(rand.NewSource(5))
	for i := range pts {
		ids[i] = traj.ID(i)
		pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	s.Append(ids, pts, 0)
	if s.SizeBytes() <= before {
		t.Fatal("size should grow with data")
	}
}

func TestCellRectContainsQuery(t *testing.T) {
	s := New(Options{Region: region(), MaxPointsPerCell: 4})
	rng := rand.New(rand.NewSource(6))
	var ids []traj.ID
	var pts []geo.Point
	for i := 0; i < 100; i++ {
		ids = append(ids, traj.ID(i))
		pts = append(pts, geo.Pt(rng.Float64()*100, rng.Float64()*100))
	}
	s.Append(ids, pts, 0)
	for i := 0; i < 20; i++ {
		q := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		r := s.CellRect(q)
		if q.X < r.MinX || q.X > r.MaxX || q.Y < r.MinY || q.Y > r.MaxY {
			t.Fatalf("cell %v does not contain query %v", r, q)
		}
	}
}

func TestAllPointsSurviveMaintenance(t *testing.T) {
	// Property: regardless of split/merge churn, every inserted point is
	// findable at its tick.
	rng := rand.New(rand.NewSource(7))
	s := New(Options{Region: region(), MaxPointsPerCell: 8, MinPointsPerCell: 4})
	type key struct {
		id   traj.ID
		tick int
	}
	positions := map[key]geo.Point{}
	for tick := 0; tick < 10; tick++ {
		n := 30
		ids := make([]traj.ID, n)
		pts := make([]geo.Point, n)
		for i := 0; i < n; i++ {
			ids[i] = traj.ID(i)
			pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
			positions[key{ids[i], tick}] = pts[i]
		}
		s.Append(ids, pts, tick)
	}
	for k, p := range positions {
		found := false
		for _, id := range s.Lookup(p, k.tick, nil) {
			if id == k.id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("point %v lost", k)
		}
	}
}
