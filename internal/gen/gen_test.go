package gen

import (
	"math"
	"testing"

	"ppqtraj/internal/geo"
)

func TestPortoShape(t *testing.T) {
	d := Porto(Config{NumTrajectories: 50, MinLen: 30, MaxLen: 100, Seed: 1})
	if d.Len() != 50 {
		t.Fatalf("Len = %d", d.Len())
	}
	for _, tr := range d.All() {
		if tr.Len() < 30 || tr.Len() > 100 {
			t.Fatalf("trajectory length %d outside [30,100]", tr.Len())
		}
		for _, p := range tr.Points {
			if !p.IsFinite() {
				t.Fatal("non-finite point")
			}
		}
	}
	// GPS jitter can poke slightly outside; allow a small margin.
	r := d.BoundingRect()
	margin := geo.MetersToDegrees(50)
	if r.MinX < PortoRegion.MinX-margin || r.MaxX > PortoRegion.MaxX+margin ||
		r.MinY < PortoRegion.MinY-margin || r.MaxY > PortoRegion.MaxY+margin {
		t.Fatalf("porto data escapes region: %v vs %v", r, PortoRegion)
	}
}

func TestPortoDeterministic(t *testing.T) {
	a := Porto(Config{NumTrajectories: 5, Seed: 7})
	b := Porto(Config{NumTrajectories: 5, Seed: 7})
	for i := range a.All() {
		ta, tb := a.Get(uint32(i)), b.Get(uint32(i))
		if ta.Len() != tb.Len() {
			t.Fatal("lengths differ across identical seeds")
		}
		for j := range ta.Points {
			if ta.Points[j] != tb.Points[j] {
				t.Fatal("points differ across identical seeds")
			}
		}
	}
	c := Porto(Config{NumTrajectories: 5, Seed: 8})
	if c.Get(0).Points[5] == a.Get(0).Points[5] {
		t.Fatal("different seeds should give different data")
	}
}

func TestPortoSpeedsArePlausible(t *testing.T) {
	d := Porto(Config{NumTrajectories: 20, MinLen: 100, MaxLen: 100, Seed: 2})
	var sum float64
	var n int
	for _, tr := range d.All() {
		for i := 1; i < tr.Len(); i++ {
			stepM := geo.DegreesToMeters(tr.Points[i].Dist(tr.Points[i-1]))
			sum += stepM
			n++
			// 15 s at 150 km/h = 625 m; taxi should stay well below.
			if stepM > 700 {
				t.Fatalf("implausible step %v m", stepM)
			}
		}
	}
	mean := sum / float64(n)
	// 25–55 km/h → 104–229 m per 15 s tick.
	if mean < 40 || mean > 300 {
		t.Fatalf("mean step %v m outside plausible taxi range", mean)
	}
}

func TestPortoIsAutocorrelated(t *testing.T) {
	// The predictive quantizer exploits lag correlation; verify the
	// generator actually produces strongly autocorrelated coordinates.
	d := Porto(Config{NumTrajectories: 5, MinLen: 150, MaxLen: 150, Seed: 3})
	for _, tr := range d.All() {
		var mean float64
		for _, p := range tr.Points {
			mean += p.X / float64(tr.Len())
		}
		// Sample autocovariances at lags 0 and 1 (the common 1/n cancels).
		var g0, g1 float64
		for i, p := range tr.Points {
			g0 += (p.X - mean) * (p.X - mean)
			if i > 0 {
				g1 += (p.X - mean) * (tr.Points[i-1].X - mean)
			}
		}
		if g0 <= 0 {
			continue // stationary trajectory; skip
		}
		rho := g1 / g0
		if rho < 0.8 {
			t.Fatalf("lag-1 autocorrelation %v too weak for a moving vehicle", rho)
		}
	}
}

func TestGeoLifeShape(t *testing.T) {
	d := GeoLife(Config{NumTrajectories: 10, MinLen: 200, MaxLen: 500, Seed: 4})
	if d.Len() != 10 {
		t.Fatalf("Len = %d", d.Len())
	}
	for _, tr := range d.All() {
		if tr.Len() < 200 || tr.Len() > 500 {
			t.Fatalf("length %d outside bounds", tr.Len())
		}
	}
	// GeoLife's defining property: a much larger spatial span than Porto.
	span := d.BoundingRect()
	if span.Width() < 3*PortoRegion.Width() {
		t.Fatalf("GeoLife span %v not much larger than Porto %v", span.Width(), PortoRegion.Width())
	}
}

func TestGeoLifeHorizonSpreadsStarts(t *testing.T) {
	d := GeoLife(Config{NumTrajectories: 20, MinLen: 50, MaxLen: 60, Horizon: 100, Seed: 5})
	starts := map[int]bool{}
	for _, tr := range d.All() {
		if tr.Start < 0 || tr.Start >= 100 {
			t.Fatalf("start %d outside horizon", tr.Start)
		}
		starts[tr.Start] = true
	}
	if len(starts) < 5 {
		t.Fatal("starts should be spread across the horizon")
	}
}

func TestSubPortoConstruction(t *testing.T) {
	sp := NewSubPorto(20, 10, 6)
	// 20 bases × (1 + 4 variants) = 100 total.
	total := sp.Reference.Len() + sp.Compress.Len()
	if total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
	if sp.Compress.Len() != 10 {
		t.Fatalf("compress set = %d, want 10", sp.Compress.Len())
	}
	for _, tr := range sp.Compress.All() {
		if tr.Len() < 2 {
			t.Fatal("degenerate compression trajectory")
		}
	}
}

func TestVariantStaysClose(t *testing.T) {
	// A variant follows its base's route, so near the start (before the
	// down-sampling time warp accumulates) some reference trajectory is
	// spatially close to each compress trajectory — REST matching depends
	// on this.
	sp := NewSubPorto(30, 5, 9)
	const prefix = 8
	found := 0
	for _, c := range sp.Compress.All() {
		best := math.Inf(1)
		for _, r := range sp.Reference.All() {
			n := prefix
			if c.Len() < n {
				n = c.Len()
			}
			if r.Len() < n {
				n = r.Len()
			}
			var s float64
			for i := 0; i < n; i++ {
				s += c.Points[i].Dist(r.Points[i])
			}
			if d := s / float64(n); d < best {
				best = d
			}
		}
		if geo.DegreesToMeters(best) < 400 {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no compress trajectory starts near a reference — REST would have nothing to match")
	}
}

func TestDegPerTick(t *testing.T) {
	// 111 km/h over 15 s is 462.5 m ≈ 0.004166°.
	got := degPerTick(111)
	if math.Abs(got-15.0/3600) > 1e-12 {
		t.Fatalf("degPerTick(111) = %v", got)
	}
}
