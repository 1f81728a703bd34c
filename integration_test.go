package ppqtraj

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ppqtraj/internal/core"
	"ppqtraj/internal/gen"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/query"
	"ppqtraj/internal/traj"
)

// TestEndToEndDeterminism: identical seeds produce byte-identical
// summaries and identical query answers.
func TestEndToEndDeterminism(t *testing.T) {
	build := func() (*Summary, *Dataset) {
		d := SyntheticPorto(40, 123)
		return BuildSummary(d, DefaultConfig()), d
	}
	s1, d1 := build()
	s2, _ := build()
	if s1.SizeBytes() != s2.SizeBytes() || s1.MAEMeters() != s2.MAEMeters() ||
		s1.NumCodewords() != s2.NumCodewords() {
		t.Fatal("same seed must give identical summaries")
	}
	for id := ID(0); id < ID(d1.Len()); id++ {
		p1 := s1.ReconstructPath(id, 0, 1000)
		p2 := s2.ReconstructPath(id, 0, 1000)
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatal("reconstructions diverge across identical builds")
			}
		}
	}
}

// TestCSVRoundTripThroughPipeline: a dataset survives CSV export/import
// and produces the same summary.
func TestCSVRoundTripThroughPipeline(t *testing.T) {
	d := SyntheticPorto(15, 9)
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "traj_id,tick,x,y")
	for _, tr := range d.All() {
		for i, p := range tr.Points {
			fmt.Fprintf(&buf, "%d,%d,%v,%v\n", tr.ID, tr.Start+i, p.X, p.Y)
		}
	}
	d2, err := traj.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s1 := BuildSummary(d, DefaultConfig())
	s2 := BuildSummary(d2, DefaultConfig())
	if s1.MAEMeters() != s2.MAEMeters() || s1.SizeBytes() != s2.SizeBytes() {
		t.Fatal("CSV round trip changed the build")
	}
}

// TestRecallOracleAcrossModes: the error-bounded engine keeps the
// recall-1 guarantee in all three partitioning modes.
func TestRecallOracleAcrossModes(t *testing.T) {
	d := gen.Porto(gen.Config{NumTrajectories: 30, MinLen: 40, MaxLen: 60, Seed: 4})
	for _, mode := range []partition.Mode{partition.Spatial, partition.Autocorr, partition.None} {
		opts := core.DefaultOptions(mode, 0.1)
		if mode == partition.Autocorr {
			opts.EpsilonP = 0.2
		}
		sum := core.Build(d, opts)
		eng, err := query.BuildEngine(sum, index.Options{
			EpsS: 0.1, GC: geo.MetersToDegrees(100), EpsC: 0.5, EpsD: 0.5, Seed: 5,
		}, d)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		checked := 0
		for q := 0; q < 150 && checked < 80; q++ {
			tr := d.Get(traj.ID(rng.Intn(d.Len())))
			tick := tr.Start + rng.Intn(tr.Len())
			qp, _ := tr.At(tick)
			res, _ := eng.STRQ(context.Background(), qp, tick, false, nil)
			if !res.Covered {
				continue
			}
			checked++
			want := query.GroundTruth(d, res.Cell, tick)
			_, recall := query.PrecisionRecall(res.IDs, want)
			if recall < 1 {
				t.Fatalf("mode %v: recall %v < 1", mode, recall)
			}
		}
		if checked == 0 {
			t.Fatalf("mode %v: no covered queries", mode)
		}
	}
}

// TestNonFinitePositionRejected: corrupt input fails loudly, not
// silently.
func TestNonFinitePositionRejected(t *testing.T) {
	sb := NewStreamBuilder(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on NaN position")
		}
	}()
	_ = sb.Append(0, []ID{0}, []Point{Pt(math.NaN(), 1)})
}

// TestSummaryDeviationBoundProperty: for random small streams, every
// reconstruction respects the Lemma 3 bound — the core end-to-end
// invariant, fuzzed.
func TestSummaryDeviationBoundProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		trajs := int(n%16) + 3
		d := gen.Porto(gen.Config{NumTrajectories: trajs, MinLen: 10, MaxLen: 25, Seed: seed})
		sum := BuildSummary(d, DefaultConfig())
		bound := MetersToDegrees(sum.MaxDeviationMeters()) + 1e-12
		for _, tr := range d.All() {
			for i, p := range tr.Points {
				rp, ok := sum.Reconstruct(tr.ID, tr.Start+i)
				if !ok || p.Dist(rp) > bound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamEquivalentToBatch: feeding columns one at a time through the
// stream builder produces the identical summary to the batch Build.
func TestStreamEquivalentToBatch(t *testing.T) {
	d := SyntheticPorto(20, 77)
	batch := BuildSummary(d, DefaultConfig())
	sb := NewStreamBuilder(DefaultConfig())
	for tick := 0; tick < d.MaxTick(); tick++ {
		var ids []ID
		var pos []Point
		for _, tr := range d.All() {
			if p, ok := tr.At(tick); ok {
				ids = append(ids, tr.ID)
				pos = append(pos, p)
			}
		}
		if len(ids) == 0 {
			continue
		}
		if err := sb.Append(tick, ids, pos); err != nil {
			t.Fatal(err)
		}
	}
	stream := sb.Summary()
	if batch.MAEMeters() != stream.MAEMeters() || batch.SizeBytes() != stream.SizeBytes() {
		t.Fatalf("stream and batch builds diverge: %v/%v vs %v/%v",
			batch.MAEMeters(), batch.SizeBytes(), stream.MAEMeters(), stream.SizeBytes())
	}
}

// TestPathQueryMatchesReconstruct: TPQ paths are exactly the summary's
// reconstructions over the window.
func TestPathQueryMatchesReconstruct(t *testing.T) {
	d := SyntheticPorto(25, 88)
	sum := BuildSummary(d, DefaultConfig())
	eng, err := NewEngine(sum, DefaultIndexConfig(), d)
	if err != nil {
		t.Fatal(err)
	}
	tr := d.Get(5)
	tick := tr.Start + 10
	qp, _ := tr.At(tick)
	res := eng.PathQuery(qp, tick, 8)
	for id, path := range res.Paths {
		want := sum.ReconstructPath(id, tick, 8)
		if len(path) != len(want) {
			t.Fatal("path length mismatch")
		}
		for i := range path {
			if path[i] != want[i] {
				t.Fatal("TPQ path differs from direct reconstruction")
			}
		}
	}
}
