package core

import (
	"math"
	"testing"

	"ppqtraj/internal/gen"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/traj"
)

func smallPorto(t testing.TB) *traj.Dataset {
	t.Helper()
	return gen.Porto(gen.Config{NumTrajectories: 30, MinLen: 40, MaxLen: 80, Seed: 1})
}

func optsPPQS() Options {
	return DefaultOptions(partition.Spatial, 0.1)
}

func TestBuildProducesBoundedSummary(t *testing.T) {
	d := smallPorto(t)
	s := Build(d, optsPPQS())
	if s.NumPoints != d.NumPoints() {
		t.Fatalf("NumPoints = %d, want %d", s.NumPoints, d.NumPoints())
	}
	// With CQC the deviation of every reconstructed point is bounded by
	// Lemma 3: (√2/2)·g_s.
	bound := s.Coder.MaxDeviation() + 1e-12
	for _, tr := range d.All() {
		ts := s.Trajs[tr.ID]
		if ts == nil {
			t.Fatalf("trajectory %d missing from summary", tr.ID)
		}
		for i, p := range tr.Points {
			if dev := p.Dist(ts.Recon[i]); dev > bound {
				t.Fatalf("traj %d point %d deviation %v > Lemma 3 bound %v",
					tr.ID, i, dev, bound)
			}
		}
	}
}

func TestBuildWithoutCQCRespectsEpsilon1(t *testing.T) {
	d := smallPorto(t)
	opts := optsPPQS()
	opts.UseCQC = false
	s := Build(d, opts)
	for _, tr := range d.All() {
		ts := s.Trajs[tr.ID]
		for i, p := range tr.Points {
			if dev := p.Dist(ts.Recon[i]); dev > opts.Epsilon1+1e-12 {
				t.Fatalf("deviation %v > ε₁ %v", dev, opts.Epsilon1)
			}
		}
	}
}

func TestDecodeMatchesBuilderCache(t *testing.T) {
	// The decode path must reproduce the builder's reconstructions exactly
	// from the stored parameters alone — the summary is self-contained.
	d := smallPorto(t)
	for _, mode := range []partition.Mode{partition.Spatial, partition.Autocorr, partition.None} {
		opts := optsPPQS()
		opts.Mode = mode
		if mode == partition.Autocorr {
			opts.EpsilonP = 0.01
		}
		s := Build(d, opts)
		for _, tr := range d.All() {
			dec, err := s.Decode(tr.ID)
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			ts := s.Trajs[tr.ID]
			if len(dec) != len(ts.Recon) {
				t.Fatalf("mode %v: decode length %d vs %d", mode, len(dec), len(ts.Recon))
			}
			for i := range dec {
				if dec[i] != ts.Recon[i] {
					t.Fatalf("mode %v traj %d point %d: decode %v != cache %v",
						mode, tr.ID, i, dec[i], ts.Recon[i])
				}
			}
		}
	}
}

func TestDecodeUnknownTrajectory(t *testing.T) {
	s := Build(smallPorto(t), optsPPQS())
	if _, err := s.Decode(9999); err == nil {
		t.Fatal("expected error for unknown trajectory")
	}
}

func TestPredictionShrinksCodebook(t *testing.T) {
	// The premise of E-PQ: prediction errors quantize into far fewer
	// codewords than raw positions at the same ε₁ (Table 6's gap between
	// PPQ and Q-trajectory).
	d := smallPorto(t)
	withPred := Build(d, optsPPQS())
	noPred := func() Options {
		o := optsPPQS()
		o.NoPrediction = true
		o.UseCQC = false
		return o
	}()
	qTraj := Build(d, noPred)
	if withPred.NumCodewords() >= qTraj.NumCodewords() {
		t.Fatalf("prediction should shrink the codebook: %d vs %d",
			withPred.NumCodewords(), qTraj.NumCodewords())
	}
}

func TestCQCImprovesMAE(t *testing.T) {
	d := smallPorto(t)
	withCQC := Build(d, optsPPQS())
	basic := func() Options {
		o := optsPPQS()
		o.UseCQC = false
		return o
	}()
	noCQC := Build(d, basic)
	if withCQC.MAE() >= noCQC.MAE() {
		t.Fatalf("CQC should reduce MAE: %v vs %v", withCQC.MAE(), noCQC.MAE())
	}
}

func TestMAEMetersConversion(t *testing.T) {
	s := Build(smallPorto(t), optsPPQS())
	if math.Abs(s.MAEMeters()-geo.DegreesToMeters(s.MAE())) > 1e-9 {
		t.Fatal("MAEMeters inconsistent with MAE")
	}
	if s.MAEMeters() <= 0 || s.MAEMeters() > geo.DegreesToMeters(s.Coder.MaxDeviation()) {
		t.Fatalf("MAE %v m outside (0, Lemma-3 bound]", s.MAEMeters())
	}
}

func TestEPQSinglePartition(t *testing.T) {
	d := smallPorto(t)
	opts := optsPPQS()
	opts.Mode = partition.None
	s := Build(d, opts)
	for _, q := range s.QHistory {
		if q != 1 {
			t.Fatalf("E-PQ must keep exactly one partition, saw q=%d", q)
		}
	}
}

func TestPPQPartitionCountsRecorded(t *testing.T) {
	d := smallPorto(t)
	opts := optsPPQS()
	opts.EpsilonP = 0.01 // tight: force multiple partitions
	s := Build(d, opts)
	if len(s.QHistory) == 0 {
		t.Fatal("QHistory empty")
	}
	maxQ := 0
	for _, q := range s.QHistory {
		if q > maxQ {
			maxQ = q
		}
	}
	if maxQ < 2 {
		t.Fatalf("tight ε_p should produce multiple partitions, max q = %d", maxQ)
	}
}

func TestSizeAccountingAndCompressionRatio(t *testing.T) {
	d := smallPorto(t)
	s := Build(d, optsPPQS())
	sz := s.SizeBytes()
	if sz <= 0 {
		t.Fatal("non-positive summary size")
	}
	ratio := s.CompressionRatio(d.RawBytes())
	if ratio <= 1 {
		t.Fatalf("summary should compress (ratio %v)", ratio)
	}
	// Dropping CQC must shrink the summary (Figure 9: -basic variants
	// compress slightly better).
	basicOpts := optsPPQS()
	basicOpts.UseCQC = false
	basic := Build(d, basicOpts)
	if basic.SizeBytes() >= sz {
		t.Fatalf("-basic summary (%d B) should be smaller than CQC summary (%d B)",
			basic.SizeBytes(), sz)
	}
}

func TestFixedWordsMode(t *testing.T) {
	d := smallPorto(t)
	opts := optsPPQS()
	opts.FixedWords = 32
	opts.Epsilon1 = 0 // fixed mode needs no bound
	s := Build(d, opts)
	// Every tick with data must carry its own codebook of ≤ 32 words.
	for _, tick := range s.SortedTicks() {
		ts := s.Ticks[tick]
		if ts.Book == nil {
			t.Fatalf("tick %d missing codebook", tick)
		}
		if ts.Book.Len() > 32 {
			t.Fatalf("tick %d codebook %d > budget", tick, ts.Book.Len())
		}
	}
	// Decode must still work in fixed mode.
	dec, err := s.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != d.Get(0).Len() {
		t.Fatal("wrong decode length")
	}
}

func TestFixedWordsMoreBitsLowerMAE(t *testing.T) {
	d := smallPorto(t)
	mae := func(words int) float64 {
		opts := optsPPQS()
		opts.FixedWords = words
		opts.Epsilon1 = 0
		opts.UseCQC = false
		return Build(d, opts).MAE()
	}
	coarse, fine := mae(8), mae(128)
	if fine >= coarse {
		t.Fatalf("128 words should beat 8: %v vs %v", fine, coarse)
	}
}

func TestReconstructPathClipsRange(t *testing.T) {
	d := smallPorto(t)
	s := Build(d, optsPPQS())
	tr := d.Get(0)
	path := s.ReconstructPath(0, tr.Start, 10)
	if len(path) != 10 {
		t.Fatalf("path length %d", len(path))
	}
	// Beyond the end: clipped.
	path = s.ReconstructPath(0, tr.End()-3, 10)
	if len(path) != 3 {
		t.Fatalf("clipped path length %d", len(path))
	}
	if s.ReconstructPath(0, tr.End()+5, 10) != nil {
		t.Fatal("fully out-of-range path should be nil")
	}
	if s.ReconstructPath(9999, 0, 5) != nil {
		t.Fatal("unknown id should give nil")
	}
}

func TestReconstructedPoint(t *testing.T) {
	d := smallPorto(t)
	s := Build(d, optsPPQS())
	tr := d.Get(3)
	p, ok := s.ReconstructedPoint(3, tr.Start+5)
	if !ok {
		t.Fatal("point should exist")
	}
	if orig, _ := tr.At(tr.Start + 5); p.Dist(orig) > s.Coder.MaxDeviation()+1e-12 {
		t.Fatal("reconstructed point too far from original")
	}
	if _, ok := s.ReconstructedPoint(3, tr.End()); ok {
		t.Fatal("past-the-end point should not exist")
	}
}

func TestStaggeredStartsHandled(t *testing.T) {
	d := gen.Porto(gen.Config{NumTrajectories: 20, MinLen: 30, MaxLen: 60, Horizon: 50, Seed: 2})
	s := Build(d, optsPPQS())
	bound := s.Coder.MaxDeviation() + 1e-12
	for _, tr := range d.All() {
		ts := s.Trajs[tr.ID]
		if ts.Start != tr.Start {
			t.Fatalf("start mismatch: %d vs %d", ts.Start, tr.Start)
		}
		for i, p := range tr.Points {
			if p.Dist(ts.Recon[i]) > bound {
				t.Fatal("bound violated for staggered stream")
			}
		}
		dec, err := s.Decode(tr.ID)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dec {
			if dec[i] != ts.Recon[i] {
				t.Fatal("decode mismatch for staggered stream")
			}
		}
	}
}

func TestBuilderPanicsOnBadOptions(t *testing.T) {
	for name, opts := range map[string]Options{
		"cqc without gs": {Epsilon1: 0.001, UseCQC: true},
		"no epsilon":     {UseCQC: false},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewBuilder(opts)
		}()
	}
}

func TestQTrajectoryMAEMuchWorse(t *testing.T) {
	// Large-span data (GeoLife-like) with a fixed codeword budget: the
	// non-predictive baseline's MAE must be far larger — the Table 2
	// headline effect.
	d := gen.GeoLife(gen.Config{NumTrajectories: 8, MinLen: 100, MaxLen: 150, Seed: 3})
	ppq := func() Options {
		o := DefaultOptions(partition.Spatial, 5)
		o.FixedWords = 32
		o.Epsilon1 = 0
		o.UseCQC = false
		return o
	}()
	qtr := ppq
	qtr.NoPrediction = true
	ppqMAE := Build(d, ppq).MAE()
	qMAE := Build(d, qtr).MAE()
	if qMAE < 3*ppqMAE {
		t.Fatalf("Q-trajectory should be much worse on wide-span data: %v vs %v", qMAE, ppqMAE)
	}
}

func TestBuildTimesRecorded(t *testing.T) {
	s := Build(smallPorto(t), optsPPQS())
	if s.BuildTime <= 0 {
		t.Fatal("BuildTime not recorded")
	}
	if s.PartitionTime <= 0 || s.PartitionTime > s.BuildTime {
		t.Fatalf("PartitionTime %v implausible vs BuildTime %v", s.PartitionTime, s.BuildTime)
	}
}

// BenchmarkBuildPPQS times a whole PPQ-S build and reports its
// throughput in indexed points per second.
func BenchmarkBuildPPQS(b *testing.B) {
	d := gen.Porto(gen.Config{NumTrajectories: 50, MinLen: 50, MaxLen: 100, Seed: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(d, optsPPQS())
	}
	b.ReportMetric(float64(b.N)*float64(d.NumPoints())/b.Elapsed().Seconds(), "pts/s")
}
