package bench

import (
	"io"
	"testing"
)

// tiny is an even smaller scale than Small for the heavier sweeps. Like
// Small, trajectory counts stay well above the codeword budgets and
// lengths exceed the longest TPQ path.
var tiny = Scale{
	PortoTrajs: 80, PortoMinLen: 55, PortoMaxLen: 70,
	GeoLifeTrajs: 12, GeoLifeMinLen: 100, GeoLifeMaxLen: 150,
	SubPortoBases: 12, SubPortoCompress: 20,
	Queries: 60,
	Seed:    1,
}

func rowsFor2(rows []Table2Row, ds DatasetName) map[string]Table2Row {
	out := map[string]Table2Row{}
	for _, r := range rows {
		if r.Dataset == ds {
			out[r.Method] = r
		}
	}
	return out
}

func TestTable2Shapes(t *testing.T) {
	rows := Table2(tiny, io.Discard)
	if len(rows) != 2*len(FixedMethods) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, ds := range []DatasetName{Porto, GeoLife} {
		m := rowsFor2(rows, ds)
		// Headline shape: the CQC variants have recall ≈1 (local search)
		// and beat the non-predictive baselines on MAE by a wide margin.
		// The strict recall-1 guarantee belongs to the error-bounded mode
		// (proven in internal/query's tests); the fixed-budget protocol
		// here has no ε₁ bound, so a stray cold-start/high-speed GeoLife
		// point can exceed any feasible search margin.
		for _, name := range []string{MPPQA, MPPQS} {
			want := 0.999
			if ds == GeoLife {
				want = 0.95
			}
			if m[name].Recall < want {
				t.Errorf("%s/%s recall = %v, want ≥ %v", ds, name, m[name].Recall, want)
			}
		}
		for _, good := range []string{MPPQA, MPPQS} {
			for _, bad := range []string{MQTraj, MPQ, MRQ} {
				if m[good].MAEm >= m[bad].MAEm {
					t.Errorf("%s: %s MAE %v should beat %s MAE %v",
						ds, good, m[good].MAEm, bad, m[bad].MAEm)
				}
			}
		}
		// CQC refinement reduces MAE vs the -basic variants.
		if m[MPPQA].MAEm >= m[MPPQABasic].MAEm {
			t.Errorf("%s: PPQ-A should beat PPQ-A-basic on MAE", ds)
		}
		if m[MPPQS].MAEm >= m[MPPQSBasic].MAEm {
			t.Errorf("%s: PPQ-S should beat PPQ-S-basic on MAE", ds)
		}
	}
	// GeoLife's wide span makes the non-predictive baselines catastrophic
	// (the paper's "×" rows): orders of magnitude worse than PPQ.
	g := rowsFor2(rows, GeoLife)
	if g[MQTraj].MAEm < 20*g[MPPQA].MAEm {
		t.Errorf("Geolife Q-trajectory MAE %v should be ≫ PPQ-A %v",
			g[MQTraj].MAEm, g[MPPQA].MAEm)
	}
}

func TestTable3Shapes(t *testing.T) {
	rows := Table3(tiny, io.Discard)
	// MAE grows (weakly) with path length for the low-accuracy methods,
	// and PPQ-A beats Q-trajectory at every length.
	byKey := map[string]map[int]float64{}
	for _, r := range rows {
		if r.Dataset != Porto {
			continue
		}
		if byKey[r.Method] == nil {
			byKey[r.Method] = map[int]float64{}
		}
		byKey[r.Method][r.L] = r.MAEm
	}
	for _, l := range Table3Lengths {
		if byKey[MPPQA][l] >= byKey[MQTraj][l] {
			t.Errorf("l=%d: PPQ-A %v should beat Q-trajectory %v",
				l, byKey[MPPQA][l], byKey[MQTraj][l])
		}
	}
	if byKey[MQTraj][50] < byKey[MQTraj][10] {
		t.Errorf("Q-trajectory MAE should not shrink with length: %v vs %v",
			byKey[MQTraj][50], byKey[MQTraj][10])
	}
}

func TestTable4Shapes(t *testing.T) {
	s := tiny
	s.Queries = 40
	rows := Table4(s, io.Discard)
	byKey := map[string]map[int]Table4Row{}
	for _, r := range rows {
		if r.Dataset != Porto {
			continue
		}
		if byKey[r.Method] == nil {
			byKey[r.Method] = map[int]Table4Row{}
		}
		byKey[r.Method][r.Bits] = r
	}
	// The PPQ ratio of trajectories visited is small and flat across bits
	// (the CQC-refined reconstruction drives filtering, §6.2.3).
	ppq := byKey[MPPQA]
	for _, bits := range Table4Bits {
		if ppq[bits].Ratio > 0.5 {
			t.Errorf("PPQ-A visited ratio %v too large at %d bits", ppq[bits].Ratio, bits)
		}
	}
	// More bits ⇒ MAE does not increase for the plain quantizers.
	hi, lo := Table4Bits[len(Table4Bits)-1], Table4Bits[0]
	if byKey[MQTraj][hi].MAEm > byKey[MQTraj][lo].MAEm {
		t.Errorf("Q-trajectory MAE should fall with bits: %v vs %v",
			byKey[MQTraj][hi].MAEm, byKey[MQTraj][lo].MAEm)
	}
}

func TestTable56Shapes(t *testing.T) {
	rows := Table56(tiny, io.Discard)
	byKey := map[string]map[float64]Table56Row{}
	for _, r := range rows {
		if r.Dataset != Porto {
			continue
		}
		if byKey[r.Method] == nil {
			byKey[r.Method] = map[float64]Table56Row{}
		}
		byKey[r.Method][r.DevMeters] = r
	}
	// Table 6 shape: codewords shrink as the deviation loosens, and the
	// predictive methods need far fewer codewords than Q-trajectory.
	for _, method := range []string{MPPQA, MPPQS, MQTraj} {
		if byKey[method][1000].Codewords > byKey[method][200].Codewords {
			t.Errorf("%s: codewords should fall with deviation: %d vs %d",
				method, byKey[method][1000].Codewords, byKey[method][200].Codewords)
		}
	}
	for _, dev := range Deviations {
		if byKey[MPPQS][dev].Codewords >= byKey[MQTraj][dev].Codewords {
			t.Errorf("dev %v: PPQ-S codewords %d should be below Q-trajectory %d",
				dev, byKey[MPPQS][dev].Codewords, byKey[MQTraj][dev].Codewords)
		}
	}
	// Figure 9a shape: the -basic variants compress at least as well as
	// their CQC counterparts (CQC costs bits).
	for _, dev := range Deviations {
		if byKey[MPPQSBasic][dev].Ratio < byKey[MPPQS][dev].Ratio*0.9 {
			t.Errorf("dev %v: PPQ-S-basic ratio %v should be ≳ PPQ-S %v",
				dev, byKey[MPPQSBasic][dev].Ratio, byKey[MPPQS][dev].Ratio)
		}
	}
}

func TestTables78Shapes(t *testing.T) {
	rows7 := Table7(tiny, io.Discard)
	byVal := map[float64]TPIStatsRow{}
	for _, r := range rows7 {
		if r.Dataset == Porto {
			byVal[r.Value] = r
		}
	}
	// Higher ε_c tolerance ⇒ no more periods than strict (Table 7 trend).
	if byVal[0.8].Periods > byVal[0.2].Periods {
		t.Errorf("periods should not grow with ε_c: %d vs %d",
			byVal[0.8].Periods, byVal[0.2].Periods)
	}
	rows8 := Table8(tiny, io.Discard)
	byVal8 := map[float64]TPIStatsRow{}
	for _, r := range rows8 {
		if r.Dataset == Porto {
			byVal8[r.Value] = r
		}
	}
	if byVal8[0.8].Periods > byVal8[0.2].Periods {
		t.Errorf("periods should not grow with ε_d: %d vs %d",
			byVal8[0.8].Periods, byVal8[0.2].Periods)
	}
}

func TestTable9Shapes(t *testing.T) {
	s := tiny
	s.Queries = 50
	rows := Table9(s, io.Discard)
	byIdx := map[string]Table9Row{}
	for _, r := range rows {
		if r.Dataset == Porto {
			byIdx[r.Index] = r
		}
	}
	// Table 9 shape: TrajStore pays far more I/Os than TPI (its cells
	// interleave all timestamps); per-tick PI costs the fewest I/Os but
	// builds slower than TPI.
	if byIdx[MTrajStore].IOs <= byIdx["TPI"].IOs {
		t.Errorf("TrajStore I/Os %d should exceed TPI %d",
			byIdx[MTrajStore].IOs, byIdx["TPI"].IOs)
	}
	if byIdx["PI"].IOs > byIdx["TrajStore"].IOs {
		t.Errorf("per-tick PI I/Os %d should be below TrajStore %d",
			byIdx["PI"].IOs, byIdx["TrajStore"].IOs)
	}
	// Per-tick PI rebuilds everything each timestamp, so it is larger than
	// TPI (the deterministic counterpart of the paper's build-time gap —
	// wall-clock at this tiny scale is too noisy to assert on).
	if byIdx["PI"].SizeBytes <= byIdx["TPI"].SizeBytes {
		t.Errorf("per-tick PI size %d should exceed TPI size %d",
			byIdx["PI"].SizeBytes, byIdx["TPI"].SizeBytes)
	}
}

func TestFigure7And8Shapes(t *testing.T) {
	rows := Figure7(tiny, io.Discard)
	// Looser ε_p ⇒ fewer partitions (max q monotone non-increasing).
	byKey := map[string][]Figure7Row{}
	for _, r := range rows {
		k := r.Method + string(r.Dataset)
		byKey[k] = append(byKey[k], r)
	}
	for k, rs := range byKey {
		for i := 1; i < len(rs); i++ {
			if rs[i].MaxQ > rs[i-1].MaxQ {
				t.Errorf("%s: max q should fall as ε_p loosens: %v", k, rs)
			}
		}
	}
	f8 := Figure8(tiny, io.Discard)
	if len(f8) == 0 {
		t.Fatal("no Figure 8 rows")
	}
	for _, r := range f8 {
		if len(r.Q) == 0 || r.MaxQ < 1 {
			t.Errorf("empty q series for %s/%s ε_p=%v", r.Method, r.Dataset, r.EpsP)
		}
	}
}

func TestFigure9Shapes(t *testing.T) {
	t56 := Table56(tiny, io.Discard)
	rows := Figure9(tiny, io.Discard, t56)
	sub := map[string]map[float64]float64{}
	for _, r := range rows {
		if r.Dataset != "sub-Porto" {
			continue
		}
		if sub[r.Method] == nil {
			sub[r.Method] = map[float64]float64{}
		}
		sub[r.Method][r.DevMeters] = r.Ratio
	}
	if len(sub[MREST]) != len(Deviations) {
		t.Fatal("REST rows missing")
	}
	// Figure 9c shape: at tight deviations the PPQ-basic variants stay in
	// REST's range. The paper's 2× PPQ advantage emerges at scale — PPQ's
	// per-tick coefficient overhead amortizes over the compress-set size
	// (2,000 trajectories in the paper, 20 here), so at this tiny scale we
	// only require the same order of magnitude; the recorded full-scale
	// run (EXPERIMENTS.md) shows the crossover.
	if sub[MPPQSBasic][200] < 0.5*sub[MREST][200] {
		t.Errorf("PPQ-S-basic ratio %v should be ≥ 0.5× REST %v at 200 m",
			sub[MPPQSBasic][200], sub[MREST][200])
	}
	for _, m := range []string{MPPQA, MPPQS, MREST} {
		for _, dev := range Deviations {
			if sub[m][dev] <= 0 {
				t.Errorf("%s ratio at %v m is %v", m, dev, sub[m][dev])
			}
		}
	}
}

func TestAblationShapes(t *testing.T) {
	rows := Ablations(tiny, io.Discard)
	get := func(name, metric string) AblationRow {
		for _, r := range rows {
			if r.Name == name && r.Metric == metric {
				return r
			}
		}
		t.Fatalf("missing ablation %s/%s", name, metric)
		return AblationRow{}
	}
	// Prediction shrinks the codebook.
	if p := get("prediction (E-PQ vs Q-traj)", "codewords"); p.With >= p.Without {
		t.Errorf("prediction should shrink the codebook: %v vs %v", p.With, p.Without)
	}
	// CQC reduces MAE at the cost of a larger summary.
	if c := get("CQC (PPQ-S vs -basic)", "MAE (m)"); c.With >= c.Without {
		t.Errorf("CQC should reduce MAE: %v vs %v", c.With, c.Without)
	}
	if c := get("CQC (PPQ-S vs -basic)", "size (KB)"); c.With <= c.Without {
		t.Errorf("CQC costs bits: %v vs %v", c.With, c.Without)
	}
	// Incremental partitioning creates far fewer partitions than
	// re-partitioning from scratch every tick.
	if p := get("incremental partitioning", "partitions built"); p.With >= p.Without {
		t.Errorf("incremental partitioning should reuse: %v vs %v", p.With, p.Without)
	}
}
