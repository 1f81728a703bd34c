package bench

import (
	"io"

	"ppqtraj/internal/core"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/traj"
)

// AblationRow quantifies the effect of one design choice.
type AblationRow struct {
	Name    string
	Metric  string
	With    float64
	Without float64
}

// Ablations isolates the design choices DESIGN.md calls out, each on the
// Porto workload with the default ε₁:
//
//   - prediction (E-PQ vs Q-trajectory): codebook size
//   - partitioning (PPQ-S vs E-PQ): summary MAE under a shared codebook
//   - CQC (PPQ-S vs PPQ-S-basic): MAE and summary size
//   - incremental temporal partitioning vs from-scratch: partitions created
func Ablations(s Scale, w io.Writer) []AblationRow {
	d := s.Data(Porto)
	var rows []AblationRow
	emit := func(name, metric string, with, without float64) {
		rows = append(rows, AblationRow{Name: name, Metric: metric, With: with, Without: without})
		fprintf(w, "  %-28s %-18s with: %12.2f   without: %12.2f\n", name, metric, with, without)
	}
	fprintf(w, "== Ablations (Porto, default ε₁) ==\n")

	// Prediction: codebook size at the same ε₁.
	epq := core.Build(d, core.Options{K: 3, Epsilon1: 0.001, Mode: partition.None, Seed: 7})
	qtr := core.Build(d, core.Options{K: 3, Epsilon1: 0.001, Mode: partition.None, NoPrediction: true, Seed: 7})
	emit("prediction (E-PQ vs Q-traj)", "codewords", float64(epq.NumCodewords()), float64(qtr.NumCodewords()))

	// Partitioning: MAE of PPQ-S vs E-PQ without CQC (prediction quality).
	ppqsBasic := core.Build(d, core.Options{K: 3, Epsilon1: 0.001, Mode: partition.Spatial, EpsilonP: 0.1, Seed: 7})
	emit("partitioning (PPQ-S vs E-PQ)", "MAE (m)", ppqsBasic.MAEMeters(), epq.MAEMeters())

	// CQC: MAE and size.
	ppqs := core.Build(d, core.DefaultOptions(partition.Spatial, 0.1))
	emit("CQC (PPQ-S vs -basic)", "MAE (m)", ppqs.MAEMeters(), ppqsBasic.MAEMeters())
	emit("CQC (PPQ-S vs -basic)", "size (KB)", float64(ppqs.SizeBytes())/1e3, float64(ppqsBasic.SizeBytes())/1e3)

	// Incremental temporal partitioning: partitions created over the
	// stream when state is carried vs rebuilt per tick.
	inc := partition.New(partition.Options{Mode: partition.Spatial, EpsP: 0.05, Seed: 7})
	scratchNew := 0
	_ = d.Stream(func(col *traj.Column) error {
		inc.Step(col.IDs, partition.SpatialFeatures(col.Points))
		fresh := partition.New(partition.Options{Mode: partition.Spatial, EpsP: 0.05, Seed: 7})
		r := fresh.Step(col.IDs, partition.SpatialFeatures(col.Points))
		scratchNew += r.Q
		return nil
	})
	emit("incremental partitioning", "partitions built", float64(inc.Stats().NewParts), float64(scratchNew))
	fprintf(w, "\n")
	return rows
}
