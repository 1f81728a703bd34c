package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"ppqtraj/internal/core"
	"ppqtraj/internal/gen"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/query"
	"ppqtraj/internal/traj"
)

// PerfRun is one measurement of the three hot paths on the standard
// SyntheticPorto(2000, 42) workload — the numbers BENCH_PPQ.json tracks
// across PRs (speed_bench_test.go measures the same paths under
// `go test -bench`).
type PerfRun struct {
	Label                     string  `json:"label"`
	GoMaxProcs                int     `json:"gomaxprocs"`
	Points                    int     `json:"points"`
	BuildSpatialPointsPerSec  float64 `json:"build_spatial_points_per_sec"`
	BuildAutocorrPointsPerSec float64 `json:"build_autocorr_points_per_sec"`
	EngineBuildMS             float64 `json:"engine_build_ms"`
	EngineBuildPointsPerSec   float64 `json:"engine_build_points_per_sec"`
	STRQApproxMicros          float64 `json:"strq_approx_us"`
}

// PerfFile is the on-disk shape of BENCH_PPQ.json: one run per recorded
// state of the code, oldest first. ServeRuns tracks the repository
// serving layer's mixed-workload numbers (ppqbench -experiment serve);
// CacheRuns the decoded-cell cache's cached-vs-cold replay numbers
// (ppqbench -experiment cache).
type PerfFile struct {
	Dataset   string     `json:"dataset"`
	Note      string     `json:"note,omitempty"`
	Runs      []PerfRun  `json:"runs"`
	ServeRuns []ServeRun `json:"serve_runs,omitempty"`
	CacheRuns []CacheRun `json:"cache_runs,omitempty"`
	// WALRuns tracks ingest throughput under each WAL sync policy plus
	// crash-replay speed (ppqbench -experiment wal).
	WALRuns []WALRun `json:"wal_runs,omitempty"`
	// LoadRuns tracks the overload ladder: open-loop offered QPS vs
	// served QPS, shed rate, and served-latency percentiles against a
	// fully-armed server (ppqbench -experiment load).
	LoadRuns []LoadRun `json:"load_runs,omitempty"`
	// ObsRuns tracks the metrics registry's hot-path overhead: ns per
	// counter increment / histogram observation / trace lap (ppqbench
	// -experiment obs).
	ObsRuns []ObsRun `json:"obs_runs,omitempty"`
	// ReplRuns tracks WAL-shipped replication: cold-follower catch-up
	// bandwidth and the sampled staleness of a follower tailing full-rate
	// ingest (ppqbench -experiment repl).
	ReplRuns []ReplRun `json:"repl_runs,omitempty"`
}

// perfData materializes the standard perf workload and its column stream.
func perfData() (*traj.Dataset, []*traj.Column) {
	d := gen.Porto(gen.Config{NumTrajectories: 2000, MinLen: 30, MaxLen: 200, Seed: 42})
	var cols []*traj.Column
	_ = d.Stream(func(col *traj.Column) error {
		cols = append(cols, &traj.Column{
			Tick:   col.Tick,
			IDs:    append([]traj.ID(nil), col.IDs...),
			Points: append([]geo.Point(nil), col.Points...),
		})
		return nil
	})
	return d, cols
}

func perfOpts(mode partition.Mode) core.Options {
	epsP := 0.1
	if mode == partition.Autocorr {
		epsP = 0.2
	}
	o := core.DefaultOptions(mode, epsP)
	o.Seed = 7
	return o
}

// Perf measures the hot paths and returns the run; human-readable lines
// go to w (nil for silent).
func Perf(label string, w io.Writer) PerfRun {
	d, cols := perfData()
	run := PerfRun{
		Label:      label,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Points:     d.NumPoints(),
	}

	buildRate := func(mode partition.Mode) (*core.Summary, float64) {
		b := core.NewBuilder(perfOpts(mode))
		start := time.Now()
		for _, col := range cols {
			b.Append(col)
		}
		elapsed := time.Since(start).Seconds()
		return b.Summary(), float64(d.NumPoints()) / elapsed
	}
	sum, rate := buildRate(partition.Spatial)
	run.BuildSpatialPointsPerSec = rate
	_, run.BuildAutocorrPointsPerSec = buildRate(partition.Autocorr)

	idxOpts := indexOptions(Porto)
	start := time.Now()
	eng, err := query.BuildEngine(sum, idxOpts, d)
	if err != nil {
		panic(err)
	}
	engineSecs := time.Since(start).Seconds()
	run.EngineBuildMS = engineSecs * 1e3
	run.EngineBuildPointsPerSec = float64(sum.NumPoints) / engineSecs

	// One probe per column, striding through the stream.
	start = time.Now()
	n := 0
	for _, col := range cols {
		eng.STRQ(context.Background(), col.Points[len(col.Points)/2], col.Tick, false, nil) //nolint:errcheck // approximate mode never errors
		n++
	}
	run.STRQApproxMicros = time.Since(start).Seconds() * 1e6 / float64(n)

	fprintf(w, "== perf: %s (GOMAXPROCS=%d, %d points) ==\n", label, run.GoMaxProcs, run.Points)
	fprintf(w, "  build  spatial   %12.0f points/s\n", run.BuildSpatialPointsPerSec)
	fprintf(w, "  build  autocorr  %12.0f points/s\n", run.BuildAutocorrPointsPerSec)
	fprintf(w, "  engine build     %12.1f ms  (%.0f points/s)\n", run.EngineBuildMS, run.EngineBuildPointsPerSec)
	fprintf(w, "  STRQ approx      %12.2f µs/query\n", run.STRQApproxMicros)
	return run
}

// AppendPerf runs Perf and appends the result to the JSON history at
// path (creating it when absent), so successive PRs accumulate a perf
// trajectory.
func AppendPerf(path, label string, w io.Writer) error {
	pf := PerfFile{Dataset: "SyntheticPorto(2000, 42)"}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &pf); err != nil {
			return fmt.Errorf("bench: parsing %s: %w", path, err)
		}
	}
	pf.Runs = append(pf.Runs, Perf(label, w))
	return writePerfFile(path, &pf)
}

// writePerfFile rewrites the history file without HTML escaping, so
// curated note strings with <, >, & survive re-marshalling.
func writePerfFile(path string, pf *PerfFile) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(pf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
