package main

import (
	"fmt"
	"sort"
)

// This file is the benchmark's definition: the four workloads with every
// parameter that shapes them, and the catalog of metric names. Nothing
// here is read from BENCHMARK.json at run time — BENCHMARK.json is the
// driver's copy of the same catalog, and TestManifestMatchesCatalog
// fails when the two drift.

// runSeconds is the measured-phase length the driver passes as
// --seconds (BENCHMARK.json "run_seconds"); -quick and tests pass less.
const runSeconds = 10

// Process shape: the box has 2 cores, so the whole benchmark — server,
// clients and background compactor — runs in one process at a fixed
// GOMAXPROCS, with at most two closed-loop client goroutines on two
// keep-alive connections.
const (
	goMaxProcs = 2
	clients    = 2
)

// fleet parameterizes the generated trajectories. Groups independent
// gen.Porto sub-fleets (each with its own 12 hotspots) are merged into
// one dataset: more hotspots per fixture keep density statistics — and
// with them every latency — steadier from seed to seed (the p50 of the
// dense workload ranged over 17 % across six seeds with one group, 11 %
// with four).
type fleet struct {
	Trajectories   int
	MinLen, MaxLen int
	Horizon        int // start ticks are uniform in [0, Horizon)
	Groups         int
}

// opKind is the shape of a workload's read operation.
type opKind int

const (
	opWindow opKind = iota // POST /v1/window
	opBatch                // POST /v1/query, a batch of STRQ probes
)

// workload is one benchmark workload: fixture, repository configuration
// and load. The program under test never sees Name or the seed — it
// receives only the generated trajectories and requests.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json

	Fleet        fleet
	CellMeters   float64 // index grid g_c
	CacheBytes   int64   // serve.Options.CacheBytes (0 = the 64 MiB default)
	SegmentTicks int     // serve.Options.MaxSegmentTicks
	HotTailTicks int     // freshest ticks ingested after the flush, left unsealed

	// Live marks the one write workload: an empty durable repository with
	// fsync=always, HotTicks=64 and the background compactor on, fed tick
	// by tick while one reader queries the freshest ticks ReaderHz times
	// a second. The reader is paced — it waits for each reply, then for
	// its next slot — because an unpaced third actor on two cores made
	// every number of the workload swing by a fifth between rounds.
	Live     bool
	ReaderHz int

	Op        opKind
	SpanTicks int     // window length in ticks
	SideCells float64 // window side, in g_c cells
	Distinct  int     // >0: Zipf-skewed draws from this many distinct ops; 0: never repeated
	ListOps   int     // length of the frozen op list the timed phase walks
	BatchSize int     // probes per /v1/query batch
	PathLen   int     // path_len carried by every second probe
	ReplayOps int     // ops the single-client layered replay runs (fixed, so counters repeat)
	OracleOps int     // ops checked against brute force outside the timed phase
}

// zipfS is the skew of window-sparse-hot's draws over its distinct set.
const zipfS = 1.1

// latencyShare is the part of the measured phase a read workload spends
// with one client, which is where query_p50_ms comes from; the rest runs
// both clients and gives query_per_s. Two busy clients saturate the two
// cores, and latency at saturation repeats far worse than throughput.
const latencyShare = 0.6

// setupRepeats is how many times a run builds its fixture from scratch;
// setup_s is the median. The last build is the one the load runs on.
const setupRepeats = 3

// workloads is the benchmark. Sizes are about a quarter of what the
// issue sketched (2.4 M points, 15–25 s phases): the driver caps all 92
// runs of a PR at 3420 s, which leaves about 35 s per run for three
// fixture builds, the measured phase, recovery and the oracle.
var workloads = []workload{
	{
		Name:       "window-dense-cold",
		Why:        "dense fleet, 500 m cells, 4 MiB cache, never-repeated 512-tick windows: codec decode and exec verify do most of the work",
		Fleet:      fleet{Trajectories: 2400, MinLen: 200, MaxLen: 600, Horizon: 200, Groups: 16},
		CellMeters: 500, CacheBytes: 4 << 20, SegmentTicks: 128,
		Op: opWindow, SpanTicks: 512, SideCells: 3, ListOps: 40000,
		ReplayOps: 300, OracleOps: 200,
	},
	{
		Name:       "window-sparse-hot",
		Why:        "sparse fleet, 100 m cells, 64 MiB cache, Zipf over 256 windows that fit it: index cursor, cache lookups, plan/merge and JSON do the work",
		Fleet:      fleet{Trajectories: 1800, MinLen: 200, MaxLen: 600, Horizon: 2000, Groups: 16},
		CellMeters: 100, SegmentTicks: 128,
		Op: opWindow, SpanTicks: 512, SideCells: 3, Distinct: 256, ListOps: 200000,
		ReplayOps: 2000, OracleOps: 256,
	},
	{
		Name:       "point-path",
		Why:        "batches of 16 STRQ probes (1/4 exact, 1/2 with a 32-tick path) on the sparse fleet with a hot tail: per-request HTTP, admission and JSON cost",
		Fleet:      fleet{Trajectories: 1800, MinLen: 200, MaxLen: 600, Horizon: 2000, Groups: 16},
		CellMeters: 100, SegmentTicks: 128, HotTailTicks: 32,
		Op: opBatch, BatchSize: 16, PathLen: 32, ListOps: 4096,
		ReplayOps: 1000, OracleOps: 200,
	},
	{
		Name:       "ingest-live",
		Why:        "one writer streams ticks through /v1/ingest at fsync=always beside a tail-window reader and the compactor, then close without flush and reopen",
		Fleet:      fleet{Trajectories: 1500, MinLen: 150, MaxLen: 450, Horizon: 300, Groups: 16},
		CellMeters: 100, SegmentTicks: 256, Live: true, ReaderHz: 250,
		Op: opWindow, SpanTicks: 128, SideCells: 40,
		ReplayOps: 500, OracleOps: 200,
	},
}

// quickDivisor shrinks every workload for -quick and the smoke test.
const quickDivisor = 20

// quick returns w at 1/quickDivisor size: fewer trajectories, fewer ops.
// Tick spans stay, so every code path (segment fan-out, hot tail,
// compaction) still runs.
func (w workload) quick() workload {
	w.Fleet.Trajectories = max(w.Fleet.Groups*8, w.Fleet.Trajectories/quickDivisor)
	w.ListOps = max(64, w.ListOps/quickDivisor)
	w.ReplayOps = max(32, w.ReplayOps/quickDivisor)
	if w.Distinct > 0 {
		w.Distinct = max(16, w.Distinct/4)
	}
	return w
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v, or all)", name, names)
}

// metricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may get worse before -compare (and the
// driver) call it a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the repository sees. Every workload reports
// every one of them: each workload fills a durable repository through
// /v1/ingest, reads from it, and reopens it, so each metric has a
// meaning on each row (README.md spells the meanings out).
//
// Bounds are three times the spread (interquartile range over median)
// that ten seeds showed at the seed commit, capped at the driver's 0.25:
// timings on this VM spread 4–9 % whatever the estimator, the byte counts
// under 0.6 %, the heap 1.3 % (README.md has the table).
//
// fail_ratio is not in this list because it is 0 at the seed commit and
// the driver compares shares of a median: it is the result line's
// failed ÷ attempted, and -compare fails on any rise.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "query_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "ingest_points_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "ingest_ack_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "recovery_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "stored_bytes_per_point", Unit: "B/point", Better: lower, Bound: 0.02},
	{Name: "write_amp", Unit: "ratio", Better: lower, Bound: 0.02},
	{Name: "resident_heap_bytes_per_point", Unit: "B/point", Better: lower, Bound: 0.05},
}

// perLayer is the traced run's output: one layer's time, work count or
// ratio each, named <package>.<what>. README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	// read path, top down
	{Name: "serve.http_self_ms", Unit: "ms", Better: lower},
	{Name: "serve.window_self_ms", Unit: "ms", Better: lower},
	{Name: "serve.segments_scanned", Unit: "count", Better: lower},
	{Name: "serve.segments_skipped", Unit: "count", Better: higher},
	{Name: "serve.batch_self_ms", Unit: "ms", Better: lower},
	{Name: "query.strq_self_ms", Unit: "ms", Better: lower},
	{Name: "query.raw_accesses_per_exact", Unit: "count", Better: lower},
	{Name: "index.lookup_ms", Unit: "ms", Better: lower},
	{Name: "core.reconstruct_us_per_point", Unit: "us/point", Better: lower},
	{Name: "exec.scan_self_ms", Unit: "ms", Better: lower},
	{Name: "exec.rows_per_s", Unit: "1/s", Better: higher},
	{Name: "exec.rows_out_per_row_in", Unit: "ratio", Better: higher},
	{Name: "index.cursor_self_ms", Unit: "ms", Better: lower},
	{Name: "index.cells_per_s", Unit: "1/s", Better: higher},
	{Name: "index.cells_scanned", Unit: "count", Better: lower},
	{Name: "index.cells_skipped", Unit: "count", Better: higher},
	{Name: "index.cell_skip_ratio", Unit: "ratio", Better: higher},
	{Name: "codec.decode_ms", Unit: "ms", Better: lower},
	{Name: "codec.ids_per_s", Unit: "1/s", Better: higher},
	{Name: "codec.bytes_per_id", Unit: "B/id", Better: lower},
	{Name: "codec.ids_decoded", Unit: "count", Better: lower},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "cache.hits", Unit: "count", Better: higher},
	{Name: "cache.evictions", Unit: "count", Better: lower},
	{Name: "cache.resident_bytes", Unit: "B", Better: lower},
	// write path, top down
	{Name: "serve.http_ingest_self_ms", Unit: "ms", Better: lower},
	{Name: "serve.ingest_self_ms", Unit: "ms", Better: lower},
	{Name: "wal.append_ms", Unit: "ms", Better: lower},
	{Name: "wal.commit_ms", Unit: "ms", Better: lower},
	{Name: "wal.commits_per_sync", Unit: "ratio", Better: higher},
	{Name: "wal.bytes_per_point", Unit: "B/point", Better: lower},
	{Name: "serve.compact_ms_per_point", Unit: "ms/point", Better: lower},
	{Name: "serve.compactions", Unit: "count", Better: lower},
	{Name: "serve.ingest_ack_max_ms", Unit: "ms", Better: lower},
	{Name: "core.build_points_per_s", Unit: "1/s", Better: higher},
	{Name: "query.engine_build_points_per_s", Unit: "1/s", Better: higher},
	{Name: "core.serialize_mb_per_s", Unit: "MB/s", Better: higher},
	// recovery
	{Name: "core.deserialize_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "wal.replay_points_per_s", Unit: "1/s", Better: higher},
	{Name: "serve.open_self_s", Unit: "s", Better: lower},
	// the paper's quantities: exact repeats for one seed
	{Name: "core.codebook_words", Unit: "count", Better: lower},
	{Name: "core.partitions", Unit: "count", Better: lower},
	{Name: "core.max_dev_over_bound", Unit: "ratio", Better: lower},
	{Name: "core.mae_m", Unit: "m", Better: lower},
	{Name: "query.recall_min", Unit: "ratio", Better: higher},
	{Name: "query.precision_approx_mean", Unit: "ratio", Better: higher},
	// tails demoted from the end-to-end list: their spread over ten seeds
	// was 15–29 %, which no bound the driver allows covers three times
	{Name: "client.query_p99_ms", Unit: "ms", Better: lower},
	{Name: "client.ingest_ack_p99_ms", Unit: "ms", Better: lower},
	{Name: "client.query_samples", Unit: "count", Better: higher},
	// diagnostics
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: lower},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: lower},
	{Name: "client.self_ms_per_op", Unit: "ms", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "trace.coverage_ratio", Unit: "ratio", Better: higher},
}

// measurement is one reported value, in the driver's result-line shape.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill turns measured values into the result line's metrics object,
// failing when a catalog metric was not measured or a measured name is
// not in the catalog — the catalog and the code cannot drift silently.
func fill(defs []metricDef, values map[string]float64) (map[string]measurement, error) {
	out := make(map[string]measurement, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = measurement{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics missing from the catalog: %v", extra)
	}
	return out, nil
}
