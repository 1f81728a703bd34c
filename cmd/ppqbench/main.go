// Command ppqbench runs the paper's experiments from the command line:
// every table and figure of the evaluation section, at a selectable
// scale.
//
// Usage:
//
//	ppqbench -experiment table2            # one experiment
//	ppqbench -experiment all -scale full   # the full recorded run
//	ppqbench -experiment perf -json BENCH_PPQ.json -label my-change
//
// Experiments: table2 table3 table4 table56 table7 table8 table9
// figure7 figure8 figure9 perf serve cache wal load obs repl all. The perf
// experiment measures the three hot paths (per-tick build, engine
// construction, STRQ) on the standard SyntheticPorto(2000, 42) workload;
// the serve experiment drives the repository server's mixed ingest/query
// workload (live ingestion + background compaction + concurrent STRQ
// traffic); the cache experiment replays a skewed repeated-STRQ probe
// set against sealed segments to measure the decoded-cell cache's
// cached-vs-cold speedup; the wal experiment prices the durability
// spectrum — ingest throughput under each write-ahead-log sync policy
// (never / interval / always) plus crash-replay speed;
// the load experiment sweeps an open-loop offered-QPS ladder against a
// fully-armed server (fsync=always, group commit, admission control)
// recording served QPS, shed rate, and latency percentiles per rung;
// the repl experiment measures WAL-shipped replication — cold-follower
// catch-up bandwidth, plus sampled staleness (lag in ticks) of a
// follower tailing a primary ingesting at full speed.
// All of these append to a machine-readable history with -json so PRs
// track the perf trajectory.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ppqtraj/internal/bench"
)

func main() {
	exp := flag.String("experiment", "all", "experiment to run (table2..table9, figure7..figure9, perf, serve, cache, wal, load, obs, repl, all)")
	scaleName := flag.String("scale", "small", "dataset scale: small or full")
	queries := flag.Int("queries", 0, "override query/probe count (0 = scale default)")
	jsonPath := flag.String("json", "", "perf/serve/cache/wal/load/obs/repl only: append the run to this JSON history file")
	label := flag.String("label", "dev", "perf/serve/cache/wal/load/obs/repl only: label recorded with the run")
	flag.Parse()

	s := bench.Small
	if *scaleName == "full" {
		s = bench.Full
	}
	if *queries > 0 {
		s.Queries = *queries
	}

	w := os.Stdout
	run := func(name string, fn func()) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		fn()
		fmt.Fprintf(w, "[%s completed in %.1fs]\n\n", name, time.Since(start).Seconds())
	}

	run("table2", func() { bench.Table2(s, w) })
	run("table3", func() { bench.Table3(s, w) })
	run("table4", func() { bench.Table4(s, w) })
	run("table56", func() { bench.Table56(s, w) })
	run("table7", func() { bench.Table7(s, w) })
	run("table8", func() { bench.Table8(s, w) })
	run("table9", func() { bench.Table9(s, w) })
	run("figure7", func() { bench.Figure7(s, w) })
	run("figure8", func() { bench.Figure8(s, w) })
	run("figure9", func() { bench.Figure9(s, w, bench.Table56(s, nil)) })
	if *exp == "perf" {
		start := time.Now()
		if *jsonPath != "" {
			if err := bench.AppendPerf(*jsonPath, *label, w); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			bench.Perf(*label, w)
		}
		fmt.Fprintf(w, "[perf completed in %.1fs]\n\n", time.Since(start).Seconds())
	}
	if *exp == "serve" {
		start := time.Now()
		if *jsonPath != "" {
			if err := bench.AppendServe(*jsonPath, *label, w); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			bench.ServeBench(*label, w)
		}
		fmt.Fprintf(w, "[serve completed in %.1fs]\n\n", time.Since(start).Seconds())
	}
	if *exp == "cache" {
		start := time.Now()
		if *jsonPath != "" {
			if err := bench.AppendCache(*jsonPath, *label, *queries, w); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			bench.CacheBench(*label, *queries, w)
		}
		fmt.Fprintf(w, "[cache completed in %.1fs]\n\n", time.Since(start).Seconds())
	}
	if *exp == "wal" {
		start := time.Now()
		if *jsonPath != "" {
			if err := bench.AppendWAL(*jsonPath, *label, w); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			bench.WALBench(*label, w)
		}
		fmt.Fprintf(w, "[wal completed in %.1fs]\n\n", time.Since(start).Seconds())
	}
	if *exp == "load" {
		start := time.Now()
		levels := bench.DefaultLoadLevels
		perLevel := 2 * time.Second
		if *scaleName == "small" {
			levels = []float64{200, 1000, 4000}
			perLevel = time.Second
		}
		if *jsonPath != "" {
			if err := bench.AppendLoad(*jsonPath, *label, levels, perLevel, w); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			bench.LoadBench(*label, levels, perLevel, w)
		}
		fmt.Fprintf(w, "[load completed in %.1fs]\n\n", time.Since(start).Seconds())
	}
	if *exp == "repl" {
		start := time.Now()
		if *jsonPath != "" {
			if err := bench.AppendRepl(*jsonPath, *label, w); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			bench.ReplBench(*label, w)
		}
		fmt.Fprintf(w, "[repl completed in %.1fs]\n\n", time.Since(start).Seconds())
	}
	if *exp == "obs" {
		start := time.Now()
		if *jsonPath != "" {
			if err := bench.AppendObs(*jsonPath, *label, w); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			bench.ObsBench(*label, w)
		}
		fmt.Fprintf(w, "[obs completed in %.1fs]\n\n", time.Since(start).Seconds())
	}

	switch *exp {
	case "all", "table2", "table3", "table4", "table56", "table7", "table8",
		"table9", "figure7", "figure8", "figure9", "perf", "serve", "cache", "wal", "load", "obs", "repl":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
