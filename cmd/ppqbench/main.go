// Command ppqbench runs the paper's experiments from the command line:
// every table and figure of the evaluation section, at a selectable
// scale.
//
// Usage:
//
//	ppqbench -experiment table2            # one experiment
//	ppqbench -experiment all -scale full   # the full recorded run
//
// Experiments: table2 table3 table4 table56 table7 table8 table9
// figure7 figure8 figure9 all.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ppqtraj/internal/bench"
)

func main() {
	exp := flag.String("experiment", "all", "experiment to run (table2..table9, figure7..figure9, all)")
	scaleName := flag.String("scale", "small", "dataset scale: small or full")
	queries := flag.Int("queries", 0, "override query count (0 = scale default)")
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

	switch *exp {
	case "all", "table2", "table3", "table4", "table56", "table7", "table8",
		"table9", "figure7", "figure8", "figure9":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
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
}
