// Command benchmark is the repository's one benchmark: four workloads,
// each driven through the real HTTP handler, each answer checked, every
// metric printed by name, unit and direction. BENCHMARK.json at the
// repository root tells the driver how to run it; README.md in this
// directory is the manual.
//
//	benchmark -workload <name|all> -seed N [-seconds S] [-trace 0|1] [-quick] [-out FILE]
//	benchmark -compare A.json B.json
//
// One run prints a human-readable report on standard error and, as the
// last line of standard output, one JSON object: correct, attempted,
// failed, and the end-to-end (-trace 0) or per-layer (-trace 1) metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", runSeconds, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: layered replay, per-layer metrics")
		quick   = flag.Bool("quick", false, "1/20 size, for smoke tests; results are not comparable")
		out     = flag.String("out", "", "append the run to this result-set file (for -compare)")
		spans   = flag.String("spans", "", "with -trace 1: write the replay's spans here (default .bench_build/trace/<workload>-seed<N>.jsonl)")
		compare = flag.Bool("compare", false, "compare two result-set files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 || *name == "" || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		return 2
	}
	runtime.GOMAXPROCS(goMaxProcs)

	todo := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		todo = []workload{w}
	}
	tmp, err := newScratch()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer tmp.remove()

	status := 0
	for _, w := range todo {
		if *quick {
			w = w.quick()
		}
		start, stolen := time.Now(), stealTicks()
		line, err := runOne(*seed, w, *seconds, *trace == 1, *spans, tmp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.Name, err)
			return 1
		}
		// The sandbox is a VM on a shared host: time the hypervisor took
		// away shows here and nowhere in the metrics. A run with seconds of
		// steal reports the host's timings, not the program's.
		stored := storedRun{Workload: w.Name, Seed: *seed, Traced: *trace == 1, Quick: *quick,
			WallSeconds: time.Since(start).Seconds(), StealTicks: stealTicks() - stolen, resultLine: *line}
		fmt.Fprintf(os.Stderr, "  host steal during the run: %d ticks of 10 ms in %.1f s\n", stored.StealTicks, stored.WallSeconds)
		if stored.disturbed() {
			fmt.Fprintln(os.Stderr, "  DISTURBED: the host took more than 1 % of the run's CPU time; -compare leaves its timings out")
		}
		if *out != "" {
			if err := appendRun(*out, stored); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		enc, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(enc))
		if !line.Correct {
			status = 1
		}
	}
	return status
}

// runOne runs one workload once and reports it on standard error.
func runOne(seed int64, w workload, seconds float64, traced bool, spansPath string, tmp *scratch) (*resultLine, error) {
	var (
		res  *result
		defs = endToEnd
		err  error
	)
	if traced {
		defs = perLayer
		res, err = runTraced(seed, w, seconds, spansPath, tmp)
	} else {
		res, err = runEndToEnd(seed, w, seconds, tmp)
	}
	if err != nil {
		return nil, err
	}
	metrics, err := fill(defs, res.values)
	if err != nil {
		return nil, err
	}
	line := &resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics,
	}
	report(w, seed, defs, line, res)
	return line, nil
}

// report prints every metric by name with its unit and direction.
func report(w workload, seed int64, defs []metricDef, line *resultLine, res *result) {
	fmt.Fprintf(os.Stderr, "== %s  seed %d  GOMAXPROCS %d  clients %d ==\n", w.Name, seed, goMaxProcs, clients)
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.2f", d.Bound)
		}
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %-9s (%s is better)%s\n", d.Name, line.Metrics[d.Name].Value, d.Unit, d.Better, bound)
	}
	for _, name := range []string{"query_p99_ms", "ingest_ack_p99_ms"} {
		if v, ok := res.ungated[name]; ok {
			fmt.Fprintf(os.Stderr, "  %-34s %14.6g %-9s (not gated: see client.%s)\n", name, v, "ms", name)
		}
	}
	fmt.Fprintf(os.Stderr, "  %-34s %14.6g %-9s (%d failed of %d attempted)\n", "fail_ratio",
		float64(line.Failed)/float64(max(1, line.Attempted)), "ratio", line.Failed, line.Attempted)
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "  first failure: %v\n", res.firstErr)
	}
}

// stealTicks reads the kernel's count of CPU time stolen by the
// hypervisor (the eighth field of /proc/stat's cpu line, in 10 ms
// ticks); 0 where there is no such file.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	fields := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(fields[8], 10, 64)
	return n
}
