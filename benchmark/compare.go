package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// storedRun is one run in a result-set file: the driver's result line
// plus what identifies the run.
type storedRun struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Traced      bool    `json:"traced"`
	Quick       bool    `json:"quick,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	StealTicks  int64   `json:"host_steal_ticks"` // 10 ms ticks the hypervisor took from this VM during the run
	resultLine
}

// disturbed reports whether the host stole more than 1 % of the run's
// CPU time (two cores, 100 ticks a second each). Quiet runs see 0–2
// ticks; the episodes that wreck a timing see thousands.
func (r storedRun) disturbed() bool {
	return float64(r.StealTicks) > 0.01*2*100*r.WallSeconds
}

// resultSet is a file of runs of one commit: -out appends to it,
// -compare reads two of them.
type resultSet struct {
	Runs []storedRun `json:"runs"`
}

func readResultSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// appendRun adds one run to the result set at path, creating the file.
func appendRun(path string, r storedRun) error {
	rs := &resultSet{}
	if _, err := os.Stat(path); err == nil {
		if rs, err = readResultSet(path); err != nil {
			return err
		}
	}
	rs.Runs = append(rs.Runs, r)
	raw, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// verdicts of one (workload, metric) row.
const (
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
	unchanged  = "unchanged"
)

// row is one (workload, end-to-end metric) comparison.
type row struct {
	metric  metricDef
	a, b    float64 // medians
	spread  float64 // A's interquartile range as a share of its median
	worse   float64 // how much worse B is, as a share of A's median (negative: better)
	verdict string
}

// judge applies the metric's direction and bound: B regressed when its
// median is worse than A's by more than the bound and improved when it
// is better by more than the bound — two sets of runs of one commit, half
// an hour apart on this VM, differ by a tenth, so nothing inside the
// bound is called a change. When A's own spread is wider than the bound
// the benchmark cannot tell, which is reported as unresolved rather than
// unchanged.
func judge(d metricDef, a, b []float64) row {
	r := row{metric: d, a: median(a), b: median(b)}
	if len(a) >= 2 {
		// statistics.quantiles(n=4)'s convention is not needed to the digit:
		// the spread only decides between "unchanged" and "unresolved".
		r.spread = (quantile(a, 0.75) - quantile(a, 0.25)) / r.a
	}
	r.worse = (r.b - r.a) / r.a
	if d.Better == higher {
		r.worse = -r.worse
	}
	switch {
	case r.worse > d.Bound:
		r.verdict = regressed
	case r.spread > d.Bound:
		r.verdict = unresolved
	case r.worse < -d.Bound:
		r.verdict = improved
	default:
		r.verdict = unchanged
	}
	return r
}

// compareSets lines up the untraced, full-size runs of two result sets
// per workload and judges every end-to-end metric, then the failure
// ratios. The second return is false on any regression or any rise in
// failed ÷ attempted.
func compareSets(a, b *resultSet, out io.Writer) bool {
	type key struct{ workload, metric string }
	dropped := 0
	collect := func(rs *resultSet) (map[key][]float64, map[string][2]int) {
		vals := map[key][]float64{}
		fails := map[string][2]int{}
		for _, r := range rs.Runs {
			if r.Traced || r.Quick {
				continue
			}
			f := fails[r.Workload]
			fails[r.Workload] = [2]int{f[0] + r.Failed, f[1] + r.Attempted}
			if r.disturbed() { // its answers still count; its timings do not
				dropped++
				continue
			}
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], m.Value)
			}
		}
		return vals, fails
	}
	av, af := collect(a)
	bv, bf := collect(b)
	ok := true
	fmt.Fprintf(out, "%-18s %-30s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "A iqr", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.Name, d.Name}
			if len(av[k]) == 0 || len(bv[k]) == 0 {
				continue
			}
			r := judge(d, av[k], bv[k])
			if r.verdict == regressed {
				ok = false
			}
			fmt.Fprintf(out, "%-18s %-30s %12.5g %12.5g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, r.a, r.b, 100*r.worse, 100*r.spread, 100*d.Bound, r.verdict)
		}
		fa, fb := af[w.Name], bf[w.Name]
		if fa[1] == 0 || fb[1] == 0 {
			continue
		}
		ra, rb := float64(fa[0])/float64(fa[1]), float64(fb[0])/float64(fb[1])
		verdict := unchanged
		if rb > ra {
			verdict, ok = regressed, false
		}
		fmt.Fprintf(out, "%-18s %-30s %12.5g %12.5g %8s %8s %6s  %s\n", w.Name, "fail_ratio", ra, rb, "", "", "0%", verdict)
	}
	if dropped > 0 {
		fmt.Fprintf(out, "%d runs left out of the timings: the host stole more than 1 %% of their CPU time\n", dropped)
	}
	return ok
}

// compareFiles is -compare: exit status 0 when B holds every bound.
func compareFiles(pathA, pathB string, out io.Writer) int {
	a, err := readResultSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if !compareSets(a, b, out) {
		fmt.Fprintf(out, "FAIL: %s is worse than %s beyond a bound\n", pathB, pathA)
		return 1
	}
	return 0
}
