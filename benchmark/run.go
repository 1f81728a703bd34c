package main

import (
	"fmt"
	"os"
	"time"
)

// result is one run's outcome: the values of either the end-to-end or
// the per-layer catalog, and the operation counts behind fail_ratio.
type result struct {
	values    map[string]float64
	ungated   map[string]float64 // measured and printed, but in no catalog: an untraced run's tails
	attempted int
	failed    int
	firstErr  error // the first failed operation, for the human-readable report
}

// sampleOps picks up to n distinct ops, spread evenly over the frozen
// list (a Zipf list repeats its popular ops; each is checked once).
func sampleOps(ops []op, n int) []op {
	seen := make(map[string]bool, n)
	var out []op
	var b []byte
	take := func(i int) {
		b = ops[i].body(b[:0])
		if !seen[string(b)] {
			seen[string(b)] = true
			out = append(out, ops[i])
		}
	}
	for i := 0; i < n && i < len(ops); i++ {
		take(i * len(ops) / min(n, len(ops)))
	}
	for i := 0; len(out) < n && i < len(ops); i++ { // top up from the head of a skewed list
		take(i)
	}
	return out
}

// checkSample issues each sampled op over HTTP and checks the answer
// against brute force; windows are asked both approximately and exactly.
// It runs after the timed phase, on the same repository.
func checkSample(e *env, or *oracle, ops []op) {
	c := e.caller()
	for i := range ops {
		o := ops[i]
		modes := []bool{false}
		if o.queries == nil {
			modes = []bool{false, true}
		}
		for _, exact := range modes {
			if o.queries == nil {
				o.win.Exact = exact
			}
			a, err := c.do(&o)
			if err != nil {
				or.note(err)
				continue
			}
			or.check(&o, a)
		}
	}
}

// runEndToEnd is one untraced run: build the fixture setupRepeats times,
// load it for `seconds`, then check answers and reopen.
func runEndToEnd(seed int64, w workload, seconds float64, tmp *scratch) (*result, error) {
	if w.Live {
		return runLive(seed, w, seconds, tmp)
	}
	var (
		setups, recoveries []float64
		acks               [][]float64 // per build, the ack latency of every tick
		res                = &result{}
		b                  *built
	)
	for i := 0; i < setupRepeats; i++ {
		dir := tmp.dir("repo")
		var err error
		if b, err = setUp(seed, w, dir, 0); err != nil {
			return nil, err
		}
		setups = append(setups, b.seconds)
		acks = append(acks, b.load.ackMS)
		res.attempted += len(b.load.ackMS)
		res.failed += b.load.failed
		if i == setupRepeats-1 {
			break
		}
		// A build that is not the last still gives a recovery sample
		// before it is thrown away.
		s, err := b.env.reopen()
		if err != nil {
			return nil, err
		}
		recoveries = append(recoveries, s)
		if err := b.env.close(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	e, fx := b.env, b.env.fx
	stored, writeAmp, err := e.storage(fx.cols)
	if err != nil {
		return nil, err
	}
	lastTick := fx.cols[len(fx.cols)-1].Tick
	fx.cols, fx.bodies = nil, nil // the benchmark's copies, not the repository's

	// One client first, for latency; then both, for throughput.
	alone := e.runTimed(1, time.Duration(latencyShare*seconds*float64(time.Second)))
	both := time.Duration((1 - latencyShare) * seconds * float64(time.Second))
	loaded := e.runTimed(clients, both)
	for _, t := range []*timed{alone, loaded} {
		res.attempted += len(t.latMS)
		res.failed += t.failed
		if res.firstErr == nil {
			res.firstErr = t.firstErr
		}
	}
	heap := residentHeap(fx.points)

	or := newOracle(fx, e.repo)
	checkSample(e, or, sampleOps(fx.ops, w.OracleOps))
	s, err := e.reopen()
	if err != nil {
		return nil, err
	}
	recoveries = append(recoveries, s)
	or.readable(e.repo, lastTick+1)
	if err := e.close(); err != nil {
		return nil, err
	}
	res.attempted += or.attempted
	res.failed += or.failed
	if res.firstErr == nil {
		res.firstErr = or.firstErr
	}
	if len(alone.latMS) == 0 || len(loaded.latMS) == 0 {
		return nil, fmt.Errorf("a timed phase completed no operation")
	}
	ack := acrossRepeats(acks)
	res.values = map[string]float64{
		"setup_s":                       median(setups),
		"query_p50_ms":                  quantile(alone.latMS, 0.50),
		"query_per_s":                   loaded.throughput(both),
		"ingest_points_per_s":           float64(fx.points) / (sum(ack) / 1e3),
		"ingest_ack_p50_ms":             quantile(ack, 0.50),
		"recovery_s":                    median(recoveries),
		"stored_bytes_per_point":        stored,
		"write_amp":                     writeAmp,
		"resident_heap_bytes_per_point": heap,
	}
	res.ungated = map[string]float64{
		"query_p99_ms":      quantile(alone.latMS, 0.99),
		"ingest_ack_p99_ms": quantile(ack, 0.99),
	}
	return res, nil
}

// runLive is ingest-live's untraced run: whole rounds until `seconds`
// have passed. Each round streams the same fixture into a fresh
// repository, so every per-round quantity is a repeat of the same work
// and the reported value is the median over rounds; latencies pool.
func runLive(seed int64, w workload, seconds float64, tmp *scratch) (*result, error) {
	var (
		setups, readRates, recoveries, stored, amps []float64
		acks                                        [][]float64 // per round, the ack latency of every tick
		reads                                       []float64
		points                                      int
		res                                         = &result{}
		heap                                        float64
	)
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < seconds; n++ {
		dir := tmp.dir("repo")
		r, e, err := liveRound(seed, w, dir, w.OracleOps, 0)
		if err != nil {
			return nil, err
		}
		fx := e.fx
		points = fx.points
		setups = append(setups, r.setupS)
		readRates = append(readRates, float64(len(r.readMS))/r.load.seconds)

		recoveries = append(recoveries, r.recoveryS)
		stored = append(stored, r.stored)
		amps = append(amps, r.writeAmp)
		acks = append(acks, r.load.ackMS)
		reads = append(reads, r.readMS...)
		res.attempted += len(r.load.ackMS) + len(r.readMS)
		res.failed += r.load.failed + r.readFails
		if res.firstErr == nil {
			res.firstErr = r.firstErr
		}

		// Outside the timed part of the round: every acked point must be
		// readable from the reopened repository, and the reads the reader
		// kept must hold against brute force.
		or := newOracle(fx, e.repo)
		or.readable(e.repo, fx.cols[len(fx.cols)-1].Tick+1)
		for i := range r.reads {
			or.note(or.window(r.reads[i].op.win, r.reads[i].ids))
		}
		res.attempted += or.attempted
		res.failed += or.failed
		if res.firstErr == nil {
			res.firstErr = or.firstErr
		}
		fx.cols, fx.bodies = nil, nil
		heap = residentHeap(fx.points)
		if err := e.close(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	if len(reads) == 0 {
		return nil, fmt.Errorf("the reader completed no operation")
	}
	ack := acrossRepeats(acks)
	res.values = map[string]float64{
		"setup_s":                       median(setups),
		"query_p50_ms":                  quantile(reads, 0.50),
		"query_per_s":                   median(readRates),
		"ingest_points_per_s":           float64(points) / (sum(ack) / 1e3),
		"ingest_ack_p50_ms":             quantile(ack, 0.50),
		"recovery_s":                    median(recoveries),
		"stored_bytes_per_point":        median(stored),
		"write_amp":                     median(amps),
		"resident_heap_bytes_per_point": heap,
	}
	res.ungated = map[string]float64{
		"query_p99_ms":      quantile(reads, 0.99),
		"ingest_ack_p99_ms": quantile(ack, 0.99),
	}
	return res, nil
}
