package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppqtraj/internal/core"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/serve"
	"ppqtraj/internal/traj"
	"ppqtraj/internal/wal"
)

// noCompaction is a hot-tail span no fixture reaches: the read
// workloads seal only when the benchmark flushes, so their segment
// boundaries — and every counter downstream of them — repeat exactly.
const noCompaction = 1 << 30

// repoOptions is the repository configuration of a workload. Everything
// not set here is the product's default. workers is
// serve.Options.Workers: 0 (GOMAXPROCS) for end-to-end runs, 1 for the
// layered replay, whose parent-minus-children arithmetic needs a
// parent's wall time to be the sum of its children's.
func repoOptions(w workload, fx *fixture, dir string, workers int) serve.Options {
	build := core.DefaultOptions(partition.Spatial, 0.1) // the paper's §6.1 Porto settings
	build.Seed = 7
	o := serve.Options{
		Build:           build,
		Index:           index.Options{EpsS: 0.1, GC: fx.gc, EpsC: 0.5, EpsD: 0.5, Seed: 11},
		Dir:             dir,
		Raw:             fx.data, // exact-mode queries verify against the raw fleet
		CacheBytes:      w.CacheBytes,
		MaxSegmentTicks: w.SegmentTicks,
		HotTicks:        noCompaction,
		Workers:         workers,
		Log:             obs.Discard(),
	}
	if w.Live {
		o.HotTicks = 64
		o.WALSync = wal.SyncAlways
		o.GroupCommitWait = 2 * time.Millisecond // ppqserve's default
	}
	return o
}

// env is one open repository behind its real HTTP handler.
type env struct {
	w    workload
	fx   *fixture
	opts serve.Options
	repo *serve.Repository
	srv  *httptest.Server
	next atomic.Int64 // position in the frozen op list, shared by every timed phase
}

func openEnv(w workload, fx *fixture, opts serve.Options) (*env, error) {
	repo, err := serve.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("opening repository: %w", err)
	}
	return &env{w: w, fx: fx, opts: opts, repo: repo, srv: httptest.NewServer(repo.Handler())}, nil
}

// close stops the server and closes the repository without flushing it.
func (e *env) close() error {
	e.srv.Close()
	return e.repo.Close()
}

// caller is one client goroutine's connection state: its own response
// buffer and request scratch, over the server's shared transport (which
// keeps two idle connections per host, one per client).
type caller struct {
	http *http.Client
	base string
	resp bytes.Buffer
	req  []byte
}

func (e *env) caller() *caller { return &caller{http: e.srv.Client(), base: e.srv.URL} }

// post sends one request and returns the status and the body, which is
// valid until the caller's next post.
func (c *caller) post(path string, body []byte) (int, []byte, error) {
	r, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(r.Body)
	r.Body.Close()
	return r.StatusCode, c.resp.Bytes(), err
}

// answer is a decoded read response: the window's ID list, or the
// batch's per-probe answers.
type answer struct {
	win   serve.WindowResult
	batch serve.QueryResponse
}

// do issues the op and decodes the reply as a real client would. A
// transport error, a non-200 status, an undecodable body, a window
// echoing the wrong span or a batch with a missing or failed answer is
// a failed operation.
func (c *caller) do(o *op) (*answer, error) {
	c.req = o.body(c.req[:0])
	status, body, err := c.post(o.path(), c.req)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", o.path(), status, bytes.TrimSpace(body))
	}
	var a answer
	if o.queries == nil {
		if err := json.Unmarshal(body, &a.win); err != nil {
			return nil, err
		}
		if a.win.From != o.win.From || a.win.To != o.win.To {
			return nil, fmt.Errorf("window [%d,%d] answered as [%d,%d]", o.win.From, o.win.To, a.win.From, a.win.To)
		}
		return &a, nil
	}
	if err := json.Unmarshal(body, &a.batch); err != nil {
		return nil, err
	}
	if len(a.batch.Answers) != len(o.queries) {
		return nil, fmt.Errorf("batch of %d got %d answers", len(o.queries), len(a.batch.Answers))
	}
	for i := range a.batch.Answers {
		if a.batch.Answers[i].Err != "" {
			return nil, fmt.Errorf("probe %d: %s", i, a.batch.Answers[i].Err)
		}
	}
	return &a, nil
}

// loadStats is one writer's record of streaming columns through
// /v1/ingest: per-tick ack latencies, and the ticks not acked in full.
type loadStats struct {
	ackMS   []float64
	seconds float64
	failed  int
}

// load streams cols[lo:hi] tick by tick: each request waits for its ack
// before the next is sent, as a tick-ordered feed must. acked, when
// non-nil, is advanced to each acked tick for a concurrent reader.
func (e *env) load(c *caller, lo, hi int, st *loadStats, acked *atomic.Int64) {
	start := time.Now()
	for i := lo; i < hi; i++ {
		t0 := time.Now()
		status, body, err := c.post("/v1/ingest", e.fx.bodies[i])
		st.ackMS = append(st.ackMS, msSince(t0))
		var ack serve.IngestResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &ack)
		}
		if err != nil || status != http.StatusOK || ack.AcceptedPoints != e.fx.cols[i].Len() {
			st.failed++
			continue
		}
		if acked != nil {
			acked.Store(int64(e.fx.cols[i].Tick))
		}
	}
	st.seconds += time.Since(start).Seconds()
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// scratch hands out per-run directories under .bench_build/tmp in the
// working directory — the driver's checkout — and removes them all at
// exit: the benchmark writes nowhere else.
type scratch struct {
	root string
	n    int
}

func newScratch() (*scratch, error) {
	root := filepath.Join(".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &scratch{root: root}, nil
}

func (s *scratch) dir(name string) string {
	s.n++
	return filepath.Join(s.root, fmt.Sprintf("%s-%d", name, s.n))
}

// remove deletes the run's directories, and .bench_build itself when
// nothing else (a build cache, a span file) is in it.
func (s *scratch) remove() {
	os.RemoveAll(s.root)
	os.Remove(filepath.Dir(s.root))
	os.Remove(filepath.Dir(filepath.Dir(s.root)))
}

// built is one finished set-up: the fixture, loaded and (for the read
// workloads) sealed, with what the load cost.
type built struct {
	env     *env
	seconds float64 // setup_s sample: generation + open + ingest + flush
	load    loadStats
}

// setUp builds the workload's fixture from the seed into a fresh
// repository at dir. Read workloads stream every tick through
// /v1/ingest, seal with /v1/flush, then ingest the last HotTailTicks
// ticks so they stay in the hot tail. The live workload only opens the
// empty repository — streaming is its measured phase.
func setUp(seed int64, w workload, dir string, workers int) (*built, error) {
	runtime.GC() // every build starts from a collected heap, whatever ran before it
	start := time.Now()
	fx := makeFixture(seed, w)
	e, err := openEnv(w, fx, repoOptions(w, fx, dir, workers))
	if err != nil {
		return nil, err
	}
	b := &built{env: e}
	if !w.Live {
		c := e.caller()
		sealed := len(fx.cols) - w.HotTailTicks
		e.load(c, 0, sealed, &b.load, nil)
		if status, body, err := c.post("/v1/flush", nil); err != nil || status != http.StatusOK {
			e.close()
			return nil, fmt.Errorf("flush: status %d: %s: %v", status, bytes.TrimSpace(body), err)
		}
		e.load(c, sealed, len(fx.cols), &b.load, nil)
	}
	b.seconds = time.Since(start).Seconds()
	return b, nil
}

// reopen closes the repository without a flush and times serve.Open on
// the directory it leaves behind: recovery_s. Open returns once the
// manifest's segments are loaded and the WAL is replayed, which is when
// every acked point is readable again (checkReadable verifies that).
func (e *env) reopen() (float64, error) {
	if err := e.close(); err != nil {
		return 0, fmt.Errorf("closing repository: %w", err)
	}
	e.repo = nil
	runtime.GC() // the closed repository is garbage; do not time its collection
	start := time.Now()
	repo, err := serve.Open(e.opts)
	if err != nil {
		return 0, fmt.Errorf("reopening repository: %w", err)
	}
	seconds := time.Since(start).Seconds()
	e.repo = repo
	e.srv = httptest.NewServer(repo.Handler())
	return seconds, nil
}

// storage reports what the repository wrote for the acked points: the
// sealed bytes per sealed point, and the write amplification — WAL
// frames appended plus segment and zone-map files written, over the
// 16 raw bytes of each acked point. The WAL side is computed with the
// log's own frame encoder, because reclaimed log files no longer show
// in any counter.
func (e *env) storage(ackedCols []*traj.Column) (storedPerPoint, writeAmp float64, err error) {
	var segBytes, segPoints int64
	for _, s := range e.repo.Segments() {
		segBytes += s.SizeBytes
		segPoints += int64(s.Points)
	}
	if segPoints == 0 {
		return 0, 0, fmt.Errorf("no sealed segments to size")
	}
	entries, err := os.ReadDir(e.opts.Dir)
	if err != nil {
		return 0, 0, err
	}
	var zoneBytes int64
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".zone.json") {
			info, err := ent.Info()
			if err != nil {
				return 0, 0, err
			}
			zoneBytes += info.Size()
		}
	}
	var walBytes, points int64
	var frame []byte
	for _, c := range ackedCols {
		frame = wal.EncodeFrame(frame[:0], wal.Record{Tick: c.Tick, IDs: c.IDs, Points: c.Points})
		walBytes += int64(len(frame))
		points += int64(c.Len())
	}
	return float64(segBytes) / float64(segPoints),
		float64(walBytes+segBytes+zoneBytes) / float64(16*points), nil
}

// residentHeap is HeapAlloc after a forced collection, per fixture
// point. The benchmark shares the process, so its own retained inputs
// (the raw fleet the repository also uses for exact queries, and the op
// list) are in the number; they are the same bytes on every commit.
func residentHeap(points int) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / float64(points)
}

// timed is the outcome of one closed-loop measured phase.
type timed struct {
	latMS    []float64 // client-side latency of every op sent
	doneS    []float64 // completion time of each op, seconds from phase start
	failed   int
	firstErr error
}

// runTimed walks the frozen op list with n closed-loop clients for d:
// each client sends its next request only after the previous reply. The
// list is shared — client k takes whichever index is next — continues
// where the previous phase stopped, and wraps if the run outlasts it.
func (e *env) runTimed(n int, d time.Duration) *timed {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		out = &timed{}
	)
	ops := e.fx.ops
	start := time.Now()
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.caller()
			var lat, done []float64
			failed := 0
			var firstErr error
			for time.Since(start) < d {
				o := &ops[int(e.next.Add(1)-1)%len(ops)]
				t0 := time.Now()
				_, err := c.do(o)
				lat = append(lat, msSince(t0))
				done = append(done, time.Since(start).Seconds())
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
				}
			}
			mu.Lock()
			out.latMS = append(out.latMS, lat...)
			out.doneS = append(out.doneS, done...)
			out.failed += failed
			if out.firstErr == nil {
				out.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// throughput is the median completions-per-second over the phase's
// whole half-second slices: one collection pause or scheduler hiccup
// moves a mean, not this.
func (t *timed) throughput(d time.Duration) float64 {
	const slice = 0.5
	n := int(d.Seconds() / slice)
	if n < 2 {
		return float64(len(t.doneS)) / d.Seconds()
	}
	counts := make([]float64, n)
	for _, s := range t.doneS {
		if i := int(s / slice); i < n {
			counts[i]++
		}
	}
	return median(counts) / slice
}

// liveRead is one reader request of a live round, kept for the oracle.
type liveRead struct {
	op  op
	ids []traj.ID
}

// round is one ingest-live round: a fresh empty repository, the whole
// fixture streamed in beside the reader, then close-without-flush and
// reopen.
type round struct {
	setupS    float64
	load      loadStats
	readMS    []float64
	readFails int
	reads     []liveRead
	recoveryS float64
	stored    float64
	writeAmp  float64
	stats     serve.Stats // just before the close
	firstErr  error
}

// liveRound runs one round and leaves the recovered repository open in
// the returned env (the caller closes it).
func liveRound(seed int64, w workload, dir string, keepReads, workers int) (*round, *env, error) {
	b, err := setUp(seed, w, dir, workers)
	if err != nil {
		return nil, nil, err
	}
	e, fx := b.env, b.env.fx
	r := &round{setupS: b.seconds}

	var acked atomic.Int64
	acked.Store(-1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the reader: 128-tick windows ending at the freshest acked tick
		defer wg.Done()
		c := e.caller()
		rng := rand.New(rand.NewSource(seed*104729 + 1))
		colAt := make(map[int]*traj.Column, len(fx.cols))
		for _, col := range fx.cols {
			colAt[col.Tick] = col
		}
		period := time.Second / time.Duration(w.ReaderHz)
		for slot := time.Now(); ; slot = slot.Add(period) {
			if wait := time.Until(slot); wait > 0 {
				time.Sleep(wait)
			} else {
				slot = time.Now() // a slow reply costs its slot; no catch-up burst
			}
			select {
			case <-stop:
				return
			default:
			}
			to := int(acked.Load())
			col := colAt[to]
			if col == nil { // nothing acked yet
				continue
			}
			p := col.Points[rng.Intn(col.Len())]
			half := fx.gc * w.SideCells / 2
			o := op{win: serve.WindowRequest{
				Rect: geo.Rect{MinX: p.X - half, MinY: p.Y - half, MaxX: p.X + half, MaxY: p.Y + half},
				From: max(0, to-w.SpanTicks+1),
				To:   to,
			}}
			t0 := time.Now()
			a, err := c.do(&o)
			r.readMS = append(r.readMS, msSince(t0))
			if err != nil {
				r.readFails++
				if r.firstErr == nil {
					r.firstErr = err
				}
				continue
			}
			// Reservoir-sample the reads the oracle will check, so they
			// span the whole round and not just its first ticks.
			read := liveRead{op: o, ids: a.win.IDs}
			if len(r.reads) < keepReads {
				r.reads = append(r.reads, read)
			} else if j := rng.Intn(len(r.readMS)); j < keepReads {
				r.reads[j] = read
			}
		}
	}()
	e.load(e.caller(), 0, len(fx.cols), &r.load, &acked)
	close(stop)
	wg.Wait()

	r.stats = e.repo.Stats()
	if r.recoveryS, err = e.reopen(); err != nil {
		return nil, nil, err
	}
	if r.stored, r.writeAmp, err = e.storage(fx.cols); err != nil {
		e.close()
		return nil, nil, err
	}
	return r, e, nil
}

// background is the context of every in-process call the benchmark
// makes: nothing here is cancelled.
var background = context.Background()
