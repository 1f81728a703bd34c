package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/query"
	"ppqtraj/internal/traj"
)

// TestLongPathLenDoesNotStallIngest asks for paths 2^40 ticks long, far
// past every resident tick. A path walk costs only the segments and hot
// columns its view holds, never the absent ticks of the span, and runs
// outside the hot-tail lock, so Path and STRQ return promptly and an
// ingest racing them is acknowledged at once. The repository is closed
// only on success: a query stuck holding the lock would hang Close.
func TestLongPathLenDoesNotStallIngest(t *testing.T) {
	d, cols := testData(t)
	repo, err := Open(testOptions(d))
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every trajectory now ends at or before the sealed watermark.
	tr := d.All()[0]
	next := repo.Stats().SealedThrough + 1
	const huge = 1 << 40
	ctx := context.Background()
	var (
		path    Path
		ans     *STRQAnswer
		strqErr error
	)
	run := func(f func()) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		return done
	}
	finished := func(done <-chan struct{}) bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	start := time.Now()
	pathDone := run(func() { path = repo.Path(ctx, tr.ID, 0, huge) })
	strqDone := run(func() {
		ans, strqErr = repo.STRQ(ctx, STRQRequest{P: tr.Points[0], Tick: tr.Start, PathLen: huge})
	})
	// One trajectory keeps ingesting while the long queries run; every
	// batch must be acknowledged promptly.
	for tick := next; ; tick++ {
		var ingErr error
		select {
		case <-run(func() { ingErr = repo.Ingest(tick, []traj.ID{1 << 30}, []geo.Point{tr.Points[0]}) }):
		case <-time.After(100 * time.Millisecond):
			t.Fatalf("ingest of tick %d racing the long paths still waiting after 100ms", tick)
		}
		if ingErr != nil {
			t.Fatalf("ingest: %v", ingErr)
		}
		if finished(pathDone) && finished(strqDone) {
			break
		}
		if time.Since(start) > time.Second {
			t.Fatal("Path or STRQ with a 2^40-tick path still running after 1s")
		}
	}

	if path.Start != tr.Start || len(path.Points) != tr.Len() {
		t.Fatalf("Path: %d points from tick %d, want the whole trajectory: %d from %d",
			len(path.Points), path.Start, tr.Len(), tr.Start)
	}
	if strqErr != nil {
		t.Fatalf("STRQ: %v", strqErr)
	}
	if p, ok := ans.Paths[tr.ID]; !ok || p.Start != tr.Start || len(p.Points) != tr.Len() {
		t.Fatalf("STRQ path of %d: %+v, want %d points from tick %d", tr.ID, p, tr.Len(), tr.Start)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelledWindowReturnsPromptly is the acceptance test for the
// deadline-aware read path: a window query whose context is cancelled
// mid-scatter returns promptly with a context error, and the repository
// stays fully consistent — the same window re-run without cancellation
// matches brute force, and conservation still holds.
func TestCancelledWindowReturnsPromptly(t *testing.T) {
	d, cols := testData(t)
	repo, err := Open(testOptions(d))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}

	rect := geo.NewRect(-180, -90, 180, 90)
	lastTick := cols[len(cols)-1].Tick

	// A context that is cancelled concurrently with the scatter: the
	// per-tick checks pick it up mid-loop. If one attempt happens to finish
	// before the cancel lands, retry — one cancelled observation is all the
	// assertion needs, and with an immediate cancel that is the common case.
	sawCancel := false
	for attempt := 0; attempt < 50 && !sawCancel; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		start := time.Now()
		res, err := repo.Window(ctx, rect, 0, lastTick, true)
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			continue // completed before the cancel; try again
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled window: want context.Canceled, got %v", err)
		}
		if res != nil {
			t.Fatalf("cancelled window returned a result: %+v", res)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("cancelled window took %v to return", elapsed)
		}
		sawCancel = true
	}
	if !sawCancel {
		t.Fatal("cancellation never won the race in 50 attempts")
	}

	// An already-expired deadline is rejected deterministically.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := repo.Window(ctx, rect, 0, lastTick, false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: want DeadlineExceeded, got %v", err)
	}
	if _, err := repo.STRQ(ctx, STRQRequest{P: cols[0].Points[0], Tick: cols[0].Tick}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired STRQ deadline: want DeadlineExceeded, got %v", err)
	}

	// State after cancellation: untouched and fully queryable.
	st := repo.Stats()
	if st.SegmentPoints+st.HotPoints != d.NumPoints() {
		t.Fatalf("conservation violated after cancel: %d sealed + %d hot != %d",
			st.SegmentPoints, st.HotPoints, d.NumPoints())
	}
	if st.QueryErrors == 0 {
		t.Fatal("cancelled queries should be counted as query errors")
	}
	res, err := repo.Window(context.Background(), rect, 0, lastTick, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != d.Len() {
		t.Fatalf("post-cancel window found %d of %d trajectories", len(res.IDs), d.Len())
	}
}

// TestBatchCancelledMidway checks Batch's contract under cancellation:
// no zero-valued answers — every slot either carries a real answer or the
// context error.
func TestBatchCancelledMidway(t *testing.T) {
	d, cols := testData(t)
	repo, err := Open(testOptions(d))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]STRQRequest, 64)
	for i := range reqs {
		col := cols[i%len(cols)]
		reqs[i] = STRQRequest{P: col.Points[0], Tick: col.Tick}
	}
	answers := repo.Batch(ctx, reqs)
	for i, ans := range answers {
		if ans.Err == "" && ans.Source == "" {
			t.Fatalf("answer %d is zero-valued: %+v", i, ans)
		}
	}
}

// TestCacheHitsRacingCompactionTrim hammers cached STRQ and window reads
// against aggressive ingest + compaction: freshly published segments are
// probed (filling the cache) while the hot tail that briefly shadowed
// them is trimmed. Answers must stay exact against ground truth and the
// cache must both fill and hit. Run with -race.
func TestCacheHitsRacingCompactionTrim(t *testing.T) {
	d, cols := testData(t)
	opts := testOptions(d)
	opts.HotTicks = 4
	opts.KeepHotTicks = 1
	opts.CompactInterval = time.Millisecond
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	const workers = 3
	var ingested atomic.Int64
	ingested.Store(-1)
	var done atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + wk)))
			for !done.Load() {
				hi := ingested.Load()
				if hi < 0 {
					continue
				}
				col := cols[rng.Intn(int(hi)+1)]
				p := col.Points[rng.Intn(col.Len())]
				ans, err := repo.STRQ(context.Background(), STRQRequest{P: p, Tick: col.Tick, Exact: true})
				if err != nil {
					errCh <- err
					return
				}
				want := query.GroundTruth(d, ans.Cell, col.Tick)
				if !sameIDs(ans.IDs, want) {
					errCh <- fmt.Errorf("worker %d tick %d: got %v want %v (source %s)",
						wk, col.Tick, ans.IDs, want, ans.Source)
					return
				}
				// Window probes drive the chunked decode path of the cache.
				if wk == 0 {
					rect := geo.NewRect(p.X-0.002, p.Y-0.002, p.X+0.002, p.Y+0.002)
					if _, err := repo.Window(context.Background(), rect, col.Tick-3, col.Tick+3, false); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(wk)
	}
	for i, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
		ingested.Store(int64(i))
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	done.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if st := repo.Stats(); st.Compactions < 2 {
		t.Fatalf("workload should compact repeatedly, got %d", st.Compactions)
	}
	// Everything is sealed now; two identical probe passes guarantee cache
	// traffic even when the racing phase above was served mostly hot.
	rng := rand.New(rand.NewSource(55))
	var probes []STRQRequest
	for q := 0; q < 100; q++ {
		col := cols[rng.Intn(len(cols))]
		probes = append(probes, STRQRequest{P: col.Points[rng.Intn(col.Len())], Tick: col.Tick, Exact: true})
	}
	for pass := 0; pass < 2; pass++ {
		for _, req := range probes {
			ans, err := repo.STRQ(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			want := query.GroundTruth(d, ans.Cell, req.Tick)
			if !sameIDs(ans.IDs, want) {
				t.Fatalf("pass %d tick %d: got %v want %v", pass, req.Tick, ans.IDs, want)
			}
		}
	}
	st := repo.Stats()
	if st.Cache.Misses == 0 || st.Cache.Entries == 0 {
		t.Fatalf("cache never filled: %+v", st.Cache)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("repeated probes never hit the cache: %+v", st.Cache)
	}
}

// TestFreezeIngestRaceAtWatermark races a continuous single-trajectory
// ingest stream against a flusher that freezes and seals as fast as it
// can. A force-flush freezes the watermark at the highest resident hot
// tick, so right after each flush the next ingest lands at exactly
// floor+1 — the admission boundary. The contract under this race: a
// monotone ingester is NEVER rejected (the watermark can only reach its
// previous tick, not its next one), and no accepted point is lost or
// double-counted by the freeze/snapshot/publish/trim dance. Run with
// -race.
func TestFreezeIngestRaceAtWatermark(t *testing.T) {
	repo, err := Open(testOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := repo.Flush(); err != nil {
				panic(err)
			}
		}
	}()

	pt := []geo.Point{{X: 1, Y: 1}}
	id := []traj.ID{42}
	const ticks = 400
	for tick := 0; tick < ticks; tick++ {
		if err := repo.Ingest(tick, id, pt); err != nil {
			t.Fatalf("ingest at tick %d spuriously rejected: %v (watermark %d)",
				tick, err, repo.Stats().SealedThrough)
		}
	}
	close(stop)
	wg.Wait()
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	st := repo.Stats()
	if st.IngestedPoints != ticks {
		t.Fatalf("ingested counter %d != %d accepted", st.IngestedPoints, ticks)
	}
	if st.SegmentPoints+st.HotPoints != ticks {
		t.Fatalf("conservation violated: %d sealed + %d hot != %d accepted",
			st.SegmentPoints, st.HotPoints, ticks)
	}
	if st.HotPoints != 0 {
		t.Fatalf("final flush left %d hot points", st.HotPoints)
	}
	// The full path survived the shredding into per-flush segments.
	got := repo.Path(context.Background(), 42, 0, ticks)
	if got.Start != 0 || len(got.Points) != ticks {
		t.Fatalf("path start %d len %d, want 0 and %d", got.Start, len(got.Points), ticks)
	}
}

// TestHTTPDeadlineAndTimeouts covers the transport mapping: an expired
// per-request ?timeout= returns 504 with a context error, and a malformed
// timeout is a 400.
func TestHTTPDeadlineAndTimeouts(t *testing.T) {
	_, srv := httpRepo(t)
	blob, _ := json.Marshal(IngestRequest{Ticks: []IngestTick{
		{Tick: 0, Points: []IngestPoint{{ID: 1, X: 1, Y: 1}}},
	}})
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	q, _ := json.Marshal(QueryRequest{Queries: []STRQRequest{{P: geo.Pt(1, 1), Tick: 0}}})
	resp, err = http.Post(srv.URL+"/v1/query?timeout=1ns", "application/json", bytes.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	var he struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&he); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ns query timeout: status %d", resp.StatusCode)
	}
	if he.Error == "" {
		t.Fatal("504 response should carry the context error")
	}

	win, _ := json.Marshal(WindowRequest{Rect: geo.NewRect(0, 0, 2, 2), From: 0, To: 0})
	resp, err = http.Post(srv.URL+"/v1/window?timeout=1ns", "application/json", bytes.NewReader(win))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ns window timeout: status %d", resp.StatusCode)
	}

	for _, bad := range []string{"nope", "-5s", "0"} {
		resp, err = http.Post(srv.URL+"/v1/query?timeout="+bad, "application/json", bytes.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("timeout=%q: status %d", bad, resp.StatusCode)
		}
	}

	// A generous timeout answers normally.
	resp, err = http.Post(srv.URL+"/v1/query?timeout=30s", "application/json", bytes.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(qr.Answers) != 1 || qr.Answers[0].Err != "" {
		t.Fatalf("status %d answers %+v", resp.StatusCode, qr.Answers)
	}
}

// TestHTTPTimeoutCannotExceedConfiguredDefault checks the clamp: with an
// operator-configured deadline, a client's ?timeout= can shorten it but
// never extend it.
func TestHTTPTimeoutCannotExceedConfiguredDefault(t *testing.T) {
	opts := testOptions(nil)
	opts.DefaultQueryTimeout = time.Nanosecond // everything must expire
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(repo.Handler())
	t.Cleanup(func() {
		srv.Close()
		repo.Close()
	})
	q, _ := json.Marshal(QueryRequest{Queries: []STRQRequest{{P: geo.Pt(1, 1), Tick: 0}}})
	resp, err := http.Post(srv.URL+"/v1/query?timeout=10s", "application/json", bytes.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("?timeout=10s should be clamped to the 1ns default: status %d", resp.StatusCode)
	}
}

// TestHTTPStrictJSON guards the silent-zero-value bug: a misspelled field
// (the motivating case: "tik" instead of "tick" ingesting at tick 0) and
// trailing data are 400s, never partial acceptance.
func TestHTTPStrictJSON(t *testing.T) {
	repo, srv := httpRepo(t)
	for _, tc := range []struct {
		name, path, body string
	}{
		{"misspelled tick", "/v1/ingest", `{"ticks":[{"tik":5,"points":[{"id":1,"x":1,"y":1}]}]}`},
		{"misspelled queries", "/v1/query", `{"querys":[{"p":{"X":1,"Y":1},"tick":0}]}`},
		{"misspelled rect", "/v1/window", `{"rekt":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1},"from":0,"to":1}`},
		{"trailing data", "/v1/ingest", `{"ticks":[]}{"ticks":[]}`},
		{"trailing garbage", "/v1/query", `{"queries":[{"p":{"X":1,"Y":1},"tick":0}]} extra`},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// Nothing was ingested by the rejected bodies.
	if st := repo.Stats(); st.IngestedPoints != 0 {
		t.Fatalf("rejected bodies ingested %d points", st.IngestedPoints)
	}
}

// TestStatsExposeCacheCounters checks /v1/stats carries the cell cache
// section once traffic has warmed it.
func TestStatsExposeCacheCounters(t *testing.T) {
	_, srv := httpRepo(t)
	var ticks []IngestTick
	for tick := 0; tick < 3; tick++ {
		ticks = append(ticks, IngestTick{Tick: tick, Points: []IngestPoint{{ID: 1, X: 1, Y: 1}}})
	}
	if code := postJSON(t, srv.URL+"/v1/ingest", IngestRequest{Ticks: ticks}, nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/flush", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("flush status %d", code)
	}
	q := QueryRequest{Queries: []STRQRequest{{P: geo.Pt(1, 1), Tick: 1}}}
	for i := 0; i < 3; i++ {
		if code := postJSON(t, srv.URL+"/v1/query", q, nil); code != http.StatusOK {
			t.Fatalf("query status %d", code)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	cc, ok := raw["cell_cache"]
	if !ok {
		t.Fatalf("stats missing cell_cache: %v", raw)
	}
	var st struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	}
	if err := json.Unmarshal(cc, &st); err != nil {
		t.Fatal(err)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache counters never moved: %+v", st)
	}
}
