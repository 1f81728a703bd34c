package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppqtraj/internal/admit"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/wal"
)

// ingestBody builds a one-tick ingest payload for a disjoint ID range.
func ingestBody(t *testing.T, tick int, base uint32, n int) []byte {
	t.Helper()
	pts := make([]IngestPoint, n)
	for i := range pts {
		pts[i] = IngestPoint{ID: base + uint32(i), X: float64(i) * 1e-4, Y: float64(tick) * 1e-4}
	}
	blob, err := json.Marshal(IngestRequest{Ticks: []IngestTick{{Tick: tick, Points: pts}}})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestOverloadShedsBounded drives offered load far beyond the configured
// capacity and checks the overload contract: in-flight work never
// exceeds the cap, the excess is shed with 429 + Retry-After instead of
// queueing without bound, and every request — served or shed — completes
// promptly (bounded p99 for the served, instant rejection for the rest).
// Run with -race.
func TestOverloadShedsBounded(t *testing.T) {
	// A tmpfs ingest finishes in microseconds — the queue would drain
	// faster than 64 goroutines can even arrive, and nothing sheds. Give
	// each ingest a real disk's fsync cost so offered load genuinely
	// exceeds capacity.
	ffs := wal.NewFaultFS()
	ffs.SetSyncDelay(5 * time.Millisecond)
	opts := testOptions(nil)
	opts.Dir = t.TempDir()
	opts.WALSync = wal.SyncAlways
	opts.WALFS = ffs
	opts.HotTicks = 1 << 20 // no compaction noise
	opts.CompactInterval = time.Hour
	opts.Log = obs.Discard()
	opts.Admit = admit.Options{
		MaxInFlightIngest: 2,
		MaxInFlightQuery:  2,
		MaxQueue:          2,
		MaxWait:           20 * time.Millisecond,
	}
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(repo.Handler())
	t.Cleanup(func() {
		srv.Close()
		repo.Close()
	})

	// Offered load: 64 concurrent clients against capacity 2+2 — far
	// beyond 2× capacity. Each client fires one ingest and one query.
	const clients = 64
	var (
		wg          sync.WaitGroup
		served      atomic.Int64
		shed        atomic.Int64
		latencies   = make([]time.Duration, clients)
		shedMissing atomic.Int64
	)
	client := srv.Client()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start := time.Now()
			resp, err := client.Post(srv.URL+"/v1/ingest", "application/json",
				bytes.NewReader(ingestBody(t, 1, uint32(1000*(c+1)), 2)))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			latencies[c] = time.Since(start)
			switch resp.StatusCode {
			case http.StatusOK:
				served.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
				if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
					shedMissing.Add(1)
				}
			default:
				t.Errorf("client %d: unexpected status %d", c, resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("overload served nothing — shedding everything is collapse too")
	}
	if shed.Load() == 0 {
		t.Fatalf("64 clients against capacity 2 shed nothing (served=%d)", served.Load())
	}
	if shedMissing.Load() > 0 {
		t.Fatalf("%d shed responses lacked a usable Retry-After header", shedMissing.Load())
	}
	st := repo.Stats()
	if hw := st.Admission.Ingest.HighWater; hw > 2 {
		t.Fatalf("in-flight high water %d exceeded the cap of 2", hw)
	}
	if st.Admission.Ingest.Shed != shed.Load() {
		t.Fatalf("stats count %d shed, clients saw %d", st.Admission.Ingest.Shed, shed.Load())
	}
	// Bounded latency: even the slowest request (served or shed) must
	// finish within queue-wait + service time, far under a second here.
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if p99 := latencies[len(latencies)*99/100]; p99 > 5*time.Second {
		t.Fatalf("p99 latency %v under overload — queueing is unbounded", p99)
	}
}

// TestClientQuotaThrottlesPerClient checks one chatty client is throttled
// by its token bucket while another client sails through.
func TestClientQuotaThrottlesPerClient(t *testing.T) {
	opts := testOptions(nil)
	opts.Admit = admit.Options{ClientRate: 1, ClientBurst: 2}
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(repo.Handler())
	t.Cleanup(func() {
		srv.Close()
		repo.Close()
	})

	post := func(clientID string, tick int, base uint32) int {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/ingest",
			bytes.NewReader(ingestBody(t, tick, base, 1)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-ID", clientID)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("greedy", 1, 100); code != http.StatusOK {
		t.Fatalf("first request: %d", code)
	}
	if code := post("greedy", 2, 100); code != http.StatusOK {
		t.Fatalf("second request: %d", code)
	}
	if code := post("greedy", 3, 100); code != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: %d, want 429", code)
	}
	if code := post("polite", 1, 200); code != http.StatusOK {
		t.Fatalf("unrelated client throttled: %d", code)
	}
	if st := repo.Stats(); st.Admission.QuotaRejected != 1 {
		t.Fatalf("quota stats = %+v", st.Admission)
	}
}

// TestOversizedBodyIs413 posts a body beyond the transport cap and
// expects 413 Payload Too Large, not a generic 400.
func TestOversizedBodyIs413(t *testing.T) {
	// Shrink the cap so the overflow body stays cheap to build and parse.
	old := maxBodyBytes
	maxBodyBytes = 1 << 16
	t.Cleanup(func() { maxBodyBytes = old })
	_, srv := httpRepo(t)
	// Valid JSON shape throughout: the points array keeps the parser
	// happily consuming until the transport cap cuts it off, proving the
	// 413 comes from the size check, not a syntax error.
	var buf bytes.Buffer
	buf.WriteString(`{"ticks":[{"tick":1,"points":[`)
	chunk := []byte(`{"id":1,"x":0.1,"y":0.2},`)
	for int64(buf.Len()) < maxBodyBytes+1024 {
		buf.Write(chunk)
	}
	buf.WriteString(`{"id":2,"x":0,"y":0}]}]}`)
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var out httpError
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Error == "" {
		t.Fatalf("413 body = %+v (%v)", out, err)
	}
}

// TestFaultInjectedBurstDegradesCleanly is the acceptance test for
// degraded mode: a concurrent ingest burst is in flight when the disk's
// fsyncs start failing. Required behavior: (a) after the latch, ingests
// return 503 with the latched error, never 200; (b) /v1/stats reports
// degraded:true; (c) no acknowledged batch is lost — every 200-acked
// tick is replayed after reopening the directory; (d) queries keep
// serving. Run with -race.
func TestFaultInjectedBurstDegradesCleanly(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS()
	opts := testOptions(nil)
	opts.Dir = dir
	opts.WALSync = wal.SyncAlways
	opts.GroupCommitWait = time.Millisecond
	opts.WALFS = ffs
	opts.HotTicks = 1 << 20 // keep everything hot: recovery must come from the WAL alone
	opts.CompactInterval = time.Hour
	opts.Log = obs.Discard()
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(repo.Handler())
	defer srv.Close()

	// Concurrent clients ingest disjoint ID ranges at their own ticks;
	// mid-burst the disk dies. Collect every 200-acked (client, tick).
	const clients, ticksPerClient = 6, 30
	var (
		ackedMu sync.Mutex
		acked   = make(map[[2]int]bool)
		saw503  atomic.Int64
		badErr  atomic.Int64
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for tick := 1; tick <= ticksPerClient; tick++ {
				resp, err := srv.Client().Post(srv.URL+"/v1/ingest", "application/json",
					bytes.NewReader(ingestBody(t, tick, uint32(10000*(c+1)), 3)))
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ackedMu.Lock()
					acked[[2]int{c, tick}] = true
					ackedMu.Unlock()
				case http.StatusServiceUnavailable:
					saw503.Add(1)
					if !bytes.Contains(body, []byte("injected")) {
						badErr.Add(1)
					}
					return // fail-stopped: this client gives up
				default:
					t.Errorf("client %d tick %d: status %d (%s)", c, tick, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}
	// Let the burst get going, then kill the disk's durability barrier.
	time.Sleep(10 * time.Millisecond)
	ffs.SetSyncErr(errors.New("injected fsync failure: device gone"))
	wg.Wait()

	if saw503.Load() == 0 {
		t.Fatal("no client saw a 503 — the burst finished before the fault landed; tighten the timing")
	}
	if badErr.Load() > 0 {
		t.Fatalf("%d 503 bodies did not carry the latched error", badErr.Load())
	}

	// Probes see the degraded bit without string matching.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded || st.WAL.Failed == "" {
		t.Fatalf("stats after latch: degraded=%v wal.failed=%q", st.Degraded, st.WAL.Failed)
	}

	// Reads still serve while ingest is fail-stopped.
	var qr QueryResponse
	if code := postJSON(t, srv.URL+"/v1/query", QueryRequest{Queries: []STRQRequest{
		{P: geo.Pt(0, 1e-4), Tick: 1},
	}}, &qr); code != http.StatusOK {
		t.Fatalf("query on a degraded server: status %d", code)
	}

	// Every acked batch must survive: reopen the directory with a healthy
	// filesystem and check each acked (client, tick) is resident.
	repo.Close() //nolint:errcheck // the WAL is latched; Close may surface it
	opts.WALFS = nil
	opts.GroupCommitWait = 0
	repo2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	ackedMu.Lock()
	defer ackedMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("nothing was acked before the fault — the test never exercised the ack path")
	}
	for key := range acked {
		c, tick := key[0], key[1]
		v := repo2.readView(tick, tick)
		if len(v.cols) == 0 {
			t.Fatalf("acked tick %d (client %d) missing entirely after recovery", tick, c)
		}
		found := false
		for _, id := range v.cols[0].appendWithin(nil, geo.NewRect(-1, -1, 1, 1)) {
			if id == uint32(10000*(c+1)) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("acked batch (client %d, tick %d) lost after recovery", c, tick)
		}
	}
}

// TestGroupCommitHTTPConcurrentIngest drives concurrent HTTP ingest under
// fsync=always with a batching window and checks every ack is durable and
// fsyncs were shared (commits > syncs). Run with -race.
func TestGroupCommitHTTPConcurrentIngest(t *testing.T) {
	dir := t.TempDir()
	// On tmpfs an fsync is nearly free, so HTTP round-trip latency alone
	// keeps commits from overlapping and the window never engages. Give
	// the disk a realistic fsync cost so concurrent acks pile up behind
	// it — the regime group commit exists for.
	ffs := wal.NewFaultFS()
	ffs.SetSyncDelay(time.Millisecond)
	opts := testOptions(nil)
	opts.Dir = dir
	opts.WALSync = wal.SyncAlways
	opts.GroupCommitWait = 2 * time.Millisecond
	opts.WALFS = ffs
	opts.HotTicks = 1 << 20
	opts.CompactInterval = time.Hour
	opts.Log = obs.Discard()
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(repo.Handler())
	defer srv.Close()

	const clients, ticksPerClient = 8, 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for tick := 1; tick <= ticksPerClient; tick++ {
				resp, err := srv.Client().Post(srv.URL+"/v1/ingest", "application/json",
					bytes.NewReader(ingestBody(t, tick, uint32(1000*(c+1)), 2)))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d tick %d: status %d", c, tick, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := repo.Stats()
	if st.WAL.Commits != clients*ticksPerClient {
		t.Fatalf("%d WAL commits, want %d", st.WAL.Commits, clients*ticksPerClient)
	}
	if st.WAL.Syncs >= st.WAL.Commits {
		t.Fatalf("no group-commit batching over HTTP: %d fsyncs for %d commits", st.WAL.Syncs, st.WAL.Commits)
	}

	// Durability: close without flushing; every acked point replays.
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	opts.WALFS = nil // reopen on the real (instant) filesystem
	repo2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	if got, want := repo2.Stats().WALReplayedPoints, int64(clients*ticksPerClient*2); got != want {
		t.Fatalf("replayed %d points, want %d", got, want)
	}
}
