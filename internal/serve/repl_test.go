package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ppqtraj/internal/repl"
	"ppqtraj/internal/traj"
	"ppqtraj/internal/wal"
)

// swapHandler routes requests to whatever handler is currently loaded —
// the stable "address" of a primary that crashes and comes back as a new
// Repository instance.
type swapHandler struct{ h atomic.Value }

type handlerBox struct{ h http.Handler }

func newSwapHandler(h http.Handler) *swapHandler {
	s := &swapHandler{}
	s.h.Store(handlerBox{h})
	return s
}

func (s *swapHandler) swap(h http.Handler) { s.h.Store(handlerBox{h}) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.h.Load().(handlerBox).h.ServeHTTP(w, req)
}

var downHandler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	http.Error(w, "primary is down", http.StatusServiceUnavailable)
})

// followerOptions derives a follower's options from the primary's test
// options: its own dirs and WAL, streaming from base, fast reconnects.
func followerOptions(t *testing.T, primary Options, base string) Options {
	t.Helper()
	opts := primary
	opts.Dir = t.TempDir()
	opts.WALDir = filepath.Join(opts.Dir, "wal")
	opts.WALFS = nil
	opts.ReplicateFrom = base
	opts.ReplBackoff = 2 * time.Millisecond
	opts.MaxReplicaLagTicks = 1 << 30 // staleness gating has its own test
	return opts
}

// waitCaughtUp blocks until the follower's stream cursor reaches the
// primary's WAL end and its applied watermark is no older.
func waitCaughtUp(t *testing.T, primary, follower *Repository, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		want := primary.wal.NextRec()
		st := follower.applier.Stats()
		if st.NextLSN >= want && follower.appliedTick.Load() >= primary.appliedTick.Load() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stalled: next_lsn=%d want %d, applied_tick=%d want %d (reconnects=%d)",
				st.NextLSN, want, follower.appliedTick.Load(), primary.appliedTick.Load(), st.Reconnects)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicationConvergence streams a full workload from a compacting
// primary to a compacting follower over real HTTP and requires the
// follower's exact answers to match the brute-force oracle — sealing
// happens independently on each side, and exact mode must not care.
// Run with -race.
func TestReplicationConvergence(t *testing.T) {
	d, cols := testData(t)
	rng := rand.New(rand.NewSource(41))

	opts := durableOptions(t, d)
	opts.HotTicks = 8
	opts.KeepHotTicks = 2
	opts.CompactInterval = time.Millisecond
	primary, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := httptest.NewServer(primary.Handler())
	defer srv.Close()

	cfOpts := followerOptions(t, opts, srv.URL)
	// Short long-poll wait so the empty-log keepalive comes back fast and
	// the bootstrap check below doesn't sit out a full 20s poll.
	cfOpts.ReplTransport = &repl.HTTPTransport{Base: srv.URL, Follower: "conv", Wait: 50 * time.Millisecond}
	follower, err := Open(cfOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	// Let the follower's first fetch land (placing its retention pin)
	// before write load starts, as a real bootstrap would: otherwise a
	// fast compactor can reclaim the log's head before anyone needs it.
	deadline := time.Now().Add(10 * time.Second)
	for !follower.applier.Stats().Connected {
		if time.Now().After(deadline) {
			t.Fatal("follower never reached the primary")
		}
		time.Sleep(time.Millisecond)
	}

	for i, col := range cols {
		if err := primary.IngestColumn(col); err != nil {
			t.Fatalf("ingest column %d: %v", i, err)
		}
	}
	waitCaughtUp(t, primary, follower, 30*time.Second)

	// The follower's answers must match ground truth exactly, however its
	// own compactor happened to shard the stream.
	verifyAgainstTruth(t, follower, cols, rng, 40)

	// Freshness surfaces: the follower's window answers carry the applied
	// watermark, and both roles report coherent stats.
	lastTick := cols[len(cols)-1].Tick
	res, err := follower.Window(context.Background(), follower.QueryCell(cols[0].Points[0]), cols[0].Tick, cols[0].Tick, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.AsOfTick != int64(lastTick) {
		t.Fatalf("as_of_tick = %d, want %d", res.AsOfTick, lastTick)
	}
	fs := follower.Stats()
	if fs.Repl == nil || fs.Repl.Role != "follower" || !fs.Repl.Connected || fs.Repl.AppliedRecords != int64(len(cols)) {
		t.Fatalf("follower repl stats: %+v", fs.Repl)
	}
	ps := primary.Stats()
	if ps.Repl == nil || ps.Repl.Role != "primary" || ps.Repl.ShippedRecords < int64(len(cols)) || ps.Repl.FollowerHolds != 1 {
		t.Fatalf("primary repl stats: %+v", ps.Repl)
	}

	// A caught-up follower is ready; direct writes to it are not.
	fsrv := httptest.NewServer(follower.Handler())
	defer fsrv.Close()
	resp, err := http.Get(fsrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("caught-up follower /readyz = %d, want 200", resp.StatusCode)
	}
	if err := follower.Ingest(9999, []traj.ID{1}, cols[0].Points[:1]); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower Ingest: err = %v, want ErrNotLeader", err)
	}
}

// TestReplicationCrashTorture kills primary, follower, or both at
// randomized stream positions (sometimes tearing the dying side's WAL
// tail), restarts them against the same address, and requires the
// follower to converge to point-for-point STRQ/Window/Path equality with
// a never-crashed primary. Compaction is disabled on every node so all
// three serve raw hot data — any divergence is then replication's fault
// alone, down to the bit. Run with -race.
func TestReplicationCrashTorture(t *testing.T) {
	d, cols := testData(t)
	rng := rand.New(rand.NewSource(53))

	opts := durableOptions(t, d)
	opts.HotTicks = 1 << 30
	opts.CompactInterval = time.Hour

	// Never-crashed reference, memory-only (it is the semantic oracle).
	refOpts := testOptions(d)
	refOpts.HotTicks = 1 << 30
	refOpts.CompactInterval = time.Hour
	ref, err := Open(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	primary, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	front := newSwapHandler(primary.Handler())
	srv := httptest.NewServer(front)
	defer srv.Close()

	fOpts := followerOptions(t, opts, srv.URL)
	follower, err := Open(fOpts)
	if err != nil {
		t.Fatal(err)
	}

	crashAt := make(map[int]int) // column index → 0 primary, 1 follower, 2 both
	for len(crashAt) < 6 {
		crashAt[1+rng.Intn(len(cols)-1)] = rng.Intn(3)
	}
	for i, col := range cols {
		if who, ok := crashAt[i]; ok {
			if who == 0 || who == 2 {
				front.swap(downHandler)
				stopWithoutFlush(t, primary)
				if rng.Intn(2) == 0 {
					tearWALTail(t, opts.WALDir)
				}
				if primary, err = Open(opts); err != nil {
					t.Fatalf("primary reopen at column %d: %v", i, err)
				}
				front.swap(primary.Handler())
			}
			if who == 1 || who == 2 {
				stopWithoutFlush(t, follower)
				if rng.Intn(2) == 0 {
					tearWALTail(t, fOpts.WALDir)
				}
				if follower, err = Open(fOpts); err != nil {
					t.Fatalf("follower reopen at column %d: %v", i, err)
				}
			}
		}
		if err := primary.IngestColumn(col); err != nil {
			t.Fatalf("ingest column %d: %v", i, err)
		}
		if err := ref.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	defer follower.Close()
	defer func() { primary.Close() }() //nolint:errcheck // closure: primary is reassigned above
	waitCaughtUp(t, primary, follower, 30*time.Second)

	// Acked-on-primary ⇒ applied-on-follower, exactly once each: the
	// follower's own WAL ends exactly where the primary's does.
	if got, want := follower.wal.NextRec(), primary.wal.NextRec(); got != want {
		t.Fatalf("follower WAL holds %d records, primary %d", got, want)
	}
	if got, want := follower.Stats().HotPoints, ref.Stats().HotPoints; got != want {
		t.Fatalf("follower holds %d hot points, reference %d (lost or doubled records)", got, want)
	}

	// Point-for-point equality with the never-crashed run: STRQ (both
	// modes), Window, and Path all serve raw hot data on every node.
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		col := cols[rng.Intn(len(cols))]
		req := STRQRequest{P: col.Points[rng.Intn(col.Len())], Tick: col.Tick, Exact: i%2 == 0}
		got, err := strq(ctx, follower, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := strq(ctx, ref, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedIDs(got.IDs), sortedIDs(want.IDs)) || got.Covered != want.Covered {
			t.Fatalf("STRQ(tick %d) diverged: got %v want %v", col.Tick, sortedIDs(got.IDs), sortedIDs(want.IDs))
		}
	}
	for i := 0; i < 20; i++ {
		col := cols[rng.Intn(len(cols))]
		rect := follower.QueryCell(col.Points[rng.Intn(col.Len())])
		from, to := col.Tick-rng.Intn(10), col.Tick+rng.Intn(10)
		got, err := follower.Window(ctx, rect, from, to, i%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Window(ctx, rect, from, to, i%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.IDs, want.IDs) {
			t.Fatalf("Window([%d,%d]) diverged: got %v want %v", from, to, got.IDs, want.IDs)
		}
	}
	for _, tr := range d.All() {
		got := follower.Path(ctx, tr.ID, tr.Start-1, tr.Len()+2)
		want := ref.Path(ctx, tr.ID, tr.Start-1, tr.Len()+2)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Path(%d) diverged:\n got %+v\nwant %+v", tr.ID, got, want)
		}
	}
}

// stubTransport scripts the stream by function — the seam for testing
// the staleness gate without racing a real primary.
type stubTransport struct {
	fetch atomic.Value // func(context.Context, int64) (repl.Batch, error)
}

func (s *stubTransport) Fetch(ctx context.Context, from int64) (repl.Batch, error) {
	return s.fetch.Load().(func(context.Context, int64) (repl.Batch, error))(ctx, from)
}

// TestFollowerStalenessGate pins the two 503 cases of a follower's
// /readyz — lag unknown (no primary contact yet) and lag beyond the
// bound — and proves reads keep answering with an honest as_of_tick
// throughout, while direct writes bounce with leader_unavailable.
func TestFollowerStalenessGate(t *testing.T) {
	d, _ := testData(t)
	opts := testOptions(d)
	opts.Dir = t.TempDir()
	opts.MaxReplicaLagTicks = 64

	stub := &stubTransport{}
	unreachable := func(context.Context, int64) (repl.Batch, error) {
		return repl.Batch{}, errors.New("connection refused")
	}
	stub.fetch.Store(unreachable)
	opts.ReplTransport = stub
	opts.ReplBackoff = time.Millisecond
	follower, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	srv := httptest.NewServer(follower.Handler())
	defer srv.Close()

	readyz := func() (int, string) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Never heard from the primary: lag is unknowable, not zero.
	if code, body := readyz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "lag unknown") {
		t.Fatalf("pre-contact /readyz = %d %q, want 503 lag unknown", code, body)
	}

	// The primary reports a watermark far ahead of anything applied here:
	// the gate must trip on the bound.
	stub.fetch.Store(func(context.Context, int64) (repl.Batch, error) {
		return repl.Batch{PrimaryTick: 5000}, nil
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, known := follower.ReplLag(); known {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never learned the primary's watermark")
		}
		time.Sleep(time.Millisecond)
	}
	if code, body := readyz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "exceeds") {
		t.Fatalf("lagging /readyz = %d %q, want 503 lag bound", code, body)
	}
	if lag, _ := follower.ReplLag(); lag != 5001 { // 5000 - (-1)
		t.Fatalf("lag = %d, want 5001", lag)
	}

	// Reads still answer — bounded-stale, never erroring — with the
	// honest as_of_tick of an empty replica.
	res, err := follower.Window(context.Background(), follower.QueryCell(d.All()[0].Points[0]), 0, 10, false)
	if err != nil {
		t.Fatalf("stale follower read: %v", err)
	}
	if res.AsOfTick != -1 {
		t.Fatalf("empty follower as_of_tick = %d, want -1", res.AsOfTick)
	}

	// Writes bounce with the machine-readable reason.
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/json",
		strings.NewReader(`{"ticks":[{"tick":1,"points":[{"id":1,"x":0,"y":0}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rej struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || rej.Reason != "leader_unavailable" {
		t.Fatalf("follower ingest = %d reason %q, want 503 leader_unavailable", resp.StatusCode, rej.Reason)
	}
}

// TestSlowFollowerNoGap is the WAL GC race: a follower stalls mid-catch-up
// while the primary rotates, seals, and reclaims log segments. The
// shipper's standing pin must keep the follower's resume position on
// disk — reclamation proceeds below it, never across it — so the
// follower finishes with zero gaps when it wakes.
func TestSlowFollowerNoGap(t *testing.T) {
	d, cols := testData(t)
	rng := rand.New(rand.NewSource(67))

	opts := durableOptions(t, d)
	opts.WALSegmentBytes = 4 << 10 // many rotations
	opts.HotTicks = 1 << 30        // compaction only on explicit Flush
	opts.CompactInterval = time.Hour
	primary, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := httptest.NewServer(primary.Handler())
	defer srv.Close()

	half := len(cols) / 2
	for _, col := range cols[:half] {
		if err := primary.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}

	fOpts := followerOptions(t, opts, srv.URL)
	ft := &repl.FaultTransport{Base: &repl.HTTPTransport{
		Base: srv.URL, Follower: "slow", Wait: 50 * time.Millisecond,
	}}
	fOpts.ReplTransport = ft
	follower, err := Open(fOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitCaughtUp(t, primary, follower, 30*time.Second)
	// Being caught up is not yet being pinned there: the shipper moves the
	// follower's retention pin to its from_lsn only when the next poll
	// arrives. Wait for two more polls after the catch-up — the first pins
	// at the caught-up position, and the follower sends the second only
	// after the first has returned — so the pin sits at NextRec before the
	// stall. Otherwise it can stay at an older position and hold back
	// every reclamation below.
	polled := primary.shipper.Stats().StreamRequests
	for deadline := time.Now().Add(30 * time.Second); primary.shipper.Stats().StreamRequests < polled+2; {
		if time.Now().After(deadline) {
			t.Fatal("follower stopped polling after catching up")
		}
		time.Sleep(time.Millisecond)
	}

	// Stall the follower, then run the primary far ahead and seal+reclaim.
	ft.DropNext(1<<30, nil)
	for _, col := range cols[half:] {
		if err := primary.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Flush(); err != nil {
		t.Fatal(err)
	}
	st := primary.Stats()
	if st.WAL.Reclaimed == 0 {
		t.Fatal("test needs the primary to have reclaimed WAL segments under the stalled follower")
	}
	resume := follower.applier.Stats().NextLSN
	if oldest := primary.wal.OldestRec(); oldest > resume {
		t.Fatalf("GC ran past the stalled follower: oldest retained %d, follower resumes at %d", oldest, resume)
	}

	// Wake the follower: it must catch up through the retained tail with
	// zero gaps and match ground truth.
	ft.DropNext(0, nil)
	waitCaughtUp(t, primary, follower, 30*time.Second)
	if got := follower.applier.Stats().NextLSN; got != primary.wal.NextRec() {
		t.Fatalf("follower resumed to %d, want %d", got, primary.wal.NextRec())
	}
	verifyAgainstTruth(t, follower, cols, rng, 30)
}

// TestReplicationENOSPC fills the disk under both roles' WALs. Each must
// latch fail-stop cleanly — 503 + degraded:true, reads still serving, no
// torn acked state — and the follower must resume incremental catch-up
// after a restart with space freed.
func TestReplicationENOSPC(t *testing.T) {
	d, cols := testData(t)
	rng := rand.New(rand.NewSource(79))

	opts := durableOptions(t, d)
	opts.HotTicks = 1 << 30
	opts.CompactInterval = time.Hour
	pfs := wal.NewFaultFS()
	opts.WALFS = pfs
	primary, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := httptest.NewServer(primary.Handler())
	defer srv.Close()

	fOpts := followerOptions(t, opts, srv.URL)
	ffs := wal.NewFaultFS()
	fOpts.WALFS = ffs
	follower, err := Open(fOpts)
	if err != nil {
		t.Fatal(err)
	}

	half := len(cols) / 2
	for _, col := range cols[:half] {
		if err := primary.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, primary, follower, 30*time.Second)

	// Follower disk full: the apply path latches its WAL fail-stopped.
	ffs.SetWriteErr(syscall.ENOSPC)
	for _, col := range cols[half:] {
		if err := primary.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for follower.Degraded() == nil {
		if time.Now().After(deadline) {
			t.Fatal("follower never latched ENOSPC from the apply path")
		}
		time.Sleep(time.Millisecond)
	}
	fs := follower.Stats()
	if !fs.Degraded {
		t.Fatal("follower stats hide degraded state")
	}
	// Reads keep serving the applied prefix exactly.
	verifyAgainstTruth(t, follower, cols[:half], rng, 15)

	// "Restart with space freed": the WAL replays only acked records —
	// nothing torn — and catch-up resumes from the follower's own
	// position, never from zero.
	stopWithoutFlush(t, follower)
	ffs.SetWriteErr(nil)
	follower, err = Open(fOpts)
	if err != nil {
		t.Fatalf("follower reopen after ENOSPC: %v", err)
	}
	defer follower.Close()
	if from := follower.applier.Stats().NextLSN; from == 0 || from > int64(half)+1 {
		t.Fatalf("follower resumed at %d, want its own durable position near %d", from, half)
	}
	waitCaughtUp(t, primary, follower, 30*time.Second)
	verifyAgainstTruth(t, follower, cols, rng, 20)

	// Primary disk full: ingest 503s with degraded:true while queries and
	// the stream keep serving what is already durable.
	pfs.SetWriteErr(syscall.ENOSPC)
	// A fresh trajectory ID sidesteps contiguity validation, so the write
	// reaches the WAL and trips ENOSPC there.
	nextTick := cols[len(cols)-1].Tick + 1
	if err := primary.Ingest(nextTick, []traj.ID{1 << 20}, cols[0].Points[:1]); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("primary ingest on full disk: err = %v, want ENOSPC", err)
	}
	// The failure latches: every later write fail-stops without touching disk.
	if err := primary.Ingest(nextTick, []traj.ID{1 << 20}, cols[0].Points[:1]); !errors.Is(err, wal.ErrFailStopped) {
		t.Fatalf("primary ingest after latch: err = %v, want fail-stop", err)
	}
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded primary /readyz = %d, want 503", resp.StatusCode)
	}
	if ps := primary.Stats(); !ps.Degraded {
		t.Fatal("primary stats hide degraded state")
	}
	verifyAgainstTruth(t, primary, cols, rng, 15)
}

// TestMemoryOnlyHasNoStream: a repository without a WAL has nothing to
// ship — the endpoint says so instead of pretending.
func TestMemoryOnlyHasNoStream(t *testing.T) {
	d, _ := testData(t)
	repo, err := Open(testOptions(d))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	srv := httptest.NewServer(repo.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/repl/stream?from_lsn=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("memory-only stream = %d, want 501", resp.StatusCode)
	}
	if st := repo.Stats(); st.Repl != nil {
		t.Fatalf("memory-only repl stats = %+v, want absent", st.Repl)
	}
}
