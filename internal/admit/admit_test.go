package admit

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGateCapsInFlight(t *testing.T) {
	c := New(Options{MaxInFlightIngest: 3, MaxQueue: -1, MaxWait: time.Millisecond})
	ctx := context.Background()

	var releases []func()
	for i := 0; i < 3; i++ {
		release, _, ok := c.Admit(ctx, Ingest, "")
		if !ok {
			t.Fatalf("admit %d rejected with free slots", i)
		}
		releases = append(releases, release)
	}
	// Every slot busy and no queue: the fourth must shed immediately.
	_, rej, ok := c.Admit(ctx, Ingest, "")
	if ok {
		t.Fatal("fourth request admitted past the in-flight cap")
	}
	if rej.Status != 429 || rej.RetryAfter <= 0 || rej.Reason != "queue_full" {
		t.Fatalf("rejection = %+v", rej)
	}
	releases[0]()
	if _, _, ok := c.Admit(ctx, Ingest, ""); !ok {
		t.Fatal("request rejected after a slot was released")
	}
	st := c.Snapshot()
	if st.Ingest.HighWater != 3 || st.Ingest.Shed != 1 {
		t.Fatalf("stats = %+v", st.Ingest)
	}
}

func TestGateQueueAbsorbsBurst(t *testing.T) {
	// One slot, deep queue: a waiter parked behind a slow request must be
	// admitted when the slot frees within MaxWait.
	c := New(Options{MaxInFlightIngest: 1, MaxQueue: 4, MaxWait: 2 * time.Second})
	ctx := context.Background()
	release, _, ok := c.Admit(ctx, Ingest, "")
	if !ok {
		t.Fatal("first admit failed")
	}
	done := make(chan bool, 1)
	go func() {
		r2, _, ok := c.Admit(ctx, Ingest, "")
		if ok {
			r2()
		}
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	release()
	if !<-done {
		t.Fatal("queued request was shed although the slot freed in time")
	}
}

func TestGateShedsWhenQueueFull(t *testing.T) {
	c := New(Options{MaxInFlightIngest: 1, MaxQueue: 2, MaxWait: 50 * time.Millisecond})
	ctx := context.Background()
	release, _, ok := c.Admit(ctx, Ingest, "")
	if !ok {
		t.Fatal("first admit failed")
	}
	defer release()

	// Saturate the queue with two parked waiters (the slot never frees).
	var wg sync.WaitGroup
	var timedOut atomic.Int64
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, rej, ok := c.Admit(ctx, Ingest, ""); !ok && rej.Reason == "slot_wait_timeout" {
				timedOut.Add(1)
			}
		}()
	}
	deadline := time.Now().Add(time.Second)
	for int(c.gates[Ingest].queued.Load()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("waiters never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue full: an extra arrival sheds instantly, well before MaxWait.
	start := time.Now()
	_, rej, ok := c.Admit(ctx, Ingest, "")
	if ok || rej.Reason != "queue_full" {
		t.Fatalf("expected queue_full shed, got ok=%v rej=%+v", ok, rej)
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Fatalf("queue-full shed took %v (should not wait)", d)
	}
	wg.Wait()
	if timedOut.Load() != 2 {
		t.Fatalf("%d waiters timed out, want 2", timedOut.Load())
	}
}

func TestClientQuota(t *testing.T) {
	c := New(Options{ClientRate: 10, ClientBurst: 3, MaxWait: time.Millisecond})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		release, rej, ok := c.Admit(ctx, Query, "tenant-a")
		if !ok {
			t.Fatalf("burst request %d rejected: %+v", i, rej)
		}
		release()
	}
	_, rej, ok := c.Admit(ctx, Query, "tenant-a")
	if ok {
		t.Fatal("request over the client burst admitted")
	}
	if rej.Reason != "client_quota" || rej.RetryAfter < time.Second {
		t.Fatalf("quota rejection = %+v", rej)
	}
	// A different client is unaffected.
	if release, _, ok := c.Admit(ctx, Query, "tenant-b"); !ok {
		t.Fatal("unrelated client throttled")
	} else {
		release()
	}
	if st := c.Snapshot(); st.QuotaRejected != 1 || st.QuotaClients != 2 {
		t.Fatalf("quota stats = %+v", st)
	}
}

func TestClientQuotaRefills(t *testing.T) {
	b := &buckets{rate: 1000, burst: 1, m: make(map[string]*bucket)}
	now := time.Now()
	if ok, _ := b.allow("k", now); !ok {
		t.Fatal("fresh bucket rejected")
	}
	if ok, after := b.allow("k", now); ok || after <= 0 {
		t.Fatal("drained bucket admitted")
	}
	if ok, _ := b.allow("k", now.Add(10*time.Millisecond)); !ok {
		t.Fatal("bucket did not refill")
	}
}

// TestClientQuotaTableStaysAtCap fills the quota table with active
// clients, then admits fresh keys: the table must not grow past its cap,
// the fresh keys must share one overflow bucket, and once the table's
// buckets go idle a sweep makes room again.
func TestClientQuotaTableStaysAtCap(t *testing.T) {
	b := &buckets{rate: 1, burst: 2, m: make(map[string]*bucket)}
	t0 := time.Unix(1000, 0)
	for i := range maxClients {
		b.allow(strconv.Itoa(i), t0)
	}
	now := t0.Add(time.Millisecond)
	admitted := 0
	for i := range 10 {
		if ok, _ := b.allow("new-"+strconv.Itoa(i), now); ok {
			admitted++
		}
	}
	if len(b.m) != maxClients {
		t.Fatalf("table holds %d buckets, cap %d", len(b.m), maxClients)
	}
	if admitted != int(b.burst) {
		t.Fatalf("%d fresh keys admitted, want one shared burst of %v", admitted, b.burst)
	}
	// Every bucket has refilled after the idle period: the next fresh key
	// sweeps them out and gets a bucket of its own.
	later := t0.Add(time.Minute)
	if ok, _ := b.allow("late", later); !ok || b.m["late"] == nil || len(b.m) != 1 {
		t.Fatalf("after the idle period: ok=%v, %d buckets", ok, len(b.m))
	}
}

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	release, _, ok := c.Admit(context.Background(), Ingest, "any")
	if !ok {
		t.Fatal("nil controller rejected a request")
	}
	release()
	if st := c.Snapshot(); st != (Stats{}) {
		t.Fatalf("nil controller stats = %+v", st)
	}
}

func TestClientKey(t *testing.T) {
	hdr := func(m map[string]string) func(string) string {
		return func(k string) string { return m[k] }
	}
	if k := ClientKey(hdr(map[string]string{"X-Client-ID": "svc-7"}), "10.0.0.1:443"); k != "svc-7" {
		t.Fatalf("header key = %q", k)
	}
	if k := ClientKey(hdr(nil), "10.0.0.1:443"); k != "10.0.0.1" {
		t.Fatalf("addr key = %q", k)
	}
	if k := ClientKey(hdr(nil), "[::1]:8080"); k != "::1" {
		t.Fatalf("v6 addr key = %q", k)
	}
}

func TestUnlimitedGate(t *testing.T) {
	c := New(Options{MaxInFlightIngest: -1, MaxInFlightQuery: -1})
	ctx := context.Background()
	var releases []func()
	for i := 0; i < 100; i++ {
		release, _, ok := c.Admit(ctx, Query, "")
		if !ok {
			t.Fatalf("unlimited gate rejected request %d", i)
		}
		releases = append(releases, release)
	}
	for _, r := range releases {
		r()
	}
	if st := c.Snapshot(); st.Query.Admitted != 100 || st.Query.InFlight != 0 {
		t.Fatalf("stats = %+v", st.Query)
	}
}
