// Package admit is the serving layer's overload valve: it decides, before
// any work happens, whether a request may run now, wait briefly, or must
// be shed. Three mechanisms compose:
//
//   - A bounded in-flight semaphore per endpoint class (ingest vs query)
//     caps concurrent work, so a traffic spike cannot pile up goroutines,
//     memory, and lock convoys until the process collapses.
//   - A bounded wait queue in front of each semaphore absorbs short
//     bursts: a request that finds every slot busy waits up to MaxWait for
//     one, but only while the queue itself has room — a full queue sheds
//     immediately, which is what keeps queueing delay (and therefore
//     served-request latency) bounded no matter the offered load.
//   - A per-client token bucket throttles individual heavy hitters before
//     they reach the shared semaphores, so one chatty client degrades its
//     own experience, not everyone's.
//
// A shed request gets a Rejection carrying the HTTP status to return
// (429) and a Retry-After hint computed from the current queue depth —
// clients that honor it spread the retry storm instead of synchronizing
// it. The controller never blocks longer than MaxWait and never allocates
// per admitted request beyond the release closure.
package admit

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppqtraj/internal/obs"
)

// Class names an endpoint family with its own in-flight budget. Ingest
// and query traffic are capped independently: a write burst must not
// starve reads of their slots, and vice versa.
type Class int

const (
	// Ingest covers mutating endpoints (/v1/ingest, /v1/flush).
	Ingest Class = iota
	// Query covers read endpoints (/v1/query, /v1/window).
	Query
	numClasses
)

// String returns the class's stats key.
func (c Class) String() string {
	switch c {
	case Ingest:
		return "ingest"
	case Query:
		return "query"
	}
	return "unknown"
}

// Options configures a Controller. The zero value enables admission with
// generous defaults; set a field negative to disable that mechanism.
type Options struct {
	// MaxInFlightIngest caps concurrently running ingest-class requests
	// (default 64; negative = unlimited).
	MaxInFlightIngest int
	// MaxInFlightQuery caps concurrently running query-class requests
	// (default 256; negative = unlimited).
	MaxInFlightQuery int
	// MaxQueue bounds how many requests may wait for a slot per class
	// (default 4× the class's in-flight cap; negative = no queue, i.e.
	// shed the instant every slot is busy).
	MaxQueue int
	// MaxWait bounds how long one request waits for a slot before it is
	// shed (default 100ms). This is the queueing-delay budget: served
	// requests never carry more than MaxWait of admission latency.
	MaxWait time.Duration
	// ClientRate is the per-client steady-state request budget in
	// requests/second, enforced with a token bucket keyed by the client
	// key (X-Client-ID header or remote host). 0 disables quotas.
	ClientRate float64
	// ClientBurst is the bucket depth (default 4× ClientRate, min 8).
	ClientBurst int
	// Metrics, when set, registers a per-class admission-wait histogram
	// (ppq_admission_wait_seconds). Fast-path admissions observe zero
	// without reading the clock, so the uncontended path stays cheap;
	// queued admissions observe their real wait.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxInFlightIngest == 0 {
		o.MaxInFlightIngest = 64
	}
	if o.MaxInFlightQuery == 0 {
		o.MaxInFlightQuery = 256
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 100 * time.Millisecond
	}
	if o.ClientBurst <= 0 {
		o.ClientBurst = int(4 * o.ClientRate)
		if o.ClientBurst < 8 {
			o.ClientBurst = 8
		}
	}
	return o
}

// Rejection tells the transport layer how to shed a request.
type Rejection struct {
	// Status is the HTTP status to return (always 429 today; a field so
	// transports never hard-code the mapping).
	Status int
	// RetryAfter is the suggested client back-off, derived from the
	// rejecting mechanism's current pressure.
	RetryAfter time.Duration
	// Reason is a short machine-readable cause: "queue_full",
	// "slot_wait_timeout", or "client_quota".
	Reason string
}

// gate is one class's bounded in-flight semaphore plus bounded wait
// queue.
type gate struct {
	slots    chan struct{} // nil = unlimited
	maxQueue int
	maxWait  time.Duration
	waitHist *obs.Histogram // nil without Options.Metrics

	queued    atomic.Int64
	inflight  atomic.Int64
	highWater atomic.Int64 // max observed inflight, for tests and stats
	admitted  atomic.Int64
	shed      atomic.Int64
}

func newGate(maxInFlight, maxQueue int, maxWait time.Duration) *gate {
	g := &gate{maxWait: maxWait}
	if maxInFlight > 0 {
		g.slots = make(chan struct{}, maxInFlight)
		g.maxQueue = maxQueue
		if maxQueue == 0 {
			g.maxQueue = 4 * maxInFlight
		}
	}
	return g
}

// acquire claims a slot, waiting up to maxWait while the queue has room.
// ok=false means shed; the returned Rejection says why and for how long
// to back off.
func (g *gate) acquire(ctx context.Context) (ok bool, rej Rejection) {
	if g.slots == nil {
		g.enter()
		g.observeWait(0)
		return true, Rejection{}
	}
	select {
	case g.slots <- struct{}{}:
		g.enter()
		g.observeWait(0)
		return true, Rejection{}
	default:
	}
	// Every slot is busy. Queue if there is room, shed otherwise — an
	// unbounded queue is just a slow-motion collapse.
	if g.maxQueue <= 0 || int(g.queued.Load()) >= g.maxQueue {
		g.shed.Add(1)
		return false, Rejection{Status: 429, RetryAfter: g.retryAfter(), Reason: "queue_full"}
	}
	start := time.Now()
	g.queued.Add(1)
	defer g.queued.Add(-1)
	timer := time.NewTimer(g.maxWait)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		g.enter()
		g.observeWait(time.Since(start).Seconds())
		return true, Rejection{}
	case <-timer.C:
		g.shed.Add(1)
		return false, Rejection{Status: 429, RetryAfter: g.retryAfter(), Reason: "slot_wait_timeout"}
	case <-ctx.Done():
		g.shed.Add(1)
		return false, Rejection{Status: 429, RetryAfter: g.retryAfter(), Reason: "client_gone"}
	}
}

// observeWait records an admitted request's slot wait. The uncontended
// path passes a constant 0 so it never reads the clock.
func (g *gate) observeWait(seconds float64) {
	if g.waitHist != nil {
		g.waitHist.Observe(seconds)
	}
}

// enter books an admitted request's counters.
func (g *gate) enter() {
	g.admitted.Add(1)
	n := g.inflight.Add(1)
	for {
		hw := g.highWater.Load()
		if n <= hw || g.highWater.CompareAndSwap(hw, n) {
			break
		}
	}
}

// release returns the slot.
func (g *gate) release() {
	g.inflight.Add(-1)
	if g.slots != nil {
		<-g.slots
	}
}

// retryAfter estimates how long until a slot frees up for a new arrival:
// one MaxWait round per full queue of waiters ahead of it, at least one
// second so naive clients do not hammer in a tight loop.
func (g *gate) retryAfter() time.Duration {
	d := time.Second
	if g.maxQueue > 0 {
		rounds := 1 + int(g.queued.Load())/g.maxQueue
		if est := time.Duration(rounds) * g.maxWait; est > d {
			d = est
		}
	}
	return d
}

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// buckets is the per-client quota table. Buckets are materialized on
// first use and swept when the table is full — a stale bucket is by
// definition full, so dropping it loses nothing. The table never holds
// more than maxClients buckets: while it is full of active clients, every
// new key is charged to one shared overflow bucket, so a flood of fresh
// client IDs neither grows the table nor escapes the quota.
type buckets struct {
	rate  float64
	burst float64

	mu        sync.Mutex
	m         map[string]*bucket
	overflow  bucket
	nextSweep time.Time // a full table is swept at most once per idle period

	rejected atomic.Int64
}

const maxClients = 1 << 16

func (b *buckets) allow(key string, now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bk := b.m[key]
	if bk == nil {
		if len(b.m) >= maxClients && !now.Before(b.nextSweep) {
			b.sweepLocked(now)
		}
		if len(b.m) < maxClients {
			bk = &bucket{tokens: b.burst, last: now}
			b.m[key] = bk
		} else {
			bk = &b.overflow
		}
	}
	if dt := now.Sub(bk.last).Seconds(); dt > 0 {
		bk.tokens += dt * b.rate
		if bk.tokens > b.burst {
			bk.tokens = b.burst
		}
		bk.last = now
	}
	if bk.tokens >= 1 {
		bk.tokens--
		return true, 0
	}
	b.rejected.Add(1)
	// Time until one whole token accrues, rounded up to a second for
	// header-friendliness.
	need := (1 - bk.tokens) / b.rate
	d := time.Duration(need * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	return false, d
}

// sweepLocked drops buckets idle long enough to have refilled — they
// carry no quota state a fresh bucket would not. A bucket it keeps turns
// idle within one idle period, so the next sweep waits that long: the
// O(table) pass runs at most once per period, not once per new key.
func (b *buckets) sweepLocked(now time.Time) {
	idle := time.Duration(b.burst / b.rate * float64(time.Second))
	if idle < time.Second {
		idle = time.Second
	}
	b.nextSweep = now.Add(idle)
	for k, bk := range b.m {
		if now.Sub(bk.last) > idle {
			delete(b.m, k)
		}
	}
}

// Controller is the server-wide admission state: one gate per class plus
// the shared client-quota table. All methods are safe for concurrent use.
type Controller struct {
	opts  Options
	gates [numClasses]*gate
	quota *buckets // nil when ClientRate == 0
}

// New builds a Controller. A nil Controller is valid and admits
// everything (the memory-only / tests-off configuration).
func New(opts Options) *Controller {
	opts = opts.withDefaults()
	c := &Controller{opts: opts}
	c.gates[Ingest] = newGate(opts.MaxInFlightIngest, opts.MaxQueue, opts.MaxWait)
	c.gates[Query] = newGate(opts.MaxInFlightQuery, opts.MaxQueue, opts.MaxWait)
	if opts.Metrics != nil {
		hv := opts.Metrics.HistogramVec("ppq_admission_wait_seconds",
			"Slot wait of admitted requests (0 = uncontended fast path).",
			"class", obs.LatencyBuckets)
		c.gates[Ingest].waitHist = hv.With(Ingest.String())
		c.gates[Query].waitHist = hv.With(Query.String())
	}
	if opts.ClientRate > 0 {
		c.quota = &buckets{rate: opts.ClientRate, burst: float64(opts.ClientBurst), m: make(map[string]*bucket)}
	}
	return c
}

// Admit runs the full admission decision for one request: client quota
// first (cheap, and a throttled client must not consume queue room), then
// the class gate. On success the caller must invoke release exactly once
// when the work is done.
func (c *Controller) Admit(ctx context.Context, class Class, clientKey string) (release func(), rej Rejection, ok bool) {
	if c == nil {
		return func() {}, Rejection{}, true
	}
	if c.quota != nil && clientKey != "" {
		if allowed, after := c.quota.allow(clientKey, time.Now()); !allowed {
			return nil, Rejection{Status: 429, RetryAfter: after, Reason: "client_quota"}, false
		}
	}
	g := c.gates[class]
	admitted, rej := g.acquire(ctx)
	if !admitted {
		return nil, rej, false
	}
	return g.release, Rejection{}, true
}

// ClientKey derives the quota key for an HTTP request: the X-Client-ID
// header when present (load balancers and SDKs set it per tenant),
// otherwise the remote host with the port stripped so one client's
// parallel connections share a bucket.
func ClientKey(header func(string) string, remoteAddr string) string {
	if id := header("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(remoteAddr); err == nil {
		return host
	}
	return strings.TrimSpace(remoteAddr)
}

// GateStats is one class's admission counters.
type GateStats struct {
	MaxInFlight int   `json:"max_in_flight"` // 0 = unlimited
	InFlight    int64 `json:"in_flight"`
	HighWater   int64 `json:"in_flight_high_water"`
	Queued      int64 `json:"queued"`
	Admitted    int64 `json:"admitted"`
	Shed        int64 `json:"shed"`
}

// Stats is the /v1/stats admission section.
type Stats struct {
	Ingest        GateStats `json:"ingest"`
	Query         GateStats `json:"query"`
	QuotaRejected int64     `json:"quota_rejected"`
	QuotaClients  int       `json:"quota_clients"`
}

// Snapshot returns a point-in-time view of the controller's counters.
func (c *Controller) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	var st Stats
	st.Ingest = c.gates[Ingest].snapshot()
	st.Query = c.gates[Query].snapshot()
	if c.quota != nil {
		st.QuotaRejected = c.quota.rejected.Load()
		c.quota.mu.Lock()
		st.QuotaClients = len(c.quota.m)
		c.quota.mu.Unlock()
	}
	return st
}

func (g *gate) snapshot() GateStats {
	return GateStats{
		MaxInFlight: cap(g.slots),
		InFlight:    g.inflight.Load(),
		HighWater:   g.highWater.Load(),
		Queued:      g.queued.Load(),
		Admitted:    g.admitted.Load(),
		Shed:        g.shed.Load(),
	}
}
