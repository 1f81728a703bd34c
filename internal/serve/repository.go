package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppqtraj/internal/admit"
	"ppqtraj/internal/cache"
	"ppqtraj/internal/core"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/par"
	"ppqtraj/internal/repl"
	"ppqtraj/internal/traj"
	"ppqtraj/internal/wal"
)

// Options configures a Repository.
type Options struct {
	// Build is the quantizer configuration every sealed segment is built
	// with (core.DefaultOptions is a good start).
	Build core.Options
	// Index is the TPI configuration of every segment's engine. Index.GC
	// also fixes the repository's query grid: STRQ cells are g_c cells of
	// a global grid anchored at the origin, so answers do not depend on
	// how the data happens to be sharded.
	Index index.Options
	// Dir, when non-empty, persists sealed segments and the manifest
	// there; Open reloads them. Empty means memory-only.
	Dir string
	// HotTicks is the hot-tail span (in ticks) that triggers background
	// compaction (default 64).
	HotTicks int
	// KeepHotTicks is how many of the freshest ticks a regular compaction
	// leaves hot (default HotTicks/4). Flush compacts everything.
	KeepHotTicks int
	// MaxSegmentTicks caps the tick span of one sealed segment (default
	// 4 × HotTicks). A compaction draining a long backlog publishes a
	// chain of segments of at most this span instead of one giant shard,
	// keeping per-segment build latency and query fan-out granularity
	// bounded.
	MaxSegmentTicks int
	// CompactInterval is the compactor's idle wake-up period (default 1s);
	// ingest pressure wakes it immediately.
	CompactInterval time.Duration
	// Raw, when non-nil, attaches raw trajectory storage to every segment
	// engine so exact-mode queries verify against ground truth. It must
	// cover every ingested trajectory ID. Without it, exact queries on
	// compacted ticks return query.ErrNoRaw (hot-tail ticks are raw by
	// nature and always answer exactly).
	Raw *traj.Dataset
	// Workers bounds the goroutines of batch probes, window segment scans,
	// segment loading at Open and a compaction's chunk builds. Each
	// segment build runs on one goroutine, so this bounds every build
	// goroutine of open and compaction. 0 means runtime.NumCPU(); either
	// way the pool is capped at GOMAXPROCS. 1 runs each of them serially.
	Workers int
	// CacheBytes budgets the shared decoded-cell cache sitting in front
	// of every sealed segment's compressed postings: repeated STRQ and
	// point probes of hot cells reuse decoded ID lists instead of
	// re-running the Huffman decode. Window scans decode in place and do
	// not use it. 0 means the 64 MiB default; negative disables the cache
	// entirely.
	CacheBytes int64
	// DefaultQueryTimeout bounds every HTTP query request. A client's
	// ?timeout= parameter is clamped to it — a request can shorten the
	// server's deadline, never extend it. 0 means no default deadline
	// (client values are then capped at 10 minutes).
	DefaultQueryTimeout time.Duration
	// WALDir holds the hot tail's write-ahead log (default Dir + "/wal").
	// Only meaningful when Dir is set — a memory-only repository has
	// nothing durable for the log to recover into.
	WALDir string
	// WALSync is the log's sync policy: wal.SyncAlways (fsync before every
	// ingest ack — a crash at any instant loses zero acknowledged writes),
	// wal.SyncEvery (background fsync each WALSyncInterval — a crash loses
	// at most one interval), or wal.SyncNever (the OS flushes when it
	// pleases — a process crash loses nothing, a machine crash may).
	// Default wal.SyncEvery.
	WALSync wal.SyncPolicy
	// WALSyncInterval is the background fsync period under wal.SyncEvery
	// (default 100ms).
	WALSyncInterval time.Duration
	// WALSegmentBytes caps one WAL file's size before rotation (default
	// 16 MiB); smaller files let compaction reclaim log space sooner.
	WALSegmentBytes int64
	// GroupCommitWait, under wal.SyncAlways, is the group-commit batching
	// window: a committing ingest whose fsync has concurrent company
	// holds the window open this long so one fsync acknowledges many
	// batches. Lone writers never wait. 0 disables the window (commits
	// still batch with fsyncs already in flight).
	GroupCommitWait time.Duration
	// WALFS overrides the write-ahead log's filesystem (default the real
	// one). Tests inject wal.FaultFS here to exercise disk failures and
	// degraded mode deterministically.
	WALFS wal.FS
	// Admit configures HTTP admission control: per-class in-flight caps,
	// bounded queues, and per-client token-bucket quotas. The zero value
	// enables generous defaults; see admit.Options to tighten or disable
	// individual mechanisms.
	Admit admit.Options
	// Log receives operational log lines (orphan cleanup, WAL replay,
	// slow-query records) as leveled structured events. Defaults to a
	// text-format logger on stderr at Info; pass obs.Discard() for
	// silence.
	Log *obs.Logger
	// Metrics is the registry the repository publishes its series into
	// (and the WAL, admission, and cache series ride along). Defaults to
	// a fresh private registry; pass one to embed the server's series in
	// a larger process. Each repository needs its own registry.
	Metrics *obs.Registry
	// SlowQuery is the slow-request threshold: any admitted request whose
	// wall time meets or exceeds it emits one structured JSON log line
	// with its full per-stage breakdown. 0 disables the slow-query log.
	SlowQuery time.Duration
	// ReplicateFrom, when non-empty, runs this repository as a follower
	// replica of the primary at the given base URL (e.g.
	// "http://10.0.0.1:8080"): a background applier streams the primary's
	// committed WAL records into the local ingest path, writes are
	// rejected with ErrNotLeader (HTTP 503 + leader_unavailable), and
	// /readyz gates on the staleness bound. Requires Dir — the follower
	// keeps its own WAL, which is exactly what makes its catch-up
	// incremental after a crash.
	ReplicateFrom string
	// ReplTransport overrides the follower's stream transport; setting it
	// also enables follower mode. Tests inject repl.FaultTransport here to
	// exercise stream failures deterministically.
	ReplTransport repl.Transport
	// MaxReplicaLagTicks is the follower readiness bound: /readyz answers
	// 503 while the replica lags the primary's applied watermark by more
	// than this many ticks (default 64). Reads keep serving regardless —
	// the bound gates routing, not answers.
	MaxReplicaLagTicks int
	// ReplBackoff is the follower's initial reconnect backoff (default
	// 100ms, doubling with jitter up to 50×).
	ReplBackoff time.Duration
	// WALRetainSegments keeps at least this many of the newest WAL files
	// out of reclamation even when fully sealed — slack for a follower
	// that disconnects briefly without a standing hold (default 0: pins
	// alone protect followers).
	WALRetainSegments int
}

// DefaultCacheBytes is the decoded-cell cache budget used when
// Options.CacheBytes is 0.
const DefaultCacheBytes = 64 << 20

func (o Options) withDefaults() (Options, error) {
	if o.Index.GC <= 0 {
		return o, errors.New("serve: Index.GC must be > 0")
	}
	if o.Index.EpsS <= 0 {
		return o, errors.New("serve: Index.EpsS must be > 0")
	}
	if o.Build.UseCQC && o.Build.GS <= 0 {
		return o, errors.New("serve: Build.UseCQC requires Build.GS > 0")
	}
	if o.Build.FixedWords <= 0 && o.Build.Epsilon1 <= 0 {
		return o, errors.New("serve: Build.Epsilon1 must be > 0 in incremental mode")
	}
	if o.HotTicks <= 0 {
		o.HotTicks = 64
	}
	if o.KeepHotTicks <= 0 {
		o.KeepHotTicks = o.HotTicks / 4
	}
	if o.KeepHotTicks >= o.HotTicks {
		o.KeepHotTicks = o.HotTicks - 1
	}
	if o.MaxSegmentTicks <= 0 {
		o.MaxSegmentTicks = 4 * o.HotTicks
	}
	if o.CompactInterval <= 0 {
		o.CompactInterval = time.Second
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = DefaultCacheBytes
	}
	if o.WALDir == "" && o.Dir != "" {
		o.WALDir = filepath.Join(o.Dir, "wal")
	}
	if (o.ReplicateFrom != "" || o.ReplTransport != nil) && o.Dir == "" {
		return o, errors.New("serve: follower mode requires Dir (the replica persists its own WAL to resume from)")
	}
	if o.MaxReplicaLagTicks <= 0 {
		o.MaxReplicaLagTicks = 64
	}
	if o.WALSync == "" {
		o.WALSync = wal.SyncEvery
	}
	if o.Log == nil {
		o.Log = obs.NewLogger(os.Stderr, obs.LevelInfo, obs.FormatText)
	}
	return o, nil
}

// manifestSegment is one sealed segment's manifest entry.
type manifestSegment struct {
	ID        uint64 `json:"id"`
	File      string `json:"file"`
	StartTick int    `json:"start_tick"`
	EndTick   int    `json:"end_tick"`
	Points    int    `json:"points"`
}

// manifest is the repository's crash-safe root: it is replaced atomically
// after each compaction, so a crash between segment write and manifest
// swap leaves at worst an orphaned segment file, never a corrupt view.
type manifest struct {
	Version       int               `json:"version"`
	NextSegmentID uint64            `json:"next_segment_id"`
	SealedThrough int               `json:"sealed_through"`
	Segments      []manifestSegment `json:"segments"`
}

const (
	manifestName    = "MANIFEST.json"
	manifestVersion = 1
)

// Repository is the sharded trajectory store: sealed segments (cold,
// quantized, indexed) plus a hot tail (fresh, raw, exact), with a
// background compactor moving data from hot to cold. All public methods
// are safe for concurrent use.
type Repository struct {
	opts Options

	// hot.mu guards the routing view (segs, sealedThrough) together with
	// the hot columns, so publishing a segment and trimming the ticks it
	// covers is one write section, and one read section (readView) sees
	// every tick in exactly one tier. Lock order: compactMu → hot.mu.
	hot           *hotTail
	segs          []*Segment // ascending, disjoint tick ranges
	sealedThrough int        // ticks ≤ this are served by segments

	// wal is the hot tail's write-ahead log (nil when the repository is
	// memory-only): every ingest is appended before the tail mutates, so
	// Open can rebuild the un-sealed tail after a crash.
	wal *wal.Log

	// cells is the shared decoded-cell cache (nil when disabled): one LRU
	// across every sealed segment, so budget flows to whichever segments
	// the workload actually hammers.
	cells *cache.Cache

	// admit gates HTTP traffic before any work happens: in-flight caps
	// per endpoint class, bounded queues, per-client quotas.
	admit *admit.Controller

	compactMu sync.Mutex // serializes compactions (background loop vs Flush)
	nextSegID uint64     // guarded by compactMu

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup

	// Set once during Open, before any goroutine starts.
	replayedPoints int64         // WAL points re-applied to the hot tail
	orphansRemoved int64         // unreferenced files deleted at startup
	openLoad       time.Duration // wall time of the sealed-segment loads
	openLoadBusy   time.Duration // sum of the per-segment load times

	// Compaction timing, in nanoseconds: the wall time of the chunk
	// build-and-publish loops, and the sum of the per-chunk build+persist
	// times inside them (busy / wall = achieved parallelism).
	compactWall atomic.Int64
	compactBusy atomic.Int64

	// met holds every counter and histogram the serving layer owns; the
	// registry inside it is the single source /v1/stats and /metrics
	// render from. log is the structured operational logger.
	met *repoMetrics
	log *obs.Logger

	lastErr atomic.Value // string

	// draining flips when shutdown starts: /readyz reports 503 so load
	// balancers stop routing while in-flight requests finish.
	draining atomic.Bool

	// Replication. shipper serves /v1/repl/stream on any persistent
	// repository; the rest is live only in follower mode
	// (Options.ReplicateFrom / ReplTransport).
	follower bool
	shipper  *repl.Shipper
	applier  *repl.Applier
	replStop context.CancelFunc
	replWG   sync.WaitGroup

	// appliedTick is the highest tick resident in this repository (-1
	// while empty): the primary's value rides the stream so followers can
	// bound their staleness, and a follower's value is the as_of_tick its
	// answers carry.
	appliedTick atomic.Int64
	// primaryTick is the primary's applied watermark as last reported
	// over the stream (math.MinInt64 until first contact). It freezes at
	// its last value when the primary disappears — the follower keeps
	// serving bounded-stale reads against its best knowledge.
	primaryTick atomic.Int64
}

// Open creates a repository (reloading persisted segments when opts.Dir
// holds a manifest) and starts its background compactor. Close must be
// called to stop it.
//
// Recovery sequence for a persistent repository: load the manifest
// (sealed segments), delete orphaned files a crash between segment write
// and manifest swap left behind, then replay the write-ahead log above
// the manifest's sealed watermark to rebuild the hot tail — including
// the per-trajectory lastSeen map, so the contiguity contract survives
// the restart exactly as if the process had never died.
func Open(opts Options) (*Repository, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &Repository{
		opts:          opts,
		hot:           newHotTail(),
		sealedThrough: -1,
		kick:          make(chan struct{}, 1),
		stop:          make(chan struct{}),
		met:           newRepoMetrics(opts.Metrics),
		log:           opts.Log,
	}
	obs.RegisterRuntime(r.met.reg)
	if opts.CacheBytes > 0 {
		r.cells = cache.New(opts.CacheBytes)
	}
	admitOpts := opts.Admit
	admitOpts.Metrics = r.met.reg
	r.admit = admit.New(admitOpts)
	r.lastErr.Store("")
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
		if err := r.loadManifest(); err != nil {
			return nil, err
		}
		if err := r.gcOrphans(); err != nil {
			return nil, err
		}
	}
	// The floor must be in place before replay: it is what routes sealed
	// WAL records (already covered by segments) around the hot tail.
	r.hot.floor = r.sealedThrough
	if opts.Dir != "" {
		l, err := wal.Open(wal.Options{
			Dir:             opts.WALDir,
			Policy:          opts.WALSync,
			Interval:        opts.WALSyncInterval,
			SegmentBytes:    opts.WALSegmentBytes,
			GroupCommitWait: opts.GroupCommitWait,
			RetainSegments:  opts.WALRetainSegments,
			FS:              opts.WALFS,
			Metrics:         r.met.reg,
		}, r.replayRecord)
		if err != nil {
			return nil, err
		}
		r.wal = l
		if r.replayedPoints > 0 {
			r.log.Info("wal replay rebuilt the hot tail",
				"points", r.replayedPoints, "sealed_through", r.sealedThrough)
		}
	}
	// Seed the applied-tick watermark from whatever recovery produced:
	// sealed segments plus the replayed hot tail.
	applied := int64(r.sealedThrough)
	if _, hi, ok := r.hot.tickSpan(); ok && int64(hi) > applied {
		applied = int64(hi)
	}
	r.appliedTick.Store(applied)
	r.primaryTick.Store(math.MinInt64)
	if r.wal != nil {
		r.shipper = repl.NewShipper(repl.ShipperOptions{
			WAL:         r.wal,
			PrimaryTick: r.appliedTick.Load,
			Metrics:     r.met.reg,
			Log:         r.log,
		})
	}
	if opts.ReplicateFrom != "" || opts.ReplTransport != nil {
		r.follower = true
		tp := opts.ReplTransport
		if tp == nil {
			host, _ := os.Hostname()
			tp = &repl.HTTPTransport{
				Base: opts.ReplicateFrom,
				// Stable across restarts, so the primary's standing hold
				// moves with this follower instead of multiplying.
				Follower: host + ":" + opts.WALDir,
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		r.replStop = cancel
		r.applier = repl.NewApplier(repl.ApplierOptions{
			Transport: tp,
			// Resume from the follower's own durable record count: after a
			// crash the WAL replay above already rebuilt everything below
			// it, so catch-up is incremental by construction.
			From:    r.wal.NextRec(),
			Apply:   r.applyReplicated,
			OnBatch: r.noteBatch,
			Backoff: opts.ReplBackoff,
			Metrics: r.met.reg,
			Log:     r.log,
		})
		r.replWG.Add(1)
		go func() {
			defer r.replWG.Done()
			r.applier.Run(ctx)
		}()
	}
	r.registerSources()
	r.wg.Add(1)
	go r.compactLoop()
	return r, nil
}

// replayRecord applies one WAL record during Open. Records at or below
// the sealed watermark are already served by sealed segments — the
// compactor reclaims whole WAL files only once every record in them is
// sealed, so a surviving file can straddle the watermark. Records above
// it re-run the full ingest admission path: the WAL holds them in the
// exact order they originally passed it, so validation cannot fail on an
// intact log, and a record that fails anyway means the log does not match
// the manifest — refusing to open beats serving a silently diverged tail.
func (r *Repository) replayRecord(rec wal.Record) error {
	if rec.Tick <= r.sealedThrough {
		return nil
	}
	if err := r.hot.ingest(rec.Tick, rec.IDs, rec.Points, nil, nil); err != nil {
		return err
	}
	r.replayedPoints += int64(len(rec.IDs))
	return nil
}

// gcOrphans deletes files in the data dir that the manifest does not
// reference: a crash between a segment persist and the manifest swap
// leaks the freshly written .ppqs file (and possibly a temp file), and
// nothing would ever reclaim it — reopening always starts from the
// manifest. Only files this package itself names are touched.
func (r *Repository) gcOrphans() error {
	entries, err := os.ReadDir(r.opts.Dir)
	if err != nil {
		return err
	}
	referenced := make(map[string]bool, 2*len(r.segs))
	for _, s := range r.segs {
		referenced[s.File] = true
		referenced[zoneFileName(s.ID)] = true
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		ours := (strings.HasPrefix(name, "seg-") &&
			(strings.Contains(name, ".ppqs") || strings.Contains(name, ".zone.json"))) ||
			strings.HasPrefix(name, manifestName+".tmp")
		if !ours || referenced[name] {
			continue
		}
		if err := os.Remove(filepath.Join(r.opts.Dir, name)); err != nil {
			return fmt.Errorf("serve: removing orphaned %s: %w", name, err)
		}
		r.log.Info("removed orphaned file not referenced by the manifest", "file", name)
		removed++
	}
	r.orphansRemoved = int64(removed)
	if removed > 0 {
		return wal.SyncDir(r.opts.Dir)
	}
	return nil
}

// SegmentError reports a sealed segment that Open could not load: a
// missing, unreadable or corrupt file (errors.Is(err, core.ErrBadFormat)
// for a malformed one). With several bad segments, Open reports the one
// with the lowest start tick.
type SegmentError struct {
	File string // the segment's manifest-relative file name
	Err  error
}

func (e *SegmentError) Error() string {
	return fmt.Sprintf("serve: loading segment %s: %v", e.File, e.Err)
}

func (e *SegmentError) Unwrap() error { return e.Err }

// loadManifest restores the sealed-segment view from disk. Segments are
// independent immutable files, so they load on the bounded worker pool,
// largest first so the pool's tail is a small segment; with one worker
// they load serially in tick order. Every load runs to completion, and
// only then are the results published serially in tick order — zone
// sidecar upgrades, cache owner tokens and the segment list come out
// exactly as a serial open would leave them, whatever the worker count.
func (r *Repository) loadManifest() error {
	raw, err := os.ReadFile(filepath.Join(r.opts.Dir, manifestName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("serve: parsing manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return fmt.Errorf("serve: unsupported manifest version %d", m.Version)
	}
	sort.Slice(m.Segments, func(i, j int) bool { return m.Segments[i].StartTick < m.Segments[j].StartTick })

	workers := par.Workers(r.opts.Workers)
	order := make([]int, len(m.Segments))
	for i := range order {
		order[i] = i
	}
	if workers > 1 {
		// Stable, so equal sizes keep tick order.
		sort.SliceStable(order, func(a, b int) bool { return m.Segments[order[a]].Points > m.Segments[order[b]].Points })
	}
	loaded := make([]*Segment, len(m.Segments))
	errs := make([]error, len(m.Segments))
	var busy atomic.Int64
	start := time.Now()
	par.EachCtx(context.Background(), workers, len(order), func(_ context.Context, k int) { //nolint:errcheck // the background context never ends
		i := order[k]
		t0 := time.Now()
		loaded[i], errs[i] = loadSegment(r.opts.Dir, m.Segments[i], r.opts.Index, r.opts.Raw)
		busy.Add(int64(time.Since(t0)))
	})
	r.openLoad = time.Since(start)
	r.openLoadBusy = time.Duration(busy.Load())

	for i, seg := range loaded {
		if errs[i] != nil {
			return &SegmentError{File: m.Segments[i].File, Err: errs[i]}
		}
		if seg.zoneRebuilt {
			// Upgrade pre-zone-map directories in place — but only
			// best-effort: the zone map is pruning metadata, already
			// usable in memory, and a failed few-KB sidecar write must
			// not block serving an otherwise intact repository.
			if perr := seg.persistZone(r.opts.Dir); perr != nil {
				r.log.Warn("zone sidecar persist failed; continuing with the in-memory zone map",
					"segment", seg.ID, "err", perr)
			}
		}
		r.attachCache(seg)
		r.segs = append(r.segs, seg)
	}
	r.sealedThrough = m.SealedThrough
	r.nextSegID = m.NextSegmentID
	return nil
}

// writeManifest swaps in a fresh manifest reflecting the current sealed
// view. Callers hold compactMu.
func (r *Repository) writeManifest() error {
	v := r.readView(0, -1)
	m := manifest{
		Version:       manifestVersion,
		NextSegmentID: r.nextSegID,
		SealedThrough: v.sealed,
	}
	for _, s := range v.segs {
		m.Segments = append(m.Segments, manifestSegment{
			ID: s.ID, File: s.File,
			StartTick: s.StartTick, EndTick: s.EndTick, Points: s.Points,
		})
	}
	blob, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	// durableSwap fsyncs the temp file before the rename (or a crash can
	// publish a manifest whose bytes never made it) and the directory
	// after it (or the rename itself can be lost and the old manifest
	// resurrected alongside already-reclaimed WAL files).
	_, err = durableSwap(r.opts.Dir, manifestName, func(f *os.File) (int64, error) {
		n, err := f.Write(append(blob, '\n'))
		return int64(n), err
	})
	if err != nil {
		return fmt.Errorf("serve: writing manifest: %w", err)
	}
	return nil
}

// attachCache wires the shared decoded-cell cache to a freshly built or
// reloaded segment's engine under a fresh owner token (no-op when the
// cache is disabled). Must run before the segment is published — engines
// are only safe for concurrent readers once their fields stop changing.
func (r *Repository) attachCache(seg *Segment) {
	if r.cells == nil {
		return
	}
	seg.CacheOwner = r.cells.NewOwner()
	seg.Eng.Idx.SetCache(r.cells, seg.CacheOwner)
}

// Close stops the background compactor, fsyncs and closes the
// write-ahead log, and drops the closed segments' decoded-cell cache
// entries. It does not flush the hot tail; call Flush first when the
// remaining hot points must be sealed — an unflushed tail is still safe
// on a persistent repository, because the WAL replays it on the next
// Open.
func (r *Repository) Close() error {
	// Stop replication first: the applier must not race the WAL close
	// (its in-flight fetch is cancelled, not awaited to timeout), and the
	// shipper's follower pins must release before the log shuts.
	if r.replStop != nil {
		r.replStop()
		r.replWG.Wait()
	}
	if r.shipper != nil {
		r.shipper.Close()
	}
	close(r.stop)
	r.wg.Wait()
	var err error
	if r.wal != nil {
		err = r.wal.Close()
	}
	if r.cells != nil {
		for _, s := range r.readView(0, -1).segs {
			r.cells.InvalidateOwner(s.CacheOwner)
		}
	}
	return err
}

// Ingest adds one tick of points (parallel id/point slices). Ticks at or
// below the sealed watermark are rejected, as are non-finite positions
// and per-trajectory sampling gaps; a rejected batch changes nothing.
//
// On a persistent repository the validated batch is appended to the
// write-ahead log before the hot tail mutates, and under wal.SyncAlways
// the append is fsynced before Ingest returns — an acknowledged batch
// then survives a crash at any instant. A WAL append failure rejects
// the batch untouched; a WAL commit (fsync) failure fail-stops the log:
// the batch is resident but reported failed, and every subsequent
// ingest is rejected with the latched disk error — after a disk lies
// about an fsync, nothing further can honestly be acknowledged.
func (r *Repository) Ingest(tick int, ids []traj.ID, pts []geo.Point) error {
	if r.follower {
		return ErrNotLeader
	}
	return r.ingestTick(nil, tick, ids, pts)
}

// ErrNotLeader rejects writes addressed to a follower replica: its data
// arrives over the replication stream only, so a direct write would fork
// history. The HTTP layer maps it to 503 with reason leader_unavailable.
var ErrNotLeader = errors.New("serve: not the leader: this replica follows a primary; write there")

// ingestTick is Ingest's body with the per-request trace threaded
// through: the validate / wal_append / apply / fsync_wait laps carve an
// HTTP ingest into the stages the slow-query log and the
// ppq_ingest_stage_seconds histograms report. tr may be nil (programmatic
// callers and WAL replay), costing one nil check per lap.
func (r *Repository) ingestTick(tr *obs.Trace, tick int, ids []traj.ID, pts []geo.Point) error {
	var lsn int64
	var logged func() error
	if r.wal != nil {
		logged = func() (err error) {
			lsn, err = r.wal.Append(wal.Record{Tick: tick, IDs: ids, Points: pts})
			tr.Lap("wal_append")
			return err
		}
	}
	if err := r.hot.ingest(tick, ids, pts, logged, tr); err != nil {
		r.met.ingestErrors.Inc()
		return err
	}
	if r.wal != nil {
		// The durability barrier runs outside the hot-tail lock so queries
		// proceed during the fsync, and after the mutation so the ack still
		// gates on it: a Commit error fails the ingest even though the
		// points are resident — an fsync failure means the disk is lying,
		// and the caller must not believe the write is durable.
		err := r.wal.Commit(lsn)
		tr.Lap("fsync_wait")
		if err != nil {
			r.lastErr.Store(err.Error())
			r.met.ingestErrors.Inc()
			return err
		}
	}
	r.met.ingestPoints.Add(int64(len(ids)))
	r.met.ingestBatches.Inc()
	r.met.batchPoints.Observe(float64(len(ids)))
	r.noteApplied(tick)
	if lo, hi, ok := r.hot.tickSpan(); ok && hi-lo+1 > r.opts.HotTicks {
		select {
		case r.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// noteApplied advances the applied-tick watermark (monotonic max).
func (r *Repository) noteApplied(tick int) {
	t := int64(tick)
	for {
		cur := r.appliedTick.Load()
		if t <= cur || r.appliedTick.CompareAndSwap(cur, t) {
			return
		}
	}
}

// noteBatch publishes the primary's applied watermark from one clean
// stream batch (empty keepalives included — that is how an idle
// follower's lag stays current).
func (r *Repository) noteBatch(b repl.Batch) {
	for {
		cur := r.primaryTick.Load()
		if b.PrimaryTick <= cur && cur != math.MinInt64 {
			return
		}
		if r.primaryTick.CompareAndSwap(cur, b.PrimaryTick) {
			return
		}
	}
}

// applyReplicated replays one stream batch on a follower. Each record
// takes the same path a primary ingest does — validation, WAL append,
// hot-tail mutation, compaction pressure — under one ingest-class
// admission slot per batch, so an overloaded follower slows its own
// catch-up instead of starving local queries. Durability is one fsync
// per network batch (not per record), which is what the follower's
// resume position advances by after a crash.
func (r *Repository) applyReplicated(ctx context.Context, recs []wal.Record) (int, error) {
	release, rej, ok := r.admit.Admit(ctx, admit.Ingest, "")
	if !ok {
		return 0, fmt.Errorf("serve: replication batch shed by admission (%s)", rej.Reason)
	}
	defer release()
	for i, rec := range recs {
		if err := r.applyReplicatedRecord(rec); err != nil {
			return i, err
		}
	}
	if err := r.wal.Sync(); err != nil {
		return len(recs), err
	}
	return len(recs), nil
}

// applyReplicatedRecord is ingestTick minus the per-record durability
// barrier (the batch fsync in applyReplicated covers it) and minus the
// leader check — the stream is the one writer a follower accepts.
func (r *Repository) applyReplicatedRecord(rec wal.Record) error {
	logged := func() (err error) {
		_, err = r.wal.Append(rec)
		return err
	}
	if err := r.hot.ingest(rec.Tick, rec.IDs, rec.Points, logged, nil); err != nil {
		r.met.ingestErrors.Inc()
		return err
	}
	r.met.ingestPoints.Add(int64(len(rec.IDs)))
	r.met.ingestBatches.Inc()
	r.met.batchPoints.Observe(float64(len(rec.IDs)))
	r.noteApplied(rec.Tick)
	if lo, hi, ok := r.hot.tickSpan(); ok && hi-lo+1 > r.opts.HotTicks {
		select {
		case r.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// ReplLag reports a follower's staleness: how many ticks the primary's
// applied watermark (as last reported over the stream) is ahead of this
// replica's, and whether that number is known at all — false until the
// first successful exchange after boot. On a primary the lag is 0 and
// always known. A partitioned follower keeps its last-known lag: the
// number is honest about what the replica has, even when the primary has
// moved on unseen (ppq_repl_connected tells operators which case they
// are in).
func (r *Repository) ReplLag() (ticks int64, known bool) {
	if !r.follower {
		return 0, true
	}
	pt := r.primaryTick.Load()
	if pt == math.MinInt64 {
		return 0, false
	}
	lag := pt - r.appliedTick.Load()
	if lag < 0 {
		lag = 0
	}
	return lag, true
}

// IngestColumn ingests a traj.Column.
func (r *Repository) IngestColumn(col *traj.Column) error {
	return r.Ingest(col.Tick, col.IDs, col.Points)
}

// Flush synchronously compacts the entire hot tail into sealed segments.
func (r *Repository) Flush() error {
	return r.compactOnce(true)
}

// compactLoop is the background compactor: it wakes on ingest pressure or
// the idle interval and drains the hot tail's older ticks.
func (r *Repository) compactLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.opts.CompactInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-r.kick:
		case <-ticker.C:
		}
		if err := r.compactOnce(false); err != nil {
			r.lastErr.Store(err.Error())
		}
	}
}

// compactOnce drains hot ticks ≤ bound into a chain of sealed segments
// of at most MaxSegmentTicks each (see sealChunks). With force,
// everything goes; otherwise the freshest KeepHotTicks stay hot and the
// run is skipped entirely when the tail is below the HotTicks threshold.
// The builds run without any repository lock — queries and ingest
// proceed throughout — and publish makes each new segment visible and
// trims the hot ticks it covers in one write section, so every point
// stays queryable at every instant, in exactly one tier.
func (r *Repository) compactOnce(force bool) error {
	r.compactMu.Lock()
	defer r.compactMu.Unlock()

	lo, hi, ok := r.hot.tickSpan()
	if !ok {
		return nil
	}
	span := hi - lo + 1
	if !force && span <= r.opts.HotTicks {
		return nil
	}
	bound := hi
	if !force {
		bound = hi - r.opts.KeepHotTicks
	}
	if bound < lo {
		return nil
	}
	// Freeze: from here on no ingest can land at tick ≤ bound, so the
	// snapshot below is complete and stays complete.
	r.hot.freeze(bound)
	chunks := chunkColumns(r.hot.snapshot(bound), r.opts.MaxSegmentTicks)
	start := time.Now()
	err := r.sealChunks(chunks)
	r.compactWall.Add(int64(time.Since(start)))
	if err != nil {
		return err
	}

	// Empty trailing ticks up to bound are sealed too (there is nothing
	// there to serve, but the watermark must not regress on reload). In
	// the common case the last chunk ends exactly at bound and its
	// writeManifest above already published this watermark — rewriting a
	// byte-identical manifest would cost two more fsyncs per compaction.
	// Only the compactor advances the watermark, so the read below cannot
	// go stale before the publish.
	sealed := r.readView(0, -1).sealed
	advanced := bound > sealed
	if advanced {
		r.publish(nil, bound)
		sealed = bound
	}
	if r.opts.Dir != "" {
		if advanced {
			if err := r.writeManifest(); err != nil {
				return err
			}
		}
		// Only after the manifest durably references the new segments may
		// the WAL records covering their ticks be reclaimed — the reverse
		// order would leave a crash window with the points in neither tier.
		if r.wal != nil {
			return r.wal.TruncateThrough(sealed)
		}
	}
	return nil
}

// chunkColumns cuts ascending columns into the segment chunks of one
// compaction: each chunk starts at the first column left and takes every
// following column less than maxTicks ticks after it.
func chunkColumns(cols []*traj.Column, maxTicks int) [][]*traj.Column {
	var chunks [][]*traj.Column
	for len(cols) > 0 {
		n := 1
		for n < len(cols) && cols[n].Tick-cols[0].Tick < maxTicks {
			n++
		}
		chunks = append(chunks, cols[:n])
		cols = cols[n:]
	}
	return chunks
}

// sealChunks turns chunk i into segment nextSegID+i and publishes the
// segments one by one in tick order, each followed by a manifest swap,
// so readers migrate progressively. A single chunk is sealed inline; a
// backlog's chunks are built and persisted on the worker pool, claimed
// in tick order, while this goroutine publishes each one as soon as it
// and every chunk before it are ready. Segment IDs, files, cache owners
// and the manifest come out as a serial run would leave them.
//
// When chunk k fails, chunks before k are published, nothing from k on
// is, and chunks not yet started are skipped. sealChunks returns only
// after every started build has finished, so nothing writes into Dir
// after it returns; the next compaction reuses the same IDs, and
// durableSwap's rename replaces any file a discarded chunk left.
func (r *Repository) sealChunks(chunks [][]*traj.Column) error {
	type slot struct {
		seg  *Segment
		err  error
		done chan struct{}
	}
	slots := make([]slot, len(chunks))
	for i := range slots {
		slots[i].done = make(chan struct{})
	}
	base := r.nextSegID
	// Chunks after failed are skipped; it only ever falls.
	var failed atomic.Int64
	failed.Store(int64(len(chunks)))
	fail := func(i int64) {
		for f := failed.Load(); i < f && !failed.CompareAndSwap(f, i); f = failed.Load() {
		}
	}
	build := func(_ context.Context, i int) {
		defer close(slots[i].done)
		if int64(i) > failed.Load() {
			return
		}
		t0 := time.Now()
		slots[i].seg, slots[i].err = r.sealChunk(base+uint64(i), chunks[i])
		r.compactBusy.Add(int64(time.Since(t0)))
		if slots[i].err != nil {
			fail(int64(i))
		}
	}
	run := func() {
		par.EachCtx(context.Background(), par.Workers(r.opts.Workers), len(chunks), build) //nolint:errcheck // the background context never ends
	}
	if len(chunks) == 1 {
		run()
	} else {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
		defer wg.Wait()
		defer fail(-1) // an early return skips every chunk not yet started
	}

	for i := range slots {
		<-slots[i].done
		seg, err := slots[i].seg, slots[i].err
		if err != nil {
			return err
		}
		r.attachCache(seg)
		r.nextSegID = seg.ID + 1
		r.publish(seg, seg.EndTick)

		r.met.compactions.Inc()
		r.met.compactedPoints.Add(int64(seg.Points))
		if r.opts.Dir != "" {
			if err := r.writeManifest(); err != nil {
				return err
			}
		}
	}
	return nil
}

// sealChunk builds one chunk's segment and, on a persistent repository,
// writes its blob and zone sidecar durably — both before any manifest
// can name the segment, and the sidecar rebuildable from the blob if a
// crash lands in between. It touches only its own files and the returned
// segment, so sealChunks runs many at once.
func (r *Repository) sealChunk(id uint64, cols []*traj.Column) (*Segment, error) {
	seg, err := buildSegment(id, cols, r.opts.Build, r.opts.Index, r.opts.Raw)
	if err != nil || r.opts.Dir == "" {
		return seg, err
	}
	if err := seg.persist(r.opts.Dir); err != nil {
		return nil, err
	}
	if err := seg.persistZone(r.opts.Dir); err != nil {
		return nil, err
	}
	return seg, nil
}

// publish appends seg (nil for none) to the sealed tier, advances the
// sealed watermark to through, and trims the hot ticks it now covers, in
// one hot-tail write section: no reader can see the new watermark without
// the segment, or the old view after its hot ticks are gone.
func (r *Repository) publish(seg *Segment, through int) {
	r.hot.mu.Lock()
	defer r.hot.mu.Unlock()
	if seg != nil {
		r.segs = append(r.segs, seg)
	}
	r.sealedThrough = through
	r.hot.trim(through)
}

// findSegment returns the segment covering tick, or nil. Segments are
// ascending and disjoint.
func findSegment(segs []*Segment, tick int) *Segment {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].EndTick >= tick })
	if i < len(segs) && segs[i].Covers(tick) {
		return segs[i]
	}
	return nil
}

// QueryCell maps a point to its repository query cell: the g_c cell of
// the global origin-anchored grid. Anchoring the grid at the origin —
// rather than at each segment's region rectangles — makes the query
// region a pure function of the point, so every shard (and a differently
// sharded replica) answers the same question.
func (r *Repository) QueryCell(p geo.Point) geo.Rect {
	gc := r.opts.Index.GC
	x := math.Floor(p.X/gc) * gc
	y := math.Floor(p.Y/gc) * gc
	return geo.Rect{MinX: x, MinY: y, MaxX: x + gc, MaxY: y + gc}
}

// STRQRequest is one repository range query.
type STRQRequest struct {
	P       geo.Point `json:"p"`
	Tick    int       `json:"tick"`
	Exact   bool      `json:"exact"`
	PathLen int       `json:"path_len"` // > 0: also reconstruct each match's next positions
}

// Validate is the single copy of the request's admission rules, enforced
// by Repository.STRQ (as an error) and by the HTTP layer (as a 400).
func (q STRQRequest) Validate() error {
	if !q.P.IsFinite() {
		return fmt.Errorf("non-finite query point %v", q.P)
	}
	if q.PathLen < 0 {
		return fmt.Errorf("negative path length %d", q.PathLen)
	}
	return nil
}

// validateWindow is the single copy of the window query's admission
// rules, enforced by Repository.Window (as an error) and by the HTTP
// layer (as a 400).
func validateWindow(rect geo.Rect, from, to int) error {
	if to < from {
		return fmt.Errorf("window [%d, %d] is empty", from, to)
	}
	if !rect.IsFinite() {
		return fmt.Errorf("non-finite window rect %+v", rect)
	}
	if rect.MinX > rect.MaxX || rect.MinY > rect.MaxY {
		return fmt.Errorf("inverted window rect %+v", rect)
	}
	return nil
}

// Path is a reconstructed sub-trajectory: Points[i] is the position at
// tick Start+i.
type Path struct {
	Start  int         `json:"start"`
	Points []geo.Point `json:"points"`
}

// STRQAnswer is one repository query answer.
type STRQAnswer struct {
	Tick       int              `json:"tick"`
	Cell       geo.Rect         `json:"cell"`
	Covered    bool             `json:"covered"`
	Source     string           `json:"source"` // "segment:<id>", "hot", or "none"
	IDs        []traj.ID        `json:"ids"`
	Candidates int              `json:"candidates"`
	Visited    int              `json:"visited"`
	Paths      map[traj.ID]Path `json:"paths,omitempty"`
	Err        string           `json:"error,omitempty"`
}

// STRQ answers "who was in the query cell of p at tick". Ticks at or
// below the sealed watermark route to the covering segment's engine
// (approximate: recall 1 by the local-search guarantee; exact: verified
// against raw storage); fresher ticks are answered exactly from the raw
// hot tail. The probe and every path it asks for read one view. ctx
// bounds the work: a cancelled or expired context aborts the query and
// returns the context error.
func (r *Repository) STRQ(ctx context.Context, req STRQRequest) (*STRQAnswer, error) {
	v := r.readView(req.Tick, req.lastTick())
	ans, err := r.probe(ctx, &v, req)
	if err != nil {
		return nil, err
	}
	return &ans, nil
}

// probe answers one request against v, counting it in the query
// metrics.
func (r *Repository) probe(ctx context.Context, v *readView, req STRQRequest) (STRQAnswer, error) {
	r.met.queries.Inc()
	// Same rules as the HTTP layer, so programmatic callers get an error
	// instead of a silent empty answer.
	if err := req.Validate(); err != nil {
		r.met.queryErrors.Inc()
		return STRQAnswer{}, fmt.Errorf("serve: %w", err)
	}
	ans, err := v.answer(ctx, r.QueryCell(req.P), req)
	if err != nil {
		r.met.queryErrors.Inc()
	}
	return ans, err
}

// Batch answers many queries concurrently on a bounded worker pool, all
// against one view spanning every probe tick and path. Per-query
// failures land in the answer's Err field instead of failing the batch;
// a context cancelled mid-batch marks the remaining answers with the
// context error instead of leaving them zero-valued.
func (r *Repository) Batch(ctx context.Context, reqs []STRQRequest) []STRQAnswer {
	out := make([]STRQAnswer, len(reqs))
	v := r.readView(batchSpan(reqs))
	par.EachCtx(ctx, par.Workers(r.opts.Workers), len(reqs), func(ctx context.Context, i int) { //nolint:errcheck // context failures land per-answer
		ans, err := r.probe(ctx, &v, reqs[i])
		if err != nil {
			ans = STRQAnswer{Tick: reqs[i].Tick, Cell: r.QueryCell(reqs[i].P), Err: err.Error()}
		}
		out[i] = ans
	})
	if err := ctx.Err(); err != nil {
		// EachCtx may have skipped the fan-out entirely; make every
		// unanswered slot carry the context error.
		//ppqvet:allow ctxcancel this loop only runs once ctx is already
		// done — it relabels the answer slice, bounded by len(reqs).
		for i := range out {
			if out[i].Source == "" && out[i].Err == "" {
				out[i] = STRQAnswer{Tick: reqs[i].Tick, Cell: r.QueryCell(reqs[i].P), Err: err.Error()}
			}
		}
	}
	return out
}

// Path reconstructs trajectory id over ticks [from, from+l), stitching
// the answer across every sealed segment it spans plus the hot tail, all
// from one view. Sealed ranges return the quantized reconstruction
// (deviation ≤ the summary's bound); hot ranges return raw points.
// Cancellation is best-effort: a done context stops the stitching walk
// and returns the (possibly partial) path built so far — callers that
// must surface the cancellation check ctx.Err() themselves, as STRQ does.
func (r *Repository) Path(ctx context.Context, id traj.ID, from, l int) Path {
	v := r.readView(from, spanEnd(from, l)-1)
	return v.path(ctx, id, from, l)
}

// WindowResult is a time-window query answer: every trajectory that
// passed through the rectangle at some tick in [From, To].
type WindowResult struct {
	From    int       `json:"from"`
	To      int       `json:"to"`
	IDs     []traj.ID `json:"ids"`
	Ticks   int       `json:"ticks_probed"`
	Sources int       `json:"sources"` // segments + hot tails overlapping the span
	// SegmentsSkipped counts overlapping segments the zone-map planner
	// pruned without scanning.
	SegmentsSkipped int `json:"segments_skipped,omitempty"`
	// AsOfTick is the repository's applied-tick watermark when the answer
	// was computed (-1 while empty). On a follower this is the freshness
	// the caller actually got: a disconnected replica keeps answering with
	// an honest, possibly stale, as_of_tick instead of erroring.
	AsOfTick int64 `json:"as_of_tick"`
}

// Window answers the window query with internal/exec iterator plans. One
// read view holds the routing view and the hot columns above its sealed
// watermark, which are scanned directly. Then the span is split at segment
// boundaries, segments whose zone map cannot intersect the query's
// local-search area are skipped outright, one plan per surviving segment
// walks its postings once for the whole sub-span (fanned out on the
// bounded worker pool), and the IDs are merged. Compaction publishes a
// segment and trims its hot ticks in one write section, so that single
// view holds every tick exactly once and the request never re-plans. A
// cancelled or expired context aborts the scatter and returns the
// context error.
func (r *Repository) Window(ctx context.Context, rect geo.Rect, from, to int, exact bool) (*WindowResult, error) {
	// Counted at entry like STRQ, so query_errors can never exceed
	// queries in the stats.
	r.met.queries.Inc()
	r.met.winQueries.Inc()
	if err := validateWindow(rect, from, to); err != nil {
		r.met.queryErrors.Inc()
		return nil, fmt.Errorf("serve: %w", err)
	}
	res, err := r.windowRange(ctx, rect, from, to, exact)
	if err != nil {
		r.met.queryErrors.Inc()
		return nil, err
	}
	res.AsOfTick = r.appliedTick.Load()
	return res, nil
}

// windowRange is Window's planner and executor.
func (r *Repository) windowRange(ctx context.Context, rect geo.Rect, from, to int, exact bool) (*WindowResult, error) {
	tr := obs.TraceFrom(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// One view holds the segments and the hot columns above their
	// watermark. Hot points are raw, so approximate and exact mode
	// coincide; each column's matches are distinct, like a shard's.
	v := r.readView(from, to)
	segs := v.segs
	var hotIDs []traj.ID
	for i := range v.cols {
		hotIDs = v.cols[i].appendWithin(hotIDs, rect)
	}
	tr.Lap("hot_scan")

	// Greedy statistics-free plan: split the span at segment boundaries,
	// score each sub-span by zone-map selectivity (populated-cell overlap ×
	// tick-span overlap), prune scans the zone map proves empty, and order
	// the rest largest first so the parallel fan-out's tail stays short.
	ordered, pruned := planWindow(segs, rect, from, to)
	sources := len(ordered) + len(pruned)
	if v.hotOverlaps {
		sources++
	}
	skipped := len(pruned)
	skippedTicks := 0
	for _, p := range pruned {
		skippedTicks += segs[p.ID].Eng.Idx.CoveredTicks(p.Span.Lo, p.Span.Hi)
	}
	tr.Lap("plan")

	// One scan per surviving segment, on the same bounded pool Batch uses
	// — a wide window over a long-lived repository can overlap hundreds of
	// segments. Workers claim scans one at a time in plan order, so the
	// largest start first.
	results := make([]shardResult, len(ordered))
	errs := make([]error, len(ordered))
	if err := par.EachCtx(ctx, par.Workers(r.opts.Workers), len(ordered), func(ctx context.Context, i int) {
		sc := ordered[i]
		results[i], errs[i] = runIterShard(ctx, segs[sc.ID], rect, sc.Span.Lo, sc.Span.Hi, exact, tr)
	}); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			return nil, fmt.Errorf("serve: segment %d: %w", segs[ordered[i].ID].ID, err)
		}
	}
	tr.Lap("segment_scan")

	r.met.winSegsScanned.Add(int64(len(ordered)))
	r.met.winSegsSkipped.Add(int64(skipped))
	tr.Add("segments_scanned", int64(len(ordered)))
	tr.Add("segments_skipped", int64(skipped))

	// Merge: flatten every column and sort-dedup once. Columns are
	// per-tick ID sets, so the flat list is mostly runs of near-equal
	// values — a single sort beats per-ID map inserts by a wide margin at
	// window scale.
	probed := skippedTicks + len(v.cols)
	total := len(hotIDs)
	var scan index.ScanStats
	var scanRows, verifyRows int64
	for i := range results {
		rr := &results[i]
		probed += rr.covered
		scan.Add(rr.scan)
		scanRows += rr.scanRows
		verifyRows += int64(rr.candidates)
		total += len(rr.ids)
	}
	r.met.winCellsScanned.Add(int64(scan.CellsScanned))
	r.met.winCellsSkipped.Add(int64(scan.CellsSkipped))
	tr.Add("cells_scanned", int64(scan.CellsScanned))
	tr.Add("cells_skipped", int64(scan.CellsSkipped))
	tr.Add("bytes_decoded", scan.DecodedBytes)
	tr.Add("decode_us", scan.DecodeNanos/1e3)
	tr.Add("ticks_probed", int64(probed))
	flat := make([]traj.ID, 0, total)
	for i := range results {
		flat = append(flat, results[i].ids...)
	}
	flat = append(flat, hotIDs...)
	slices.Sort(flat)
	res := &WindowResult{From: from, To: to, Ticks: probed, Sources: sources, SegmentsSkipped: skipped}
	if len(flat) > 0 { // nil, not empty-but-allocated, keeps the JSON stable
		res.IDs = traj.DedupSorted(flat)
	}
	tr.Lap("merge")

	// Plan telemetry: one plan, its operator count, and per-operator
	// emitted-row aggregates (scan, verify, hot, merge).
	operators := int64(len(ordered)) * 2 // scan + verify per shard
	if exact {
		operators += int64(len(ordered)) // exact-verify sink
	}
	if v.hotOverlaps {
		operators++
	}
	operators++ // the final merge
	r.met.execPlans.Inc()
	r.met.execOperators.Add(operators)
	r.met.execOpsPerPlan.Observe(float64(operators))
	r.met.execOpRows.Observe(float64(scanRows))
	r.met.execOpRows.Observe(float64(verifyRows))
	if v.hotOverlaps {
		r.met.execOpRows.Observe(float64(len(hotIDs)))
	}
	r.met.execOpRows.Observe(float64(len(res.IDs)))
	tr.Add("exec_operators", operators)
	return res, nil
}

// Stats is a point-in-time snapshot of the repository's state and
// counters (the /v1/stats payload).
type Stats struct {
	Segments        int    `json:"segments"`
	SegmentPoints   int    `json:"segment_points"`
	HotPoints       int    `json:"hot_points"`
	SealedThrough   int    `json:"sealed_through"`
	IngestedPoints  int64  `json:"ingested_points"`
	Compactions     int64  `json:"compactions"`
	CompactedPoints int64  `json:"compacted_points"`
	Queries         int64  `json:"queries"`
	QueryErrors     int64  `json:"query_errors"`
	RawAccesses     int64  `json:"raw_accesses"`
	DiskBytes       int64  `json:"disk_bytes"`
	LastError       string `json:"last_error,omitempty"`
	// Degraded is true once the write-ahead log has latched a disk
	// failure: ingest is fail-stopped (503s) while reads keep serving.
	// Probes should alert on this bit, not string-match last_error.
	Degraded bool `json:"degraded"`
	// Cache reports the shared decoded-cell cache (all-zero when the
	// cache is disabled).
	Cache cache.Stats `json:"cell_cache"`
	// WAL reports the hot tail's write-ahead log (all-zero when the
	// repository is memory-only).
	WAL wal.Stats `json:"wal"`
	// WALReplayedPoints is how many logged points this process re-applied
	// to the hot tail at startup (0 after a graceful flush+close).
	WALReplayedPoints int64 `json:"wal_replayed_points"`
	// OrphansRemoved is how many unreferenced data files startup deleted.
	OrphansRemoved int64 `json:"orphans_removed"`
	// OpenLoadSeconds is the wall time Open spent loading sealed
	// segments; OpenLoadBusySeconds sums the per-segment load times, so
	// their ratio is the parallelism the load achieved.
	OpenLoadSeconds     float64 `json:"open_load_seconds"`
	OpenLoadBusySeconds float64 `json:"open_load_busy_seconds"`
	// CompactionSeconds is the wall time compactions spent building and
	// publishing their chunks; CompactionBusySeconds sums the per-chunk
	// build+persist times, so their ratio is the parallelism achieved.
	CompactionSeconds     float64 `json:"compaction_seconds"`
	CompactionBusySeconds float64 `json:"compaction_busy_seconds"`
	// Window reports the window range-executor's planner telemetry.
	Window WindowStats `json:"window"`
	// Admission reports the overload valve: per-class in-flight /
	// shed counters and client-quota rejections.
	Admission admit.Stats `json:"admission"`
	// Repl reports replication: absent on a memory-only repository,
	// otherwise role "primary" with shipper counters, plus the stream and
	// staleness state in follower mode.
	Repl *ReplStats `json:"repl,omitempty"`
}

// ReplStats is the /v1/stats replication section.
type ReplStats struct {
	Role           string `json:"role"` // "primary" or "follower"
	LagTicks       int64  `json:"lag_ticks"`
	LagKnown       bool   `json:"lag_known"`
	AppliedTick    int64  `json:"applied_tick"`
	Connected      bool   `json:"connected"`
	NextLSN        int64  `json:"next_lsn"`
	AppliedRecords int64  `json:"applied_records"`
	AppliedPoints  int64  `json:"applied_points"`
	Reconnects     int64  `json:"reconnects"`
	CorruptBatches int64  `json:"corrupt_batches"`
	StreamRequests int64  `json:"stream_requests"`
	ShippedRecords int64  `json:"shipped_records"`
	FollowerHolds  int    `json:"follower_holds"`
}

// replStats assembles the replication stats section (nil when the
// repository has no WAL and therefore neither shipper nor applier).
func (r *Repository) replStats() *ReplStats {
	if r.shipper == nil && r.applier == nil {
		return nil
	}
	rs := &ReplStats{Role: "primary", AppliedTick: r.appliedTick.Load()}
	if r.shipper != nil {
		ss := r.shipper.Stats()
		rs.StreamRequests = ss.StreamRequests
		rs.ShippedRecords = ss.ShippedRecords
		rs.FollowerHolds = ss.Holds
	}
	if r.follower {
		rs.Role = "follower"
		as := r.applier.Stats()
		rs.Connected = as.Connected
		rs.NextLSN = as.NextLSN
		rs.AppliedRecords = as.AppliedRecords
		rs.AppliedPoints = as.AppliedPoints
		rs.Reconnects = as.Reconnects
		rs.CorruptBatches = as.CorruptBatches
		rs.LagTicks, rs.LagKnown = r.ReplLag()
	}
	return rs
}

// WindowStats counts the window planner's zone-map pruning work: how
// many overlapping segments each window scanned versus skipped outright,
// and how many populated index cells the surviving scans walked versus
// pruned (per-cell tick-range miss or margin full-reject) before any
// posting decode.
type WindowStats struct {
	Queries         int64 `json:"queries"`
	SegmentsScanned int64 `json:"segments_scanned"`
	SegmentsSkipped int64 `json:"segments_skipped"`
	CellsScanned    int64 `json:"cells_scanned"`
	CellsSkipped    int64 `json:"cells_skipped"`
	// Plans and Operators count window plans and the operators those
	// plans composed.
	Plans     int64 `json:"plans"`
	Operators int64 `json:"operators"`
}

// Stats snapshots the repository. Every counter comes from ONE registry
// snapshot — the same collection pass /metrics renders — so the sections
// of a response are mutually consistent views of one instant rather than
// a sequence of independent reads.
func (r *Repository) Stats() Stats {
	return r.statsFromSnapshot(r.met.reg.Snapshot())
}

// Draining reports whether shutdown has started (readiness turns false
// while in-flight requests finish).
func (r *Repository) Draining() bool { return r.draining.Load() }

// Degraded returns the write-ahead log's latched disk error, or nil
// while ingest is healthy. A degraded repository keeps serving reads;
// every ingest is rejected with the latched error (HTTP 503) — after a
// disk lies about an fsync, nothing further can honestly be
// acknowledged.
func (r *Repository) Degraded() error {
	return r.wal.Failed()
}

// Segments returns the current sealed segments (immutable; do not modify).
func (r *Repository) Segments() []*Segment {
	return r.readView(0, -1).segs
}
