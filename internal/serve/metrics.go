package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"ppqtraj/internal/admit"
	"ppqtraj/internal/cache"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/wal"
)

// repoMetrics is the repository's registry handle plus the instruments
// the serving layer owns outright: request counters, per-stage latency
// histograms, and the batch-size distribution. Counters whose source of
// truth lives in another package (WAL, admission, cache) reach the
// registry through snapshot sources instead, so there is exactly one
// copy of every number and /v1/stats and /metrics are views over the
// same Snapshot.
type repoMetrics struct {
	reg *obs.Registry

	ingestPoints  *obs.Counter
	ingestBatches *obs.Counter
	ingestErrors  *obs.Counter

	compactions     *obs.Counter
	compactedPoints *obs.Counter

	queries     *obs.Counter
	queryErrors *obs.Counter

	winQueries      *obs.Counter
	winSegsScanned  *obs.Counter
	winSegsSkipped  *obs.Counter
	winCellsScanned *obs.Counter
	winCellsSkipped *obs.Counter

	execPlans      *obs.Counter
	execOperators  *obs.Counter
	execOpsPerPlan *obs.Histogram
	execOpRows     *obs.Histogram

	slowQueries *obs.Counter

	batchPoints *obs.Histogram
	reqSeconds  *obs.HistogramVec // label: endpoint
	ingestStage *obs.HistogramVec // label: stage
	queryStage  *obs.HistogramVec // label: stage
}

func newRepoMetrics(reg *obs.Registry) *repoMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &repoMetrics{
		reg: reg,
		ingestPoints: reg.Counter("ppq_ingest_points_total",
			"Points accepted by ingest (acknowledged batches only)."),
		ingestBatches: reg.Counter("ppq_ingest_batches_total",
			"Acknowledged per-tick ingest batches."),
		ingestErrors: reg.Counter("ppq_ingest_errors_total",
			"Rejected or failed ingest batches (validation, WAL append, fsync)."),
		compactions: reg.Counter("ppq_compactions_total",
			"Sealed segments published by the compactor."),
		compactedPoints: reg.Counter("ppq_compacted_points_total",
			"Points moved from the hot tail into sealed segments."),
		queries: reg.Counter("ppq_queries_total",
			"Repository queries started (STRQ probes and window queries)."),
		queryErrors: reg.Counter("ppq_query_errors_total",
			"Queries that failed (validation, deadline, cancellation, engine)."),
		winQueries: reg.Counter("ppq_window_queries_total",
			"Window queries answered by the range executor."),
		winSegsScanned: reg.Counter("ppq_window_segments_scanned_total",
			"Overlapping segments the window planner scanned."),
		winSegsSkipped: reg.Counter("ppq_window_segments_skipped_total",
			"Overlapping segments the zone-map planner pruned without scanning."),
		winCellsScanned: reg.Counter("ppq_window_cells_scanned_total",
			"Populated index cells window scans walked."),
		winCellsSkipped: reg.Counter("ppq_window_cells_skipped_total",
			"Populated index cells window scans pruned before any decode."),
		execPlans: reg.Counter("ppq_exec_plans_total",
			"Window plans executed by the iterator executor."),
		execOperators: reg.Counter("ppq_exec_operators_total",
			"Operators composed across iterator window plans."),
		execOpsPerPlan: reg.Histogram("ppq_exec_operators_per_plan_count",
			"Operators composed per iterator window plan.", obs.CountBuckets),
		execOpRows: reg.Histogram("ppq_exec_operator_rows_count",
			"Rows emitted per operator aggregate of an iterator window plan.", obs.CountBuckets),
		slowQueries: reg.Counter("ppq_slow_requests_total",
			"Requests that exceeded the slow-query threshold."),
		batchPoints: reg.Histogram("ppq_ingest_batch_points",
			"Points per acknowledged ingest batch.", obs.CountBuckets),
		reqSeconds: reg.HistogramVec("ppq_request_seconds",
			"End-to-end admitted request latency by endpoint.",
			"endpoint", obs.LatencyBuckets),
		ingestStage: reg.HistogramVec("ppq_ingest_stage_seconds",
			"Per-stage time of ingest-class requests (stages partition the request).",
			"stage", obs.LatencyBuckets),
		queryStage: reg.HistogramVec("ppq_query_stage_seconds",
			"Per-stage time of query-class requests (stages partition the request).",
			"stage", obs.LatencyBuckets),
	}
}

// registerSources bridges the package-owned truth (WAL, admission,
// cache, routing view) into every registry snapshot. All the readers are
// nil-safe, so a memory-only or cache-less repository just reports
// zeros. Must run after r's fields are in place.
func (r *Repository) registerSources() {
	r.met.reg.Source(func(emit func(obs.Sample)) {
		// One read section, so sealed and hot points always add up to the
		// ingested total between compactions.
		r.hot.mu.RLock()
		segs, sealed, hotPts := r.segs, r.sealedThrough, r.hot.points
		r.hot.mu.RUnlock()
		var segPts, rawAcc, disk int64
		for _, s := range segs {
			segPts += int64(s.Points)
			rawAcc += s.Eng.RawAccesses.Load()
			disk += s.SizeBytes
		}
		gauge := func(name, help string, v float64) {
			emit(obs.Sample{Name: name, Help: help, Kind: obs.KindGauge, Value: v})
		}
		counter := func(name, help string, v float64) {
			emit(obs.Sample{Name: name, Help: help, Kind: obs.KindCounter, Value: v})
		}
		gauge("ppq_segments", "Published sealed segments.", float64(len(segs)))
		gauge("ppq_segment_points", "Points resident in sealed segments.", float64(segPts))
		gauge("ppq_hot_points", "Points resident in the raw hot tail.", float64(hotPts))
		gauge("ppq_sealed_through", "Highest tick served by sealed segments (-1 = none).", float64(sealed))
		gauge("ppq_disk_bytes", "Bytes of sealed segment files on disk.", float64(disk))
		counter("ppq_raw_accesses_total", "Exact-mode raw storage verifications.", float64(rawAcc))
		degraded := 0.0
		if r.Degraded() != nil {
			degraded = 1
		}
		gauge("ppq_degraded", "1 while the WAL is fail-stopped (ingest rejected).", degraded)
		draining := 0.0
		if r.draining.Load() {
			draining = 1
		}
		gauge("ppq_draining", "1 while the server is draining for shutdown.", draining)
		counter("ppq_replayed_points_total",
			"WAL points re-applied to the hot tail at startup.", float64(r.replayedPoints))
		counter("ppq_orphans_removed_total",
			"Unreferenced data files deleted at startup.", float64(r.orphansRemoved))
		gauge("ppq_open_load_seconds",
			"Wall time Open spent loading the manifest's sealed segments.", r.openLoad.Seconds())
		gauge("ppq_open_load_busy_seconds",
			"Sum of per-segment load times at Open (busy / wall = achieved parallelism).", r.openLoadBusy.Seconds())
		counter("ppq_compaction_seconds_total",
			"Wall time of compactions' chunk build-and-publish loops.",
			time.Duration(r.compactWall.Load()).Seconds())
		counter("ppq_compaction_busy_seconds_total",
			"Sum of per-chunk build+persist times (busy / wall = achieved parallelism).",
			time.Duration(r.compactBusy.Load()).Seconds())

		ws := r.wal.Stats()
		walGauge := func(name, help string, v float64) { gauge(name, help, v) }
		walGauge("ppq_wal_segments", "Live WAL segment files.", float64(ws.Segments))
		walGauge("ppq_wal_bytes", "Bytes across live WAL segment files.", float64(ws.Bytes))
		counter("ppq_wal_syncs_total", "WAL fsync calls.", float64(ws.Syncs))
		counter("ppq_wal_appends_total", "Records appended to the WAL.", float64(ws.Appends))
		counter("ppq_wal_commits_total", "Successful SyncAlways commits.", float64(ws.Commits))
		counter("ppq_wal_replayed_records_total", "Records replayed at open.", float64(ws.ReplayedRecords))
		counter("ppq_wal_replayed_points_total", "Points replayed at open.", float64(ws.ReplayedPoints))
		counter("ppq_wal_reclaimed_segments_total", "WAL files reclaimed after sealing.", float64(ws.Reclaimed))
		failed := 0.0
		if ws.Failed != "" {
			failed = 1
		}
		gauge("ppq_wal_failed", "1 once the WAL has latched a disk failure.", failed)

		as := r.admit.Snapshot()
		perClass := func(name, help string, kind obs.Kind, ingest, query float64) {
			emit(obs.Sample{Name: name, Help: help, Kind: kind, Label: "class", LabelValue: "ingest", Value: ingest})
			emit(obs.Sample{Name: name, Help: help, Kind: kind, Label: "class", LabelValue: "query", Value: query})
		}
		perClass("ppq_admission_admitted_total", "Requests admitted through the class gate.",
			obs.KindCounter, float64(as.Ingest.Admitted), float64(as.Query.Admitted))
		perClass("ppq_admission_shed_total", "Requests shed by the class gate.",
			obs.KindCounter, float64(as.Ingest.Shed), float64(as.Query.Shed))
		perClass("ppq_admission_in_flight", "Requests currently running per class.",
			obs.KindGauge, float64(as.Ingest.InFlight), float64(as.Query.InFlight))
		perClass("ppq_admission_in_flight_high_water", "Max concurrent requests observed per class.",
			obs.KindGauge, float64(as.Ingest.HighWater), float64(as.Query.HighWater))
		perClass("ppq_admission_queued", "Requests currently waiting for a slot per class.",
			obs.KindGauge, float64(as.Ingest.Queued), float64(as.Query.Queued))
		perClass("ppq_admission_max_in_flight", "Configured in-flight cap per class (0 = unlimited).",
			obs.KindGauge, float64(as.Ingest.MaxInFlight), float64(as.Query.MaxInFlight))
		counter("ppq_admission_quota_rejected_total",
			"Requests rejected by per-client token buckets.", float64(as.QuotaRejected))
		gauge("ppq_admission_quota_clients", "Live per-client quota buckets.", float64(as.QuotaClients))

		lag, lagKnown := r.ReplLag()
		gauge("ppq_repl_lag_ticks",
			"Follower staleness in ticks behind the primary's last-reported watermark (0 on a primary).",
			float64(lag))
		known := 0.0
		if lagKnown {
			known = 1
		}
		gauge("ppq_repl_lag_known",
			"1 once the follower has heard from its primary at least once (always 1 on a primary).", known)
		gauge("ppq_repl_applied_tick",
			"Highest tick applied to this repository (-1 while empty).", float64(r.appliedTick.Load()))

		cs := r.cells.Snapshot()
		counter("ppq_cache_hits_total", "Decoded-cell cache hits.", float64(cs.Hits))
		counter("ppq_cache_misses_total", "Decoded-cell cache misses.", float64(cs.Misses))
		counter("ppq_cache_evictions_total", "Decoded-cell cache evictions.", float64(cs.Evictions))
		gauge("ppq_cache_entries", "Decoded-cell cache entries resident.", float64(cs.Entries))
		gauge("ppq_cache_bytes", "Decoded-cell cache bytes resident.", float64(cs.Bytes))
	})
}

// Metrics returns the repository's registry (for embedding the server's
// series into a larger process, and for tests).
func (r *Repository) Metrics() *obs.Registry { return r.met.reg }

// statsFromSnapshot rebuilds the legacy /v1/stats payload as a view over
// ONE registry snapshot, so every counter in a response was read in the
// same collection pass. Only strings (last error, the WAL's latched
// failure) are fetched directly — they are not representable as metric
// values.
func (r *Repository) statsFromSnapshot(snap *obs.Snapshot) Stats {
	walFailed := ""
	if err := r.wal.Failed(); err != nil {
		walFailed = err.Error()
	}
	return Stats{
		Segments:        int(snap.Int("ppq_segments")),
		SegmentPoints:   int(snap.Int("ppq_segment_points")),
		HotPoints:       int(snap.Int("ppq_hot_points")),
		SealedThrough:   int(snap.Int("ppq_sealed_through")),
		IngestedPoints:  snap.Int("ppq_ingest_points_total"),
		Compactions:     snap.Int("ppq_compactions_total"),
		CompactedPoints: snap.Int("ppq_compacted_points_total"),
		Queries:         snap.Int("ppq_queries_total"),
		QueryErrors:     snap.Int("ppq_query_errors_total"),
		RawAccesses:     snap.Int("ppq_raw_accesses_total"),
		DiskBytes:       snap.Int("ppq_disk_bytes"),
		LastError:       r.lastErr.Load().(string),
		Degraded:        snap.Value("ppq_degraded") != 0,
		Cache: cache.Stats{
			Hits:      snap.Int("ppq_cache_hits_total"),
			Misses:    snap.Int("ppq_cache_misses_total"),
			Evictions: snap.Int("ppq_cache_evictions_total"),
			Entries:   snap.Int("ppq_cache_entries"),
			Bytes:     snap.Int("ppq_cache_bytes"),
		},
		WAL: wal.Stats{
			Segments:        int(snap.Int("ppq_wal_segments")),
			Bytes:           snap.Int("ppq_wal_bytes"),
			Syncs:           snap.Int("ppq_wal_syncs_total"),
			Appends:         snap.Int("ppq_wal_appends_total"),
			Commits:         snap.Int("ppq_wal_commits_total"),
			ReplayedRecords: snap.Int("ppq_wal_replayed_records_total"),
			ReplayedPoints:  snap.Int("ppq_wal_replayed_points_total"),
			Reclaimed:       snap.Int("ppq_wal_reclaimed_segments_total"),
			Failed:          walFailed,
		},
		WALReplayedPoints:     snap.Int("ppq_replayed_points_total"),
		OrphansRemoved:        snap.Int("ppq_orphans_removed_total"),
		OpenLoadSeconds:       snap.Value("ppq_open_load_seconds"),
		OpenLoadBusySeconds:   snap.Value("ppq_open_load_busy_seconds"),
		CompactionSeconds:     snap.Value("ppq_compaction_seconds_total"),
		CompactionBusySeconds: snap.Value("ppq_compaction_busy_seconds_total"),
		Window: WindowStats{
			Queries:         snap.Int("ppq_window_queries_total"),
			SegmentsScanned: snap.Int("ppq_window_segments_scanned_total"),
			SegmentsSkipped: snap.Int("ppq_window_segments_skipped_total"),
			CellsScanned:    snap.Int("ppq_window_cells_scanned_total"),
			CellsSkipped:    snap.Int("ppq_window_cells_skipped_total"),
			Plans:           snap.Int("ppq_exec_plans_total"),
			Operators:       snap.Int("ppq_exec_operators_total"),
		},
		Admission: admit.Stats{
			Ingest: admit.GateStats{
				MaxInFlight: int(snap.Labeled("ppq_admission_max_in_flight", "ingest")),
				InFlight:    int64(snap.Labeled("ppq_admission_in_flight", "ingest")),
				HighWater:   int64(snap.Labeled("ppq_admission_in_flight_high_water", "ingest")),
				Queued:      int64(snap.Labeled("ppq_admission_queued", "ingest")),
				Admitted:    int64(snap.Labeled("ppq_admission_admitted_total", "ingest")),
				Shed:        int64(snap.Labeled("ppq_admission_shed_total", "ingest")),
			},
			Query: admit.GateStats{
				MaxInFlight: int(snap.Labeled("ppq_admission_max_in_flight", "query")),
				InFlight:    int64(snap.Labeled("ppq_admission_in_flight", "query")),
				HighWater:   int64(snap.Labeled("ppq_admission_in_flight_high_water", "query")),
				Queued:      int64(snap.Labeled("ppq_admission_queued", "query")),
				Admitted:    int64(snap.Labeled("ppq_admission_admitted_total", "query")),
				Shed:        int64(snap.Labeled("ppq_admission_shed_total", "query")),
			},
			QuotaRejected: snap.Int("ppq_admission_quota_rejected_total"),
			QuotaClients:  int(snap.Int("ppq_admission_quota_clients")),
		},
		Repl: r.replStats(),
	}
}

// reqObs carries one admitted HTTP request's observability state: the
// trace whose laps partition the request, the endpoint label, and
// whether the client asked for the breakdown inline (?trace=1).
type reqObs struct {
	r         *Repository
	endpoint  string
	class     admit.Class
	tr        *obs.Trace
	wantTrace bool
	client    string
}

// beginRequest starts a trace and runs admission for one request. Shed
// requests return ok=false with the 429 already written (they are
// counted by the admission gate, not traced). The admission stage lap
// covers quota check + slot wait.
func (r *Repository) beginRequest(w http.ResponseWriter, req *http.Request, endpoint string, class admit.Class) (*reqObs, func(), bool) {
	tr := obs.NewTrace()
	release, ok := r.admitHTTP(w, req, class)
	if !ok {
		return nil, nil, false
	}
	tr.Lap("admission")
	return &reqObs{
		r:         r,
		endpoint:  endpoint,
		class:     class,
		tr:        tr,
		wantTrace: req.URL.Query().Get("trace") == "1",
		client:    admit.ClientKey(req.Header.Get, req.RemoteAddr),
	}, release, true
}

// finish books the completed request into the registry (endpoint latency
// plus per-stage histograms) and emits the slow-query log line when the
// request overran the threshold.
func (ro *reqObs) finish() {
	rep := ro.tr.Report()
	m := ro.r.met
	m.reqSeconds.With(ro.endpoint).Observe(rep.WallMs / 1e3)
	stageVec := m.queryStage
	if ro.class == admit.Ingest {
		stageVec = m.ingestStage
	}
	for name, d := range ro.tr.Stages() {
		stageVec.With(name).ObserveDuration(d)
	}
	if sq := ro.r.opts.SlowQuery; sq > 0 && rep.WallMs >= sq.Seconds()*1e3 {
		m.slowQueries.Inc()
		ro.r.emitSlowQuery(ro, rep)
	}
}

// slowQueryLine is the slow-query log's JSON schema: one self-contained
// line per offending request, structured so a log pipeline can aggregate
// stages and facts without parsing prose.
type slowQueryLine struct {
	TS       string            `json:"ts"`
	Level    string            `json:"level"`
	Msg      string            `json:"msg"`
	Endpoint string            `json:"endpoint"`
	Client   string            `json:"client,omitempty"`
	WallMs   float64           `json:"wall_ms"`
	StagedMs float64           `json:"staged_ms"`
	Stages   []obs.StageReport `json:"stages"`
	Facts    map[string]int64  `json:"facts,omitempty"`
}

func (r *Repository) emitSlowQuery(ro *reqObs, rep *obs.TraceReport) {
	line, err := json.Marshal(slowQueryLine{
		TS:       time.Now().UTC().Format(time.RFC3339Nano),
		Level:    "warn",
		Msg:      "slow_query",
		Endpoint: ro.endpoint,
		Client:   ro.client,
		WallMs:   rep.WallMs,
		StagedMs: rep.StagedMs,
		Stages:   rep.Stages,
		Facts:    rep.Facts,
	})
	if err != nil {
		return
	}
	r.log.Raw(line)
}
