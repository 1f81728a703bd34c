// Command ppqserve runs the sharded trajectory repository server: live
// HTTP ingestion into a raw hot tail made durable by a write-ahead log,
// background compaction into sealed quantized segments (persisted under
// -dir with a crash-safe manifest), and batch STRQ/TPQ/window queries
// over the whole store. On restart the WAL is replayed above the sealed
// watermark, so with -fsync=always a crash at any instant loses zero
// acknowledged ingests.
//
// Usage:
//
//	ppqserve -addr :8080 -dir ./data              # persistent repository
//	ppqserve -addr :8080 -dir ./data -fsync=always # every ack fsynced
//	ppqserve -addr :8080 -preload 500             # memory-only, synthetic warm-up data
//	ppqserve -addr :8081 -dir ./replica -replicate-from http://localhost:8080
//	                                              # read-only follower streaming the primary's WAL
//
// See the README's "Repository server" section for the endpoint
// reference.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux, served only on -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"ppqtraj/internal/admit"
	"ppqtraj/internal/core"
	"ppqtraj/internal/gen"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/serve"
	"ppqtraj/internal/traj"
	"ppqtraj/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "persistence directory (empty = memory only)")
	hotTicks := flag.Int("hot", 64, "hot-tail tick span that triggers compaction")
	keepHot := flag.Int("keep-hot", 0, "ticks left hot per compaction (0 = hot/4)")
	interval := flag.Duration("compact-interval", time.Second, "compactor idle wake-up period")
	eps1 := flag.Float64("eps1", 0.001, "codebook error bound ε₁ (degrees)")
	gcMeters := flag.Float64("gc", 100, "query/index grid cell g_c (meters)")
	epsP := flag.Float64("epsp", 0.1, "partition radius ε_p")
	preload := flag.Int("preload", 0, "ingest this many synthetic Porto trajectories at startup")
	seed := flag.Int64("seed", 42, "synthetic preload seed")
	cacheMB := flag.Int64("cache-mb", 64, "decoded-cell cache budget in MiB for STRQ/point probes (0 disables)")
	fsync := flag.String("fsync", "interval",
		"WAL sync policy: always (no acknowledged ingest is ever lost), interval (background fsync), never (OS decides)")
	fsyncEvery := flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync period under -fsync=interval")
	walDir := flag.String("wal-dir", "", "write-ahead log directory (default <dir>/wal; ignored without -dir)")
	walSegMB := flag.Int64("wal-segment-mb", 16, "WAL file size before rotation, in MiB")
	walRetain := flag.Int("wal-retain-segments", 0,
		"sealed WAL segment files kept beyond the compaction watermark, a catch-up cushion for followers that connect late (0 = none)")
	replicateFrom := flag.String("replicate-from", "",
		"primary base URL to follow (e.g. http://primary:8080); makes this process a read-only replica (requires -dir)")
	maxLagTicks := flag.Int("max-replica-lag-ticks", 0,
		"replica staleness bound: /readyz reports 503 while this follower trails the primary's applied tick by more than this (0 = default 64)")
	replBackoff := flag.Duration("repl-backoff", 0,
		"initial reconnect backoff after a replication stream failure, doubling to 50x with jitter (0 = default 100ms)")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second,
		"default per-request query deadline (0 = none; clients override with ?timeout=)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"graceful-shutdown drain window for in-flight requests")
	groupWait := flag.Duration("group-commit-wait", 2*time.Millisecond,
		"WAL group-commit batching window under -fsync=always (lone writers never wait; 0 disables)")
	maxIngest := flag.Int("max-inflight-ingest", 0,
		"concurrent ingest-class requests admitted (0 = default 64, negative = unlimited)")
	maxQuery := flag.Int("max-inflight-query", 0,
		"concurrent query-class requests admitted (0 = default 256, negative = unlimited)")
	admitQueue := flag.Int("admit-queue", 0,
		"requests allowed to wait for an in-flight slot per class (0 = 4x the cap, negative = shed instantly)")
	admitWait := flag.Duration("admit-wait", 100*time.Millisecond,
		"longest one request waits for an in-flight slot before a 429")
	clientRate := flag.Float64("client-rate", 0,
		"per-client request budget in req/s, keyed X-Client-ID or remote host (0 = no quotas)")
	clientBurst := flag.Int("client-burst", 0, "per-client token-bucket depth (0 = 4x -client-rate)")
	slowQueryMS := flag.Int("slow-query-ms", 0,
		"slow-request threshold in milliseconds: any admitted request at or over it logs one JSON line with its stage breakdown (0 disables)")
	logFormat := flag.String("log-format", "text", "operational log format: text or json")
	logLevel := flag.String("log-level", "info", "operational log level: debug, info, warn, error")
	pprofAddr := flag.String("pprof-addr", "",
		"separate listen address for net/http/pprof profiling endpoints (empty disables; bind it privately)")
	flag.Parse()

	level, ok := obs.ParseLevel(*logLevel)
	if !ok {
		fmt.Fprintf(os.Stderr, "bad -log-level %q: want debug, info, warn, or error\n", *logLevel)
		os.Exit(2)
	}
	format, ok := obs.ParseFormat(*logFormat)
	if !ok {
		fmt.Fprintf(os.Stderr, "bad -log-format %q: want text or json\n", *logFormat)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level, format)

	cacheBytes := *cacheMB << 20
	if *cacheMB <= 0 {
		cacheBytes = -1 // Options.CacheBytes: negative disables, 0 means default
	}
	policy, err := wal.ParsePolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	bopts := core.DefaultOptions(partition.Spatial, *epsP)
	bopts.Epsilon1 = *eps1
	bopts.Seed = *seed
	opts := serve.Options{
		Build: bopts,
		Index: index.Options{
			EpsS: *epsP,
			GC:   geo.MetersToDegrees(*gcMeters),
			EpsC: 0.5,
			EpsD: 0.5,
			Seed: *seed,
		},
		Dir:                 *dir,
		HotTicks:            *hotTicks,
		KeepHotTicks:        *keepHot,
		CompactInterval:     *interval,
		CacheBytes:          cacheBytes,
		DefaultQueryTimeout: *queryTimeout,
		WALDir:              *walDir,
		WALSync:             policy,
		WALSyncInterval:     *fsyncEvery,
		WALSegmentBytes:     *walSegMB << 20,
		WALRetainSegments:   *walRetain,
		GroupCommitWait:     *groupWait,
		ReplicateFrom:       *replicateFrom,
		MaxReplicaLagTicks:  *maxLagTicks,
		ReplBackoff:         *replBackoff,
		Admit: admit.Options{
			MaxInFlightIngest: *maxIngest,
			MaxInFlightQuery:  *maxQuery,
			MaxQueue:          *admitQueue,
			MaxWait:           *admitWait,
			ClientRate:        *clientRate,
			ClientBurst:       *clientBurst,
		},
		Log:       logger,
		SlowQuery: time.Duration(*slowQueryMS) * time.Millisecond,
	}

	repo, err := serve.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *preload > 0 && *replicateFrom != "" {
		fmt.Fprintln(os.Stderr, "-preload and -replicate-from are mutually exclusive: a follower only accepts writes from its primary's stream")
		os.Exit(2)
	}
	if *preload > 0 {
		d := gen.Porto(gen.Config{NumTrajectories: *preload, MinLen: 30, MaxLen: 200, Seed: *seed})
		n := 0
		err := d.Stream(func(col *traj.Column) error {
			n += col.Len()
			return repo.IngestColumn(col)
		})
		if err != nil {
			logger.Error("preload failed", "err", err)
			os.Exit(1)
		}
		if err := repo.Flush(); err != nil {
			logger.Error("preload flush failed", "err", err)
			os.Exit(1)
		}
		st := repo.Stats()
		logger.Info("preloaded synthetic data",
			"points", n, "segments", st.Segments, "disk_kb", st.DiskBytes/1000)
	}

	if *pprofAddr != "" {
		// pprof gets its own listener (DefaultServeMux, where the blank
		// import registered /debug/pprof/*) so profiling endpoints never
		// share a port with the public API.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Warn("pprof server exited", "err", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           repo.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	role := "primary"
	if *replicateFrom != "" {
		role = "follower of " + *replicateFrom
	}
	logger.Info("ppqserve listening", "addr", *addr, "dir", *dir, "hot", *hotTicks,
		"cache_mib", *cacheMB, "timeout", *queryTimeout, "fsync", *fsync,
		"slow_query_ms", *slowQueryMS, "role", role)

	// Serve until SIGINT/SIGTERM, then drain in-flight requests, flush the
	// hot tail (the final compact + manifest swap), and close. A bare kill
	// used to skip all of that: the deferred Close never ran, losing
	// whatever the compactor had not yet sealed to disk.
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			repo.Close()
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
	case sig := <-sigCh:
		logger.Info("shutdown signal received: draining, then flushing",
			"signal", sig, "drain_timeout", *drainTimeout)
		signal.Stop(sigCh) // a second signal kills immediately, the default disposition
		if err := serve.DrainAndClose(srv, repo, *drainTimeout); err != nil {
			logger.Error("shutdown failed", "err", err)
			os.Exit(1)
		}
		logger.Info("shutdown complete")
	}
}
