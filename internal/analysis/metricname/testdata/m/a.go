// Package m is a fixture for the metricname analyzer: literal metric
// names at obs.Registry registration sites and in obs.Sample literals
// must be ppq_-prefixed snake_case with the kind-appropriate suffix.
package m

import "obs"

func register(r *obs.Registry) {
	// Clean registrations.
	r.Counter("ppq_requests_total", "served requests")
	r.CounterVec("ppq_errors_total", "errors by class", "class")
	r.Gauge("ppq_segments_open", "open segments")
	r.GaugeFunc("ppq_heap_bytes", "heap in use", func() float64 { return 0 })
	r.Histogram("ppq_query_seconds", "query latency", nil)
	r.HistogramVec("ppq_batch_points", "points per batch", "stage")

	// Prefix and charset violations.
	r.Counter("requests_total", "missing prefix")       // want `metric name "requests_total" must match ppq_`
	r.Gauge("ppq_HeapBytes", "camel case")              // want `metric name "ppq_HeapBytes" must match ppq_`
	r.Histogram("ppq-query-seconds", "kebab case", nil) // want `metric name "ppq-query-seconds" must match ppq_`

	// Kind-suffix violations.
	r.Counter("ppq_requests", "counter without _total")             // want `counter "ppq_requests" must end in _total`
	r.CounterVec("ppq_errors_count", "wrong counter suffix", "c")   // want `counter "ppq_errors_count" must end in _total`
	r.Histogram("ppq_query_latency", "histogram without unit", nil) // want `histogram "ppq_query_latency" must carry a unit suffix`
	r.Gauge("ppq_segments_total", "gauge claiming monotonicity")    // want `gauge "ppq_segments_total" must not end in _total`

	// Dynamic names are out of reach by design: no finding.
	name := "whatever_total"
	r.Counter(name, "dynamic")
}

// registerRepl mirrors the replication family: counters for stream
// traffic, gauges for lag and connection state.
func registerRepl(r *obs.Registry) {
	r.Counter("ppq_repl_stream_reconnects_total", "stream reconnects")
	r.Counter("ppq_repl_applied_records_total", "records applied")
	r.GaugeFunc("ppq_repl_lag_ticks", "replica staleness", func() float64 { return 0 })
	r.GaugeFunc("ppq_repl_connected", "stream up", func() float64 { return 0 })

	r.Counter("ppq_repl_applied_records", "counter dropped _total")                        // want `counter "ppq_repl_applied_records" must end in _total`
	r.GaugeFunc("ppq_repl_lag_total", "gauge grabbed _total", func() float64 { return 0 }) // want `gauge "ppq_repl_lag_total" must not end in _total`
	r.Counter("repl_reconnects_total", "lost the ppq_ prefix")                             // want `metric name "repl_reconnects_total" must match ppq_`
}

func snapshot() []obs.Sample {
	return []obs.Sample{
		{Name: "ppq_wal_syncs_total", Kind: obs.KindCounter},
		{Name: "ppq_compaction_seconds", Kind: obs.KindHistogram},
		{Name: "ppq_cache_entries", Kind: obs.KindGauge},
		{Name: "wal_syncs_total", Kind: obs.KindCounter},     // want `metric name "wal_syncs_total" must match ppq_`
		{Name: "ppq_wal_syncs", Kind: obs.KindCounter},       // want `counter "ppq_wal_syncs" must end in _total`
		{Name: "ppq_cache_total", Kind: obs.KindGauge},       // want `gauge "ppq_cache_total" must not end in _total`
		{Name: "ppq_flush_elapsed", Kind: obs.KindHistogram}, // want `histogram "ppq_flush_elapsed" must carry a unit suffix`
		// Elided Kind: only the prefix rule applies.
		{Name: "ppq_misc_value"},
		{Name: "Misc_Value"}, // want `metric name "Misc_Value" must match ppq_`
	}
}

// waived shows a justified waiver suppressing a legacy name.
func waived(r *obs.Registry) {
	//ppqvet:allow metricname legacy dashboard series pinned until Q4 migration
	r.Counter("legacy_requests", "grandfathered")
}
