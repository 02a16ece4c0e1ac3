// Package obs is the run-wide observability layer: a span tracer whose log
// exports as Chrome trace-event JSON (openable in chrome://tracing and
// Perfetto) and a metrics registry whose counters, gauges and histograms
// dump as a Prometheus-style text page or a JSON snapshot. The paper's whole
// method rests on observing the run — profiling identifies the comparer as
// the hotspot (§IV.B) and per-kernel counters explain why each optimization
// helps (Tables VII–X) — and this package is the host-side equivalent: a
// timeline of every pipeline stage, kernel launch and resilience event, plus
// machine-readable rates and the search.Profile totals of the runs published
// into the registry.
//
// Disabled-path contract: both *Tracer and *Metrics are valid as nil
// receivers, and every recording method begins with a nil pointer check and
// no other work. Call sites that need a timestamp guard the time.Now() pair
// behind the same pointer check, so a run without -trace/-metrics executes
// no clock reads, no allocations and no locked sections.
// TestNilDisabledPathAllocatesNothing pins the zero allocations. The cost
// of the enabled path has no automated gate: BenchmarkObsOverhead (root
// package, run by hand) shows off vs traced, and needs repeated samples to
// resolve a difference of a few percent.
package obs

// Attr is one key/value annotation on a span, carried into the Chrome trace
// "args" object.
type Attr struct {
	Key   string
	Value string
}

// Metric names, shared by every layer that emits them so the Prometheus page
// and Snapshot stay consistent. Names ending in _total are
// counters; _seconds names are histograms; the rest are gauges.
const (
	// Published by search.Profile.publish, once, when a simulator run
	// returns — the only writer of every series in this block and of the
	// arena, recovery and autotuner blocks below. Each is the Profile field of
	// the same name, so the registry is the sum of the profiles published
	// into it (DESIGN.md §10).
	MetricChunks          = "casoffinder_chunks_total"
	MetricStagedBytes     = "casoffinder_staged_bytes_total"
	MetricReadBytes       = "casoffinder_read_bytes_total"
	MetricCandidateSites  = "casoffinder_candidate_sites_total"
	MetricEntries         = "casoffinder_entries_total"
	MetricAsyncExceptions = "casoffinder_async_exceptions_total"
	// MetricFaults carries a site="..." label per fault site.
	MetricFaults = "casoffinder_faults_total"

	// Hit-buffer arena counters (internal/gpu/alloc), published from the
	// profile too: bytes of arena entry storage provisioned, pages claimed
	// by kernels, and launches repeated after an arena overflow (the
	// backend's refit-and-relaunch).
	MetricArenaBytes     = "casoffinder_arena_bytes_total"
	MetricArenaPages     = "casoffinder_arena_page_claims_total"
	MetricArenaOverflows = "casoffinder_arena_overflow_retries_total"

	// Emitted live by the chunk executor (pipeline.Executor) and the scan
	// attempts it runs, on every engine: stage and whole-attempt latencies,
	// the depth of the run's chunk queue (unclaimed chunks), hits and chunks
	// emitted.
	MetricStageSeconds   = "casoffinder_stage_seconds"
	MetricScanSeconds    = "casoffinder_scan_seconds"
	MetricQueueDepth     = "casoffinder_queue_depth"
	MetricHits           = "casoffinder_hits_total"
	MetricPipelineChunks = "casoffinder_pipeline_chunks_total"

	// The executor's recovery events. It counts them in its run report only;
	// the profile folds the report and publishes them.
	MetricRetries       = "casoffinder_retries_total"
	MetricFailovers     = "casoffinder_failovers_total"
	MetricWatchdogKills = "casoffinder_watchdog_kills_total"
	MetricQuarantined   = "casoffinder_quarantined_chunks_total"

	// Emitted by the gpu simulator's launch hook, labelled kernel="...".
	// Counted per attempted launch, failed and voided ones included, so under
	// faults it exceeds the profile's Launches by design.
	MetricKernelLaunchSeconds = "casoffinder_kernel_launch_seconds"
	MetricKernelLaunches      = "casoffinder_kernel_launches_total"

	// Emitted by the opencl frontend per read-back, labelled dir="read"
	// (host data enters at buffer creation, which is not a transfer command).
	MetricCLTransfers = "casoffinder_cl_transfers_total"

	// The occupancy autotuner's (internal/tune) kernel selections, one per
	// device whose backend opened, published from the profile.
	// MetricTuneSelected carries a variant="..." label per selected
	// comparer variant.
	MetricTuneDecisions  = "casoffinder_tune_decisions_total"
	MetricTuneCandidates = "casoffinder_tune_candidates_total"
	MetricTuneSelected   = "casoffinder_tune_selected_total"

	// Emitted by the search-as-a-service daemon (internal/serve).
	// MetricServeRequests carries a status="..." label (the terminal request
	// outcome: ok, degraded, rejected, error, canceled);
	// MetricServeShed a reason="..." label (quota, queue-full, shed,
	// deadline, draining). MetricServeQueueDepth is the requests waiting in
	// batches, MetricServeInflight the passes running, MetricServeQueueSeconds
	// a request's wait from acceptance to its pass start (the batching
	// window included) and MetricServeStreamSeconds its pass start to its
	// end. MetricServeWriteTimeouts counts members that left their pass
	// because a write to their client missed its deadline.
	MetricServeRequests      = "casoffinderd_requests_total"
	MetricServeShed          = "casoffinderd_shed_total"
	MetricServeQueueDepth    = "casoffinderd_queue_depth"
	MetricServeInflight      = "casoffinderd_inflight"
	MetricServeQueueSeconds  = "casoffinderd_queue_seconds"
	MetricServeStreamSeconds = "casoffinderd_stream_seconds"
	MetricServeBatches       = "casoffinderd_batches_total"
	MetricServeCoalesced     = "casoffinderd_coalesced_requests_total"
	MetricServeDegraded      = "casoffinderd_degraded_total"
	MetricServePanics        = "casoffinderd_panics_total"
	MetricServeHits          = "casoffinderd_hits_total"
	MetricServeWriteTimeouts = "casoffinderd_write_timeouts_total"
)
