//! Lock-free serving metrics.
//!
//! Every counter is a plain `AtomicU64` and every latency histogram is a
//! fixed array of power-of-two buckets, so recording never allocates, never
//! locks, and never blocks a worker. The registry renders to a Prometheus
//! text page at `/metrics` following the exposition conventions:
//!
//! * every family carries `# HELP` and `# TYPE` lines;
//! * per-endpoint latency is a `summary` (`quantile="0.5|0.95|0.99"` plus
//!   `_sum`/`_count`), with the observed maximum as a separate gauge;
//! * the per-stage query timings and the update-pipeline timings are native
//!   `histogram` families: cumulative `_bucket{le=...}` series over the log2
//!   bucket bounds (only non-empty buckets are emitted), `+Inf`, `_sum`,
//!   `_count`.
//!
//! The accounting identity the e2e suite pins:
//!
//! ```text
//! requests_submitted == requests_served + requests_rejected + requests_deadline_expired
//! ```
//!
//! * `submitted` — counted per request: by the acceptor for a connection's
//!   first request (every accepted connection carries one, even if it sends
//!   nothing), by the worker for each later request on a kept connection
//!   when its first byte arrives;
//! * `rejected` — fast-fail 503s written by the acceptor when the admission
//!   queue is full (backpressure);
//! * `deadline_expired` — 504s written by a worker whose request aged past
//!   its deadline before scoring started;
//! * `served` — every other worker-written response, including error
//!   responses (400/404/update-queue 503s), and 499 for a fresh connection
//!   the client gave up on before a response could be written.
//!
//! A kept connection that closes between requests carries no request and is
//! counted only in `serve_connection_closes_total`; requests per connection
//! read off a scrape as `requests_submitted / connections_accepted`.

use std::sync::atomic::{AtomicU64, Ordering};
use viderec_core::{Stage, NUM_STAGES};

/// Histogram bucket count: bucket `i` holds observations in
/// `[2^(i-1), 2^i)` (bucket 0 holds the value 0), so 40 buckets cover far
/// beyond any realistic request latency in microseconds.
pub const BUCKETS: usize = 40;

/// Number of update-event kinds the apply-latency family distinguishes.
pub const UPDATE_KINDS: usize = 3;

/// Metric labels of the update-event kinds, indexed by
/// [`crate::wire::event_kind_index`].
pub const UPDATE_KIND_LABELS: [&str; UPDATE_KINDS] = ["comments", "ingest", "age"];

/// A lock-free log2-bucketed latency histogram (microsecond domain).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_of(micros: u64) -> usize {
        ((64 - micros.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`0` for bucket 0, `2^i - 1`
    /// above; the top bucket additionally absorbs everything larger).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation.
    pub fn record(&self, micros: u64) {
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros().checked_div(self.count()).unwrap_or(0)
    }

    /// Maximum observed latency in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max_micros.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the per-bucket counts.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the bucket
    /// holding the rank — accurate to the bucket's factor-of-two width,
    /// which is the usual precision/footprint trade of log-bucketed
    /// histograms. Returns 0 when empty.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        self.max_micros()
    }
}

/// The served endpoints, as metric labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /recommend`
    Recommend,
    /// `POST /update`
    Update,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `GET /debug/queries` and `GET /debug/trace/<id>`
    Debug,
    /// Anything else (404s, malformed requests).
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 6] = [
        Endpoint::Recommend,
        Endpoint::Update,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Debug,
        Endpoint::Other,
    ];

    fn index(self) -> usize {
        match self {
            Endpoint::Recommend => 0,
            Endpoint::Update => 1,
            Endpoint::Healthz => 2,
            Endpoint::Metrics => 3,
            Endpoint::Debug => 4,
            Endpoint::Other => 5,
        }
    }

    /// The metric label.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Recommend => "recommend",
            Endpoint::Update => "update",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Debug => "debug",
            Endpoint::Other => "other",
        }
    }
}

/// Why the server ended a connection, the label of
/// `serve_connection_closes_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The client closed between requests, asked for `Connection: close`,
    /// or gave up before sending a request.
    Client,
    /// No request began within the keep-alive idle window.
    Idle,
    /// The server announced `Connection: close` to free the worker: other
    /// connections were waiting for one (or the admission queue was full),
    /// or the server is shutting down.
    Yield,
    /// A malformed request, or a socket error mid-request or mid-response.
    Error,
}

impl CloseReason {
    const ALL: [CloseReason; 4] = [
        CloseReason::Client,
        CloseReason::Idle,
        CloseReason::Yield,
        CloseReason::Error,
    ];

    fn index(self) -> usize {
        match self {
            CloseReason::Client => 0,
            CloseReason::Idle => 1,
            CloseReason::Yield => 2,
            CloseReason::Error => 3,
        }
    }

    /// The metric label.
    pub fn label(self) -> &'static str {
        match self {
            CloseReason::Client => "client",
            CloseReason::Idle => "idle",
            CloseReason::Yield => "yield",
            CloseReason::Error => "error",
        }
    }
}

/// Per-endpoint hit/error counters and a latency histogram.
#[derive(Debug, Default)]
pub struct EndpointMetrics {
    /// Responses written for this endpoint.
    pub hits: AtomicU64,
    /// Of which carried a 4xx/5xx status.
    pub errors: AtomicU64,
    /// Request latency: from admission (a connection's first request) or
    /// from the first byte (a later one) until the response is handed to
    /// the socket.
    pub latency: Histogram,
}

/// Point-in-time durability gauges, sampled from the shared
/// [`crate::durability::DurabilityStatus`] block at scrape time (absent when
/// the server runs without a data dir).
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilitySample {
    /// Highest LSN framed into the WAL.
    pub appended_lsn: u64,
    /// Highest LSN applied and acknowledged.
    pub acked_lsn: u64,
    /// Highest LSN known fsynced to stable storage.
    pub synced_lsn: u64,
    /// LSN covered by the newest published snapshot.
    pub snapshot_lsn: u64,
    /// Live WAL segment files.
    pub segments: u64,
    /// Whether a WAL write failed and durable acks stopped.
    pub failed: bool,
}

/// Point-in-time process and heap telemetry, sampled by the caller at
/// scrape time from `/proc/self/{stat,status}` (via `viderec_prof`) and the
/// counting allocator's global counters. Plain values, not a dependency on
/// the prof crate: the registry stays testable with synthetic fixtures.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessSample {
    /// Resident set size in bytes (`VmRSS`).
    pub rss_bytes: u64,
    /// User-mode CPU seconds consumed since process start.
    pub utime_secs: f64,
    /// Kernel-mode CPU seconds consumed since process start.
    pub stime_secs: f64,
    /// Kernel threads in the process.
    pub threads: u64,
    /// Voluntary context switches (blocking waits) since start.
    pub voluntary_ctxt_switches: u64,
    /// Live heap bytes per the counting allocator (0 when not installed).
    pub heap_live_bytes: u64,
    /// Live heap allocations per the counting allocator.
    pub heap_live_allocs: u64,
    /// Heap bytes requested since start per the counting allocator.
    pub heap_total_bytes: u64,
    /// Heap allocations since start per the counting allocator.
    pub heap_total_allocs: u64,
    /// Whether the counting allocator is installed as `#[global_allocator]`.
    pub heap_counting: bool,
}

/// Point-in-time gauge values sampled by the caller at scrape time — they
/// belong to the snapshot cell, the channels and the trace ring, not to this
/// registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Epoch of the currently published snapshot.
    pub epoch: u64,
    /// Corpus size of the published snapshot.
    pub videos: usize,
    /// Admission queue depth.
    pub admission_depth: usize,
    /// Update queue depth.
    pub update_depth: usize,
    /// Microseconds since the last snapshot publication.
    pub snapshot_age_micros: u64,
    /// Query traces pushed into the debug ring so far.
    pub traces_recorded: u64,
    /// Query traces dropped on a ring-slot collision.
    pub traces_dropped: u64,
    /// Capacity of the debug trace ring.
    pub trace_capacity: usize,
    /// Whether per-query tracing is enabled.
    pub tracing_enabled: bool,
    /// Durability gauges, when the server runs with a data dir.
    pub durability: Option<DurabilitySample>,
    /// Process and heap telemetry.
    pub process: ProcessSample,
}

/// The server-wide metrics registry. All members are lock-free.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests submitted: a connection's first by the acceptor, each later
    /// one on a kept connection by its worker.
    pub submitted: AtomicU64,
    /// Connections accepted by the acceptor.
    pub connections_accepted: AtomicU64,
    /// Responses written by workers (any status except 503-at-admission and
    /// 504-deadline).
    pub served: AtomicU64,
    /// Fast-fail 503s at admission (queue full).
    pub rejected: AtomicU64,
    /// 504s for requests whose deadline expired before scoring.
    pub deadline_expired: AtomicU64,
    /// Update batches accepted into the maintenance queue.
    pub updates_enqueued: AtomicU64,
    /// Update batches bounced with 503 (update queue full).
    pub updates_rejected: AtomicU64,
    /// Individual [`viderec_core::UpdateEvent`]s applied by the writer.
    pub events_applied: AtomicU64,
    /// Events the writer rejected (e.g. duplicate video ingest).
    pub events_failed: AtomicU64,
    /// Snapshots published (≥ 1 once the first update lands).
    pub snapshots_published: AtomicU64,
    /// Candidates the bound ladder kept out of exact evaluation (any rung)
    /// across traced `/recommend` queries.
    pub prune_anchor: AtomicU64,
    /// Retired with the cached-embedding tier: never incremented, exposed as
    /// a constant 0 so dashboards keyed on the family keep resolving.
    pub prune_embed: AtomicU64,
    /// Capped EMD sweeps aborted early (threshold exceeded or quantized
    /// screen fired) across traced queries.
    pub emd_cap_aborted: AtomicU64,
    /// Capped EMD sweeps that ran to completion across traced queries.
    pub emd_full_sweeps: AtomicU64,
    /// Per-stage scan time of traced `/recommend` queries, indexed by
    /// [`Stage::index`] (populated only while tracing is enabled).
    pub stage_micros: [Histogram; NUM_STAGES],
    /// Per-stage heap bytes allocated by traced `/recommend` queries
    /// (unit: bytes, not micros; zero unless the binary installs the
    /// counting allocator).
    pub stage_alloc_bytes: [Histogram; NUM_STAGES],
    /// Enqueue-to-drain wait of update batches in the maintenance queue.
    pub update_queue_wait: Histogram,
    /// Per-event apply latency, indexed by [`crate::wire::event_kind_index`].
    pub update_apply: [Histogram; UPDATE_KINDS],
    /// Events drained per maintenance round (unit: events, not micros).
    pub update_batch_events: Histogram,
    /// Heap bytes the maintenance writer allocated per drained round, its
    /// copy-on-write copies included (zero without the counting allocator).
    pub update_batch_alloc_bytes: Histogram,
    /// Master-handle clone time before a publish (reference-count bumps).
    pub snapshot_clone: Histogram,
    /// Epoch-swap publish time.
    pub snapshot_publish: Histogram,
    /// WAL records appended by the maintenance writer.
    pub wal_appends: AtomicU64,
    /// WAL payload bytes appended.
    pub wal_bytes: AtomicU64,
    /// fsyncs issued on the WAL hot path (per the configured policy).
    pub wal_fsyncs: AtomicU64,
    /// WAL/snapshot write failures (durable acks stop on the first).
    pub wal_errors: AtomicU64,
    /// `/update` requests that timed out waiting for a durable ack.
    pub wal_ack_failures: AtomicU64,
    /// Snapshots checkpointed to the data dir.
    pub wal_checkpoints: AtomicU64,
    /// WAL segments retired after a covering checkpoint.
    pub wal_segments_retired: AtomicU64,
    /// Per-record append (frame + write) latency.
    pub wal_append_micros: Histogram,
    /// fsync latency on the WAL hot path.
    pub wal_fsync_micros: Histogram,
    /// Full checkpoint (sync + merge + publish + retire) latency.
    pub wal_checkpoint_micros: Histogram,
    endpoints: [EndpointMetrics; 6],
    connection_closes: [AtomicU64; 4],
}

impl Metrics {
    /// Counts one ended connection.
    pub fn record_close(&self, reason: CloseReason) {
        self.connection_closes[reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Connections ended for `reason` so far.
    pub fn connection_closes(&self, reason: CloseReason) -> u64 {
        self.connection_closes[reason.index()].load(Ordering::Relaxed)
    }

    /// Records a worker-written response.
    pub fn record_response(&self, endpoint: Endpoint, status: u16, micros: u64) {
        let ep = &self.endpoints[endpoint.index()];
        ep.hits.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            ep.errors.fetch_add(1, Ordering::Relaxed);
        }
        ep.latency.record(micros);
    }

    /// The per-endpoint slot (rendering and tests).
    pub fn endpoint(&self, endpoint: Endpoint) -> &EndpointMetrics {
        &self.endpoints[endpoint.index()]
    }

    /// Renders the Prometheus text page; live gauge values are sampled by
    /// the caller into `g`.
    pub fn render(&self, g: &Gauges) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(8192);
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let counters: [(&str, u64, &str); 21] = [
            (
                "serve_requests_submitted_total",
                c(&self.submitted),
                "Requests submitted (a connection's first, and each later one it carries).",
            ),
            (
                "serve_connections_accepted_total",
                c(&self.connections_accepted),
                "Connections accepted by the acceptor.",
            ),
            (
                "serve_requests_served_total",
                c(&self.served),
                "Responses written by workers.",
            ),
            (
                "serve_requests_rejected_total",
                c(&self.rejected),
                "Fast-fail 503s at admission (queue full).",
            ),
            (
                "serve_requests_deadline_expired_total",
                c(&self.deadline_expired),
                "504s for requests past their deadline before scoring.",
            ),
            (
                "serve_update_batches_enqueued_total",
                c(&self.updates_enqueued),
                "Update batches accepted into the maintenance queue.",
            ),
            (
                "serve_update_batches_rejected_total",
                c(&self.updates_rejected),
                "Update batches bounced with 503 (update queue full).",
            ),
            (
                "serve_events_applied_total",
                c(&self.events_applied),
                "Update events applied by the maintenance writer.",
            ),
            (
                "serve_events_failed_total",
                c(&self.events_failed),
                "Update events the maintenance writer rejected.",
            ),
            (
                "serve_snapshots_published_total",
                c(&self.snapshots_published),
                "Snapshots published by the maintenance writer.",
            ),
            (
                "serve_prune_anchor_total",
                c(&self.prune_anchor),
                "Candidates pruned on a bound-ladder rung in traced queries.",
            ),
            (
                "serve_prune_embed_total",
                c(&self.prune_embed),
                "Retired, always 0: the cached-embedding tier was deleted.",
            ),
            (
                "serve_emd_cap_aborted_total",
                c(&self.emd_cap_aborted),
                "Capped EMD sweeps aborted early in traced queries.",
            ),
            (
                "serve_emd_full_sweeps_total",
                c(&self.emd_full_sweeps),
                "Capped EMD sweeps that ran to completion in traced queries.",
            ),
            (
                "serve_wal_records_appended_total",
                c(&self.wal_appends),
                "WAL records appended by the maintenance writer.",
            ),
            (
                "serve_wal_bytes_total",
                c(&self.wal_bytes),
                "WAL payload bytes appended.",
            ),
            (
                "serve_wal_fsyncs_total",
                c(&self.wal_fsyncs),
                "fsyncs issued on the WAL hot path.",
            ),
            (
                "serve_wal_errors_total",
                c(&self.wal_errors),
                "WAL/snapshot write failures (durable acks stop on the first).",
            ),
            (
                "serve_wal_ack_failures_total",
                c(&self.wal_ack_failures),
                "Updates that timed out waiting for a durable ack.",
            ),
            (
                "serve_wal_checkpoints_total",
                c(&self.wal_checkpoints),
                "Snapshots checkpointed to the data dir.",
            ),
            (
                "serve_wal_segments_retired_total",
                c(&self.wal_segments_retired),
                "WAL segments retired after a covering checkpoint.",
            ),
        ];
        for (name, value, help) in counters {
            meta(&mut out, name, help, "counter");
            let _ = writeln!(out, "{name} {value}");
        }
        meta(
            &mut out,
            "serve_connection_closes_total",
            "Connections ended, by reason (client|idle|yield|error).",
            "counter",
        );
        for reason in CloseReason::ALL {
            let _ = writeln!(
                out,
                "serve_connection_closes_total{{reason=\"{}\"}} {}",
                reason.label(),
                self.connection_closes(reason)
            );
        }
        meta(
            &mut out,
            "serve_query_traces_recorded_total",
            "Query traces pushed into the debug ring.",
            "counter",
        );
        let _ = writeln!(
            out,
            "serve_query_traces_recorded_total {}",
            g.traces_recorded
        );
        meta(
            &mut out,
            "serve_query_traces_dropped_total",
            "Query traces dropped on a ring-slot collision.",
            "counter",
        );
        let _ = writeln!(out, "serve_query_traces_dropped_total {}", g.traces_dropped);

        let gauges: [(&str, u64, &str); 7] = [
            (
                "serve_snapshot_epoch",
                g.epoch,
                "Epoch of the currently published snapshot.",
            ),
            (
                "serve_snapshot_age_micros",
                g.snapshot_age_micros,
                "Microseconds since the last snapshot publication.",
            ),
            (
                "serve_corpus_videos",
                g.videos as u64,
                "Corpus size of the published snapshot.",
            ),
            (
                "serve_admission_queue_depth",
                g.admission_depth as u64,
                "Connections waiting for a worker.",
            ),
            (
                "serve_update_queue_depth",
                g.update_depth as u64,
                "Update batches waiting for the maintenance writer.",
            ),
            (
                "serve_tracing_enabled",
                u64::from(g.tracing_enabled),
                "Whether per-query tracing is enabled (1) or not (0).",
            ),
            (
                "serve_trace_ring_capacity",
                g.trace_capacity as u64,
                "Capacity of the debug trace ring.",
            ),
        ];
        for (name, value, help) in &gauges {
            meta(&mut out, name, help, "gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        meta(
            &mut out,
            "serve_wal_enabled",
            "Whether the durability subsystem is active (1) or not (0).",
            "gauge",
        );
        let _ = writeln!(
            out,
            "serve_wal_enabled {}",
            u64::from(g.durability.is_some())
        );
        if let Some(d) = &g.durability {
            let wal_gauges: [(&str, u64, &str); 7] = [
                (
                    "serve_wal_appended_lsn",
                    d.appended_lsn,
                    "Highest LSN framed into the WAL.",
                ),
                (
                    "serve_wal_acked_lsn",
                    d.acked_lsn,
                    "Highest LSN applied and acknowledged.",
                ),
                (
                    "serve_wal_synced_lsn",
                    d.synced_lsn,
                    "Highest LSN known fsynced to stable storage.",
                ),
                (
                    "serve_wal_snapshot_lsn",
                    d.snapshot_lsn,
                    "LSN covered by the newest published snapshot.",
                ),
                ("serve_wal_segments", d.segments, "Live WAL segment files."),
                (
                    "serve_wal_lag_events",
                    d.appended_lsn.saturating_sub(d.snapshot_lsn),
                    "Appended events not yet covered by a snapshot.",
                ),
                (
                    "serve_wal_failed",
                    u64::from(d.failed),
                    "Whether a WAL write failed and durable acks stopped.",
                ),
            ];
            for (name, value, help) in &wal_gauges {
                meta(&mut out, name, help, "gauge");
                let _ = writeln!(out, "{name} {value}");
            }
        }

        // Process telemetry: the monotone clocks and allocator totals are
        // counters; instantaneous state is gauges.
        let p = &g.process;
        let proc_counters: [(&str, f64, &str); 5] = [
            (
                "serve_process_cpu_user_seconds_total",
                p.utime_secs,
                "User-mode CPU seconds consumed since process start.",
            ),
            (
                "serve_process_cpu_system_seconds_total",
                p.stime_secs,
                "Kernel-mode CPU seconds consumed since process start.",
            ),
            (
                "serve_process_voluntary_ctxt_switches_total",
                p.voluntary_ctxt_switches as f64,
                "Voluntary context switches (blocking waits) since start.",
            ),
            (
                "serve_process_heap_allocated_bytes_total",
                p.heap_total_bytes as f64,
                "Heap bytes requested since start (counting allocator).",
            ),
            (
                "serve_process_heap_allocations_total",
                p.heap_total_allocs as f64,
                "Heap allocations since start (counting allocator).",
            ),
        ];
        for (name, value, help) in &proc_counters {
            meta(&mut out, name, help, "counter");
            let _ = writeln!(out, "{name} {value}");
        }
        let proc_gauges: [(&str, u64, &str); 5] = [
            (
                "serve_process_rss_bytes",
                p.rss_bytes,
                "Resident set size (VmRSS) in bytes.",
            ),
            (
                "serve_process_threads",
                p.threads,
                "Kernel threads in the process.",
            ),
            (
                "serve_process_heap_live_bytes",
                p.heap_live_bytes,
                "Live heap bytes (counting allocator; 0 when not installed).",
            ),
            (
                "serve_process_heap_live_allocs",
                p.heap_live_allocs,
                "Live heap allocations (counting allocator).",
            ),
            (
                "serve_process_heap_counting",
                u64::from(p.heap_counting),
                "Whether the counting allocator is installed (1) or not (0).",
            ),
        ];
        for (name, value, help) in &proc_gauges {
            meta(&mut out, name, help, "gauge");
            let _ = writeln!(out, "{name} {value}");
        }

        meta(
            &mut out,
            "serve_responses_total",
            "Responses written, by endpoint.",
            "counter",
        );
        for ep in Endpoint::ALL {
            let _ = writeln!(
                out,
                "serve_responses_total{{endpoint=\"{}\"}} {}",
                ep.label(),
                c(&self.endpoint(ep).hits)
            );
        }
        meta(
            &mut out,
            "serve_response_errors_total",
            "4xx/5xx responses written, by endpoint.",
            "counter",
        );
        for ep in Endpoint::ALL {
            let _ = writeln!(
                out,
                "serve_response_errors_total{{endpoint=\"{}\"}} {}",
                ep.label(),
                c(&self.endpoint(ep).errors)
            );
        }
        meta(
            &mut out,
            "serve_latency_micros",
            "Request latency (from admission, or a kept connection's first byte), by endpoint.",
            "summary",
        );
        for ep in Endpoint::ALL {
            let label = ep.label();
            let h = &self.endpoint(ep).latency;
            for (q, label_q) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "serve_latency_micros{{endpoint=\"{label}\",quantile=\"{label_q}\"}} {}",
                    h.quantile_micros(q)
                );
            }
            let _ = writeln!(
                out,
                "serve_latency_micros_sum{{endpoint=\"{label}\"}} {}",
                h.sum_micros()
            );
            let _ = writeln!(
                out,
                "serve_latency_micros_count{{endpoint=\"{label}\"}} {}",
                h.count()
            );
        }
        meta(
            &mut out,
            "serve_latency_max_micros",
            "Maximum observed request latency, by endpoint.",
            "gauge",
        );
        for ep in Endpoint::ALL {
            let _ = writeln!(
                out,
                "serve_latency_max_micros{{endpoint=\"{}\"}} {}",
                ep.label(),
                self.endpoint(ep).latency.max_micros()
            );
        }

        meta(
            &mut out,
            "serve_query_stage_micros",
            "Per-stage scan time of traced /recommend queries.",
            "histogram",
        );
        for stage in Stage::ALL {
            let labels = format!("stage=\"{}\"", stage.label());
            histogram_samples(
                &mut out,
                "serve_query_stage_micros",
                &labels,
                &self.stage_micros[stage.index()],
            );
        }
        meta(
            &mut out,
            "serve_query_stage_alloc_bytes",
            "Per-stage heap bytes allocated by traced /recommend queries.",
            "histogram",
        );
        for stage in Stage::ALL {
            let labels = format!("stage=\"{}\"", stage.label());
            histogram_samples(
                &mut out,
                "serve_query_stage_alloc_bytes",
                &labels,
                &self.stage_alloc_bytes[stage.index()],
            );
        }
        meta(
            &mut out,
            "serve_update_queue_wait_micros",
            "Enqueue-to-drain wait of update batches.",
            "histogram",
        );
        histogram_samples(
            &mut out,
            "serve_update_queue_wait_micros",
            "",
            &self.update_queue_wait,
        );
        meta(
            &mut out,
            "serve_update_apply_micros",
            "Per-event apply latency, by event kind.",
            "histogram",
        );
        for (i, label) in UPDATE_KIND_LABELS.iter().enumerate() {
            let labels = format!("kind=\"{label}\"");
            histogram_samples(
                &mut out,
                "serve_update_apply_micros",
                &labels,
                &self.update_apply[i],
            );
        }
        meta(
            &mut out,
            "serve_update_batch_events",
            "Events drained per maintenance round.",
            "histogram",
        );
        histogram_samples(
            &mut out,
            "serve_update_batch_events",
            "",
            &self.update_batch_events,
        );
        meta(
            &mut out,
            "serve_update_batch_alloc_bytes",
            "Heap bytes the maintenance writer allocated per drained round.",
            "histogram",
        );
        histogram_samples(
            &mut out,
            "serve_update_batch_alloc_bytes",
            "",
            &self.update_batch_alloc_bytes,
        );
        meta(
            &mut out,
            "serve_snapshot_clone_micros",
            "Master-handle clone time before a publish (reference-count bumps).",
            "histogram",
        );
        histogram_samples(
            &mut out,
            "serve_snapshot_clone_micros",
            "",
            &self.snapshot_clone,
        );
        meta(
            &mut out,
            "serve_snapshot_publish_micros",
            "Epoch-swap publish time.",
            "histogram",
        );
        histogram_samples(
            &mut out,
            "serve_snapshot_publish_micros",
            "",
            &self.snapshot_publish,
        );
        meta(
            &mut out,
            "serve_wal_append_micros",
            "Per-record WAL append (frame + write) latency.",
            "histogram",
        );
        histogram_samples(
            &mut out,
            "serve_wal_append_micros",
            "",
            &self.wal_append_micros,
        );
        meta(
            &mut out,
            "serve_wal_fsync_micros",
            "fsync latency on the WAL hot path.",
            "histogram",
        );
        histogram_samples(
            &mut out,
            "serve_wal_fsync_micros",
            "",
            &self.wal_fsync_micros,
        );
        meta(
            &mut out,
            "serve_wal_checkpoint_micros",
            "Full checkpoint (sync + merge + publish + retire) latency.",
            "histogram",
        );
        histogram_samples(
            &mut out,
            "serve_wal_checkpoint_micros",
            "",
            &self.wal_checkpoint_micros,
        );
        out
    }
}

fn meta(out: &mut String, name: &str, help: &str, ty: &str) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {ty}");
}

/// Emits one label set of a Prometheus `histogram` family: cumulative
/// `_bucket{le=...}` lines over the non-empty log2 buckets, `+Inf`, `_sum`
/// and `_count`.
fn histogram_samples(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    use std::fmt::Write as _;
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (i, &n) in h.bucket_counts().iter().enumerate() {
        cumulative += n;
        if n > 0 {
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
                Histogram::bucket_upper_bound(i)
            );
        }
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        h.count()
    );
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", h.sum_micros());
        let _ = writeln!(out, "{name}_count {}", h.count());
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum_micros());
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn histogram_quantiles_are_monotone_and_bracket_the_data() {
        let h = Histogram::default();
        for micros in [3u64, 5, 9, 120, 900, 1500, 15_000] {
            h.record(micros);
        }
        assert_eq!(h.count(), 7);
        let p50 = h.quantile_micros(0.5);
        let p95 = h.quantile_micros(0.95);
        let p99 = h.quantile_micros(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // Upper bounds: each quantile is within 2x of a real observation.
        assert!((9..=2 * 120).contains(&p50), "p50={p50}");
        assert!((15_000 / 2..=2 * 15_000).contains(&p99), "p99={p99}");
        assert_eq!(h.max_micros(), 15_000);
        assert!(h.mean_micros() > 0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::default();
        assert_eq!(h.quantile_micros(0.5), 0);
        assert_eq!(h.quantile_micros(0.99), 0);
        assert_eq!(h.mean_micros(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_micros(), 0);
        assert_eq!(h.bucket_counts(), [0u64; BUCKETS]);
    }

    #[test]
    fn single_observation_pins_every_quantile() {
        let h = Histogram::default();
        h.record(100);
        // 100 lands in bucket 7 ([64, 128)); every quantile answers its
        // upper bound.
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_micros(q), 127, "q={q}");
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_micros(), 100);
        assert_eq!(h.max_micros(), 100);
    }

    #[test]
    fn zero_observations_land_in_bucket_zero() {
        let h = Histogram::default();
        h.record(0);
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.quantile_micros(0.5), 0);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
    }

    #[test]
    fn huge_values_saturate_the_top_bucket() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.bucket_counts()[BUCKETS - 1], 2);
        // The quantile caps at the top bucket's nominal bound; the true max
        // survives separately.
        assert_eq!(
            h.quantile_micros(0.5),
            Histogram::bucket_upper_bound(BUCKETS - 1)
        );
        assert_eq!(h.max_micros(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn quantiles_stay_monotone_under_random_fills() {
        // Deterministic LCG — the serve crate has no rand dependency.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let h = Histogram::default();
        for _ in 0..1000 {
            h.record(next() % 1_000_000);
        }
        let mut prev = 0u64;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.quantile_micros(q);
            assert!(v >= prev, "quantile {q} went backwards: {v} < {prev}");
            prev = v;
        }
        assert!(h.quantile_micros(1.0) <= 2 * h.max_micros() + 1);
        assert_eq!(h.count(), 1000);
    }

    fn populated() -> Metrics {
        let m = Metrics::default();
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.connections_accepted.fetch_add(2, Ordering::Relaxed);
        m.record_close(CloseReason::Idle);
        m.record_close(CloseReason::Yield);
        m.record_close(CloseReason::Yield);
        m.served.fetch_add(2, Ordering::Relaxed);
        m.rejected.fetch_add(1, Ordering::Relaxed);
        m.record_response(Endpoint::Recommend, 200, 840);
        m.record_response(Endpoint::Recommend, 404, 12);
        m.record_response(Endpoint::Debug, 200, 40);
        m.prune_anchor.fetch_add(50, Ordering::Relaxed);
        m.prune_embed.fetch_add(6, Ordering::Relaxed);
        m.emd_cap_aborted.fetch_add(17, Ordering::Relaxed);
        m.emd_full_sweeps.fetch_add(80, Ordering::Relaxed);
        m.stage_micros[Stage::Emd.index()].record(700);
        m.stage_micros[Stage::Queue.index()].record(3);
        m.stage_alloc_bytes[Stage::Emd.index()].record(4096);
        m.update_batch_alloc_bytes.record(1 << 14);
        m.update_queue_wait.record(44);
        m.update_apply[0].record(10);
        m.update_apply[1].record(2000);
        m.update_batch_events.record(3);
        m.snapshot_clone.record(100);
        m.snapshot_publish.record(1);
        m.wal_appends.fetch_add(12, Ordering::Relaxed);
        m.wal_bytes.fetch_add(480, Ordering::Relaxed);
        m.wal_fsyncs.fetch_add(4, Ordering::Relaxed);
        m.wal_checkpoints.fetch_add(1, Ordering::Relaxed);
        m.wal_segments_retired.fetch_add(2, Ordering::Relaxed);
        m.wal_append_micros.record(11);
        m.wal_fsync_micros.record(900);
        m.wal_checkpoint_micros.record(4000);
        m
    }

    fn gauges() -> Gauges {
        Gauges {
            epoch: 7,
            videos: 42,
            admission_depth: 1,
            update_depth: 0,
            snapshot_age_micros: 5000,
            traces_recorded: 9,
            traces_dropped: 0,
            trace_capacity: 256,
            tracing_enabled: true,
            durability: Some(DurabilitySample {
                appended_lsn: 12,
                acked_lsn: 12,
                synced_lsn: 12,
                snapshot_lsn: 8,
                segments: 2,
                failed: false,
            }),
            process: ProcessSample {
                rss_bytes: 64 << 20,
                utime_secs: 1.5,
                stime_secs: 0.25,
                threads: 9,
                voluntary_ctxt_switches: 123,
                heap_live_bytes: 2048,
                heap_live_allocs: 3,
                heap_total_bytes: 8192,
                heap_total_allocs: 7,
                heap_counting: true,
            },
        }
    }

    #[test]
    fn render_contains_the_accounting_counters() {
        let page = populated().render(&gauges());
        assert!(page.contains("serve_requests_submitted_total 3"));
        assert!(page.contains("serve_requests_served_total 2"));
        assert!(page.contains("serve_requests_rejected_total 1"));
        assert!(page.contains("serve_connections_accepted_total 2"));
        assert!(page.contains("serve_connection_closes_total{reason=\"client\"} 0"));
        assert!(page.contains("serve_connection_closes_total{reason=\"idle\"} 1"));
        assert!(page.contains("serve_connection_closes_total{reason=\"yield\"} 2"));
        assert!(page.contains("serve_connection_closes_total{reason=\"error\"} 0"));
        assert!(page.contains("serve_snapshot_epoch 7"));
        assert!(page.contains("serve_corpus_videos 42"));
        assert!(page.contains("serve_tracing_enabled 1"));
        assert!(page.contains("serve_query_traces_recorded_total 9"));
        assert!(page.contains("serve_responses_total{endpoint=\"recommend\"} 2"));
        assert!(page.contains("serve_response_errors_total{endpoint=\"recommend\"} 1"));
        assert!(page.contains("quantile=\"0.99\""));
        assert!(page.contains("serve_latency_micros_count{endpoint=\"recommend\"} 2"));
        assert!(page.contains("serve_latency_max_micros{endpoint=\"recommend\"} 840"));
        assert!(page.contains("serve_query_stage_micros_bucket{stage=\"emd\""));
        assert!(page.contains("serve_update_apply_micros_count{kind=\"ingest\"} 1"));
        assert!(page.contains("serve_prune_anchor_total 50"));
        assert!(page.contains("serve_prune_embed_total 6"));
        assert!(page.contains("serve_emd_cap_aborted_total 17"));
        assert!(page.contains("serve_emd_full_sweeps_total 80"));
        assert!(page.contains("serve_wal_enabled 1"));
        assert!(page.contains("serve_wal_records_appended_total 12"));
        assert!(page.contains("serve_wal_fsyncs_total 4"));
        assert!(page.contains("serve_wal_appended_lsn 12"));
        assert!(page.contains("serve_wal_snapshot_lsn 8"));
        assert!(page.contains("serve_wal_lag_events 4"));
        assert!(page.contains("serve_wal_fsync_micros_count 1"));
        assert!(page.contains("serve_process_cpu_user_seconds_total 1.5"));
        assert!(page.contains("serve_process_cpu_system_seconds_total 0.25"));
        assert!(page.contains("serve_process_voluntary_ctxt_switches_total 123"));
        assert!(page.contains("serve_process_rss_bytes 67108864"));
        assert!(page.contains("serve_process_threads 9"));
        assert!(page.contains("serve_process_heap_live_bytes 2048"));
        assert!(page.contains("serve_process_heap_allocated_bytes_total 8192"));
        assert!(page.contains("serve_process_heap_counting 1"));
        assert!(page.contains("serve_query_stage_alloc_bytes_bucket{stage=\"emd\""));
        assert!(page.contains("serve_query_stage_alloc_bytes_count{stage=\"emd\"} 1"));
        assert!(page.contains("serve_update_batch_alloc_bytes_count 1"));
    }

    #[test]
    fn wal_gauges_absent_without_durability() {
        let page = populated().render(&Gauges {
            durability: None,
            ..gauges()
        });
        assert!(page.contains("serve_wal_enabled 0"));
        assert!(!page.contains("serve_wal_appended_lsn"));
        // Counters and histograms render regardless (all zero is fine).
        assert!(page.contains("serve_wal_records_appended_total"));
    }

    /// For every sample line in the page, the family it belongs to after
    /// stripping `_bucket`/`_sum`/`_count` suffixes of histogram/summary
    /// families.
    fn family_of(name: &str, typed: &HashMap<String, String>) -> String {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if matches!(typed.get(base).map(String::as_str), Some("histogram"))
                    || (suffix != "_bucket"
                        && matches!(typed.get(base).map(String::as_str), Some("summary")))
                {
                    return base.to_string();
                }
            }
        }
        name.to_string()
    }

    #[test]
    fn exposition_is_prometheus_conformant() {
        let page = populated().render(&gauges());
        let mut helped: HashSet<String> = HashSet::new();
        let mut typed: HashMap<String, String> = HashMap::new();
        for line in page.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap().to_string();
                assert!(rest.len() > name.len() + 1, "HELP without text: {line}");
                helped.insert(name);
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().unwrap().to_string();
                let ty = it.next().expect("TYPE has a type").to_string();
                assert!(
                    ["counter", "gauge", "histogram", "summary"].contains(&ty.as_str()),
                    "unknown type {ty}"
                );
                assert!(
                    typed.insert(name.clone(), ty).is_none(),
                    "family {name} declared twice"
                );
            }
        }
        for line in page
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let name = line.split(['{', ' ']).next().unwrap();
            let family = family_of(name, &typed);
            assert!(typed.contains_key(&family), "no # TYPE for {name}");
            assert!(helped.contains(&family), "no # HELP for {name}");
            if typed[&family] == "counter" {
                assert!(family.ends_with("_total"), "counter {family} not _total");
            }
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        }
        // The connection families are typed counters with every reason.
        for family in [
            "serve_connections_accepted_total",
            "serve_connection_closes_total",
        ] {
            assert_eq!(typed.get(family).map(String::as_str), Some("counter"));
        }
        for reason in CloseReason::ALL {
            let label = format!(
                "serve_connection_closes_total{{reason=\"{}\"}} ",
                reason.label()
            );
            assert!(page.contains(&label), "missing {label}");
        }
        // Histogram internals: cumulative buckets are monotone and +Inf
        // equals _count, for an unlabelled and a labelled family.
        for (family, label_prefix) in [
            ("serve_update_queue_wait_micros", ""),
            ("serve_query_stage_micros", "stage=\"emd\","),
        ] {
            let bucket_prefix = format!("{family}_bucket{{{label_prefix}");
            let mut last = 0u64;
            let mut inf = None;
            for line in page.lines().filter(|l| l.starts_with(&bucket_prefix)) {
                let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(value >= last, "non-cumulative bucket: {line}");
                last = value;
                if line.contains("le=\"+Inf\"") {
                    inf = Some(value);
                }
            }
            let count_prefix = if label_prefix.is_empty() {
                format!("{family}_count ")
            } else {
                format!("{family}_count{{{}}} ", label_prefix.trim_end_matches(','))
            };
            let count: u64 = page
                .lines()
                .find(|l| l.starts_with(&count_prefix))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no _count for {family}"));
            assert_eq!(inf, Some(count), "{family}: +Inf != _count");
        }
    }
}
