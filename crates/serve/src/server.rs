//! The serving pipeline: acceptor → bounded admission queue → worker pool,
//! plus the single-writer maintenance thread that turns queued
//! [`UpdateEvent`]s into freshly published snapshots.
//!
//! ```text
//!                    ┌────────────── 503 + close (queue full, fast-fail)
//! accept ── submit ──┤
//!                    └─ admission queue ─ worker ──┬─ 504 (deadline expired
//!                        (bounded MPMC)     ▲      │      before scoring)
//!                                           │      └─ 200/202/400/404/409/503
//!                                           │            │
//!                                           │   keep-alive? ── no ─ close
//!                                           │            │ (client asked,
//!                                           │           yes  malformed, queue
//!                                           │            │   non-empty, stop)
//!                                           │   next request's first byte
//!                                           │   within KEEPALIVE_IDLE?
//!                                           │            │
//!                                           └─ no: close ┴─ yes: same worker
//!   POST /update ── update queue ── maintenance thread
//!                    (bounded)       WAL append → apply events → ack
//!                                    → master.clone()   (pointer bumps)
//!                                    → SnapshotCell::publish (epoch++)
//!                                    → master.reprivatise()
//! ```
//!
//! A worker owns a connection from pickup to close and serves its requests
//! one after another (HTTP/1.1 keep-alive). It announces `Connection: close`
//! whenever the admission queue is non-empty, so a kept connection never
//! holds a worker another connection is queued for; an idle kept connection
//! holds one for at most [`KEEPALIVE_IDLE`].
//!
//! The master and every published snapshot are handles over shared
//! components (see [`Recommender`]'s `Clone`): a write copies the component
//! it touches unless the master is its only holder. `reprivatise` takes
//! those copies for what the round wrote right after the publish, so the
//! next round's applies — the part of a round a durable ack waits for —
//! find their components private again.
//!
//! Invariants:
//!
//! * **Consistency** — a worker pins one snapshot per request; results are
//!   bit-identical to calling [`Recommender::recommend_excluding`] on that
//!   snapshot directly (the e2e suite asserts this across live updates).
//! * **Accounting** — every request is counted exactly once:
//!   `submitted == served + rejected + deadline_expired`. A connection's
//!   first request is submitted at accept (and answered 499 if it never
//!   arrives), a later one when its first byte does.
//! * **Bounded memory** — both queues are bounded; overload answers 503
//!   without buffering, so a burst can never grow memory without limit.
//! * **Graceful shutdown** — the acceptor stops submitting, workers drain
//!   every admitted request (closing kept connections after the request in
//!   hand, or after at most [`KEEPALIVE_IDLE`] of idleness), and only then
//!   does the maintenance thread retire.

use crate::debug::{trace_json, TraceStore};
use crate::durability::{recover, DurabilityConfig, DurabilityStatus, DurableLog, RecoveryReport};
use crate::http::{encode_response, escape_json, Conn, HttpError, Request, Status, KEEPALIVE_IDLE};
use crate::metrics::{CloseReason, DurabilitySample, Endpoint, Gauges, Metrics, ProcessSample};
use crate::snapshot::{CachedSnapshot, SnapshotCell};
use crate::wire::{event_kind_index, parse_update_body};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use viderec_core::trace::next_trace_id;
use viderec_core::{
    CorpusVideo, Recommender, RecommenderConfig, Stage, Strategy, Tracer, UpdateEvent,
};
use viderec_trace::AllocSnapshot;
use viderec_video::VideoId;

/// How long an `/update` worker waits for the maintenance writer's durable
/// ack before answering 503. Generous: it must cover the fsyncs and applies
/// of every batch queued ahead.
const DURABLE_ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads; 0 means `max(2, available_parallelism)` — at least
    /// two, so a parked worker (`/debug/profile`, a slow client) never
    /// head-of-line-blocks the whole pool.
    pub workers: usize,
    /// Admission queue capacity: connections waiting for a worker beyond
    /// this bound are answered 503 immediately.
    pub admission_capacity: usize,
    /// Update queue capacity: `POST /update` batches beyond this bound are
    /// answered 503.
    pub update_capacity: usize,
    /// Default per-request deadline (override per request with
    /// `deadline_ms=`); expiry is checked after queueing and parsing,
    /// *before* scoring starts, and answered 504.
    pub default_deadline: Duration,
    /// Socket read/write timeout within a request, and the wait for a fresh
    /// connection's first byte (a kept connection waits
    /// [`KEEPALIVE_IDLE`] between requests).
    pub io_timeout: Duration,
    /// Artificial pre-handling stall applied by every worker to every
    /// request — zero in production; the load/robustness tests use it to
    /// make queueing and deadline behaviour deterministic.
    pub synthetic_delay: Duration,
    /// Upper bound on the `k` a request may ask for and on the ids its
    /// `exclude=` list may name; a request over either gets a 400.
    pub max_k: usize,
    /// Per-query tracing and update-pipeline spans. On, every `/recommend`
    /// response carries a trace id resolvable via `GET /debug/trace/<id>`,
    /// per-stage histograms populate on `/metrics`, and results stay
    /// bit-identical to the untraced path (asserted end-to-end). Off, the
    /// instrumentation collapses to one branch per span.
    pub trace: bool,
    /// Capacity of the recent-queries trace ring behind `/debug/queries`
    /// (0 is clamped to 1).
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            admission_capacity: 64,
            update_capacity: 64,
            default_deadline: Duration::from_secs(2),
            io_timeout: Duration::from_secs(2),
            synthetic_delay: Duration::ZERO,
            max_k: 1024,
            trace: true,
            trace_capacity: 256,
        }
    }
}

/// One admitted connection, stamped at admission: its first request ages
/// from here.
struct Admitted {
    stream: TcpStream,
    at: Instant,
}

/// One accepted update batch, stamped at enqueue so the maintainer can
/// record how long it waited in the queue. On a durable server the worker
/// holds the receiver end of `ack` and answers 202 only once the maintainer
/// confirms the batch is in the log (append-before-apply).
struct QueuedBatch {
    at: Instant,
    events: Vec<UpdateEvent>,
    ack: Option<Sender<u64>>,
}

/// State shared by the acceptor and every worker.
struct Ctx {
    cfg: ServeConfig,
    metrics: Arc<Metrics>,
    cell: Arc<SnapshotCell<Recommender>>,
    update_tx: Sender<QueuedBatch>,
    /// Probe handles for queue-depth gauges (never received from).
    admission_probe: Receiver<Admitted>,
    tracer: Tracer,
    traces: Arc<TraceStore>,
    /// Shared durability status (None on a non-durable server).
    durability: Option<Arc<DurabilityStatus>>,
    /// Set once shutdown begins: kept connections are closed after their
    /// current request.
    stopping: Arc<AtomicBool>,
}

/// A running server; dropping it (or calling [`ServerHandle::shutdown`])
/// stops accepting, drains in-flight work, and joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop_flag: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    maintainer: Option<std::thread::JoinHandle<()>>,
    metrics: Arc<Metrics>,
    cell: Arc<SnapshotCell<Recommender>>,
    traces: Arc<TraceStore>,
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The ring of recent query traces (empty while tracing is disabled).
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// Graceful shutdown: stop accepting, drain admitted requests, apply
    /// queued updates, join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.stop_flag.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept()`; it checks the flag first and
        // drops this connection without admitting it.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // The acceptor dropped its sender: workers drain the remaining
        // admitted connections, then observe disconnection and exit.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The workers dropped the last update sender: the maintainer drains
        // queued batches, publishes, and exits.
        if let Some(h) = self.maintainer.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts the server over `recommender` (no durability: a restart loses
/// every applied update) and returns once the listener is bound and every
/// thread is running.
pub fn start(cfg: ServeConfig, recommender: Recommender) -> std::io::Result<ServerHandle> {
    start_inner(cfg, recommender, None)
}

/// Starts a durable server over `dur.data_dir`: recovers (or bootstraps)
/// the recommender from the newest snapshot + WAL tail, then runs with
/// write-ahead logging — every acknowledged `/update` survives a crash per
/// the configured fsync policy. `rec_cfg`/`boot_corpus` are only used to
/// seed a fresh data dir; an existing one is authoritative.
pub fn start_durable(
    cfg: ServeConfig,
    dur: DurabilityConfig,
    rec_cfg: RecommenderConfig,
    boot_corpus: Vec<CorpusVideo>,
) -> std::io::Result<(ServerHandle, RecoveryReport)> {
    let (master, log, report) = recover(&dur, rec_cfg, boot_corpus)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let handle = start_inner(cfg, master, Some(log))?;
    Ok((handle, report))
}

fn start_inner(
    cfg: ServeConfig,
    recommender: Recommender,
    durable: Option<DurableLog>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let workers = if cfg.workers == 0 {
        // Never fewer than two: `/debug/profile` parks its worker for the
        // whole capture window (and any slow client holds one for a request),
        // so a pool of one would head-of-line-block the entire service on a
        // single-core host — including the very load a capture is meant to
        // observe.
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .max(2)
    } else {
        cfg.workers
    };

    let metrics = Arc::new(Metrics::default());
    // The first snapshot shares every component with the master: a server
    // that never takes a write holds one corpus.
    let master = recommender;
    let cell = Arc::new(SnapshotCell::new(Arc::new(master.clone())));
    let traces = Arc::new(TraceStore::new(cfg.trace_capacity));
    let tracer = Tracer::new(cfg.trace);
    let (admission_tx, admission_rx) = channel::bounded::<Admitted>(cfg.admission_capacity);
    let (update_tx, update_rx) = channel::bounded::<QueuedBatch>(cfg.update_capacity);
    let stop_flag = Arc::new(AtomicBool::new(false));

    let ctx = Arc::new(Ctx {
        cfg: cfg.clone(),
        metrics: Arc::clone(&metrics),
        cell: Arc::clone(&cell),
        update_tx,
        admission_probe: admission_rx.clone(),
        tracer,
        traces: Arc::clone(&traces),
        durability: durable.as_ref().map(|d| d.status()),
        stopping: Arc::clone(&stop_flag),
    });

    // --- maintenance thread (the single writer) ---
    let maintainer = {
        let cell = Arc::clone(&cell);
        let metrics = Arc::clone(&metrics);
        std::thread::Builder::new()
            .name("serve-maintainer".into())
            .spawn(move || maintainer_loop(master, update_rx, &cell, &metrics, tracer, durable))?
    };

    // --- worker pool ---
    let worker_handles = (0..workers)
        .map(|i| {
            let ctx = Arc::clone(&ctx);
            let rx = admission_rx.clone();
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&ctx, &rx))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    // The pool owns its clones; drop the original so worker exit alone
    // disconnects the update channel.
    drop(admission_rx);

    // --- acceptor ---
    let acceptor = {
        let ctx = Arc::clone(&ctx);
        let flag = Arc::clone(&stop_flag);
        std::thread::Builder::new()
            .name("serve-acceptor".into())
            .spawn(move || acceptor_loop(&listener, &ctx, admission_tx, &flag))?
    };

    Ok(ServerHandle {
        addr,
        stop_flag,
        acceptor: Some(acceptor),
        workers: worker_handles,
        maintainer: Some(maintainer),
        metrics,
        cell,
        traces,
    })
}

fn acceptor_loop(
    listener: &TcpListener,
    ctx: &Ctx,
    admission_tx: Sender<Admitted>,
    stop_flag: &AtomicBool,
) {
    for conn in listener.incoming() {
        if stop_flag.load(Ordering::SeqCst) {
            break; // the waking connection is dropped, never admitted
        }
        let Ok(stream) = conn else { continue };
        ctx.metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        // The connection's first request; later ones on a kept connection
        // are counted by the worker.
        ctx.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        let admitted = Admitted {
            stream,
            at: Instant::now(),
        };
        match admission_tx.try_send(admitted) {
            Ok(()) => {}
            Err(TrySendError::Full(adm)) => {
                ctx.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                reject_503(adm.stream);
                ctx.metrics.record_close(CloseReason::Yield);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping `admission_tx` here lets workers drain and exit.
}

/// Backpressure fast-fail: answer 503 without waiting for a worker, and
/// close. The single short read drains the (typically one-segment) request
/// so closing the socket does not RST the response away before the client
/// reads it.
fn reject_503(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut drain = [0u8; 4096];
    let _ = std::io::Read::read(&mut stream, &mut drain);
    let mut out = Vec::with_capacity(160);
    encode_response(
        &mut out,
        Status::ServiceUnavailable,
        "application/json",
        &[],
        b"{\"error\":\"admission queue full\"}",
        false,
    );
    let _ = std::io::Write::write_all(&mut stream, &out);
}

fn worker_loop(ctx: &Ctx, rx: &Receiver<Admitted>) {
    let mut cache = CachedSnapshot::new(&ctx.cell);
    while let Ok(admitted) = rx.recv() {
        let reason = serve_connection(ctx, &mut cache, admitted);
        ctx.metrics.record_close(reason);
    }
}

/// One response, built by a route and written by [`serve_connection`].
struct Reply {
    status: Status,
    content_type: &'static str,
    body: Cow<'static, str>,
    /// Echoed as `X-Trace-Id` by a traced `/recommend`.
    trace_id: Option<u64>,
}

impl Reply {
    fn new(status: Status, content_type: &'static str, body: impl Into<Cow<'static, str>>) -> Self {
        Self {
            status,
            content_type,
            body: body.into(),
            trace_id: None,
        }
    }

    fn json(status: Status, body: impl Into<Cow<'static, str>>) -> Self {
        Self::new(status, "application/json", body)
    }

    fn bad_request(msg: &str) -> Self {
        Self::json(
            Status::BadRequest,
            format!("{{\"error\":\"{}\"}}", escape_json(msg)),
        )
    }
}

/// Serves requests on one connection until it ends, and returns why it
/// ended. The worker waits at most [`KEEPALIVE_IDLE`] for a later request's
/// first byte, and announces `Connection: close` whenever another connection
/// waits in the admission queue, so a kept connection never holds a worker
/// someone else is queued for. It closes a connection only after announcing
/// that, after the idle window, or when the peer or the socket is gone — so
/// no request is ever written into a connection it is closing.
fn serve_connection(
    ctx: &Ctx,
    cache: &mut CachedSnapshot<Recommender>,
    adm: Admitted,
) -> CloseReason {
    // The first request was submitted at accept and ages from admission,
    // its queue stage the pickup wait; a later one is submitted, and ages,
    // from its first byte, and waited in no queue.
    let mut at = adm.at;
    let mut queued_ns = at.elapsed().as_nanos() as u64;
    let mut conn = Conn::new(adm.stream, ctx.cfg.io_timeout);
    let mut first = true;
    loop {
        let wait = if first {
            ctx.cfg.io_timeout
        } else {
            KEEPALIVE_IDLE
        };
        let ended = match conn.await_request(wait) {
            Ok(true) => None,
            Ok(false) => Some(CloseReason::Client),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Some(CloseReason::Idle)
            }
            Err(_) => Some(CloseReason::Error),
        };
        if let Some(reason) = ended {
            if first {
                // Submitted at accept, but the client left (or stalled)
                // before a request arrived: nothing can be written, and the
                // request is accounted as nginx's 499. Between requests on a
                // kept connection no request exists to account.
                account(ctx, Endpoint::Other, 499, at);
            }
            return reason;
        }
        if !first {
            ctx.metrics.submitted.fetch_add(1, Ordering::Relaxed);
            at = Instant::now();
            queued_ns = 0;
        }
        first = false;
        if !ctx.cfg.synthetic_delay.is_zero() {
            // Simulated downstream latency; sits before the deadline check so
            // deadline behaviour under load is reproducible.
            std::thread::sleep(ctx.cfg.synthetic_delay);
        }

        let (endpoint, reply, mut close) = match conn.read_request() {
            Ok(req) => {
                let (endpoint, reply) = route(ctx, cache, &req, at, queued_ns);
                (endpoint, reply, req.close.then_some(CloseReason::Client))
            }
            // Past a framing error the next request's start is unknown.
            Err(HttpError::Malformed(msg)) => (
                Endpoint::Other,
                Reply::bad_request(msg),
                Some(CloseReason::Error),
            ),
            // The socket died mid-request; nothing can be written.
            Err(HttpError::Io(_)) => {
                account(ctx, Endpoint::Other, 499, at);
                return CloseReason::Error;
            }
        };
        if close.is_none()
            && (!ctx.admission_probe.is_empty() || ctx.stopping.load(Ordering::Relaxed))
        {
            close = Some(CloseReason::Yield);
        }
        // Counted before the write: a client holding its response finds it
        // counted, though the connection stays open.
        account(ctx, endpoint, reply.status.code(), at);
        let trace_hex = reply.trace_id.map(|id| format!("{id:016x}"));
        let trace_header = trace_hex.as_deref().map(|hex| ("X-Trace-Id", hex));
        let written = conn.write_response(
            reply.status,
            reply.content_type,
            trace_header.as_slice(),
            reply.body.as_bytes(),
            close.is_none(),
        );
        match (written, close) {
            (Err(_), _) => return CloseReason::Error,
            (Ok(()), Some(reason)) => {
                conn.close();
                return reason;
            }
            (Ok(()), None) => {}
        }
    }
}

/// Counts one request's outcome for the accounting identity, with its
/// latency from `at` to now.
fn account(ctx: &Ctx, endpoint: Endpoint, status: u16, at: Instant) {
    let micros = at.elapsed().as_micros() as u64;
    // 504 is written only by the deadline gate, before scoring.
    let counter = if status == Status::GatewayTimeout.code() {
        &ctx.metrics.deadline_expired
    } else {
        &ctx.metrics.served
    };
    counter.fetch_add(1, Ordering::Relaxed);
    ctx.metrics.record_response(endpoint, status, micros);
}

fn route(
    ctx: &Ctx,
    cache: &mut CachedSnapshot<Recommender>,
    req: &Request,
    at: Instant,
    queued_ns: u64,
) -> (Endpoint, Reply) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/recommend") => (
            Endpoint::Recommend,
            recommend(ctx, cache, req, at, queued_ns),
        ),
        ("POST", "/update") => (Endpoint::Update, update(ctx, req)),
        ("GET", "/healthz") => (Endpoint::Healthz, healthz(ctx, cache)),
        ("GET", "/metrics") => (Endpoint::Metrics, metrics_page(ctx, cache)),
        ("GET", "/debug/queries") => (Endpoint::Debug, debug_queries(ctx, req)),
        ("GET", "/debug/durability") => (Endpoint::Debug, debug_durability(ctx)),
        ("GET", "/debug/profile") => (Endpoint::Debug, debug_profile(req)),
        ("GET", "/debug/heap") => (Endpoint::Debug, debug_heap()),
        ("GET", path) if path.starts_with("/debug/trace/") => {
            (Endpoint::Debug, debug_trace(ctx, path))
        }
        _ => (
            Endpoint::Other,
            Reply::json(Status::NotFound, "{\"error\":\"not found\"}"),
        ),
    }
}

fn recommend(
    ctx: &Ctx,
    cache: &mut CachedSnapshot<Recommender>,
    req: &Request,
    at: Instant,
    queued_ns: u64,
) -> Reply {
    // --- parse everything before the deadline check: parsing is part of
    // the request's age, scoring is not allowed to start past-deadline ---
    let Some(video_str) = req.param("video") else {
        return Reply::bad_request("missing required parameter 'video'");
    };
    let Ok(video) = video_str.parse::<u64>() else {
        return Reply::bad_request("parameter 'video' must be an unsigned integer");
    };
    let k = match req.param("k") {
        None => 10usize,
        Some(s) => match s.parse::<usize>() {
            Ok(k) if k > ctx.cfg.max_k => {
                let limit = ctx.cfg.max_k;
                return Reply::bad_request(&format!("parameter 'k' may be at most {limit}"));
            }
            Ok(k) => k,
            Err(_) => return Reply::bad_request("parameter 'k' must be an unsigned integer"),
        },
    };
    let strategy = match req.param("strategy") {
        None => Strategy::CsfSarH,
        Some(s) => match parse_strategy(s) {
            Some(st) => st,
            None => {
                return Reply::bad_request(
                    "unknown strategy (expected cr|sr|csf|csf-sar|csf-sar-h)",
                )
            }
        },
    };
    let mut exclude = vec![VideoId(video)];
    if let Some(csv) = req.param("exclude") {
        for part in csv.split(',').filter(|p| !p.is_empty()) {
            // Every id is resolved and then searched once per gathered
            // candidate: the list is bounded like `k`. (`exclude` already
            // holds the clicked video.)
            if exclude.len() > ctx.cfg.max_k {
                let limit = ctx.cfg.max_k;
                return Reply::bad_request(&format!(
                    "parameter 'exclude' may name at most {limit} ids"
                ));
            }
            match part.parse::<u64>() {
                Ok(id) => exclude.push(VideoId(id)),
                Err(_) => return Reply::bad_request("parameter 'exclude' must be a CSV of ids"),
            }
        }
    }
    let budget = match req.param("deadline_ms") {
        None => ctx.cfg.default_deadline,
        Some(s) => match s.parse::<u64>() {
            Ok(ms) => Duration::from_millis(ms),
            Err(_) => return Reply::bad_request("parameter 'deadline_ms' must be milliseconds"),
        },
    };

    // --- deadline gate: queue wait + parse time, measured before scoring ---
    if at.elapsed() > budget {
        return Reply::json(
            Status::GatewayTimeout,
            "{\"error\":\"deadline expired before scoring\"}",
        );
    }

    // --- score against one pinned snapshot ---
    let snapshot = cache.get(&ctx.cell);
    let epoch = cache.epoch();
    let Some(query) = snapshot.query_for(VideoId(video)) else {
        return Reply::json(
            Status::NotFound,
            format!("{{\"error\":\"unknown video {video}\"}}"),
        );
    };
    let (results, mut trace) = snapshot.recommend_traced(strategy, &query, k, &exclude, ctx.tracer);

    // Finish the trace: id, epoch, queue wait, end-to-end latency (stages
    // tile disjoint sub-intervals of admission-to-now, so their sum stays
    // ≤ total), then per-stage metrics and the debug ring — all before the
    // response so the echoed id always resolves.
    let trace_id = if ctx.tracer.enabled() {
        trace.id = next_trace_id();
        trace.epoch = epoch;
        trace.cell_mut(Stage::Queue).add(queued_ns);
        trace.total_ns = at.elapsed().as_nanos() as u64;
        for stage in Stage::ALL {
            let cell = trace.stage(stage);
            if cell.count > 0 {
                ctx.metrics.stage_micros[stage.index()].record(cell.ns / 1_000);
            }
            // Alloc cells stay zero without the counting allocator; only
            // stages that actually allocated produce an observation.
            let alloc = trace.alloc(stage);
            if alloc.count > 0 {
                ctx.metrics.stage_alloc_bytes[stage.index()].record(alloc.bytes);
            }
        }
        let s = &trace.stats;
        let ord = std::sync::atomic::Ordering::Relaxed;
        ctx.metrics.prune_anchor.fetch_add(s.pruned, ord);
        ctx.metrics.emd_cap_aborted.fetch_add(s.cap_aborted, ord);
        ctx.metrics.emd_full_sweeps.fetch_add(s.full_sweeps, ord);
        ctx.traces.record(&trace);
        Some(trace.id)
    } else {
        None
    };

    let mut body = format!(
        "{{\"query\":{video},\"strategy\":\"{}\",\"k\":{k},\"epoch\":{epoch},",
        strategy.label()
    );
    if let Some(id) = trace_id {
        let _ = write!(body, "\"trace\":\"{id:016x}\",");
    }
    body.push_str("\"results\":[");
    for (i, scored) in results.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{{\"video\":{},\"score\":{},\"score_bits\":\"{:016x}\"}}",
            scored.video.0,
            scored.score,
            scored.score.to_bits()
        );
    }
    body.push_str("]}");
    Reply {
        trace_id,
        ..Reply::json(Status::Ok, body)
    }
}

fn debug_queries(ctx: &Ctx, req: &Request) -> Reply {
    let recent_n = match req.param("n") {
        None => 16usize,
        Some(s) => match s.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Reply::bad_request("parameter 'n' must be an unsigned integer"),
        },
    };
    let slowest_n = match req.param("slow") {
        None => 8usize,
        Some(s) => match s.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Reply::bad_request("parameter 'slow' must be an unsigned integer"),
        },
    };
    let body = ctx
        .traces
        .queries_page(recent_n, slowest_n, ctx.tracer.enabled());
    Reply::json(Status::Ok, body)
}

fn debug_trace(ctx: &Ctx, path: &str) -> Reply {
    let id_str = &path["/debug/trace/".len()..];
    let Ok(id) = u64::from_str_radix(id_str, 16) else {
        return Reply::bad_request("trace id must be the hex id a /recommend response echoed");
    };
    match ctx.traces.find(id) {
        Some(trace) => Reply::json(Status::Ok, trace_json(&trace)),
        None => Reply::json(
            Status::NotFound,
            format!(
                "{{\"error\":\"trace {id:016x} not found (expired from the ring, or tracing disabled)\"}}"
            ),
        ),
    }
}

fn debug_durability(ctx: &Ctx) -> Reply {
    match &ctx.durability {
        Some(status) => Reply::json(Status::Ok, status.debug_json()),
        None => Reply::json(Status::Ok, "{\"enabled\":false}"),
    }
}

/// `GET /debug/profile?seconds=&hz=` — on-demand sampling CPU profile of
/// the whole process, answered as collapsed ("folded") stacks: one
/// `frame;frame;...;leaf count` line per distinct stack, the input format
/// of flame-graph tooling. The capture occupies this worker for the window
/// (clamped to [`viderec_prof::MAX_SECONDS`]/[`viderec_prof::MAX_HZ`])
/// while sibling workers keep serving; a second concurrent capture is
/// refused with 409 so SIGPROF timer ownership stays unambiguous.
fn debug_profile(req: &Request) -> Reply {
    let seconds = match req.param("seconds") {
        None => 2u64,
        Some(s) => match s.parse::<u64>() {
            Ok(n) if n >= 1 => n,
            _ => return Reply::bad_request("parameter 'seconds' must be a positive integer"),
        },
    };
    let hz = match req.param("hz") {
        None => viderec_prof::DEFAULT_HZ,
        Some(s) => match s.parse::<u32>() {
            Ok(n) if n >= 1 => n,
            _ => return Reply::bad_request("parameter 'hz' must be a positive integer"),
        },
    };
    match viderec_prof::capture(Duration::from_secs(seconds), hz) {
        Ok(profile) => {
            let mut body = String::with_capacity(4096);
            let _ = writeln!(
                body,
                "# samples={} dropped={} hz={} window_ms={}",
                profile.samples, profile.dropped, profile.hz, profile.window_ms
            );
            body.push_str(&profile.render_collapsed());
            Reply::new(Status::Ok, "text/plain; charset=utf-8", body)
        }
        Err(viderec_prof::CaptureError::Busy) => Reply::json(
            Status::Conflict,
            "{\"error\":\"a profile capture is already running\"}",
        ),
        Err(e) => Reply::json(
            Status::ServiceUnavailable,
            format!("{{\"error\":\"{}\"}}", escape_json(&e.to_string())),
        ),
    }
}

/// `GET /debug/heap` — live allocator counters as JSON. All-zero with
/// `"counting_allocator_installed":false` unless the binary installs
/// [`viderec_prof::CountingAlloc`] as its `#[global_allocator]` (the
/// shipped `viderec-serve` binary does).
fn debug_heap() -> Reply {
    Reply::json(Status::Ok, viderec_prof::heap_json())
}

fn update(ctx: &Ctx, req: &Request) -> Reply {
    let Ok(body_str) = std::str::from_utf8(&req.body) else {
        return Reply::bad_request("update body must be UTF-8");
    };
    let events = match parse_update_body(body_str) {
        Ok(events) => events,
        Err(msg) => return Reply::bad_request(&msg),
    };
    let accepted = events.len();
    if accepted == 0 {
        return Reply::json(
            Status::Accepted,
            "{\"accepted\":0,\"note\":\"empty batch\"}",
        );
    }
    // On a durable server the 202 is a *durable* ack: the worker parks on a
    // per-batch channel until the maintainer has framed (and, per policy,
    // fsynced) the batch into the WAL — append-before-apply, group-committed
    // with whatever else the maintainer drained.
    let (ack_tx, ack_rx) = if ctx.durability.is_some() {
        let (tx, rx) = channel::bounded::<u64>(1);
        (Some(tx), Some(rx))
    } else {
        (None, None)
    };
    let batch = QueuedBatch {
        at: Instant::now(),
        events,
        ack: ack_tx,
    };
    match ctx.update_tx.try_send(batch) {
        Ok(()) => {
            ctx.metrics.updates_enqueued.fetch_add(1, Ordering::Relaxed);
            let Some(rx) = ack_rx else {
                let body = format!(
                    "{{\"accepted\":{accepted},\"epoch_at_enqueue\":{}}}",
                    ctx.cell.epoch()
                );
                return Reply::json(Status::Accepted, body);
            };
            match rx.recv_timeout(DURABLE_ACK_TIMEOUT) {
                Ok(lsn) => {
                    let body = format!(
                        "{{\"accepted\":{accepted},\"durable_lsn\":{lsn},\"epoch_at_enqueue\":{}}}",
                        ctx.cell.epoch()
                    );
                    Reply::json(Status::Accepted, body)
                }
                // Timeout, or the maintainer dropped the ack after a WAL
                // write failure: the batch may still apply, but durability
                // cannot be promised — the client must not treat it as
                // acknowledged.
                Err(_) => {
                    ctx.metrics.wal_ack_failures.fetch_add(1, Ordering::Relaxed);
                    Reply::json(
                        Status::ServiceUnavailable,
                        "{\"error\":\"durable ack unavailable\"}",
                    )
                }
            }
        }
        Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
            ctx.metrics.updates_rejected.fetch_add(1, Ordering::Relaxed);
            Reply::json(
                Status::ServiceUnavailable,
                "{\"error\":\"update queue full\"}",
            )
        }
    }
}

fn healthz(ctx: &Ctx, cache: &mut CachedSnapshot<Recommender>) -> Reply {
    let snapshot = cache.get(&ctx.cell);
    let body = format!(
        "{{\"status\":\"ok\",\"epoch\":{},\"videos\":{},\"users\":{},\"admission_queue_depth\":{},\"update_queue_depth\":{}}}",
        cache.epoch(),
        snapshot.num_videos(),
        snapshot.num_users(),
        ctx.admission_probe.len(),
        ctx.update_tx.len(),
    );
    Reply::json(Status::Ok, body)
}

fn metrics_page(ctx: &Ctx, cache: &mut CachedSnapshot<Recommender>) -> Reply {
    let videos = cache.get(&ctx.cell).num_videos();
    let proc = viderec_prof::read_self();
    let heap = viderec_prof::heap_stats();
    let page = ctx.metrics.render(&Gauges {
        epoch: ctx.cell.epoch(),
        videos,
        admission_depth: ctx.admission_probe.len(),
        update_depth: ctx.update_tx.len(),
        snapshot_age_micros: ctx.cell.age_micros(),
        traces_recorded: ctx.traces.recorded(),
        traces_dropped: ctx.traces.dropped(),
        trace_capacity: ctx.traces.capacity(),
        tracing_enabled: ctx.tracer.enabled(),
        durability: ctx.durability.as_ref().map(|d| DurabilitySample {
            appended_lsn: d.gate.appended(),
            acked_lsn: d.gate.acked(),
            synced_lsn: d.synced_lsn.load(Ordering::Relaxed),
            snapshot_lsn: d.snapshot_lsn.load(Ordering::Relaxed),
            segments: d.segment_count.load(Ordering::Relaxed),
            failed: d.failed.load(Ordering::Relaxed) != 0,
        }),
        process: ProcessSample {
            rss_bytes: proc.rss_bytes,
            utime_secs: proc.utime_secs,
            stime_secs: proc.stime_secs,
            threads: proc.threads,
            voluntary_ctxt_switches: proc.voluntary_ctxt_switches,
            heap_live_bytes: heap.live_bytes,
            heap_live_allocs: heap.live_allocs,
            heap_total_bytes: heap.total_bytes,
            heap_total_allocs: heap.total_allocs,
            heap_counting: viderec_prof::counting_installed(),
        },
    });
    Reply::new(Status::Ok, "text/plain; version=0.0.4", page)
}

fn maintainer_loop(
    mut master: Recommender,
    update_rx: Receiver<QueuedBatch>,
    cell: &SnapshotCell<Recommender>,
    metrics: &Metrics,
    tracer: Tracer,
    mut durable: Option<DurableLog>,
) {
    let mut last_acked = durable
        .as_ref()
        .map(|d| d.status().gate.acked())
        .unwrap_or(0);
    // `recv` returns Err only when every sender is gone *and* the queue is
    // drained, so shutdown applies every accepted batch before retiring.
    while let Ok(first) = update_rx.recv() {
        // Heap bytes this round allocates (WAL framing + applies); exact
        // because the maintainer is single-threaded and the counters are
        // thread-local.
        let round_alloc = tracer.enabled().then(AllocSnapshot::take);
        let mut batches = vec![first];
        while let Ok(more) = update_rx.try_recv() {
            batches.push(more);
        }
        let mut drained_events = 0u64;
        for batch in batches {
            if tracer.enabled() {
                metrics
                    .update_queue_wait
                    .record(batch.at.elapsed().as_micros() as u64);
            }
            drained_events += batch.events.len() as u64;
            // Append-before-apply: frame the whole batch into the WAL (and
            // fsync per policy) before any event mutates the master. The
            // gate inside `append_batch` publishes `appended` before
            // `acked` ever covers the batch — the invariant `crates/check`
            // model-checks, and the reason a crash can only lose
            // unacknowledged work.
            let mut batch_lsn = 0u64;
            if let Some(d) = durable.as_mut() {
                match d.append_batch(&batch.events, metrics) {
                    Ok(lsn) => batch_lsn = lsn,
                    Err(_) => {
                        // WAL write failure: availability over durability —
                        // keep applying so reads stay fresh, but never ack
                        // again (dropping `batch.ack` turns the waiting
                        // worker's 202 into a 503).
                        metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
                        d.mark_failed();
                        d.publish_status();
                        durable = None;
                    }
                }
            }
            for event in batch.events {
                let kind = event_kind_index(&event);
                let span = tracer.start();
                match master.apply_event(event) {
                    Ok(_) => {
                        metrics.events_applied.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        metrics.events_failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if let Some(ns) = span.elapsed_ns() {
                    metrics.update_apply[kind].record(ns / 1_000);
                }
            }
            if let Some(d) = durable.as_ref() {
                d.mark_acked(batch_lsn);
                last_acked = batch_lsn;
                if let Some(ack) = batch.ack {
                    // The worker may have timed out and gone; that's its
                    // loss, not ours.
                    let _ = ack.try_send(batch_lsn);
                }
            }
        }
        if tracer.enabled() {
            metrics.update_batch_events.record(drained_events);
        }
        publish_round(&mut master, cell, metrics, tracer);
        // Copy-on-write copies included, wherever in the round they ran.
        if let Some(snap) = round_alloc {
            metrics.update_batch_alloc_bytes.record(snap.delta().bytes);
        }
        // Checkpoint cadence, after publish so readers never wait on it.
        if let Some(d) = durable.as_mut() {
            if d.maybe_checkpoint(last_acked, false, metrics).is_err() {
                metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
                d.mark_failed();
            }
            d.publish_status();
        }
    }
    // Graceful shutdown: every accepted batch is applied and acked above;
    // flush + fsync the WAL tail first, then publish the final checkpoint —
    // a clean restart must lose nothing even with fsync=off.
    if let Some(d) = durable.as_mut() {
        d.finalize(last_acked, metrics);
    }
}

/// Makes everything applied to `master` so far visible to readers. The
/// clone bumps reference counts; readers keep the old snapshot until they
/// next observe the epoch bump, and nothing is ever mutated in place under a
/// reader because the master's next write to a component the snapshot
/// shares copies it first. Those copies are taken here, after the publish,
/// for the components this round wrote (see [`Recommender::reprivatise`]).
fn publish_round(
    master: &mut Recommender,
    cell: &SnapshotCell<Recommender>,
    metrics: &Metrics,
    tracer: Tracer,
) {
    let span = tracer.start();
    let next = Arc::new(master.clone());
    if let Some(ns) = span.elapsed_ns() {
        metrics.snapshot_clone.record(ns / 1_000);
    }
    let span = tracer.start();
    cell.publish(next);
    if let Some(ns) = span.elapsed_ns() {
        metrics.snapshot_publish.record(ns / 1_000);
    }
    metrics.snapshots_published.fetch_add(1, Ordering::Relaxed);
    master.reprivatise();
}

/// Parses a strategy label (case-insensitive; `_` and `-` interchangeable).
pub fn parse_strategy(s: &str) -> Option<Strategy> {
    match s.to_ascii_lowercase().replace('_', "-").as_str() {
        "cr" => Some(Strategy::Cr),
        "sr" => Some(Strategy::Sr),
        "csf" => Some(Strategy::Csf),
        "csf-sar" => Some(Strategy::CsfSar),
        "csf-sar-h" | "csfsarh" => Some(Strategy::CsfSarH),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viderec_core::SocialUpdate;
    use viderec_signature::cuboid::{Cuboid, CuboidSignature};
    use viderec_signature::SignatureSeries;

    /// The maintainer's round, minus queue and WAL: whatever the published
    /// snapshot still shares with the master when a round's applies start
    /// must be outside that round's write set, or the copy-on-write copy ran
    /// between WAL append and ack. Only the first round may pay it — boot
    /// shares everything.
    #[test]
    fn after_the_first_round_no_apply_copies_a_shared_component() {
        let ids: Vec<VideoId> = (0..24).map(VideoId).collect();
        let video = |&id: &VideoId| {
            let point = Cuboid {
                value: id.0 as f64,
                weight: 1.0,
            };
            CorpusVideo {
                id,
                series: SignatureSeries::new(vec![CuboidSignature::new(vec![point])]),
                users: vec![format!("user-{}", id.0 % 6), format!("user-{}", id.0 % 4)],
            }
        };
        let corpus: Vec<CorpusVideo> = ids.iter().map(video).collect();
        let regular = corpus[0].users[0].clone();
        let mut master =
            Recommender::build(RecommenderConfig::default(), corpus).expect("valid corpus");
        let cell = SnapshotCell::new(Arc::new(master.clone()));
        let metrics = Metrics::default();
        for round in 0..8usize {
            let (shared, _) = master.shared_with(&cell.load().0);
            let comment = |video: VideoId, user: String| SocialUpdate { video, user };
            let batch = vec![
                comment(ids[round], format!("newcomer-{round}")),
                comment(ids[round + 8], format!("newcomer-{round}")),
                comment(ids[round + 16], regular.clone()),
            ];
            master
                .apply_event(UpdateEvent::Comments(batch))
                .expect("comments always apply");
            let copied = master.written() & shared;
            if round == 0 {
                assert_ne!(copied, 0, "the first round unshares what it writes");
            } else {
                assert_eq!(copied, 0, "round {round} copied a shared component");
            }
            publish_round(&mut master, &cell, &metrics, Tracer::OFF);
            assert_eq!(cell.epoch(), round as u64 + 2);
            assert_eq!(master.written(), 0);
        }
    }

    #[test]
    fn strategy_labels_parse_back() {
        for s in [
            Strategy::Cr,
            Strategy::Sr,
            Strategy::Csf,
            Strategy::CsfSar,
            Strategy::CsfSarH,
        ] {
            assert_eq!(parse_strategy(s.label()), Some(s));
            assert_eq!(parse_strategy(&s.label().to_lowercase()), Some(s));
        }
        assert_eq!(parse_strategy("csf_sar_h"), Some(Strategy::CsfSarH));
        assert_eq!(parse_strategy("bogus"), None);
    }
}
