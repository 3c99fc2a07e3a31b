//! # viderec-serve
//!
//! The online serving layer over [`viderec_core::Recommender`] — the process
//! that turns the paper's *online* framing (a clicked video is the query,
//! the social side is maintained incrementally as comments arrive, Fig. 5)
//! into a running service:
//!
//! * `GET /recommend?video=<id>&k=<n>&strategy=<s>` — top-k recommendations
//!   for a clicked corpus video, bit-identical to a direct library call
//!   against the pinned snapshot (scores ship with their exact `f64` bits);
//! * `POST /update` — a line-oriented batch of comment events, new-video
//!   ingests and connection aging (see [`wire`]), drained by a single-writer
//!   maintenance thread that applies the Fig. 5 paths and publishes the next
//!   snapshot atomically;
//! * `GET /healthz` — liveness, snapshot epoch, corpus size, queue depths;
//! * `GET /metrics` — lock-free counters, per-endpoint latency summaries,
//!   per-stage query histograms and update-pipeline histograms, every family
//!   with `# HELP`/`# TYPE` exposition;
//! * `GET /debug/queries` and `GET /debug/trace/<id>` — recent and slowest
//!   query traces from a lock-free ring, with full stage breakdowns
//!   ([`debug`]).
//!
//! Readers never lock the corpus: snapshots are epoch-swapped `Arc`s
//! ([`snapshot`]), admission is a bounded queue with fast-fail 503
//! backpressure, per-request deadlines answer 504 before scoring starts, and
//! shutdown drains every admitted request ([`server`]). Tracing is on by
//! default and never changes results — the traced scan *is* the untraced
//! scan plus tracer-gated clock reads ([`viderec_core::Recommender::
//! recommend_traced`]); disable it with [`ServeConfig::trace`]. The whole
//! stack is `std::net` + the vendored crossbeam channel — no external
//! dependencies.

#![warn(missing_docs)]

pub mod client;
pub mod debug;
pub mod durability;
pub mod http;
pub mod metrics;
pub mod server;
pub mod snapshot;
pub(crate) mod sync;
pub mod wire;

pub use debug::TraceStore;
pub use durability::{DurabilityConfig, RecoveryReport};
pub use metrics::{CloseReason, Endpoint, Gauges, Histogram, Metrics};
pub use server::{parse_strategy, start, start_durable, ServeConfig, ServerHandle};
pub use snapshot::{CachedSnapshot, SnapshotCell};
pub use viderec_wal::FsyncPolicy;
