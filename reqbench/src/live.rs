//! Talking to the in-process server: configuration, scratch data dirs,
//! health polling, and the checked `GET /recommend`.

use crate::inputs::Request;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;
use viderec_core::{CorpusVideo, Recommender, RecommenderConfig};
use viderec_serve::client::{get, json_u64, Response};
use viderec_serve::{
    start, start_durable, DurabilityConfig, FsyncPolicy, RecoveryReport, ServeConfig, ServerHandle,
};

pub const QUERY_TIMEOUT: Duration = Duration::from_secs(10);
pub const UPDATE_TIMEOUT: Duration = Duration::from_secs(60);

/// `ServeConfig::default()` with two workers: the host has two cores and the
/// generator's two connections share them with the server.
pub fn serve_cfg(trace: bool) -> ServeConfig {
    ServeConfig {
        workers: 2,
        trace,
        ..Default::default()
    }
}

/// Everything the benchmark writes lives here (`reqbench/out/`, ignored by
/// git): WAL scratch dirs, results files, span dumps.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// WAL scratch dirs of one run, removed when it ends (also on a panic's
/// unwind).
pub struct Scratch {
    root: PathBuf,
    made: usize,
}

impl Scratch {
    pub fn new(label: &str) -> Self {
        Self {
            root: out_dir().join(format!("wal-{label}-{}", std::process::id())),
            made: 0,
        }
    }

    /// A fresh, empty data dir.
    pub fn fresh_dir(&mut self) -> PathBuf {
        self.made += 1;
        let dir = self.root.join(self.made.to_string());
        // viderec-lint: allow(durable-writes) — scratch data dir of a
        // benchmark run, removed when the run ends.
        std::fs::create_dir_all(&dir).expect("create scratch data dir");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // viderec-lint: allow(durable-writes) — removes this run's scratch.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Boots (or recovers) a durable server on `dir` with per-batch fsync and
/// returns once `/healthz` answers 200.
pub fn boot(
    dir: &Path,
    rec_cfg: RecommenderConfig,
    corpus: Vec<CorpusVideo>,
) -> (ServerHandle, RecoveryReport) {
    let mut dur = DurabilityConfig::new(dir);
    dur.fsync = FsyncPolicy::Batch;
    let (handle, report) =
        start_durable(serve_cfg(true), dur, rec_cfg, corpus).expect("durable server starts");
    assert!(
        healthz_epoch(handle.addr()).is_some(),
        "server did not answer /healthz"
    );
    (handle, report)
}

/// Builds the recommender and starts a server without durability (the
/// read-only workloads) and returns once `/healthz` answers 200.
pub fn boot_plain(rec_cfg: RecommenderConfig, corpus: Vec<CorpusVideo>) -> ServerHandle {
    let recommender = Recommender::build(rec_cfg, corpus).expect("valid corpus");
    let handle = start(serve_cfg(true), recommender).expect("server starts");
    assert!(
        healthz_epoch(handle.addr()).is_some(),
        "server did not answer /healthz"
    );
    handle
}

/// The snapshot epoch `/healthz` reports; `None` unless it answered 200.
pub fn healthz_epoch(addr: SocketAddr) -> Option<u64> {
    get(addr, "/healthz", QUERY_TIMEOUT)
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| json_u64(&r.body, "epoch"))
}

/// One `GET /recommend`; `check` sees the body of a 200.
pub fn query(addr: SocketAddr, request: &Request, check: impl Fn(&str) -> bool) -> bool {
    matches!(
        get(addr, &request.target, QUERY_TIMEOUT),
        Ok(Response { status: 200, body }) if check(&body)
    )
}

/// Reads one sample value from a Prometheus page (exact name, then a space).
pub fn scrape(page: &str, name: &str) -> f64 {
    page.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_needs_the_exact_sample_name() {
        let page = "# HELP x\nserve_wal_fsyncs_total 12\nserve_wal_fsync_micros_sum 340\n\
                    serve_query_stage_micros_sum{stage=\"queue\"} 77\n";
        assert_eq!(scrape(page, "serve_wal_fsyncs_total"), 12.0);
        assert_eq!(scrape(page, "serve_wal_fsync_micros_sum"), 340.0);
        assert_eq!(
            scrape(page, "serve_query_stage_micros_sum{stage=\"queue\"}"),
            77.0
        );
        assert_eq!(scrape(page, "serve_wal"), 0.0);
    }
}
