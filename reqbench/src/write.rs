//! The live write path: a closed-loop writer on one connection (beside an
//! open-loop reader on `update_churn`), then the check that the live server,
//! the restarted server and a library replica agree bit for bit.
//!
//! The measured run has a write phase on `update_churn` only. The traced
//! pass runs it on every workload, which is where the `update_*` and
//! `recover_s` numbers in the per-layer table come from.

use crate::inputs::{Request, UpdateBatch};
use crate::live::{boot, query, UPDATE_TIMEOUT};
use crate::loadgen::{open_loop, Phase, Schedule};
use crate::oracle;
use crate::spec::{Workload, RECOVER_REPEATS, VERIFY_QUERIES, WINDOW_S};
use crate::stats::{has_tail, percentile, sorted};
use crate::steal::{wants_another, StealLog};
use crate::Outcome;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use viderec_core::{Recommender, RecommenderConfig};
use viderec_serve::client::{json_u64, post};
use viderec_serve::wire::parse_update_body;
use viderec_serve::ServerHandle;

/// One batch as the writer saw it.
struct Round {
    /// When it was posted, from the phase's start.
    posted_ns: u64,
    ack_ms: f64,
    visible_ms: f64,
    events: u64,
}

/// What the closed-loop writer saw.
pub struct Written {
    started: Instant,
    rounds: Vec<Round>,
    wall_s: f64,
    pub failed: u64,
    /// Highest `durable_lsn` a 202 carried.
    pub max_lsn: u64,
}

/// One connection, closed loop, fixed count: post a batch, wait for the 202
/// (durable ack), wait until the snapshot epoch has moved past the one seen
/// before the post — the comment is in the ranking — then post the next.
///
/// The epoch is read in-process (`ServerHandle::epoch`, the counter
/// `/healthz` reports) every 50 µs: polling `/healthz` itself costs the two
/// workers a connection per poll, which on a 3 ms round is most of what would
/// be measured.
pub fn write_phase(server: &ServerHandle, batches: &[UpdateBatch]) -> Written {
    let started = Instant::now();
    let mut out = Written {
        started,
        rounds: Vec::with_capacity(batches.len()),
        wall_s: 0.0,
        failed: 0,
        max_lsn: 0,
    };
    for batch in batches {
        let epoch = server.epoch();
        let posted = Instant::now();
        let acked = match post(server.addr(), "/update", &batch.body, UPDATE_TIMEOUT) {
            Ok(r) if r.status == 202 => json_u64(&r.body, "durable_lsn"),
            _ => None,
        };
        let Some(lsn) = acked else {
            out.failed += 1;
            continue;
        };
        let ack_ms = posted.elapsed().as_secs_f64() * 1e3;
        out.max_lsn = out.max_lsn.max(lsn);
        while server.epoch() <= epoch && posted.elapsed() < UPDATE_TIMEOUT {
            std::thread::sleep(Duration::from_micros(50));
        }
        if server.epoch() <= epoch {
            out.failed += 1;
            continue;
        }
        out.rounds.push(Round {
            posted_ns: posted.duration_since(started).as_nanos() as u64,
            ack_ms,
            visible_ms: posted.elapsed().as_secs_f64() * 1e3,
            events: batch.events,
        });
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// The writer beside one open-loop reader at `reader_rps`, which stops when
/// the writer is done. The reader cannot know which snapshot answered, so its
/// answers are checked for shape here and for content afterwards
/// ([`expected_after`], [`verify_and_restart`]).
pub fn write_phase_beside_reader(
    server: &ServerHandle,
    batches: &[UpdateBatch],
    requests: &[Request],
    k: usize,
    reader_rps: f64,
) -> (Written, Phase) {
    let addr = server.addr();
    let done = Mutex::new(false);
    let stop = || *done.lock().expect("writer panicked");
    let well_formed = |seq: usize| {
        let request = &requests[seq % requests.len()];
        query(addr, request, |body| oracle::well_formed(body, k))
    };
    std::thread::scope(|s| {
        let reader =
            s.spawn(|| open_loop(1, Schedule::until_stopped(reader_rps), &stop, &well_formed));
        let written = write_phase(server, batches);
        *done.lock().expect("reader panicked") = true;
        (written, reader.join().expect("reader thread"))
    })
}

/// The write-path numbers of one phase, over the rounds posted in windows the
/// host left alone.
pub struct WriteReport {
    pub ack_p50_ms: f64,
    pub ack_p95_ms: f64,
    pub visible_p50_ms: f64,
    /// Wire events made visible per second of the kept rounds' own time (one
    /// connection, closed loop: the rounds' times add up to the wall time).
    pub events_per_s: f64,
    pub note: String,
}

impl Written {
    pub fn report(&self, steal: &StealLog) -> WriteReport {
        let windows = steal.windows(self.started, self.wall_s, WINDOW_S);
        let kept: Vec<&Round> = self
            .rounds
            .iter()
            .filter(|r| windows.keeps(r.posted_ns))
            .collect();
        let ack_ms = sorted(kept.iter().map(|r| r.ack_ms).collect());
        let visible_ms = sorted(kept.iter().map(|r| r.visible_ms).collect());
        let events: u64 = kept.iter().map(|r| r.events).sum();
        let ack_p50_ms = percentile(&ack_ms, 0.50);
        let ack_p95_ms = percentile(&ack_ms, 0.95);
        let visible_p50_ms = percentile(&visible_ms, 0.50);
        let events_per_s = events as f64 / (visible_ms.iter().sum::<f64>() / 1e3);
        WriteReport {
            ack_p50_ms,
            ack_p95_ms,
            visible_p50_ms,
            events_per_s,
            note: format!(
                "write phase: {} batches posted, {} failed, {:.2} s; {}; over {} rounds: \
                 ack p50 {ack_p50_ms:.3} ms, ack p95 {ack_p95_ms:.3} ms{}, \
                 visible p50 {visible_p50_ms:.3} ms, {events_per_s:.1} events/s",
                self.rounds.len() as u64 + self.failed,
                self.failed,
                self.wall_s,
                windows.describe(),
                kept.len(),
                if has_tail(ack_ms.len(), 0.95) {
                    ""
                } else {
                    " (UNRESOLVED: fewer than ten samples beyond it)"
                },
            ),
        }
    }
}

/// Answers of `addr` to the verification clicks that differ from the
/// expected ones.
fn mismatches(addr: SocketAddr, expected: &[(Request, Option<oracle::Ranked>)]) -> u64 {
    expected
        .iter()
        .filter(|(click, want)| {
            !query(addr, click, |body| {
                want.is_some() && oracle::parse_results(body) == *want
            })
        })
        .count() as u64
}

/// What the server must answer once it has applied `batches`: the
/// benchmark's replica applies them through `apply_event` and answers the
/// verification clicks (the first rotation videos under each strategy of
/// `w.verify`) by direct call.
pub fn expected_after(
    w: &Workload,
    mut replica: Recommender,
    rotation: &[u64],
    batches: &[UpdateBatch],
) -> Vec<(Request, Option<oracle::Ranked>)> {
    for batch in batches {
        for event in parse_update_body(&batch.body).expect("generated body parses") {
            // A failing event (duplicate ingest) fails the same way live.
            let _ = replica.apply_event(event);
        }
    }
    w.verify
        .iter()
        .flat_map(|&s| {
            rotation
                .iter()
                .take(VERIFY_QUERIES)
                .map(move |&video| Request::new(video, s, w.k))
        })
        .map(|click| {
            let answer = oracle::direct(&replica, click.video, click.strategy, w.k);
            (click, answer)
        })
        .collect()
}

/// After the write phase: the verification clicks are asked of the live
/// server, the server is shut down and started again on the same data dir
/// (several times; each restart is timed) and the clicks are asked again.
/// Live server, restarted server and replica must agree bit for bit, and
/// every recovery must cover every acknowledged `durable_lsn`. Returns the
/// restarts as `(started, seconds)`.
pub fn verify_and_restart(
    out: &mut Outcome,
    live: ServerHandle,
    dir: &Path,
    rec_cfg: &RecommenderConfig,
    expected: &[(Request, Option<oracle::Ranked>)],
    max_lsn: u64,
) -> Vec<(Instant, f64)> {
    let live_wrong = mismatches(live.addr(), expected);
    let mut live = live;
    let mut restarts = Vec::new();
    let (mut restarted_wrong, mut lost_acks, mut recovered_lsn) = (0, 0, 0);
    while wants_another(&restarts, RECOVER_REPEATS) {
        live.shutdown();
        let restarting = Instant::now();
        let (handle, report) = boot(dir, rec_cfg.clone(), Vec::new());
        restarts.push((restarting, restarting.elapsed().as_secs_f64()));
        if restarts.len() == 1 {
            restarted_wrong = mismatches(handle.addr(), expected);
        }
        lost_acks += u64::from(report.recovered_lsn < max_lsn);
        recovered_lsn = report.recovered_lsn;
        live = handle;
    }
    live.shutdown();
    out.count(
        (2 * expected.len() + restarts.len()) as u64,
        live_wrong + restarted_wrong + lost_acks,
    );
    out.note(format!(
        "bit-identity over {} clicks: live {live_wrong} wrong, restarted {restarted_wrong} wrong; \
         recovered lsn {recovered_lsn} vs highest acknowledged {max_lsn}",
        expected.len(),
    ));
    restarts
}
