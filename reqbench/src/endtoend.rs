//! The measured run (`--trace 0`): set-up, capacity, open-loop steps and —
//! on `update_churn` — the write phase beside a reader, restart and
//! recovery, with every answer checked.

use crate::inputs;
use crate::live::{boot, boot_plain, query, Scratch};
use crate::loadgen::{
    backlog_growing, closed_loop, kept_rate, late_p95_ms, open_loop, Phase, Sample, Schedule,
};
use crate::oracle::Oracle;
use crate::spec::{
    Workload, CAPACITY_SHARE, CONNECTIONS, OPEN_STEP_SHARES, SETUP_REPEATS, WARM_SHARE, WINDOW_S,
};
use crate::stats::{has_tail, percentile, sorted};
use crate::steal::{median_quiet, wants_another, StealLog, StealSampler};
use crate::write::{expected_after, verify_and_restart, write_phase_beside_reader};
use crate::{host, Outcome};
use std::time::Instant;
use viderec_core::Recommender;

fn failures(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| !s.ok).count() as u64
}

/// An open-loop phase, summed up over the windows the host left alone.
pub struct Step {
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// How late the senders got to their requests, and the longest send
    /// backlog: whether the generator kept its schedule.
    pub late_p95_ms: f64,
    pub backlog_max: u64,
    /// The send backlog kept growing: the server is not keeping up.
    pub growing: bool,
    pub failed: u64,
    pub note: String,
}

impl Step {
    /// `connections` senders ran `phase` at `rate` requests per second.
    pub fn of(phase: &Phase, rate: f64, connections: usize, steal: &StealLog) -> Self {
        let windows = steal.windows(phase.started, phase.wall_s, WINDOW_S);
        let kept: Vec<Sample> = phase
            .samples
            .iter()
            .filter(|s| windows.keeps(s.due_ns))
            .copied()
            .collect();
        let lat = sorted(
            kept.iter()
                .filter(|s| s.ok)
                .map(|s| s.latency_ns as f64 / 1e6)
                .collect(),
        );
        let p50_ms = percentile(&lat, 0.50);
        let p95_ms = percentile(&lat, 0.95);
        let late = late_p95_ms(&kept);
        let growing = backlog_growing(&phase.samples, connections);
        let failed = failures(&phase.samples);
        let mut note = format!(
            "open loop {rate} rps: {} sent, {failed} failed; {}; over {} samples: \
             p50 {p50_ms:.3} ms, p95 {p95_ms:.3} ms{}, sender late p95 {late:.3} ms, \
             backlog growing: {growing}",
            phase.samples.len(),
            windows.describe(),
            lat.len(),
            if has_tail(lat.len(), 0.99) {
                format!(", p99 {:.3} ms", percentile(&lat, 0.99))
            } else {
                String::new()
            },
        );
        if !has_tail(lat.len(), 0.95) || late > 0.1 * p95_ms {
            note.push_str("; p95 UNRESOLVED (too few samples, or the generator ran late)");
        }
        Self {
            p50_ms,
            p95_ms,
            late_p95_ms: late,
            backlog_max: kept.iter().map(|s| s.backlog).max().unwrap_or(0),
            growing,
            failed,
            note,
        }
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut scratch = Scratch::new(w.name);
    let sampler = StealSampler::start();
    let durable = w.churn_reader_rps.is_some();

    // --- set-up, several times; the last server stays up ---
    let mut setups = Vec::new();
    let mut live = None;
    while wants_another(&setups, SETUP_REPEATS) {
        drop(live.take());
        let started = Instant::now();
        let (corpus, _) = inputs::materialize(w);
        let rec_cfg = w.rec_cfg(corpus.len());
        live = Some(if durable {
            let dir = scratch.fresh_dir();
            (boot(&dir, rec_cfg, corpus).0, dir)
        } else {
            (boot_plain(rec_cfg, corpus), Default::default())
        });
        setups.push((started, started.elapsed().as_secs_f64()));
    }
    let (handle, dir) = live.expect("at least one set-up");
    let addr = handle.addr();

    // --- inputs and answer key (outside every measured phase) ---
    let (corpus, pool) = inputs::materialize(w);
    let rec_cfg = w.rec_cfg(corpus.len());
    let rotation = inputs::rotation(w, &corpus);
    let requests = inputs::requests(w, &rotation, seed);
    let replica = Recommender::build(rec_cfg.clone(), corpus.clone()).expect("valid corpus");
    let oracle = Oracle::precompute(&replica, &rotation, w.mix, w.k, w.known_scan_defects);
    out.note(oracle.describe(w.known_scan_defects.len()));
    let checked = |seq: usize| {
        let request = &requests[seq % requests.len()];
        query(addr, request, |body| oracle.matches(request, body))
    };

    // --- warm-up, then capacity: closed loop on every connection ---
    closed_loop(CONNECTIONS, seconds * WARM_SHARE, &checked);
    let capacity = closed_loop(CONNECTIONS, seconds * CAPACITY_SHARE, &checked);
    out.count(capacity.samples.len() as u64, failures(&capacity.samples));

    // --- open-loop steps at the frozen rates; the first feeds the metrics ---
    let phases: Vec<Phase> = w
        .open_rates_rps
        .iter()
        .zip(&OPEN_STEP_SHARES)
        .map(|(&rate, &share)| {
            let schedule = Schedule::at_rate(rate, seconds * share);
            open_loop(CONNECTIONS, schedule, &|| false, &checked)
        })
        .collect();

    // --- update_churn: the writer beside the reader, restart and recovery ---
    let churn = w.churn_reader_rps.map(|reader_rps| {
        let count = w.write_batches(seconds);
        let batches = inputs::updates(&w.write, &corpus, &pool, seed, 0, count);
        let (written, read) =
            write_phase_beside_reader(&handle, &batches, &requests, w.k, reader_rps);
        out.count(batches.len() as u64, written.failed);
        (written, read, reader_rps, batches)
    });
    let restarts = match &churn {
        Some((written, _, _, batches)) => {
            let expected = expected_after(w, replica, &rotation, batches);
            verify_and_restart(&mut out, handle, &dir, &rec_cfg, &expected, written.max_lsn)
        }
        None => {
            handle.shutdown();
            Vec::new()
        }
    };

    // --- what the host took; the phases' numbers over what it left ---
    let steal = sampler.finish();
    let mut max_rate_ok = 0.0f64;
    let mut first = None;
    for (phase, &rate) in phases.iter().zip(w.open_rates_rps) {
        let step = Step::of(phase, rate, CONNECTIONS, &steal);
        if step.failed == 0 && step.p95_ms <= w.p95_limit_ms && !step.growing {
            max_rate_ok = max_rate_ok.max(rate);
        }
        out.count(phase.samples.len() as u64, step.failed);
        out.note(step.note.clone());
        first.get_or_insert(step);
    }
    let first = first.expect("at least one step");
    out.note(format!(
        "query_max_rate_ok_rps = {max_rate_ok} 1/s (p95 limit {} ms; printed, not in \
         BENCHMARK.json)",
        w.p95_limit_ms
    ));
    if let Some((written, read, reader_rps, _)) = &churn {
        let reader = Step::of(read, *reader_rps, 1, &steal);
        out.count(read.samples.len() as u64, reader.failed);
        out.note(format!("reader beside the writer, {}", reader.note));
        out.note(written.report(&steal).note);
        out.note(median_quiet("recover_s", &restarts, &steal).1);
    }

    let windows = steal.windows(capacity.started, seconds * CAPACITY_SHARE, WINDOW_S);
    out.note(format!(
        "capacity: {} sent, {} failed in {:.2} s on {CONNECTIONS} connections; {}; {:.1} correct \
         answers per second (printed; `query_capacity_rps` is a per-layer metric)",
        capacity.samples.len(),
        failures(&capacity.samples),
        capacity.wall_s,
        windows.describe(),
        kept_rate(&capacity.samples, &windows)
    ));
    let (setup_s, setup_note) = median_quiet("setup_s", &setups, &steal);
    out.note(setup_note);
    out.metric("setup_s", setup_s);
    out.metric("query_p50_ms", first.p50_ms);
    out.metric("peak_rss_mb", host::peak_rss_mb());
    out
}
