//! Closed-loop load generator for the serving subsystem.
//!
//! Starts the server in-process over a synthetic community, then drives it
//! from closed-loop client threads (each issues the next request as soon as
//! the previous response lands) for a fixed duration, and writes
//! `BENCH_serve.json` with throughput, client-observed p50/p95/p99, and the
//! server-side stage breakdown scraped from `/metrics` and `/debug/queries`
//! (where the EMD time share, prune rate and admission-queue wait live).
//!
//! ```sh
//! cargo run --release -p viderec-bench --bin serve_load
//! ```
//!
//! Knobs (environment variables):
//!
//! | var | default | meaning |
//! |---|---|---|
//! | `SERVE_LOAD_SECONDS` | 10 | measured duration per strategy |
//! | `SERVE_LOAD_CLIENTS` | 4 | closed-loop client threads |
//! | `SERVE_LOAD_HOURS` | 10.0 | community scale (paper-hours) |
//! | `SERVE_LOAD_K` | 10 | top-k per request |
//! | `SERVE_LOAD_OUT` | BENCH_serve.json | output path |
//! | `SERVE_LOAD_PROFILE_SECONDS` | 5 | `/debug/profile` capture window mid-run |
//! | `SERVE_LOAD_UPDATE_SECONDS` | 5 | measured duration per durability mode |
//! | `SERVE_LOAD_WAL_DIR` | wal-scratch | scratch data dirs for the WAL modes |
//!
//! After the query-strategy runs, a **durability tax** section measures
//! `POST /update` throughput and latency with the WAL off, `fsync=batch`
//! (every acknowledged batch synced) and `fsync=interval:25` — the price of
//! each fsync policy in update acks per second.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use viderec_core::{Recommender, RecommenderConfig, Stage};
use viderec_eval::community::{Community, CommunityConfig};
use viderec_serve::client::{get, json_u64, post};
use viderec_serve::wire::encode_comment;
use viderec_serve::{start, start_durable, DurabilityConfig, FsyncPolicy, ServeConfig};

/// The server runs in-process, so installing the counting allocator here
/// makes the per-stage `alloc_bytes` trace counters and `/debug/heap` live
/// for the whole measured run — the configuration the serve binaries ship.
#[global_allocator]
static ALLOC: viderec_prof::CountingAlloc = viderec_prof::CountingAlloc::system();

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Exact quantile over sorted client-side latencies (nearest-rank).
fn quantile_micros(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Reads one sample value from a Prometheus exposition page. `name` is the
/// full sample name including any label set; the match requires the exact
/// name followed by a single space, so `..._sum` never matches a longer
/// sample that merely starts with it.
fn sample(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|l| {
            l.strip_prefix(name)?
                .strip_prefix(' ')?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0) as u64
}

/// One row of the server-side stage breakdown, pooled over every traced
/// request of the run.
struct StageRow {
    label: &'static str,
    sum_micros: u64,
    count: u64,
}

/// Aggregate of the prune counters over the trace ring's most recent entries
/// (`GET /debug/queries`), which cover the tail of the last strategy run.
#[derive(Default)]
struct TraceSummary {
    traces: u64,
    scanned: u64,
    pruned: u64,
    exact_evals: u64,
    total_micros: u64,
    stage_sum_micros: u64,
}

fn summarize_traces(debug_page: &str) -> TraceSummary {
    let mut agg = TraceSummary::default();
    // Each trace object in the "recent" array starts with its hex id; the
    // page was requested with slow=0 so every segment is a distinct trace.
    for seg in debug_page.split("{\"trace\":\"").skip(1) {
        agg.traces += 1;
        agg.scanned += json_u64(seg, "scanned").unwrap_or(0);
        agg.pruned += json_u64(seg, "pruned").unwrap_or(0);
        agg.exact_evals += json_u64(seg, "exact_evals").unwrap_or(0);
        agg.total_micros += json_u64(seg, "total_micros").unwrap_or(0);
        agg.stage_sum_micros += json_u64(seg, "stage_sum_micros").unwrap_or(0);
    }
    agg
}

/// Minimal JSON string escaping for symbol names embedded in the report.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// What `GET /debug/profile` said about the server under load, plus the
/// process telemetry sampled right after the capture window closed.
struct ProfileCapture {
    seconds: u64,
    hz: u64,
    samples: u64,
    dropped: u64,
    window_ms: u64,
    emd_kernel_share: f64,
    top: Vec<(u64, String)>,
    rss_bytes: u64,
    utime_secs: f64,
    stime_secs: f64,
    threads: u64,
}

/// Mid-run CPU profile: closed-loop clients keep the headline strategy hot
/// while one more client asks the server to profile itself over HTTP.
/// ITIMER_PROF fires on consumed CPU time only, so admission-queue wait —
/// wall time a request spends parked before a worker picks it up — never
/// appears in these stacks; compare `mean_queue_wait_micros` in the stage
/// breakdown against the on-CPU shares here to separate the two.
fn profile_under_load(
    addr: std::net::SocketAddr,
    queries: &[u64],
    clients: usize,
    seconds: u64,
    k: usize,
) -> Option<ProfileCapture> {
    let stop = AtomicBool::new(false);
    let body = std::thread::scope(|s| {
        for c in 0..clients {
            let stop = &stop;
            s.spawn(move || {
                let mut i = c;
                while !stop.load(Ordering::Relaxed) {
                    let video = queries[i % queries.len()];
                    i += 1;
                    let _ = get(
                        addr,
                        &format!("/recommend?video={video}&k={k}&strategy=csf-sar-h"),
                        Duration::from_secs(10),
                    );
                }
            });
        }
        std::thread::sleep(Duration::from_millis(300)); // let the load ramp up
        let resp = get(
            addr,
            &format!("/debug/profile?seconds={seconds}&hz=199"),
            Duration::from_secs(seconds + 30),
        );
        stop.store(true, Ordering::Relaxed);
        resp.ok().filter(|r| r.status == 200).map(|r| r.body)
    })?;

    // Header line: `# samples=N dropped=D hz=H window_ms=W`, then one folded
    // stack per line (`frame;frame;... count`), already sorted by count.
    let mut samples = 0u64;
    let mut dropped = 0u64;
    let mut hz = 0u64;
    let mut window_ms = 0u64;
    if let Some(header) = body.lines().next().and_then(|l| l.strip_prefix("# ")) {
        for field in header.split_whitespace() {
            if let Some((key, value)) = field.split_once('=') {
                let v = value.parse().unwrap_or(0);
                match key {
                    "samples" => samples = v,
                    "dropped" => dropped = v,
                    "hz" => hz = v,
                    "window_ms" => window_ms = v,
                    _ => {}
                }
            }
        }
    }
    let mut total = 0u64;
    let mut kernel = 0u64;
    let mut stacks: Vec<(u64, String)> = Vec::new();
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let Some((stack, count)) = line.rsplit_once(' ') else {
            continue;
        };
        let count: u64 = count.parse().unwrap_or(0);
        total += count;
        if stack.contains("emd_1d_soa_capped") {
            kernel += count;
        }
        stacks.push((count, stack.to_string()));
    }
    stacks.sort_by_key(|s| std::cmp::Reverse(s.0));
    stacks.truncate(10);
    let proc = viderec_prof::read_self();
    Some(ProfileCapture {
        seconds,
        hz,
        samples,
        dropped,
        window_ms,
        emd_kernel_share: kernel as f64 / total.max(1) as f64,
        top: stacks,
        rss_bytes: proc.rss_bytes,
        utime_secs: proc.utime_secs,
        stime_secs: proc.stime_secs,
        threads: proc.threads,
    })
}

struct StrategyRun {
    strategy: &'static str,
    requests: u64,
    errors: u64,
    throughput_rps: f64,
    p50_micros: u64,
    p95_micros: u64,
    p99_micros: u64,
    mean_micros: u64,
    max_micros: u64,
}

fn run_strategy(
    addr: std::net::SocketAddr,
    strategy: &'static str,
    queries: &[u64],
    clients: usize,
    seconds: u64,
    k: usize,
) -> StrategyRun {
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(4096);
                    let mut errors = 0u64;
                    let mut i = c; // stagger the query rotation per client
                    while !stop.load(Ordering::Relaxed) {
                        let video = queries[i % queries.len()];
                        i += 1;
                        let t0 = Instant::now();
                        let ok = get(
                            addr,
                            &format!("/recommend?video={video}&k={k}&strategy={strategy}"),
                            Duration::from_secs(10),
                        )
                        .map(|r| r.status == 200)
                        .unwrap_or(false);
                        let micros = t0.elapsed().as_micros() as u64;
                        if ok {
                            lats.push(micros);
                        } else {
                            errors += 1;
                        }
                    }
                    (lats, errors)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs(seconds));
        stop.store(true, Ordering::Relaxed);
        let mut all = Vec::new();
        let mut errors = 0u64;
        for h in handles {
            let (lats, errs) = h.join().expect("client thread");
            all.extend(lats);
            errors += errs;
        }
        all.push(errors); // smuggle the error count through the scope
        all
    });
    let errors = latencies.pop().unwrap_or(0);
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    StrategyRun {
        strategy,
        requests,
        errors,
        throughput_rps: requests as f64 / elapsed,
        p50_micros: quantile_micros(&latencies, 0.50),
        p95_micros: quantile_micros(&latencies, 0.95),
        p99_micros: quantile_micros(&latencies, 0.99),
        mean_micros: latencies
            .iter()
            .sum::<u64>()
            .checked_div(requests)
            .unwrap_or(0),
        max_micros: latencies.last().copied().unwrap_or(0),
    }
}

struct UpdateRun {
    mode: &'static str,
    requests: u64,
    errors: u64,
    backpressure_503: u64,
    throughput_rps: f64,
    p50_micros: u64,
    p99_micros: u64,
    mean_micros: u64,
    wal_records: u64,
    wal_fsyncs: u64,
}

/// Closed-loop `POST /update` drivers against `addr` for `seconds`; each
/// body is one comment event, rotated per client.
fn run_updates(
    addr: std::net::SocketAddr,
    mode: &'static str,
    bodies: &[String],
    clients: usize,
    seconds: u64,
) -> UpdateRun {
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let (mut latencies, errors, backpressure_503) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut lats: Vec<u64> = Vec::with_capacity(4096);
                    let mut errors = 0u64;
                    let mut backpressure = 0u64;
                    let mut i = c;
                    while !stop.load(Ordering::Relaxed) {
                        let body = &bodies[i % bodies.len()];
                        i += 1;
                        let t0 = Instant::now();
                        let status = post(addr, "/update", body, Duration::from_secs(30))
                            .map(|r| r.status)
                            .unwrap_or(0);
                        let micros = t0.elapsed().as_micros() as u64;
                        if status == 202 {
                            lats.push(micros);
                        } else if status == 503 {
                            // Enqueue-only acks fill the bounded queue long
                            // before the maintainer drains it; back off rather
                            // than counting a full queue as a failure.
                            backpressure += 1;
                            std::thread::sleep(Duration::from_millis(1));
                        } else {
                            errors += 1;
                        }
                    }
                    (lats, errors, backpressure)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs(seconds));
        stop.store(true, Ordering::Relaxed);
        let mut all = Vec::new();
        let mut errors = 0u64;
        let mut backpressure = 0u64;
        for h in handles {
            let (lats, errs, bp) = h.join().expect("update client thread");
            all.extend(lats);
            errors += errs;
            backpressure += bp;
        }
        (all, errors, backpressure)
    });
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    let page = get(addr, "/metrics", Duration::from_secs(10))
        .expect("scrape /metrics")
        .body;
    UpdateRun {
        mode,
        requests,
        errors,
        backpressure_503,
        throughput_rps: requests as f64 / elapsed,
        p50_micros: quantile_micros(&latencies, 0.50),
        p99_micros: quantile_micros(&latencies, 0.99),
        mean_micros: latencies
            .iter()
            .sum::<u64>()
            .checked_div(requests)
            .unwrap_or(0),
        wal_records: sample(&page, "serve_wal_records_appended_total"),
        wal_fsyncs: sample(&page, "serve_wal_fsyncs_total"),
    }
}

fn main() {
    let seconds: u64 = env_or("SERVE_LOAD_SECONDS", 10);
    let clients: usize = env_or("SERVE_LOAD_CLIENTS", 4);
    let hours: f64 = env_or("SERVE_LOAD_HOURS", 10.0);
    let k: usize = env_or("SERVE_LOAD_K", 10);
    let out_path = std::env::var("SERVE_LOAD_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());

    eprintln!("generating community ({hours} paper-hours)…");
    let community = Community::generate(CommunityConfig {
        hours,
        seed: viderec_bench::scale::SEED,
        ..Default::default()
    });
    eprintln!("building recommender…");
    let recommender = Recommender::build(RecommenderConfig::default(), community.source_corpus())
        .expect("valid corpus");
    let (videos, users) = (recommender.num_videos(), recommender.num_users());
    let queries: Vec<u64> = community.query_videos().iter().map(|v| v.0).collect();

    let handle = start(ServeConfig::default(), recommender).expect("server starts");
    let addr = handle.addr();
    eprintln!("serving on {addr}; {clients} closed-loop clients x {seconds}s per strategy, k={k}");

    let mut runs = Vec::new();
    for strategy in ["csf-sar-h", "csf", "cr"] {
        eprintln!("measuring {strategy}…");
        let run = run_strategy(addr, strategy, &queries, clients, seconds, k);
        eprintln!(
            "  {:.1} req/s, p50 {} µs, p95 {} µs, p99 {} µs ({} errors)",
            run.throughput_rps, run.p50_micros, run.p95_micros, run.p99_micros, run.errors
        );
        runs.push(run);
    }

    // Profile the server mid-run: clients keep the headline strategy hot
    // while `/debug/profile` walks the worker stacks from a SIGPROF handler.
    let profile_seconds: u64 = env_or("SERVE_LOAD_PROFILE_SECONDS", 5);
    eprintln!("profiling {profile_seconds}s under csf-sar-h load…");
    let profile = profile_under_load(addr, &queries, clients, profile_seconds, k);
    match &profile {
        Some(p) => eprintln!(
            "  {} samples @ {} Hz; emd_1d_soa_capped in {:.1}% of on-CPU samples; \
             rss {} MiB, cpu {:.1}s user + {:.1}s sys",
            p.samples,
            p.hz,
            100.0 * p.emd_kernel_share,
            p.rss_bytes >> 20,
            p.utime_secs,
            p.stime_secs
        ),
        None => eprintln!("  profile capture unavailable on this platform"),
    }

    // Scrape the server's own view before shutting down: per-stage time from
    // /metrics (pooled over every traced request of the whole run) and the
    // prune counters from the trace ring's most recent entries.
    let metrics_page = get(addr, "/metrics", Duration::from_secs(10))
        .expect("scrape /metrics")
        .body;
    let stages: Vec<StageRow> = Stage::ALL
        .iter()
        .map(|s| {
            let label = s.label();
            StageRow {
                label,
                sum_micros: sample(
                    &metrics_page,
                    &format!("serve_query_stage_micros_sum{{stage=\"{label}\"}}"),
                ),
                count: sample(
                    &metrics_page,
                    &format!("serve_query_stage_micros_count{{stage=\"{label}\"}}"),
                ),
            }
        })
        .collect();
    let stage_total: u64 = stages.iter().map(|s| s.sum_micros).sum();
    let share = |sum: u64| sum as f64 / stage_total.max(1) as f64;
    let queue = &stages[Stage::Queue.index()];
    let emd_share = share(stages[Stage::Emd.index()].sum_micros);
    let mean_queue_wait = queue.sum_micros.checked_div(queue.count).unwrap_or(0);
    let traces = summarize_traces(
        &get(addr, "/debug/queries?n=64&slow=0", Duration::from_secs(10))
            .expect("scrape /debug/queries")
            .body,
    );
    let prune_rate = traces.pruned as f64 / traces.scanned.max(1) as f64;
    eprintln!(
        "stage breakdown: emd {:.1}% of stage time, mean queue wait {} µs, \
         prune rate {:.1}% over {} ring traces",
        100.0 * emd_share,
        mean_queue_wait,
        100.0 * prune_rate,
        traces.traces
    );

    let m = handle.metrics();
    let submitted = m.submitted.load(Ordering::SeqCst);
    let served = m.served.load(Ordering::SeqCst);
    let rejected = m.rejected.load(Ordering::SeqCst);
    let expired = m.deadline_expired.load(Ordering::SeqCst);
    assert_eq!(
        submitted,
        served + rejected + expired,
        "accounting identity violated"
    );
    handle.shutdown();

    // --- Durability tax: update throughput per fsync policy. ---
    let update_seconds: u64 = env_or("SERVE_LOAD_UPDATE_SECONDS", 5);
    let wal_dir: String =
        std::env::var("SERVE_LOAD_WAL_DIR").unwrap_or_else(|_| "wal-scratch".into());
    let update_bodies: Vec<String> = (0..1024)
        .map(|i| {
            encode_comment(
                community.videos[i % community.videos.len()].id,
                &community.comments[(i * 7) % community.comments.len()].user,
            )
        })
        .collect();
    let update_clients = clients.min(2); // the maintainer serializes applies anyway
    let modes: [(&'static str, Option<FsyncPolicy>); 3] = [
        ("wal-off", None),
        ("fsync-batch", Some(FsyncPolicy::Batch)),
        (
            "fsync-interval-25ms",
            Some(FsyncPolicy::Interval(Duration::from_millis(25))),
        ),
    ];
    let mut update_runs = Vec::new();
    for (mode, fsync) in modes {
        eprintln!("measuring update path: {mode}…");
        let handle = match fsync {
            None => {
                let r = Recommender::build(RecommenderConfig::default(), community.source_corpus())
                    .expect("valid corpus");
                start(ServeConfig::default(), r).expect("server starts")
            }
            Some(policy) => {
                let dir = std::path::Path::new(&wal_dir).join(mode);
                // viderec-lint: allow(durable-writes) — scratch data dir for the
                // WAL-mode measurement, recreated fresh every run (by
                // `start_durable`, which creates a missing data dir).
                let _ = std::fs::remove_dir_all(&dir);
                let mut dur = DurabilityConfig::new(&dir);
                dur.fsync = policy;
                start_durable(
                    ServeConfig::default(),
                    dur,
                    RecommenderConfig::default(),
                    community.source_corpus(),
                )
                .expect("durable server starts")
                .0
            }
        };
        let run = run_updates(
            handle.addr(),
            mode,
            &update_bodies,
            update_clients,
            update_seconds,
        );
        eprintln!(
            "  {:.1} acks/s, p50 {} µs, p99 {} µs ({} errors, {} backpressure, {} wal records, {} fsyncs)",
            run.throughput_rps,
            run.p50_micros,
            run.p99_micros,
            run.errors,
            run.backpressure_503,
            run.wal_records,
            run.wal_fsyncs
        );
        update_runs.push(run);
        handle.shutdown();
        if fsync.is_some() {
            // viderec-lint: allow(durable-writes) — cleanup of the scratch
            // data dir created above.
            let _ = std::fs::remove_dir_all(std::path::Path::new(&wal_dir).join(mode));
        }
    }
    // viderec-lint: allow(durable-writes) — removes the (now empty) scratch
    // root left behind by the WAL-mode measurements.
    let _ = std::fs::remove_dir(&wal_dir);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"serve_load\",\n");
    json.push_str(
        "  \"description\": \"Closed-loop HTTP load against the serving subsystem \
         (in-process server, epoch-swapped snapshots). Client-observed latency per \
         GET /recommend over a real TCP socket, one kept connection per client.\",\n",
    );
    json.push_str("  \"command\": \"cargo run --release -p viderec-bench --bin serve_load\",\n");
    json.push_str(&format!(
        "  \"setup\": {{ \"community_hours\": {hours}, \"corpus_videos\": {videos}, \
         \"users\": {users}, \"query_rotation\": {}, \"top_k\": {k}, \
         \"clients\": {clients}, \"seconds_per_strategy\": {seconds}, \
         \"workers\": \"max(2, available_parallelism)\" }},\n",
        queries.len()
    ));
    json.push_str(&format!(
        "  \"server_accounting\": {{ \"submitted\": {submitted}, \"served\": {served}, \
         \"rejected\": {rejected}, \"deadline_expired\": {expired} }},\n"
    ));
    json.push_str(
        "  \"stage_breakdown\": {\n    \"source\": \"GET /metrics serve_query_stage_micros, \
         pooled over every traced request of the run\",\n    \"stages\": [\n",
    );
    for (i, s) in stages.iter().enumerate() {
        json.push_str(&format!(
            "      {{ \"stage\": \"{}\", \"sum_micros\": {}, \"count\": {}, \
             \"share\": {:.4} }}{}\n",
            s.label,
            s.sum_micros,
            s.count,
            share(s.sum_micros),
            if i + 1 < stages.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "    ],\n    \"emd_time_share\": {:.4},\n    \"mean_queue_wait_micros\": {}\n  }},\n",
        emd_share, mean_queue_wait
    ));
    json.push_str(&format!(
        "  \"trace_summary\": {{ \"source\": \"GET /debug/queries?n=64 (most recent ring \
         traces; tail of the last strategy measured)\", \"traces\": {}, \"scanned\": {}, \
         \"pruned\": {}, \"exact_evals\": {}, \"prune_rate\": {:.4}, \
         \"mean_total_micros\": {}, \"mean_stage_sum_micros\": {} }},\n",
        traces.traces,
        traces.scanned,
        traces.pruned,
        traces.exact_evals,
        prune_rate,
        traces.total_micros.checked_div(traces.traces).unwrap_or(0),
        traces
            .stage_sum_micros
            .checked_div(traces.traces)
            .unwrap_or(0),
    ));
    json.push_str(&format!(
        "  \"durability_tax\": {{\n    \"description\": \"Closed-loop POST /update per fsync \
         policy: the WAL's price on the update path. Durable modes acknowledge only after \
         the event is framed, CRC'd and (per policy) fsynced; wal-off acks on enqueue, so \
         its latencies exclude the apply entirely and queue overflow comes back as 503 \
         backpressure (counted separately, retried after 1ms). Throughput is apply-bound \
         in every mode on this corpus — the tax shows in ack latency, not acks/s.\",\n    \
         \"update_clients\": {update_clients}, \"seconds_per_mode\": {update_seconds},\n    \
         \"modes\": [\n"
    ));
    for (i, r) in update_runs.iter().enumerate() {
        json.push_str(&format!(
            "      {{ \"mode\": \"{}\", \"requests\": {}, \"errors\": {}, \
             \"backpressure_503\": {}, \
             \"throughput_rps\": {:.2}, \"p50_micros\": {}, \"p99_micros\": {}, \
             \"mean_micros\": {}, \"wal_records\": {}, \"wal_fsyncs\": {} }}{}\n",
            r.mode,
            r.requests,
            r.errors,
            r.backpressure_503,
            r.throughput_rps,
            r.p50_micros,
            r.p99_micros,
            r.mean_micros,
            r.wal_records,
            r.wal_fsyncs,
            if i + 1 < update_runs.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n  },\n");
    match &profile {
        Some(p) => {
            json.push_str(&format!(
                "  \"profile\": {{\n    \"source\": \"GET /debug/profile?seconds={}&hz=199 \
                 captured mid-run while {} closed-loop clients drove csf-sar-h. ITIMER_PROF \
                 samples consumed CPU time only, so admission-queue wait (wall time; see \
                 stage_breakdown.mean_queue_wait_micros) never appears in these stacks — \
                 the stacks are the on-CPU serve work.\",\n    \"hz\": {}, \"window_ms\": {}, \
                 \"samples\": {}, \"dropped\": {},\n    \"emd_kernel_sample_share\": {:.4},\n    \
                 \"process\": {{ \"rss_bytes\": {}, \"cpu_user_secs\": {:.3}, \
                 \"cpu_system_secs\": {:.3}, \"threads\": {} }},\n    \"top_stacks\": [\n",
                p.seconds,
                clients,
                p.hz,
                p.window_ms,
                p.samples,
                p.dropped,
                p.emd_kernel_share,
                p.rss_bytes,
                p.utime_secs,
                p.stime_secs,
                p.threads
            ));
            for (i, (count, stack)) in p.top.iter().enumerate() {
                json.push_str(&format!(
                    "      {{ \"count\": {}, \"stack\": \"{}\" }}{}\n",
                    count,
                    json_escape(stack),
                    if i + 1 < p.top.len() { "," } else { "" }
                ));
            }
            json.push_str("    ]\n  },\n");
        }
        None => json.push_str("  \"profile\": null,\n"),
    }
    json.push_str("  \"results\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"strategy\": \"{}\", \"requests\": {}, \"errors\": {}, \
             \"throughput_rps\": {:.2}, \"p50_micros\": {}, \"p95_micros\": {}, \
             \"p99_micros\": {}, \"mean_micros\": {}, \"max_micros\": {} }}{}\n",
            r.strategy,
            r.requests,
            r.errors,
            r.throughput_rps,
            r.p50_micros,
            r.p95_micros,
            r.p99_micros,
            r.mean_micros,
            r.max_micros,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    // viderec-lint: allow(durable-writes) — benchmark report artifact, not
    // durable serving state; loss on crash only means re-running the bench.
    std::fs::write(&out_path, &json).expect("write output");
    eprintln!("wrote {out_path}");
    println!("{json}");
}
