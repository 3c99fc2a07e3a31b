//! CI smoke check for the observability surface.
//!
//! Starts the server in-process over a small community, issues a traced
//! recommendation, pushes one update batch through the maintenance thread,
//! then scrapes `/metrics`, `/debug/queries` and `/debug/trace/<id>` and
//! asserts every family and field the tracing work added is present and
//! coherent (stage sum bounded by the total, accounting identity, update
//! histograms populated). Keep-alive: sequential requests from one thread
//! arrive on one connection, and a third client is served while two kept
//! connections sit idle. Also smokes the profiling surface: a
//! `/debug/profile` capture under live load must return collapsed stacks
//! that include the EMD kernel, and `/debug/heap` must see the counting
//! allocator. Exits nonzero on any failure.
//!
//! ```sh
//! cargo run --release -p viderec-bench --bin serve_smoke
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use viderec_core::{Recommender, RecommenderConfig};
use viderec_eval::community::{Community, CommunityConfig};
use viderec_serve::client::{get, json_str, json_u64, post};
use viderec_serve::http::KEEPALIVE_IDLE;
use viderec_serve::wire::{encode_age, encode_comment};
use viderec_serve::{start, ServeConfig};

/// The smoke check runs the shipped configuration: allocation accounting on,
/// so `/debug/heap` and the per-stage `alloc_bytes` counters carry real data.
#[global_allocator]
static ALLOC: viderec_prof::CountingAlloc = viderec_prof::CountingAlloc::system();

const TIMEOUT: Duration = Duration::from_secs(10);

fn main() {
    eprintln!("generating community…");
    let community = Community::generate(CommunityConfig {
        hours: 5.0,
        ..Default::default()
    });
    let recommender = Recommender::build(RecommenderConfig::default(), community.source_corpus())
        .expect("valid corpus");
    let qid = community.query_videos()[0];
    let commenter = recommender.users_of(qid).expect("query video exists")[0].clone();
    let comment_video = community.videos[0].id;

    let handle = start(ServeConfig::default(), recommender).expect("server starts");
    let addr = handle.addr();
    eprintln!("serving on {addr}");

    // A traced request: the response must carry the trace id in the body.
    let resp = get(
        addr,
        &format!("/recommend?video={}&k=5&strategy=csf-sar-h", qid.0),
        TIMEOUT,
    )
    .expect("recommend");
    assert_eq!(resp.status, 200, "recommend: {}", resp.body);
    let trace = json_str(&resp.body, "trace").expect("traced response carries a trace id");
    assert_eq!(trace.len(), 16, "trace id is 16 hex chars: {trace}");
    println!("traced request ok: trace {trace}");

    // The id must resolve to a full stage breakdown whose stage sum is
    // bounded by the request total.
    let resp = get(addr, &format!("/debug/trace/{trace}"), TIMEOUT).expect("debug trace");
    assert_eq!(resp.status, 200, "debug trace: {}", resp.body);
    let total = json_u64(&resp.body, "total_micros").expect("total_micros");
    let stage_sum = json_u64(&resp.body, "stage_sum_micros").expect("stage_sum_micros");
    assert!(
        stage_sum <= total,
        "stage sum {stage_sum} µs exceeds total {total} µs"
    );
    for field in [
        "\"stages\":{\"queue\"",
        "\"emd\"",
        "\"prune_rate\"",
        "\"alloc_count\"",
        "\"alloc_bytes\"",
    ] {
        assert!(resp.body.contains(field), "trace misses {field}");
    }
    println!("debug trace ok: total {total} µs, stage sum {stage_sum} µs");

    // Keep-alive: one thread's sequential requests ride one connection.
    let accepted = || handle.metrics().connections_accepted.load(Ordering::SeqCst);
    let before = accepted();
    std::thread::scope(|s| {
        s.spawn(|| {
            for target in ["/healthz", "/debug/queries?n=1&slow=1", "/healthz"] {
                let resp = get(addr, target, TIMEOUT).expect("sequential request");
                assert_eq!(resp.status, 200, "{target}: {}", resp.body);
            }
        });
    });
    assert_eq!(
        accepted() - before,
        1,
        "three sequential requests from one thread took more than one connection"
    );
    // A third client is served while two kept connections sit idle: a kept
    // connection holds a worker for at most KEEPALIVE_IDLE. Earlier kept
    // connections idle out first, and the holders connect one at a time, so
    // neither is told to close (the yield rule) and both stay kept.
    std::thread::sleep(KEEPALIVE_IDLE + Duration::from_millis(50));
    let kept = std::sync::Barrier::new(2);
    let release = std::sync::Barrier::new(3);
    let waited = std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let resp = get(addr, "/healthz", TIMEOUT).expect("holder request");
                assert_eq!(resp.status, 200);
                kept.wait();
                release.wait(); // the connection stays kept while the thread lives
            });
            kept.wait();
        }
        let asked = Instant::now();
        let resp = s
            .spawn(|| get(addr, "/healthz", TIMEOUT).expect("third client"))
            .join()
            .expect("third client thread");
        let waited = asked.elapsed();
        release.wait();
        assert_eq!(resp.status, 200, "third client: {}", resp.body);
        waited
    });
    assert!(
        waited < KEEPALIVE_IDLE + Duration::from_millis(200),
        "third client waited {waited:?} behind two idle kept connections"
    );
    println!(
        "keep-alive ok: 3 sequential requests on 1 connection, third client served in {} µs",
        waited.as_micros()
    );

    // Profile the server under live load: closed-loop drivers keep the EMD
    // path on-CPU while `/debug/profile` samples it over SIGPROF. The folded
    // output must be non-empty and its frames must include the EMD kernel
    // (`emd_1d_soa_capped` is #[inline(never)] precisely so it names a frame).
    let queries: Vec<u64> = community.query_videos().iter().map(|v| v.0).collect();
    let stop = AtomicBool::new(false);
    let profile = std::thread::scope(|s| {
        for c in 0..3usize {
            let (stop, queries) = (&stop, &queries);
            s.spawn(move || {
                let mut i = c;
                while !stop.load(Ordering::Relaxed) {
                    let video = queries[i % queries.len()];
                    i += 1;
                    let _ = get(
                        addr,
                        &format!("/recommend?video={video}&k=5&strategy=csf-sar-h"),
                        TIMEOUT,
                    );
                }
            });
        }
        std::thread::sleep(Duration::from_millis(200));
        let resp = get(addr, "/debug/profile?seconds=1&hz=199", TIMEOUT).expect("debug profile");
        stop.store(true, Ordering::Relaxed);
        resp
    });
    assert_eq!(profile.status, 200, "debug profile: {}", profile.body);
    let stacks = profile
        .body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .count();
    assert!(stacks > 0, "profile returned no stacks: {}", profile.body);
    assert!(
        profile.body.contains("emd_1d_soa_capped"),
        "EMD kernel missing from profile under load:\n{}",
        profile.body
    );
    // Bad parameters must be rejected, and the capture guard must be free
    // again now that the window above closed.
    let resp = get(addr, "/debug/profile?seconds=0", TIMEOUT).expect("bad profile params");
    assert_eq!(resp.status, 400, "seconds=0 should be a 400: {}", resp.body);
    println!("debug profile ok: {stacks} stacks, EMD kernel present");

    // Heap accounting: this binary installs the counting allocator, so the
    // page must say so and report live bytes.
    let resp = get(addr, "/debug/heap", TIMEOUT).expect("debug heap");
    assert_eq!(resp.status, 200, "debug heap: {}", resp.body);
    assert!(
        resp.body.contains("\"counting_allocator_installed\":true"),
        "counting allocator not seen: {}",
        resp.body
    );
    assert!(
        json_u64(&resp.body, "live_bytes").unwrap_or(0) > 0,
        "no live bytes reported: {}",
        resp.body
    );
    println!("debug heap ok");

    // Push one batch through the update pipeline so its histograms populate.
    let body = format!(
        "{}\n{}\n",
        encode_comment(comment_video, &commenter),
        encode_age(1)
    );
    let resp = post(addr, "/update", &body, TIMEOUT).expect("update");
    assert_eq!(resp.status, 202, "update: {}", resp.body);
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.epoch() < 2 {
        assert!(Instant::now() < deadline, "snapshot never advanced");
        std::thread::sleep(Duration::from_millis(10));
    }
    println!("update pipeline ok: epoch {}", handle.epoch());

    // The ring page must report its state and both trace lists.
    let resp = get(addr, "/debug/queries?n=8&slow=4", TIMEOUT).expect("debug queries");
    assert_eq!(resp.status, 200, "debug queries: {}", resp.body);
    assert!(
        resp.body.starts_with("{\"enabled\":true"),
        "tracing should be on by default: {}",
        resp.body
    );
    assert!(json_u64(&resp.body, "recorded").unwrap_or(0) >= 1);
    for field in [
        "\"capacity\":",
        "\"dropped\":",
        "\"recent\":[",
        "\"slowest\":[",
    ] {
        assert!(resp.body.contains(field), "queries page misses {field}");
    }
    println!("debug queries ok");

    // Every family the tracing work added must be present in /metrics, and
    // the accounting identity must hold (the scrape itself is the single
    // in-flight request at render time).
    let page = get(addr, "/metrics", TIMEOUT).expect("metrics").body;
    for needle in [
        "# TYPE serve_requests_submitted_total counter",
        "# TYPE serve_connections_accepted_total counter",
        "# TYPE serve_connection_closes_total counter",
        "serve_connection_closes_total{reason=\"idle\"}",
        "# TYPE serve_latency_micros summary",
        "# TYPE serve_query_stage_micros histogram",
        "# TYPE serve_update_queue_wait_micros histogram",
        "# TYPE serve_update_apply_micros histogram",
        "# TYPE serve_update_batch_events histogram",
        "# TYPE serve_snapshot_clone_micros histogram",
        "# TYPE serve_snapshot_publish_micros histogram",
        "# TYPE serve_snapshot_age_micros gauge",
        "# TYPE serve_trace_ring_capacity gauge",
        "serve_tracing_enabled 1",
        "# TYPE serve_query_stage_alloc_bytes histogram",
        "# TYPE serve_update_batch_alloc_bytes histogram",
        "# TYPE serve_process_rss_bytes gauge",
        "# TYPE serve_process_threads gauge",
        "# TYPE serve_process_cpu_user_seconds_total counter",
        "# TYPE serve_process_cpu_system_seconds_total counter",
        "# TYPE serve_process_voluntary_ctxt_switches_total counter",
        "# TYPE serve_process_heap_live_bytes gauge",
        "# TYPE serve_process_heap_allocated_bytes_total counter",
        "serve_process_heap_counting 1",
    ] {
        assert!(page.contains(needle), "metrics page misses {needle:?}");
    }
    let sample = |name: &str| -> u64 {
        page.lines()
            .find_map(|l| {
                l.strip_prefix(name)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .unwrap_or_else(|| panic!("missing sample {name}")) as u64
    };
    assert!(sample("serve_query_traces_recorded_total") >= 1);
    assert!(sample("serve_query_stage_micros_count{stage=\"emd\"}") >= 1);
    assert!(sample("serve_update_apply_micros_count{kind=\"comments\"}") >= 1);
    assert!(sample("serve_update_apply_micros_count{kind=\"age\"}") >= 1);
    // Counts maintainer publishes only — the boot snapshot is not one.
    assert!(sample("serve_snapshots_published_total") >= 1);
    // The maintainer records one alloc-bytes observation per drained batch.
    assert!(sample("serve_update_batch_alloc_bytes_count") >= 1);
    assert!(sample("serve_process_rss_bytes") > 0);
    assert!(sample("serve_process_threads") >= 2);
    let submitted = sample("serve_requests_submitted_total");
    let served = sample("serve_requests_served_total");
    let rejected = sample("serve_requests_rejected_total");
    let expired = sample("serve_requests_deadline_expired_total");
    assert_eq!(
        submitted,
        served + rejected + expired + 1,
        "accounting identity (+1: the scrape is in flight while it renders)"
    );
    println!("metrics ok: {submitted} submitted, accounting identity holds");

    handle.shutdown();
    println!("serve smoke OK");
}
