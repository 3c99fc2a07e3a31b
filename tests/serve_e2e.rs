//! End-to-end tests for the serving subsystem over real sockets.
//!
//! The central claim under test: a response served over TCP is **bit
//! identical** to calling the library directly on the corpus state named by
//! the response's `epoch` — including while a concurrent `POST /update`
//! swaps snapshots underneath the readers.

use proptest::prelude::prop;
use proptest::Strategy as PropStrategy;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use viderec::core::{CorpusVideo, Recommender, RecommenderConfig, SocialUpdate, Strategy};
use viderec::eval::community::{Community, CommunityConfig};
use viderec::video::VideoId;
use viderec_serve::client::{get, json_str, json_u64, post};
use viderec_serve::http::KEEPALIVE_IDLE;
use viderec_serve::wire::{encode_age, encode_comment, encode_ingest};
use viderec_serve::{start, CloseReason, Endpoint, ServeConfig};

const TIMEOUT: Duration = Duration::from_secs(10);

fn build_recommender() -> (Community, Recommender) {
    let community = Community::generate(CommunityConfig::tiny(0xC0FFEE));
    let r =
        Recommender::build(RecommenderConfig::default(), community.source_corpus()).expect("build");
    (community, r)
}

/// Direct library call matching the server's `GET /recommend` semantics.
fn direct(
    r: &Recommender,
    strategy: Strategy,
    qid: VideoId,
    k: usize,
    extra_exclude: &[VideoId],
) -> Vec<(u64, u64)> {
    let q = r.query_for(qid).expect("query video indexed");
    let mut exclude = vec![qid];
    exclude.extend_from_slice(extra_exclude);
    r.recommend_excluding(strategy, &q, k, &exclude)
        .into_iter()
        .map(|s| (s.video.0, s.score.to_bits()))
        .collect()
}

/// Value of the first metric line starting with `prefix` (which should
/// include the label set and trailing close brace, or the full bare name).
fn metric_value(page: &str, prefix: &str) -> Option<u64> {
    page.lines()
        .find(|l| l.starts_with(prefix) && l.as_bytes().get(prefix.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Pulls `(video, score_bits)` pairs out of a `/recommend` response body.
fn parse_results(body: &str) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(pos) = rest.find("{\"video\":") {
        rest = &rest[pos + "{\"video\":".len()..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        let video: u64 = digits.parse().expect("video id");
        let key = "\"score_bits\":\"";
        let bpos = rest.find(key).expect("score_bits present");
        let hex = &rest[bpos + key.len()..bpos + key.len() + 16];
        out.push((video, u64::from_str_radix(hex, 16).expect("hex bits")));
        rest = &rest[bpos..];
    }
    out
}

#[test]
fn served_results_are_bit_identical_to_direct_calls() {
    let (community, r) = build_recommender();
    let reference = r.clone(); // library-side ground truth
    let handle = start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        r,
    )
    .expect("server starts");
    let addr = handle.addr();

    let strategies = [
        ("cr", Strategy::Cr),
        ("sr", Strategy::Sr),
        ("csf", Strategy::Csf),
        ("csf-sar", Strategy::CsfSar),
        ("csf-sar-h", Strategy::CsfSarH),
    ];
    let queries: Vec<VideoId> = community.query_videos().into_iter().take(4).collect();

    // Concurrent clients, one per strategy, each walking every query.
    std::thread::scope(|s| {
        for &(label, strategy) in &strategies {
            let queries = &queries;
            let reference = &reference;
            s.spawn(move || {
                for &qid in queries {
                    for k in [1usize, 5, 10] {
                        let target = format!("/recommend?video={}&k={k}&strategy={label}", qid.0);
                        let resp = get(addr, &target, TIMEOUT).expect("request succeeds");
                        assert_eq!(resp.status, 200, "body: {}", resp.body);
                        assert_eq!(
                            parse_results(&resp.body),
                            direct(reference, strategy, qid, k, &[]),
                            "strategy {label}, query {}, k {k}",
                            qid.0
                        );
                    }
                }
            });
        }
    });

    // The `exclude` parameter composes with the implicit query exclusion.
    let qid = queries[0];
    let base = direct(&reference, Strategy::CsfSarH, qid, 3, &[]);
    let excluded: Vec<VideoId> = base.iter().map(|&(v, _)| VideoId(v)).collect();
    let csv = excluded
        .iter()
        .map(|v| v.0.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let resp = get(
        addr,
        &format!("/recommend?video={}&k=3&exclude={csv}", qid.0),
        TIMEOUT,
    )
    .expect("request succeeds");
    assert_eq!(resp.status, 200);
    let served = parse_results(&resp.body);
    assert_eq!(
        served,
        direct(&reference, Strategy::CsfSarH, qid, 3, &excluded)
    );
    for (v, _) in &served {
        assert!(!excluded.contains(&VideoId(*v)), "excluded id served");
    }

    handle.shutdown();
}

#[test]
fn malformed_and_unknown_requests_get_400_and_404() {
    let (community, r) = build_recommender();
    let handle = start(ServeConfig::default(), r).expect("server starts");
    let addr = handle.addr();

    for target in [
        "/recommend",                          // missing video
        "/recommend?video=abc",                // non-numeric id
        "/recommend?video=1&k=x",              // non-numeric k
        "/recommend?video=1&strategy=bogus",   // unknown strategy
        "/recommend?video=1&deadline_ms=soon", // non-numeric deadline
        "/recommend?video=1&exclude=1,x",      // bad exclude csv
    ] {
        let resp = get(addr, target, TIMEOUT).expect("request succeeds");
        assert_eq!(resp.status, 400, "{target}: {}", resp.body);
        assert!(resp.body.contains("error"), "{target}");
    }

    // `k` and `exclude` are bounded by `max_k`: at the limit a request is
    // served, one over is a 400 that names the limit — counted like every
    // other response.
    let max_k = ServeConfig::default().max_k;
    let qid = community.query_videos()[0].0;
    let resp = get(addr, &format!("/recommend?video={qid}&k={max_k}"), TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "k = {max_k}: {}", resp.body);
    let target = format!("/recommend?video={qid}&k={}", max_k + 1);
    let resp = get(addr, &target, TIMEOUT).expect("request succeeds");
    assert_eq!(resp.status, 400, "k = {}: {}", max_k + 1, resp.body);
    assert!(resp.body.contains(&max_k.to_string()), "{}", resp.body);
    let ids = |n: usize| vec!["1"; n].join(",");
    let target = format!("/recommend?video={qid}&exclude={}", ids(max_k));
    let resp = get(addr, &target, TIMEOUT).expect("request succeeds");
    assert_eq!(resp.status, 200, "{} ids: {}", max_k, resp.body);
    let target = format!("/recommend?video={qid}&exclude={}", ids(max_k + 1));
    let resp = get(addr, &target, TIMEOUT).expect("request succeeds");
    assert_eq!(resp.status, 400, "{} ids: {}", max_k + 1, resp.body);
    assert!(resp.body.contains(&max_k.to_string()), "{}", resp.body);

    let resp = post(addr, "/update", "frobnicate 1 2", TIMEOUT).unwrap();
    assert_eq!(resp.status, 400, "unknown verb: {}", resp.body);

    let resp = get(addr, "/nowhere", TIMEOUT).unwrap();
    assert_eq!(resp.status, 404);
    let resp = get(addr, "/recommend?video=999999999", TIMEOUT).unwrap();
    assert_eq!(resp.status, 404, "unknown video: {}", resp.body);

    // Non-HTTP bytes on the socket get a 400, not a hang or a panic.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 400"), "got: {out}");
    }

    // Every refusal above is inside the accounting identity (a worker counts
    // a response after writing it, so the last one may take a moment).
    let m = handle.metrics();
    let count = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::SeqCst);
    let deadline = std::time::Instant::now() + TIMEOUT;
    while count(&m.submitted) != count(&m.served) + count(&m.rejected) + count(&m.deadline_expired)
    {
        assert!(
            std::time::Instant::now() < deadline,
            "a response went uncounted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(count(&m.submitted), 14);

    handle.shutdown();
}

#[test]
fn overload_burst_fast_fails_503_and_accounting_balances() {
    let (community, r) = build_recommender();
    let qid = community.query_videos()[0];
    // One slow worker + a one-slot queue: a burst must overflow admission.
    let handle = start(
        ServeConfig {
            workers: 1,
            admission_capacity: 1,
            synthetic_delay: Duration::from_millis(120),
            ..ServeConfig::default()
        },
        r,
    )
    .expect("server starts");
    let addr = handle.addr();

    let statuses: Vec<u16> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..12)
            .map(|_| {
                s.spawn(move || {
                    get(addr, &format!("/recommend?video={}", qid.0), TIMEOUT)
                        .map(|r| r.status)
                        .unwrap_or(0)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let rejected = statuses.iter().filter(|&&s| s == 503).count();
    assert!(ok >= 1, "statuses: {statuses:?}");
    assert!(rejected >= 1, "burst never overflowed: {statuses:?}");
    for s in &statuses {
        assert!(
            [200, 503].contains(s),
            "unexpected status {s}: {statuses:?}"
        );
    }

    // The accounting identity covers every admitted connection.
    let m = handle.metrics();
    let submitted = m.submitted.load(std::sync::atomic::Ordering::SeqCst);
    let served = m.served.load(std::sync::atomic::Ordering::SeqCst);
    let rejected_m = m.rejected.load(std::sync::atomic::Ordering::SeqCst);
    let expired = m.deadline_expired.load(std::sync::atomic::Ordering::SeqCst);
    assert_eq!(submitted, 12);
    assert_eq!(
        submitted,
        served + rejected_m + expired,
        "served={served} rejected={rejected_m} expired={expired}"
    );
    assert_eq!(rejected_m as usize, rejected);

    handle.shutdown();
}

#[test]
fn past_deadline_requests_get_504_before_scoring() {
    let (community, r) = build_recommender();
    let qid = community.query_videos()[0];
    let handle = start(
        ServeConfig {
            workers: 1,
            synthetic_delay: Duration::from_millis(30),
            ..ServeConfig::default()
        },
        r,
    )
    .expect("server starts");
    let addr = handle.addr();

    let resp = get(
        addr,
        &format!("/recommend?video={}&deadline_ms=1", qid.0),
        TIMEOUT,
    )
    .expect("request succeeds");
    assert_eq!(resp.status, 504, "body: {}", resp.body);

    // A generous deadline on the same server still serves.
    let resp = get(
        addr,
        &format!("/recommend?video={}&deadline_ms=5000", qid.0),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 200);

    let m = handle.metrics();
    assert_eq!(
        m.deadline_expired.load(std::sync::atomic::Ordering::SeqCst),
        1
    );
    handle.shutdown();
}

#[test]
fn updates_apply_and_queries_stay_bit_identical_across_the_swap() {
    let (community, r) = build_recommender();
    let old_reference = r.clone(); // epoch-1 ground truth
    let mut reference = r.clone(); // becomes the epoch-2 ground truth
    let handle = start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        r,
    )
    .expect("server starts");
    let addr = handle.addr();
    let qid = community.query_videos()[0];
    let epoch0 = handle.epoch();
    assert_eq!(epoch0, 1);

    // The update batch: fresh comments, one brand-new video (a copy of an
    // existing series under a new id), and one aging step.
    let existing_users: Vec<String> = community
        .comments
        .iter()
        .take(3)
        .map(|c| c.user.clone())
        .collect();
    let new_id = VideoId(1_000_000);
    let new_video = CorpusVideo {
        id: new_id,
        series: reference.series_of(qid).unwrap().clone(),
        users: existing_users.clone(),
    };
    let mut body = String::new();
    for (i, user) in existing_users.iter().enumerate() {
        body.push_str(&encode_comment(community.videos[i].id, user));
        body.push('\n');
    }
    body.push_str(&encode_ingest(&new_video));
    body.push('\n');
    body.push_str(&encode_age(1));
    body.push('\n');

    // Apply the identical events to the local reference: consecutive
    // comments collapse into one batch, exactly as the wire parser does.
    let updates: Vec<SocialUpdate> = existing_users
        .iter()
        .enumerate()
        .map(|(i, user)| SocialUpdate {
            video: community.videos[i].id,
            user: user.clone(),
        })
        .collect();
    reference.apply_social_updates(&updates);
    reference.add_videos(vec![new_video]).expect("ingest");
    reference.age_social_connections(1);

    // Fire queries concurrently with the update: every response must match
    // the state its epoch names — old corpus for epoch 1, updated for 2.
    let by_epoch: HashMap<u64, &Recommender> = [(1u64, &old_reference), (2u64, &reference)]
        .into_iter()
        .collect();

    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut seen: Vec<(u64, Vec<(u64, u64)>)> = Vec::new();
            for _ in 0..40 {
                let resp = get(
                    addr,
                    &format!("/recommend?video={}&k=5&strategy=csf-sar-h", qid.0),
                    TIMEOUT,
                )
                .expect("request succeeds");
                assert_eq!(resp.status, 200, "{}", resp.body);
                let epoch = json_u64(&resp.body, "epoch").expect("epoch in body");
                seen.push((epoch, parse_results(&resp.body)));
            }
            seen
        });
        let resp = post(addr, "/update", &body, TIMEOUT).expect("update accepted");
        assert_eq!(resp.status, 202, "{}", resp.body);
        assert_eq!(json_u64(&resp.body, "accepted"), Some(3));

        for (epoch, results) in reader.join().unwrap() {
            let expected = by_epoch
                .get(&epoch)
                .unwrap_or_else(|| panic!("response from unexpected epoch {epoch}"));
            assert_eq!(
                results,
                direct(expected, Strategy::CsfSarH, qid, 5, &[]),
                "epoch {epoch} response diverged from its snapshot"
            );
        }
    });

    // Wait for the maintainer to publish, then verify the new video serves.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let resp = get(addr, "/healthz", TIMEOUT).unwrap();
        assert_eq!(resp.status, 200);
        let epoch = json_u64(&resp.body, "epoch").unwrap();
        let videos = json_u64(&resp.body, "videos").unwrap();
        if epoch >= 2 && videos == reference.num_videos() as u64 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "update never applied");
        std::thread::sleep(Duration::from_millis(20));
    }

    let resp = get(addr, &format!("/recommend?video={}&k=5", new_id.0), TIMEOUT)
        .expect("request succeeds");
    assert_eq!(resp.status, 200, "new video not queryable: {}", resp.body);
    assert_eq!(
        parse_results(&resp.body),
        direct(&reference, Strategy::CsfSarH, new_id, 5, &[]),
        "post-update state diverged from the reference"
    );

    let m = handle.metrics();
    assert_eq!(
        m.events_applied.load(std::sync::atomic::Ordering::SeqCst),
        3
    );
    assert_eq!(m.events_failed.load(std::sync::atomic::Ordering::SeqCst), 0);
    handle.shutdown();
}

#[test]
fn trace_ids_resolve_and_tracing_never_changes_results() {
    let (community, r) = build_recommender();
    let traced = start(ServeConfig::default(), r.clone()).expect("traced server starts");
    let untraced = start(
        ServeConfig {
            trace: false,
            ..ServeConfig::default()
        },
        r,
    )
    .expect("untraced server starts");
    let queries: Vec<VideoId> = community.query_videos().into_iter().take(3).collect();

    for &qid in &queries {
        for strategy in ["sr", "csf-sar-h"] {
            let target = format!("/recommend?video={}&k=5&strategy={strategy}", qid.0);
            let on = get(traced.addr(), &target, TIMEOUT).expect("traced request");
            let off = get(untraced.addr(), &target, TIMEOUT).expect("untraced request");
            assert_eq!(on.status, 200, "{}", on.body);
            assert_eq!(off.status, 200, "{}", off.body);
            // Bit-identical scores with tracing on and off.
            assert_eq!(
                parse_results(&on.body),
                parse_results(&off.body),
                "tracing changed results for {target}"
            );
            // The traced response carries a trace id; the untraced does not.
            let id = json_str(&on.body, "trace").expect("traced response echoes a trace id");
            assert_eq!(id.len(), 16, "trace id is 16 hex digits: {id}");
            assert_eq!(json_str(&off.body, "trace"), None);

            // The id resolves to a stage breakdown whose stage sum is
            // bounded by the end-to-end request latency.
            let resp = get(traced.addr(), &format!("/debug/trace/{id}"), TIMEOUT).unwrap();
            assert_eq!(
                resp.status, 200,
                "trace {id} did not resolve: {}",
                resp.body
            );
            assert_eq!(json_str(&resp.body, "trace").as_deref(), Some(id.as_str()));
            let total = json_u64(&resp.body, "total_micros").expect("total_micros");
            let stage_sum = json_u64(&resp.body, "stage_sum_micros").expect("stage_sum_micros");
            assert!(
                stage_sum <= total,
                "stage sum {stage_sum}µs exceeds request latency {total}µs:\n{}",
                resp.body
            );
            let gathered = json_u64(&resp.body, "gathered").unwrap();
            let excluded = json_u64(&resp.body, "excluded").unwrap();
            let scanned = json_u64(&resp.body, "scanned").unwrap();
            let pruned = json_u64(&resp.body, "pruned").unwrap();
            let exact = json_u64(&resp.body, "exact_evals").unwrap();
            assert_eq!(gathered - excluded, scanned, "{}", resp.body);
            assert_eq!(pruned + exact, scanned, "{}", resp.body);
            assert_eq!(json_u64(&resp.body, "epoch"), Some(1));
        }
    }

    // The ring lists the recorded traces, newest first.
    let resp = get(traced.addr(), "/debug/queries?n=4&slow=2", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.starts_with("{\"enabled\":true"), "{}", resp.body);
    let recorded = json_u64(&resp.body, "recorded").unwrap();
    assert_eq!(recorded, (queries.len() * 2) as u64, "{}", resp.body);
    assert!(resp.body.contains("\"slowest\":[{"), "{}", resp.body);

    // Unknown and malformed ids answer 404 and 400.
    let resp = get(traced.addr(), "/debug/trace/00000000deadbeef", TIMEOUT).unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);
    let resp = get(traced.addr(), "/debug/trace/not-hex", TIMEOUT).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);

    // The untraced server's ring stays empty and says so.
    let resp = get(untraced.addr(), "/debug/queries", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.starts_with("{\"enabled\":false"), "{}", resp.body);
    assert_eq!(json_u64(&resp.body, "recorded"), Some(0));

    // Per-stage histograms populated on the traced server only; the
    // accounting identity holds on both.
    for (handle, expect_stage_counts) in [(&traced, true), (&untraced, false)] {
        let page = get(handle.addr(), "/metrics", TIMEOUT).unwrap().body;
        let gather =
            metric_value(&page, "serve_query_stage_micros_count{stage=\"gather\"}").unwrap();
        assert_eq!(gather > 0, expect_stage_counts, "{page}");
        let submitted = metric_value(&page, "serve_requests_submitted_total").unwrap();
        let served = metric_value(&page, "serve_requests_served_total").unwrap();
        let rejected = metric_value(&page, "serve_requests_rejected_total").unwrap();
        let expired = metric_value(&page, "serve_requests_deadline_expired_total").unwrap();
        // The scrape itself is submitted but not yet served when the page
        // renders; it is the only in-flight request here.
        assert_eq!(submitted, served + rejected + expired + 1, "{page}");
    }

    traced.shutdown();
    untraced.shutdown();
}

#[test]
fn update_pipeline_metrics_populate() {
    let (community, r) = build_recommender();
    let handle = start(ServeConfig::default(), r.clone()).expect("server starts");
    let addr = handle.addr();

    let user = community.comments[0].user.clone();
    let new_video = CorpusVideo {
        id: VideoId(2_000_000),
        series: r.series_of(community.query_videos()[0]).unwrap().clone(),
        users: vec![user.clone()],
    };
    let body = format!(
        "{}\n{}\n{}\n",
        encode_comment(community.videos[0].id, &user),
        encode_ingest(&new_video),
        encode_age(1),
    );
    let resp = post(addr, "/update", &body, TIMEOUT).expect("update accepted");
    assert_eq!(resp.status, 202, "{}", resp.body);

    // Wait for the maintainer to drain and publish.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.epoch() < 2 {
        assert!(std::time::Instant::now() < deadline, "update never applied");
        std::thread::sleep(Duration::from_millis(10));
    }

    let page = get(addr, "/metrics", TIMEOUT).unwrap().body;
    for kind in ["comments", "ingest", "age"] {
        let count = metric_value(
            &page,
            &format!("serve_update_apply_micros_count{{kind=\"{kind}\"}}"),
        )
        .unwrap();
        assert_eq!(count, 1, "kind {kind}:\n{page}");
    }
    assert!(metric_value(&page, "serve_update_queue_wait_micros_count").unwrap() >= 1);
    assert!(metric_value(&page, "serve_update_batch_events_count").unwrap() >= 1);
    assert!(metric_value(&page, "serve_snapshot_clone_micros_count").unwrap() >= 1);
    assert!(metric_value(&page, "serve_snapshot_publish_micros_count").unwrap() >= 1);
    // The drained-events histogram saw all three events (possibly split
    // across rounds, so compare sums).
    assert_eq!(
        metric_value(&page, "serve_update_batch_events_sum"),
        Some(3)
    );

    handle.shutdown();
}

#[test]
fn healthz_and_metrics_render() {
    let (_, r) = build_recommender();
    let videos = r.num_videos();
    let handle = start(ServeConfig::default(), r).expect("server starts");
    let addr = handle.addr();

    let resp = get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(json_u64(&resp.body, "epoch"), Some(1));
    assert_eq!(json_u64(&resp.body, "videos"), Some(videos as u64));

    let resp = get(addr, "/metrics", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    for needle in [
        "serve_requests_submitted_total",
        "serve_requests_served_total",
        "serve_requests_rejected_total",
        "serve_requests_deadline_expired_total",
        "serve_snapshot_epoch 1",
        "serve_snapshot_age_micros",
        "serve_admission_queue_depth",
        "serve_update_queue_depth",
        "serve_tracing_enabled 1",
        "serve_query_traces_recorded_total",
        "# TYPE serve_latency_micros summary",
        "serve_latency_micros{endpoint=\"healthz\",quantile=\"0.99\"}",
        "# TYPE serve_query_stage_micros histogram",
        "serve_update_queue_wait_micros_count",
        "serve_update_apply_micros_count{kind=\"comments\"}",
        "serve_snapshot_clone_micros_count",
        "serve_snapshot_publish_micros_count",
    ] {
        assert!(
            resp.body.contains(needle),
            "missing {needle}:\n{}",
            resp.body
        );
    }

    handle.shutdown();
}

// --- persistent connections (HTTP/1.1 keep-alive) ---

fn load(a: &std::sync::atomic::AtomicU64) -> u64 {
    a.load(std::sync::atomic::Ordering::SeqCst)
}

/// Waits until every submitted request is accounted for, then returns the
/// submitted count.
fn settled_submitted(m: &viderec_serve::Metrics) -> u64 {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let submitted = load(&m.submitted);
        if submitted == load(&m.served) + load(&m.rejected) + load(&m.deadline_expired) {
            return submitted;
        }
        assert!(Instant::now() < deadline, "a request went uncounted");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Waits until the server has counted `n` closed connections for `reason`.
fn await_closes(m: &viderec_serve::Metrics, reason: CloseReason, n: u64) {
    let deadline = Instant::now() + TIMEOUT;
    while m.connection_closes(reason) < n {
        assert!(Instant::now() < deadline, "no {reason:?} close counted");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn raw_request(target: &str, extra_headers: &str) -> String {
    format!("GET {target} HTTP/1.1\r\nHost: test\r\n{extra_headers}\r\n")
}

/// Reads one `Content-Length`-framed response off a raw socket:
/// `(status, head, body)`, or `None` at a clean EOF before any byte.
fn read_one(s: &mut TcpStream, buf: &mut Vec<u8>) -> Option<(u16, String, String)> {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = s.read(&mut chunk).expect("read response head");
        if n == 0 {
            assert!(
                buf.is_empty(),
                "EOF mid-head: {:?}",
                String::from_utf8_lossy(buf)
            );
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("UTF-8 head");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("every response carries Content-Length");
    let end = head_end + 4 + len;
    while buf.len() < end {
        let n = s.read(&mut chunk).expect("read response body");
        assert!(n > 0, "EOF mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let status = head[9..12].parse().expect("status code");
    let body = String::from_utf8(buf[head_end + 4..end].to_vec()).expect("UTF-8 body");
    buf.drain(..end);
    Some((status, head, body))
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s
}

#[test]
fn fifty_gets_ride_one_connection_bit_identically() {
    let (community, r) = build_recommender();
    let reference = r.clone();
    let handle = start(ServeConfig::default(), r).expect("server starts");
    let queries: Vec<VideoId> = community.query_videos().into_iter().take(5).collect();
    let mut s = connect(handle.addr());
    let mut buf = Vec::new();
    for i in 0..50 {
        let qid = queries[i % queries.len()];
        let k = 1 + i % 7;
        let target = format!("/recommend?video={}&k={k}&strategy=csf-sar-h", qid.0);
        s.write_all(raw_request(&target, "").as_bytes()).unwrap();
        let (status, head, body) = read_one(&mut s, &mut buf).expect("a response");
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert_eq!(
            parse_results(&body),
            direct(&reference, Strategy::CsfSarH, qid, k, &[]),
            "request {i}"
        );
    }
    let m = handle.metrics();
    assert_eq!(settled_submitted(m), 50);
    assert_eq!(load(&m.connections_accepted), 1);
    // The connection outlives its idle window and the server says why.
    await_closes(m, CloseReason::Idle, 1);
    handle.shutdown();
}

#[test]
fn connection_close_pipelining_and_idle_clients_keep_the_accounting() {
    let (community, r) = build_recommender();
    let handle = start(ServeConfig::default(), r).expect("server starts");
    let addr = handle.addr();
    let m = handle.metrics();
    let qid = community.query_videos()[0].0;

    // `Connection: close` is honoured: the response says so, then EOF.
    let mut s = connect(addr);
    s.write_all(raw_request("/healthz", "Connection: close\r\n").as_bytes())
        .unwrap();
    let mut buf = Vec::new();
    let (status, head, _) = read_one(&mut s, &mut buf).expect("a response");
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    assert!(read_one(&mut s, &mut buf).is_none(), "connection left open");
    await_closes(m, CloseReason::Client, 1);

    // Two requests in one write are answered in order on the kept
    // connection, then a third asks to close.
    let mut s = connect(addr);
    let pipelined =
        raw_request(&format!("/recommend?video={qid}&k=2"), "") + &raw_request("/healthz", "");
    s.write_all(pipelined.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let (status, head, body) = read_one(&mut s, &mut buf).expect("first response");
    assert_eq!(status, 200);
    assert!(head.contains("Connection: keep-alive"), "{head}");
    assert!(body.contains("\"results\":["), "{body}");
    let (status, _, body) = read_one(&mut s, &mut buf).expect("second response");
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"status\":\"ok\""), "{body}");
    s.write_all(raw_request("/healthz", "Connection: close\r\n").as_bytes())
        .unwrap();
    assert_eq!(read_one(&mut s, &mut buf).expect("third response").0, 200);
    assert!(read_one(&mut s, &mut buf).is_none());
    await_closes(m, CloseReason::Client, 2);
    assert_eq!(settled_submitted(m), 4);

    // A fresh connection that leaves before sending a byte is one request
    // answered 499 (nothing written); a kept connection that leaves between
    // requests is no request at all.
    drop(connect(addr));
    await_closes(m, CloseReason::Client, 3);
    assert_eq!(settled_submitted(m), 5);
    assert_eq!(m.endpoint(Endpoint::Other).errors.load(Ordering::SeqCst), 1);
    let mut s = connect(addr);
    s.write_all(raw_request("/healthz", "").as_bytes()).unwrap();
    let mut buf = Vec::new();
    assert_eq!(read_one(&mut s, &mut buf).expect("a response").0, 200);
    drop(s);
    await_closes(m, CloseReason::Client, 4);
    assert_eq!(settled_submitted(m), 6);
    assert_eq!(load(&m.connections_accepted), 4);
    handle.shutdown();
}

#[test]
fn an_idle_connection_is_closed_after_the_keepalive_window_and_frees_its_worker() {
    let (_, r) = build_recommender();
    let handle = start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        r,
    )
    .expect("server starts");
    let addr = handle.addr();
    let mut s = connect(addr);
    s.write_all(raw_request("/healthz", "").as_bytes()).unwrap();
    let mut buf = Vec::new();
    assert_eq!(read_one(&mut s, &mut buf).expect("a response").0, 200);
    let idle_from = Instant::now();
    assert!(read_one(&mut s, &mut buf).is_none(), "closed without EOF");
    let idle = idle_from.elapsed();
    assert!(
        idle >= KEEPALIVE_IDLE - Duration::from_millis(5),
        "closed after {idle:?}, before the idle window"
    );
    assert!(
        idle < KEEPALIVE_IDLE + Duration::from_millis(500),
        "held for {idle:?}"
    );
    // The one worker is free again.
    let resp = get(addr, "/healthz", TIMEOUT).expect("served after the close");
    assert_eq!(resp.status, 200);
    assert_eq!(handle.metrics().connection_closes(CloseReason::Idle), 1);
    handle.shutdown();
}

#[test]
fn a_third_client_is_served_while_both_workers_hold_idle_connections() {
    let (_, r) = build_recommender();
    let handle = start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        r,
    )
    .expect("server starts");
    let addr = handle.addr();
    let held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = connect(addr);
            s.write_all(raw_request("/healthz", "").as_bytes()).unwrap();
            assert_eq!(
                read_one(&mut s, &mut Vec::new()).expect("a response").0,
                200
            );
            s
        })
        .collect();
    let asked = Instant::now();
    let mut s = connect(addr);
    s.write_all(raw_request("/healthz", "").as_bytes()).unwrap();
    assert_eq!(
        read_one(&mut s, &mut Vec::new()).expect("a response").0,
        200
    );
    let waited = asked.elapsed();
    assert!(
        waited < KEEPALIVE_IDLE + Duration::from_millis(50),
        "third client waited {waited:?}"
    );
    drop(held);
    handle.shutdown();
}

#[test]
fn an_update_posted_on_a_kept_connection_applies_exactly_once() {
    let (community, r) = build_recommender();
    let qid = community.query_videos()[0];
    let new_video = CorpusVideo {
        id: VideoId(3_000_000),
        series: r.series_of(qid).unwrap().clone(),
        users: vec![community.comments[0].user.clone()],
    };
    let handle = start(ServeConfig::default(), r).expect("server starts");
    let addr = handle.addr();
    // Warm the connection, then post on it: a re-sent ingest would fail.
    let mut s = connect(addr);
    let mut buf = Vec::new();
    s.write_all(raw_request("/healthz", "").as_bytes()).unwrap();
    assert_eq!(read_one(&mut s, &mut buf).expect("a response").0, 200);
    let body = encode_ingest(&new_video);
    let post = format!(
        "POST /update HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(post.as_bytes()).unwrap();
    let (status, head, body) = read_one(&mut s, &mut buf).expect("a response");
    assert_eq!(status, 202, "{body}");
    assert!(head.contains("Connection: keep-alive"), "{head}");
    let deadline = Instant::now() + TIMEOUT;
    while handle.epoch() < 2 {
        assert!(Instant::now() < deadline, "update never applied");
        std::thread::sleep(Duration::from_millis(5));
    }
    let m = handle.metrics();
    assert_eq!(
        load(&m.connections_accepted),
        1,
        "the post rode the kept connection"
    );
    assert_eq!(load(&m.updates_enqueued), 1);
    assert_eq!(load(&m.events_applied), 1);
    assert_eq!(load(&m.events_failed), 0);
    let resp = get(
        addr,
        &format!("/recommend?video={}", new_video.id.0),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    handle.shutdown();
}

#[test]
fn shutdown_with_idle_kept_connections_returns_within_the_idle_window() {
    let (_, r) = build_recommender();
    let handle = start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        r,
    )
    .expect("server starts");
    let addr = handle.addr();
    let held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = connect(addr);
            s.write_all(raw_request("/healthz", "").as_bytes()).unwrap();
            assert_eq!(
                read_one(&mut s, &mut Vec::new()).expect("a response").0,
                200
            );
            s
        })
        .collect();
    let asked = Instant::now();
    handle.shutdown();
    let took = asked.elapsed();
    assert!(
        took < KEEPALIVE_IDLE + Duration::from_millis(400),
        "shutdown took {took:?}"
    );
    drop(held);
}

/// How a mutated stream ends after its valid prefix.
#[derive(Debug, Clone)]
enum Tail {
    /// Nothing: the client half-closes between requests.
    Clean,
    /// The first `cut` bytes of one more valid request.
    Truncated(usize),
    /// A head past the 16 KiB cap.
    OversizedHead(usize),
    /// A `Content-Length` the server must refuse.
    BadLength(&'static str),
    /// Arbitrary bytes.
    Garbage(Vec<u8>),
}

const BAD_LENGTHS: [&str; 6] = ["-1", "x", "1e3", "4194305", "99999999999999999999", "3, 4"];

fn tail_strategy() -> impl PropStrategy<Value = Tail> {
    (
        0usize..5,
        1usize..60,
        16 * 1024usize..20 * 1024,
        0..BAD_LENGTHS.len(),
        prop::collection::vec(0u8..=255, 1..200),
    )
        .prop_map(|(kind, cut, pad, bad, garbage)| match kind {
            0 => Tail::Clean,
            1 => Tail::Truncated(cut),
            2 => Tail::OversizedHead(pad),
            3 => Tail::BadLength(BAD_LENGTHS[bad]),
            _ => Tail::Garbage(garbage),
        })
}

/// One valid request of the mix and a marker its answer's body carries.
fn valid_request(i: usize, qid: u64) -> (Vec<u8>, &'static str) {
    match i % 3 {
        0 => (
            raw_request("/healthz", "").into_bytes(),
            "\"status\":\"ok\"",
        ),
        1 => (
            raw_request(&format!("/recommend?video={qid}&k=3"), "").into_bytes(),
            "\"results\":[",
        ),
        _ => (
            b"POST /update HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec(),
            "\"accepted\":0",
        ),
    }
}

#[test]
fn a_mutated_request_stream_gets_its_valid_prefix_answered_then_a_400_or_a_close() {
    let (community, r) = build_recommender();
    let qid = community.query_videos()[0].0;
    let handle = start(ServeConfig::default(), r).expect("server starts");
    let addr = handle.addr();
    // One server across every case, so the loop draws the cases itself.
    let cases = (
        prop::collection::vec(0usize..3, 0..4),
        tail_strategy(),
        prop::collection::vec(1usize..64, 1..64),
        0u8..2,
    );
    let mut rng = proptest::test_rng("serve_e2e::mutated_request_stream");
    for case in 0..48 {
        let (kinds, tail, cuts, bytewise) = PropStrategy::generate(&cases, &mut rng);
        let mut stream = Vec::new();
        let mut markers = Vec::new();
        for &k in &kinds {
            let (bytes, marker) = valid_request(k, qid);
            stream.extend_from_slice(&bytes);
            markers.push(marker);
        }
        match &tail {
            Tail::Clean => {}
            Tail::Truncated(cut) => {
                let (next, _) = valid_request(1, qid);
                stream.extend_from_slice(&next[..(*cut).min(next.len() - 1)]);
            }
            Tail::OversizedHead(len) => {
                stream.extend_from_slice(b"GET /healthz HTTP/1.1\r\nX-Pad: ");
                stream.extend(std::iter::repeat_n(b'a', *len));
                stream.extend_from_slice(b"\r\n\r\n");
            }
            Tail::BadLength(v) => stream.extend_from_slice(
                format!("POST /update HTTP/1.1\r\nContent-Length: {v}\r\n\r\n").as_bytes(),
            ),
            Tail::Garbage(bytes) => stream.extend_from_slice(bytes),
        }

        // Feed it split at random boundaries (one byte at a time when
        // short), then half-close and read everything the server says.
        let mut s = connect(addr);
        s.set_nodelay(true).unwrap();
        let (mut at, mut i) = (0, 0);
        while at < stream.len() {
            let step = if bytewise == 1 && stream.len() < 2048 {
                1
            } else {
                cuts[i % cuts.len()]
            };
            let end = (at + step).min(stream.len());
            if s.write_all(&stream[at..end]).is_err() {
                break; // the server refused and closed; what it said is read below
            }
            std::thread::yield_now();
            (at, i) = (end, i + 1);
        }
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut buf = Vec::new();
        for (n, marker) in markers.iter().enumerate() {
            let (status, _, body) = read_one(&mut s, &mut buf)
                .unwrap_or_else(|| panic!("case {case}: valid request {n} unanswered ({tail:?})"));
            assert!(
                status == 200 || status == 202,
                "case {case}: request {n}: {status} {body}"
            );
            assert!(body.contains(marker), "case {case}: request {n}: {body}");
        }
        if let Some((status, _, body)) = read_one(&mut s, &mut buf) {
            assert_eq!(status, 400, "case {case} ({tail:?}): {body}");
            assert!(
                read_one(&mut s, &mut buf).is_none(),
                "case {case}: answers after the 400"
            );
        }
    }

    // Nothing panicked and nothing leaked: a later client is served, and
    // every request is accounted for.
    let resp = get(addr, "/healthz", TIMEOUT).expect("served after the mutations");
    assert_eq!(resp.status, 200);
    let m = handle.metrics();
    settled_submitted(m);
    handle.shutdown();
}
