//! Graceful-shutdown durability: a clean restart must lose **no**
//! acknowledged `/update` event, under every fsync policy (`off`, `batch`,
//! `interval:25`).
//!
//! The ordering under test is the maintainer's exit path: flush + fsync the
//! WAL tail *first*, then publish the final snapshot — so everything the
//! server acknowledged is on disk by the time `shutdown()` returns, whatever
//! the fsync policy deferred while running.

use std::net::SocketAddr;
use std::time::Duration;

use viderec::core::{Recommender, RecommenderConfig, Strategy};
use viderec::eval::community::{Community, CommunityConfig};
use viderec::video::VideoId;
use viderec_serve::client::{get, json_u64, post};
use viderec_serve::wire::{encode_comment, parse_update_body};
use viderec_serve::{start_durable, DurabilityConfig, FsyncPolicy, ServeConfig};

const TIMEOUT: Duration = Duration::from_secs(10);

/// Comment events each run acknowledges before its restart.
const UPDATES: usize = 9;

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

/// `serve_wal_fsyncs_total` off a `/metrics` page.
fn wal_fsyncs(addr: SocketAddr) -> u64 {
    let resp = get(addr, "/metrics", TIMEOUT).expect("metrics");
    assert_eq!(resp.status, 200, "{}", resp.body);
    resp.body
        .lines()
        .find_map(|line| line.strip_prefix("serve_wal_fsyncs_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("serve_wal_fsyncs_total on the metrics page")
}

#[test]
fn clean_restart_loses_no_acknowledged_event_even_with_fsync_off() {
    // Nothing is fsynced while running; shutdown must still land everything.
    let fsyncs = restart_round_trip(FsyncPolicy::Off);
    assert_eq!(fsyncs, 0, "fsync=off fsynced on the update path");
}

#[test]
fn clean_restart_loses_no_acknowledged_event_with_fsync_batch() {
    // One fsync per acknowledged batch: each POST below is its own batch.
    let fsyncs = restart_round_trip(FsyncPolicy::Batch);
    assert_eq!(fsyncs, UPDATES as u64, "fsync=batch skipped a batch");
}

#[test]
fn clean_restart_loses_no_acknowledged_event_with_fsync_interval() {
    // At most one fsync per batch, and one once the interval has passed.
    let fsyncs = restart_round_trip(FsyncPolicy::Interval(Duration::from_millis(25)));
    assert!(
        (1..=UPDATES as u64).contains(&fsyncs),
        "{fsyncs} fsyncs for {UPDATES} batches"
    );
}

/// Boots a durable server under `policy`, acknowledges [`UPDATES`] comment
/// events one batch at a time, shuts down, recovers, and checks that every
/// acknowledged event is back and the recovered server answers bit for bit
/// as `build` + replay. Returns the `serve_wal_fsyncs_total` the first run
/// reached before its shutdown.
fn restart_round_trip(policy: FsyncPolicy) -> u64 {
    let community = Community::generate(CommunityConfig::tiny(0xFEED));
    let dir = std::env::temp_dir().join(format!(
        "viderec_restart_{}_{}",
        std::process::id(),
        policy.label().replace(':', "_")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let mut dur = DurabilityConfig::new(&dir);
    dur.fsync = policy;
    let cfg = RecommenderConfig::default();

    // --- Run 1: bootstrap, ack a batch of comment events, shut down. ---
    let (handle, report) = start_durable(
        ServeConfig::default(),
        dur.clone(),
        cfg.clone(),
        community.source_corpus(),
    )
    .expect("first start");
    assert!(report.bootstrapped);
    assert_eq!(report.recovered_lsn, 0);

    let bodies: Vec<String> = (0..UPDATES)
        .map(|i| {
            encode_comment(
                community.videos[i % community.videos.len()].id,
                &community.comments[(i * 5) % community.comments.len()].user,
            )
        })
        .collect();
    for (i, body) in bodies.iter().enumerate() {
        if i + 1 == UPDATES {
            // Past the 25 ms interval, so `interval:25` fsyncs at least once.
            std::thread::sleep(Duration::from_millis(30));
        }
        let resp = post(handle.addr(), "/update", body, TIMEOUT).expect("update");
        assert_eq!(resp.status, 202, "{}", resp.body);
        assert_eq!(json_u64(&resp.body, "durable_lsn"), Some(i as u64 + 1));
    }
    let fsyncs = wal_fsyncs(handle.addr());
    eprintln!("fsync={}: serve_wal_fsyncs_total {fsyncs}", policy.label());
    handle.shutdown();

    // --- Run 2: recover; every acknowledged event must be back. ---
    let (handle, report) = start_durable(
        ServeConfig::default(),
        dur,
        cfg.clone(),
        community.source_corpus(),
    )
    .expect("second start");
    assert!(!report.bootstrapped);
    assert_eq!(
        report.recovered_lsn,
        bodies.len() as u64,
        "clean shutdown lost acknowledged events: {report:?}"
    );
    assert!(report.torn.is_none(), "clean log has no torn tail");

    // Bit-identical to an uninterrupted reference applying the same events.
    let mut reference =
        Recommender::build(cfg, community.source_corpus()).expect("reference build");
    for body in &bodies {
        for event in parse_update_body(body).expect("valid body") {
            let _ = reference.apply_event(event);
        }
    }
    let queries: Vec<VideoId> = community.query_videos().into_iter().take(3).collect();
    for &qid in &queries {
        for (label, strategy) in [("sr", Strategy::Sr), ("csf-sar-h", Strategy::CsfSarH)] {
            let target = format!("/recommend?video={}&k=5&strategy={label}", qid.0);
            let resp = get(handle.addr(), &target, TIMEOUT).expect("request");
            assert_eq!(resp.status, 200, "{}", resp.body);
            let q = reference.query_for(qid).expect("query indexed");
            let expected: Vec<(u64, u64)> = reference
                .recommend_excluding(strategy, &q, 5, &[qid])
                .into_iter()
                .map(|s| (s.video.0, s.score.to_bits()))
                .collect();
            assert_eq!(
                parse_results(&resp.body),
                expected,
                "{label} diverged after clean restart under fsync={}",
                policy.label()
            );
        }
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    fsyncs
}
