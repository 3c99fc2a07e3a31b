//! Scale bench for the index-gated retrieval path (DESIGN.md §11).
//!
//! Builds streamed corpora at 1k / 10k / 100k videos, then measures per
//! strategy and scale:
//!
//! * certified-exact gated latency (ms/query) and the scanned/corpus ratio;
//! * bit-identity of the certified gated top-k against the naive full scan;
//! * the write path after the queries: one 8-comment batch, one
//!   single-video ingest and one `age 1` on the same recommender, each with
//!   its wall time and Fig. 5's decisions (`merges`, `splits`,
//!   `videos_rewritten` — seed-deterministic, so `bench_diff --quick` gates
//!   them to the unit);
//! * the durable boot of the same corpus: one `start_durable` bootstrap into
//!   a fresh scratch dir (`durable_boot_ms`: encode, build, snapshot write
//!   and fsync) and one `recover` from it (`recover_ms`: read, CRC, decode,
//!   build), and the snapshot's size (`snapshot_bytes` — seed-deterministic,
//!   so `bench_diff --quick` fails on any drift of the on-disk format).
//!
//! Writes `BENCH_scale.json` and **fails** (exit 1) when a lock-down
//! regression trips: certified results diverging from the naive scan, a
//! scanned/corpus ratio above 0.2 at 10k+ videos, or (full mode only)
//! super-linear latency growth from 10k to 100k.
//!
//! ```sh
//! cargo run --release -p viderec-bench --bin scale            # 1k/10k/100k
//! cargo run --release -p viderec-bench --bin scale -- --quick # 1k/10k
//! ```
//!
//! Knobs (environment variables):
//!
//! | var | default | meaning |
//! |---|---|---|
//! | `SCALE_QUERIES` | 6 | query videos per corpus point |
//! | `SCALE_K` | 20 | top-k per query |
//! | `SCALE_OUT` | BENCH_scale.json | output path |

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;
use viderec_core::{
    QueryVideo, Recommender, RecommenderConfig, RetrievalMode, Scored, SocialUpdate, Strategy,
    Tracer, UpdateEvent,
};
use viderec_eval::{StreamConfig, StreamingCommunity};
use viderec_serve::durability::recover;
use viderec_serve::{start_durable, DurabilityConfig, ServeConfig};

const SEED: u64 = 0x5CA1E;

const STRATEGIES: [Strategy; 5] = [
    Strategy::Cr,
    Strategy::Sr,
    Strategy::Csf,
    Strategy::CsfSar,
    Strategy::CsfSarH,
];

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct StrategyRow {
    label: &'static str,
    ms_per_query: f64,
    scanned_ratio: f64,
    naive_identical: bool,
}

/// One write-path event applied after the query phase.
struct WriteRow {
    event: &'static str,
    apply_ms: f64,
    merges: usize,
    splits: usize,
    videos_rewritten: usize,
}

/// The durable boot of a point's corpus.
struct DurableRow {
    snapshot_bytes: u64,
    durable_boot_ms: f64,
    recover_ms: f64,
}

struct Point {
    videos: usize,
    users: usize,
    k_subcommunities: usize,
    build_ms: u128,
    rows: Vec<StrategyRow>,
    writes: Vec<WriteRow>,
    durable: DurableRow,
}

impl Point {
    fn mean_ms(&self) -> f64 {
        self.rows.iter().map(|r| r.ms_per_query).sum::<f64>() / self.rows.len() as f64
    }

    fn max_ratio(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.scanned_ratio)
            .fold(0.0, f64::max)
    }
}

fn run_point(videos: usize, queries_n: usize, k: usize) -> Point {
    let stream = StreamingCommunity::new(StreamConfig::at_scale(videos, SEED));
    let users = stream.config().users;
    // Sub-communities scale with the corpus (the paper's k = 60 was tuned
    // for their crawl; on streamed corpora it leaves giant merged
    // communities whose posting lists defeat the gather).
    let k_subcommunities = videos / 2;
    let cfg = RecommenderConfig {
        k_subcommunities,
        ..Default::default()
    }
    .with_retrieval(RetrievalMode::GatedCertified);

    let t0 = Instant::now();
    let mut rec = Recommender::build(cfg.clone(), stream.materialize()).expect("build");
    let build_ms = t0.elapsed().as_millis();
    eprintln!("[scale] {videos} videos: built in {build_ms} ms");

    let queries: Vec<QueryVideo> = stream
        .query_ids(queries_n)
        .into_iter()
        .map(|id| QueryVideo {
            series: rec.series_of(id).expect("indexed").clone(),
            users: rec.users_of(id).expect("indexed").to_vec(),
        })
        .collect();

    // The naive full scan is the reference of the bit-identity check.
    let naive: Vec<Vec<Vec<Scored>>> = STRATEGIES
        .iter()
        .map(|&s| {
            queries
                .iter()
                .map(|q| rec.recommend_naive_excluding(s, q, k, &[]))
                .collect()
        })
        .collect();

    let mut rows = Vec::new();
    for (si, &strategy) in STRATEGIES.iter().enumerate() {
        let mut scanned = 0u64;
        let mut corpus = 0u64;
        let mut identical = true;
        let t0 = Instant::now();
        let exact: Vec<Vec<Scored>> = queries
            .iter()
            .map(|q| {
                let (top, trace) = rec.recommend_traced(strategy, q, k, &[], Tracer::OFF);
                scanned += trace.stats.scanned;
                corpus += trace.corpus;
                top
            })
            .collect();
        let exact_ms = t0.elapsed().as_secs_f64() * 1e3;
        for (qi, top) in exact.iter().enumerate() {
            if top != &naive[si][qi] {
                identical = false;
                eprintln!(
                    "[scale] DIVERGENCE: {} at {videos} videos query {qi}",
                    strategy.label()
                );
            }
        }

        rows.push(StrategyRow {
            label: strategy.label(),
            ms_per_query: exact_ms / queries.len() as f64,
            scanned_ratio: scanned as f64 / corpus as f64,
            naive_identical: identical,
        });
    }

    let writes = write_path(&mut rec, &stream);
    drop(rec);
    let durable = durable_boot(&stream, &cfg);
    Point {
        videos,
        users,
        k_subcommunities,
        build_ms,
        rows,
        writes,
        durable,
    }
}

/// Removes `dir` and everything in it, if it exists.
fn clear(dir: &Path) {
    // viderec-lint: allow(durable-writes) — the bench's own scratch data
    // dir, emptied before its bootstrap and removed after its recovery.
    let _ = std::fs::remove_dir_all(dir);
}

/// Boots a durable server on the stream's corpus in a fresh scratch dir,
/// stops it, then recovers a recommender from what it wrote; times both and
/// sizes the seed snapshot.
fn durable_boot(stream: &StreamingCommunity, cfg: &RecommenderConfig) -> DurableRow {
    let videos = stream.num_videos();
    let dir = std::env::temp_dir().join(format!("viderec-scale-{}-{videos}", std::process::id()));
    clear(&dir);
    let dur = DurabilityConfig::new(&dir);
    let corpus = stream.materialize();
    let t0 = Instant::now();
    let (handle, report) = start_durable(ServeConfig::default(), dur.clone(), cfg.clone(), corpus)
        .expect("durable bootstrap");
    let durable_boot_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(report.bootstrapped, "the scratch dir was not fresh");
    handle.shutdown();
    let snapshot_bytes = std::fs::read_dir(&dir)
        .expect("scratch dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum();
    let t0 = Instant::now();
    let (recovered, _, report) = recover(&dur, cfg.clone(), Vec::new()).expect("recovery");
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(recovered.num_videos(), videos);
    assert!(!report.bootstrapped);
    drop(recovered);
    clear(&dir);
    eprintln!(
        "[scale] {videos} videos: durable boot in {durable_boot_ms:.1} ms \
         ({snapshot_bytes} snapshot bytes), recovered in {recover_ms:.1} ms"
    );
    DurableRow {
        snapshot_bytes,
        durable_boot_ms,
        recover_ms,
    }
}

/// Applies one 8-comment batch, one single-video ingest and one `age 1` to
/// `rec`, timing each. The comments put the first user the stream lists on
/// each of eight spread videos on the next one — taken from the stream, not
/// from the index, so the batch is the same whatever order the index lists
/// users in; the ingested video is the one a stream a video longer would
/// have generated next.
fn write_path(rec: &mut Recommender, stream: &StreamingCommunity) -> Vec<WriteRow> {
    let videos = stream.num_videos();
    let spread = stream.query_ids(8);
    let comments = (0..spread.len())
        .map(|j| SocialUpdate {
            video: spread[j],
            user: stream
                .video(spread[(j + 1) % spread.len()].0 as usize)
                .users[0]
                .clone(),
        })
        .collect();
    let next = StreamingCommunity::new(StreamConfig::at_scale(videos + 1, SEED)).video(videos);
    let events = [
        ("comments", UpdateEvent::Comments(comments)),
        ("ingest", UpdateEvent::Ingest(vec![next])),
        ("age", UpdateEvent::Age(1)),
    ];
    events
        .into_iter()
        .map(|(event, update)| {
            let t0 = Instant::now();
            let summary = rec.apply_event(update).expect("a fresh video id");
            let row = WriteRow {
                event,
                apply_ms: t0.elapsed().as_secs_f64() * 1e3,
                merges: summary.report.merges.len(),
                splits: summary.report.splits,
                videos_rewritten: summary.videos_rewritten,
            };
            eprintln!(
                "[scale] {videos} videos: {event} in {:.3} ms ({} merges, {} splits, {} videos rewritten)",
                row.apply_ms, row.merges, row.splits, row.videos_rewritten
            );
            row
        })
        .collect()
}

fn render(points: &[Point], quick: bool, queries: usize, k: usize) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n\"bench\": \"scale\",\n");
    out.push_str(
        "\"description\": \"Index-gated retrieval at scale: certified-exact gated latency \
         and scanned/corpus ratio per strategy on streamed corpora, with bit-identity \
         against the naive full scan; the LSB forest's distinct keys and \
         stored pairs after the build; then one 8-comment batch, one \
         single-video ingest and one age 1 on the same recommender, timed, with Fig. 5's merges, splits and videos rewritten; \
         then a durable bootstrap of the same corpus into a fresh data dir and \
         a recovery from it, timed, with the seed snapshot's size.\",\n",
    );
    out.push_str("\"command\": \"cargo run --release -p viderec-bench --bin scale\",\n");
    let _ = writeln!(
        out,
        "\"quick\": {quick},\n\"seed\": {SEED},\n\"queries_per_point\": {queries},\n\"top_k\": {k},\n\"points\": ["
    );
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"videos\": {}, \"users\": {}, \"k_subcommunities\": {}, \"build_ms\": {}, \
             \"mean_ms_per_query\": {:.3}, \"max_scanned_ratio\": {:.4}, \
             \"strategies\": {{",
            p.videos,
            p.users,
            p.k_subcommunities,
            p.build_ms,
            p.mean_ms(),
            p.max_ratio(),
        );
        for (j, r) in p.rows.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"ms_per_query\": {:.3}, \"scanned_ratio\": {:.4}, \
                 \"naive_identical\": {}}}",
                r.label, r.ms_per_query, r.scanned_ratio, r.naive_identical
            );
        }
        out.push_str("}, \"write_path\": {");
        for (j, w) in p.writes.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"apply_ms\": {:.3}, \"merges\": {}, \"splits\": {}, \
                 \"videos_rewritten\": {}}}",
                w.event, w.apply_ms, w.merges, w.splits, w.videos_rewritten
            );
        }
        let d = &p.durable;
        let _ = write!(
            out,
            "}}, \"durable\": {{\"snapshot_bytes\": {}, \"durable_boot_ms\": {:.3}, \
             \"recover_ms\": {:.3}}}}}",
            d.snapshot_bytes, d.durable_boot_ms, d.recover_ms
        );
    }
    out.push_str("\n]\n}\n");
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let queries: usize = env_or("SCALE_QUERIES", 6);
    let k: usize = env_or("SCALE_K", 20);
    let out_path: String = env_or("SCALE_OUT", "BENCH_scale.json".to_string());
    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };

    let points: Vec<Point> = sizes.iter().map(|&v| run_point(v, queries, k)).collect();

    let json = render(&points, quick, queries, k);
    // viderec-lint: allow(durable-writes) — benchmark report artifact, not
    // durable serving state; loss on crash only means re-running the bench.
    std::fs::write(&out_path, &json).expect("write BENCH_scale.json");
    println!("{json}");

    // Lock-down gates: fail loudly on any regression.
    let mut failed = false;
    for p in &points {
        for r in &p.rows {
            if !r.naive_identical {
                eprintln!(
                    "[scale] FAIL: {} at {} videos is not bit-identical to the naive scan",
                    r.label, p.videos
                );
                failed = true;
            }
        }
        if p.videos >= 10_000 && p.max_ratio() > 0.2 {
            eprintln!(
                "[scale] FAIL: scanned/corpus ratio {:.4} exceeds 0.2 at {} videos",
                p.max_ratio(),
                p.videos
            );
            failed = true;
        }
    }
    if !quick {
        let ms_10k = points
            .iter()
            .find(|p| p.videos == 10_000)
            .map(Point::mean_ms);
        let ms_100k = points
            .iter()
            .find(|p| p.videos == 100_000)
            .map(Point::mean_ms);
        if let (Some(a), Some(b)) = (ms_10k, ms_100k) {
            if b >= 10.0 * a {
                eprintln!(
                    "[scale] FAIL: latency grew {:.1}x from 10k to 100k (>= 10x is linear-or-worse)",
                    b / a
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("[scale] all gates passed");
}
