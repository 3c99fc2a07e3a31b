//! On-disk compatibility: a data dir written by an earlier build of the
//! durability layer still recovers, and today's code writes the same bytes.
//!
//! `tests/fixtures/durable-v1/` holds what `durability::recover` (fresh-dir
//! bootstrap) and one `DurableLog::append_batch` wrote for [`corpus`] and
//! [`events`] below, before the wire encoder, the CRC and the snapshot
//! writer were rewritten for speed: the LSN-0 boot snapshot and one WAL
//! segment holding a comments batch, an ingest and an `age 1`. The test
//!
//! * parses both files by their documented layout (snapshot header, record
//!   frames) and decodes every section with today's codec back to exactly
//!   [`corpus`] and [`events`], re-encoding each to the same bytes;
//! * recovers a copy of the dir and checks every strategy's top-k against
//!   `build` + replay, bit for bit;
//! * writes the same inputs into a fresh dir and compares both files byte
//!   for byte with the fixture.

use std::path::{Path, PathBuf};

use viderec::core::{
    CorpusVideo, QueryVideo, Recommender, RecommenderConfig, SocialUpdate, Strategy, UpdateEvent,
};
use viderec::signature::{Cuboid, CuboidSignature, SignatureSeries};
use viderec::video::VideoId;
use viderec_serve::durability::{decode_event, encode_event, recover};
use viderec_serve::wire::{encode_ingest, parse_update_body};
use viderec_serve::{DurabilityConfig, Metrics};

const FIXTURE: &str = "tests/fixtures/durable-v1";
const SNAPSHOT: &str = "snap-00000000000000000000.snap";
const SEGMENT: &str = "wal-00000000000000000001.seg";
/// Snapshot header: magic, covered LSN, corpus length, events length, CRC.
const SNAPSHOT_HEADER: usize = 8 + 8 + 8 + 8 + 4;
/// Record frame header: payload length, CRC, LSN.
const FRAME_HEADER: usize = 4 + 4 + 8;
const USERS: [&str; 12] = [
    "ann", "bob", "cat", "dan", "eve", "fay", "gus", "hal", "ivy", "jon", "kim", "lea",
];

fn cfg() -> RecommenderConfig {
    RecommenderConfig {
        k_subcommunities: 4,
        ..Default::default()
    }
}

/// xorshift64: the fixture's only source of variety, so the corpus is
/// pinned by this file alone.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `sigs` signatures of 1–4 cuboids: values spread over [-2, 2) with full
/// mantissas, plus `-0.0` and the smallest subnormal where `special` says,
/// weights positive and normalised to unit mass.
fn series(state: &mut u64, sigs: usize, special: Option<f64>) -> SignatureSeries {
    let signatures = (0..sigs)
        .map(|s| {
            let n = 1 + (next(state) % 4) as usize;
            let raw: Vec<f64> = (0..n)
                .map(|_| 0.05 + (next(state) >> 11) as f64 / (1u64 << 53) as f64)
                .collect();
            let total: f64 = raw.iter().sum();
            CuboidSignature::new(
                raw.iter()
                    .enumerate()
                    .map(|(c, w)| Cuboid {
                        value: match special {
                            Some(v) if s == 0 && c == 0 => v,
                            _ => (next(state) >> 11) as f64 / (1u64 << 51) as f64 - 2.0,
                        },
                        weight: w / total,
                    })
                    .collect(),
            )
        })
        .collect();
    SignatureSeries::new(signatures)
}

/// The boot corpus: 20 videos, ids not contiguous, 0–4 users each (video
/// 11 has none), 1–3 signatures each.
fn corpus() -> Vec<CorpusVideo> {
    let mut state = 0x5EED_F1C7_u64;
    (0..20)
        .map(|i| {
            let special = match i {
                3 => Some(-0.0),
                5 => Some(f64::from_bits(1)),
                _ => None,
            };
            let users = if i == 11 {
                Vec::new()
            } else {
                (0..2 + i % 3)
                    .map(|j| USERS[(i + 5 * j) % USERS.len()].to_string())
                    .collect()
            };
            CorpusVideo {
                id: VideoId(100 + 7 * i as u64),
                series: series(&mut state, 1 + i % 3, special),
                users,
            }
        })
        .collect()
}

/// The logged events: a comments batch (one new user whose name holds a
/// space), one ingest, one aging.
fn events() -> Vec<UpdateEvent> {
    let mut state = 0xA9E_u64;
    let comment = |video: u64, user: &str| SocialUpdate {
        video: VideoId(video),
        user: user.to_string(),
    };
    vec![
        UpdateEvent::Comments(vec![
            comment(114, "ann"),
            comment(135, "new user zed"),
            comment(163, "bob"),
        ]),
        UpdateEvent::Ingest(vec![CorpusVideo {
            id: VideoId(999),
            series: series(&mut state, 2, None),
            users: vec!["cat".into(), "dan".into()],
        }]),
        UpdateEvent::Age(1),
    ]
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("viderec_fixture_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
}

#[test]
fn fixture_sections_decode_to_their_inputs_and_re_encode_to_their_bytes() {
    let fixture = Path::new(FIXTURE);
    let snap = read(fixture, SNAPSHOT);
    assert_eq!(&snap[..8], b"VRECSNP1");
    assert_eq!(le_u64(&snap, 8), 0, "boot snapshot covers lsn 0");
    let corpus_len = le_u64(&snap, 16) as usize;
    assert_eq!(le_u64(&snap, 24), 0, "boot snapshot has no events");
    assert_eq!(snap.len(), SNAPSHOT_HEADER + corpus_len);
    let section = std::str::from_utf8(&snap[SNAPSHOT_HEADER..]).expect("corpus is text");

    // The corpus section: a header comment, then one ingest line a video.
    let (first, lines) = section.split_once('\n').expect("header line");
    assert!(first.starts_with('#'));
    let want = corpus();
    let mut decoded = Vec::new();
    for event in parse_update_body(lines).expect("corpus section parses") {
        match event {
            UpdateEvent::Ingest(mut videos) => decoded.append(&mut videos),
            other => panic!("corpus section holds {other:?}"),
        }
    }
    assert_eq!(format!("{decoded:?}"), format!("{want:?}"));
    let reencoded: String = decoded.iter().map(|v| encode_ingest(v) + "\n").collect();
    assert_eq!(reencoded, lines);

    // The segment: three frames, LSNs 1..=3, one event each.
    let seg = read(fixture, SEGMENT);
    let mut at = 0;
    let mut payloads = Vec::new();
    while at < seg.len() {
        let len = le_u32(&seg, at) as usize;
        assert_eq!(le_u64(&seg, at + 8), payloads.len() as u64 + 1);
        payloads.push(&seg[at + FRAME_HEADER..at + FRAME_HEADER + len]);
        at += FRAME_HEADER + len;
    }
    let want = events();
    assert_eq!(payloads.len(), want.len());
    for (payload, event) in payloads.iter().zip(&want) {
        let decoded = decode_event(payload).expect("record decodes");
        assert_eq!(format!("{decoded:?}"), format!("{event:?}"));
        assert_eq!(encode_event(&decoded).as_bytes(), *payload);
    }
}

#[test]
fn fixture_recovers_to_build_plus_replay() {
    let dir = scratch("recover");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for file in [SNAPSHOT, SEGMENT] {
        std::fs::copy(Path::new(FIXTURE).join(file), dir.join(file)).expect("copy fixture");
    }
    let (recovered, _, report) =
        recover(&DurabilityConfig::new(&dir), cfg(), Vec::new()).expect("fixture recovers");
    assert!(!report.bootstrapped);
    assert_eq!(
        (
            report.snapshot_lsn,
            report.tail_events,
            report.recovered_lsn
        ),
        (0, 3, 3)
    );
    assert!(report.torn.is_none());

    let mut reference = Recommender::build(cfg(), corpus()).expect("reference build");
    for event in events() {
        reference.apply_event(event).expect("event applies");
    }
    let ids: Vec<VideoId> = corpus()
        .iter()
        .map(|v| v.id)
        .chain([VideoId(999)])
        .collect();
    for strategy in [
        Strategy::Cr,
        Strategy::Sr,
        Strategy::Csf,
        Strategy::CsfSar,
        Strategy::CsfSarH,
    ] {
        for &id in &ids {
            let q: QueryVideo = reference.query_for(id).expect("indexed");
            let bits = |r: &Recommender| -> Vec<(u64, u64)> {
                r.recommend_excluding(strategy, &q, 5, &[id])
                    .iter()
                    .map(|s| (s.video.0, s.score.to_bits()))
                    .collect()
            };
            assert_eq!(
                bits(&recovered),
                bits(&reference),
                "{} from video {}",
                strategy.label(),
                id.0
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn todays_writer_reproduces_the_fixture_bytes() {
    let dir = scratch("rewrite");
    let (_, mut log, report) =
        recover(&DurabilityConfig::new(&dir), cfg(), corpus()).expect("fresh dir bootstraps");
    assert!(report.bootstrapped);
    let last = log
        .append_batch(&events(), &Metrics::default())
        .expect("events log");
    assert_eq!(last, 3);
    drop(log);
    let fixture = Path::new(FIXTURE);
    for file in [SNAPSHOT, SEGMENT] {
        assert!(
            read(&dir, file) == read(fixture, file),
            "{file} differs from the fixture"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
