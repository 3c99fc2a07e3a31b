//! Seeded inputs: corpus, query rotation, request stream and update stream.
//! Everything the server receives is a pure function of `(workload, seed,
//! seconds)`, so two runs with the same arguments send byte-identical bytes.

use crate::spec::{
    CorpusSpec, Workload, WriteMix, COMMENTS_PER_BATCH, CORPUS_SEED, NEW_USER_PERMILLE,
};
use viderec_core::{CorpusVideo, Strategy};
use viderec_eval::community::{Community, CommunityConfig};
use viderec_eval::{StreamConfig, StreamingCommunity};
use viderec_serve::wire::{encode_age, encode_comment, encode_ingest};

/// splitmix64: small, seedable, and independent of the `rand` stub's
/// stream, so the traffic cannot change when that crate does.
pub struct Rng(u64);

impl Rng {
    /// A stream decorrelated from other `(seed, tag)` pairs.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut rng = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2⁻⁴⁰ here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

const TAG_REQUESTS: u64 = 2;
const TAG_UPDATES: u64 = 3;

/// One `GET /recommend`.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub video: u64,
    pub strategy: Strategy,
    pub target: String,
}

impl Request {
    pub fn new(video: u64, strategy: Strategy, k: usize) -> Self {
        let target = format!(
            "/recommend?video={video}&k={k}&strategy={}",
            strategy.label().to_ascii_lowercase()
        );
        Self {
            video,
            strategy,
            target,
        }
    }
}

/// One `POST /update` body and how many wire events (lines) it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateBatch {
    pub body: String,
    pub events: u64,
}

/// The boot corpus and the held-back ingest pool. Part of set-up: on
/// `dense_scan` this is the pixel → shot → signature pipeline.
///
/// The corpus is the workload's database, so it is generated from the frozen
/// [`CORPUS_SEED`], not from `--seed`: two generated communities differ by
/// ±10% in query cost and by 2× in maintenance cost, which would drown every
/// bound. `--seed` picks the traffic — which videos are clicked, in which
/// order, and every update.
pub fn materialize(w: &Workload) -> (Vec<CorpusVideo>, Vec<CorpusVideo>) {
    let seed = CORPUS_SEED;
    match w.corpus {
        CorpusSpec::Dense { hours, pool } => {
            let community = Community::generate(CommunityConfig {
                hours,
                seed,
                ..Default::default()
            });
            let mut corpus = community.source_corpus();
            let pool = corpus.split_off(corpus.len() - pool);
            (corpus, pool)
        }
        CorpusSpec::Stream { boot, pool } => {
            let stream = StreamingCommunity::new(StreamConfig::at_scale(boot + pool, seed));
            let mut corpus = stream.materialize();
            let pool = corpus.split_off(boot);
            (corpus, pool)
        }
    }
}

/// `w.rotation` distinct query videos, evenly spread over the corpus. Like
/// the corpus they belong to the workload, not to the seed: the cost of a
/// click varies several-fold from video to video, so a seeded choice would
/// move every query metric by its sampling error.
pub fn rotation(w: &Workload, corpus: &[CorpusVideo]) -> Vec<u64> {
    let n = w.rotation.min(corpus.len());
    (0..n).map(|j| corpus[j * corpus.len() / n].id.0).collect()
}

/// Passes over the rotation in one query stream.
const PASSES: usize = 10;

/// The query stream: ten seeded shuffles of the rotation. Every video is
/// clicked once per pass, and over the ten passes with each strategy in the
/// mix's exact proportion (shares are multiples of 10%), in a seeded order —
/// so every seed sends the same multiset of clicks and only their order and
/// pairing in time differ. Generators cycle through it.
pub fn requests(w: &Workload, rotation: &[u64], seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, TAG_REQUESTS);
    let per_video: Vec<Strategy> = w
        .mix
        .iter()
        .flat_map(|&(s, share)| std::iter::repeat_n(s, share as usize * PASSES / 100))
        .collect();
    assert_eq!(per_video.len(), PASSES, "mix shares are multiples of 10%");
    // by_pass[p][slot]: the strategy of rotation video `slot` in pass `p`.
    let mut by_pass = vec![Vec::new(); PASSES];
    for _ in rotation {
        let mut mine = per_video.clone();
        rng.shuffle(&mut mine);
        for (pass, strategy) in by_pass.iter_mut().zip(mine) {
            pass.push(strategy);
        }
    }
    let mut order: Vec<usize> = (0..rotation.len()).collect();
    let mut out = Vec::with_capacity(PASSES * order.len());
    for strategies in &by_pass {
        rng.shuffle(&mut order);
        for &slot in &order {
            out.push(Request::new(rotation[slot], strategies[slot], w.k));
        }
    }
    out
}

/// `count` update batches: comment batches on corpus videos (a share from
/// never-seen users), one-video ingests from the pool while it lasts, and
/// `age 1` at the mix's cadence. `stream` separates the measured stream from
/// the traced pass's.
///
/// Which videos are commented on, by whom, and in which order is the
/// workload's (`CORPUS_SEED`): maintenance cost has a heavy tail and depends
/// on the state earlier events left — one comment that merges two
/// sub-communities costs a hundred ordinary ones — so two seeded streams, or
/// one stream in two orders, differ several-fold in total work. `seed` names
/// the never-seen users, which changes every byte they touch and no cost.
pub fn updates(
    mix: &WriteMix,
    corpus: &[CorpusVideo],
    pool: &[CorpusVideo],
    seed: u64,
    stream: u64,
    count: usize,
) -> Vec<UpdateBatch> {
    let mut rng = Rng::new(CORPUS_SEED, TAG_UPDATES + stream);
    let mut pool = pool.iter();
    let mut new_users = 0u64;
    (0..count)
        .map(|b| {
            if mix.age_every > 0 && (b + 1) % mix.age_every == 0 {
                return UpdateBatch {
                    body: encode_age(1),
                    events: 1,
                };
            }
            if rng.below(1000) < mix.ingest_permille {
                if let Some(video) = pool.next() {
                    return UpdateBatch {
                        body: encode_ingest(video),
                        events: 1,
                    };
                }
            }
            let lines: Vec<String> = (0..COMMENTS_PER_BATCH)
                .map(|_| {
                    let video = &corpus[rng.below(corpus.len() as u64) as usize];
                    if rng.below(1000) < NEW_USER_PERMILLE {
                        new_users += 1;
                        encode_comment(video.id, &format!("new-{seed:x}-s{stream}-u{new_users}"))
                    } else {
                        // An existing commenter of some other video: the
                        // comment connects two engaged-user sets.
                        let donor = &corpus[rng.below(corpus.len() as u64) as usize];
                        match donor.users.len() {
                            0 => encode_comment(video.id, "lurker"),
                            n => {
                                encode_comment(video.id, &donor.users[rng.below(n as u64) as usize])
                            }
                        }
                    }
                })
                .collect();
            UpdateBatch {
                body: lines.join("\n"),
                events: COMMENTS_PER_BATCH as u64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn streams(seed: u64) -> (Vec<Request>, Vec<UpdateBatch>) {
        let w = workload("serve_light").expect("workload");
        let (corpus, pool) = materialize(w);
        let rot = rotation(w, &corpus);
        let mix = WriteMix {
            batches_per_run_second: 0.0,
            ingest_permille: 120,
            age_every: 16,
        };
        (
            requests(w, &rot, seed),
            updates(&mix, &corpus, &pool, seed, 0, 48),
        )
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let (req_a, upd_a) = streams(7);
        let (req_b, upd_b) = streams(7);
        assert_eq!(req_a, req_b);
        assert_eq!(upd_a, upd_b);
        let (req_c, upd_c) = streams(8);
        assert_ne!(req_a, req_c);
        assert_ne!(upd_a, upd_c);
    }

    #[test]
    fn update_stream_has_every_kind_and_parses() {
        let (_, upd) = streams(11);
        let kinds = |prefix: &str| upd.iter().filter(|b| b.body.starts_with(prefix)).count();
        assert_eq!(kinds("age "), 3);
        assert!(kinds("ingest ") >= 1);
        assert!(kinds("comment ") >= 24);
        for batch in &upd {
            let events = viderec_serve::wire::parse_update_body(&batch.body).expect("parses");
            assert_eq!(events.len(), 1, "one event per batch");
            assert_eq!(batch.events as usize, batch.body.lines().count());
        }
        assert!(
            upd.iter().any(|b| b.body.contains(" new-b-s0-u")),
            "new users appear"
        );
    }

    #[test]
    fn rotation_is_distinct_and_requests_follow_the_mix() {
        let w = workload("dense_scan").expect("workload");
        let ids: Vec<CorpusVideo> = (0..112)
            .map(|i| CorpusVideo {
                id: viderec_video::VideoId(i),
                series: Default::default(),
                users: Vec::new(),
            })
            .collect();
        let rot = rotation(w, &ids);
        let mut unique = rot.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 64);
        let reqs = requests(w, &rot, 5);
        assert_eq!(reqs.len(), 10 * 64);
        // Every video gets the mix exactly: 7 × csf-sar, 3 × csf.
        for &video in &rot {
            let count = |s: Strategy| {
                reqs.iter()
                    .filter(|r| r.video == video && r.strategy == s)
                    .count()
            };
            assert_eq!((count(Strategy::CsfSar), count(Strategy::Csf)), (7, 3));
        }
        // Another seed sends the same clicks in another order.
        let other = requests(w, &rot, 6);
        assert_ne!(reqs, other);
        let sorted = |mut v: Vec<Request>| {
            v.sort_by(|a, b| a.target.cmp(&b.target));
            v
        };
        assert_eq!(sorted(reqs), sorted(other));
    }
}
