//! Regressions on the dense pixel-pipeline community (10 paper-hours, the
//! default seed — the corpus the `dense_scan` benchmark workload serves):
//!
//! * every click's pruned answer equals the naive full scan bit for bit.
//!   Cuboid values from the pixel pipeline are dyadic, so signature pairs sit
//!   *exactly* on the `τ` match radius; a screen comparing a rounded cached
//!   sum against the radius with no allowance used to throw such pairs out
//!   (click 27 → 85 under CSF came back 0.362767 instead of 0.395950);
//! * paper-mode CR and CSF-SAR-H answer the same on every call: the LSB
//!   forest's truncated fan-out used to inherit a random hasher's order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use viderec::core::{CorpusVideo, QueryVideo, Recommender, RecommenderConfig, Strategy};
use viderec::eval::community::{Community, CommunityConfig};
use viderec::signature::cuboid::{Cuboid, CuboidSignature};
use viderec::signature::SignatureSeries;
use viderec::video::VideoId;

fn dense() -> &'static Recommender {
    static DENSE: OnceLock<Recommender> = OnceLock::new();
    DENSE.get_or_init(|| {
        let community = Community::generate(CommunityConfig {
            hours: 10.0,
            seed: 0xC0FFEE,
            ..Default::default()
        });
        Recommender::build(RecommenderConfig::default(), community.source_corpus()).expect("build")
    })
}

fn clicks(rec: &Recommender) -> impl Iterator<Item = (viderec::video::VideoId, QueryVideo)> + '_ {
    (0..rec.num_videos() as u64)
        .map(viderec::video::VideoId)
        .filter_map(|id| rec.query_for(id).map(|q| (id, q)))
}

#[test]
fn every_click_matches_the_naive_scan_bit_for_bit() {
    let rec = dense();
    let mut checked = 0;
    for (id, q) in clicks(rec) {
        for strategy in [Strategy::Csf, Strategy::CsfSar] {
            let got = rec.recommend_excluding(strategy, &q, 20, &[id]);
            let want = rec.recommend_naive_excluding(strategy, &q, 20, &[id]);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    (g.video, g.score.to_bits()),
                    (w.video, w.score.to_bits()),
                    "click {} under {}: {} vs {}",
                    id.0,
                    strategy.label(),
                    g.score,
                    w.score
                );
            }
            checked += 1;
        }
    }
    assert!(checked >= 200, "only {checked} clicks checked");
}

#[test]
fn repeated_calls_agree_for_every_strategy() {
    let rec = dense();
    for strategy in [
        Strategy::Cr,
        Strategy::Sr,
        Strategy::Csf,
        Strategy::CsfSar,
        Strategy::CsfSarH,
    ] {
        for (id, q) in clicks(rec).step_by(7) {
            let first = rec.recommend(strategy, &q, 20);
            assert_eq!(first, rec.recommend(strategy, &q, 20), "click {}", id.0);
            // A cloned snapshot carries no hidden per-instance order either.
            assert_eq!(first, rec.clone().recommend(strategy, &q, 20));
        }
    }
}

/// A corpus built to sit on the match radius without the pixel pipeline's
/// dyadic values: every video is a random series (arbitrary weights, values
/// anywhere in ±45) and its partner is the same series shifted by exactly
/// `1/τ − 1`, so each click has a pair whose float EMD lands within an ulp
/// or two of the radius, on either side.
fn on_radius_corpus(n: usize, seed: u64) -> Vec<CorpusVideo> {
    let mut rng = StdRng::seed_from_u64(seed);
    let radius = 1.0 / RecommenderConfig::default().matching.min_similarity - 1.0;
    let mut corpus = Vec::with_capacity(2 * n);
    for v in 0..n {
        let shape: Vec<Vec<(f64, f64)>> = (0..rng.gen_range(1..4))
            .map(|_| {
                let parts = rng.gen_range(1..5);
                let ws: Vec<f64> = (0..parts).map(|_| rng.gen_range(0.1..1.0)).collect();
                let mass: f64 = ws.iter().sum();
                // A few motion bands, so that series from different videos
                // land within the radius of each other too.
                let centre = rng.gen_range(-3..4) as f64 * 15.0;
                ws.iter()
                    .map(|w| (centre + rng.gen_range(-1.5..1.5), w / mass))
                    .collect()
            })
            .collect();
        let users: Vec<String> = (0..rng.gen_range(1..6))
            .map(|_| format!("u{}", rng.gen_range(0..40)))
            .collect();
        for (half, shift) in [0.0, radius].into_iter().enumerate() {
            let sigs = shape.iter().map(|sig| {
                let cuboids = sig.iter().map(|&(value, weight)| Cuboid {
                    value: value + shift,
                    weight,
                });
                CuboidSignature::new(cuboids.collect())
            });
            corpus.push(CorpusVideo {
                id: VideoId((2 * v + half) as u64),
                series: SignatureSeries::new(sigs.collect()),
                users: users.clone(),
            });
        }
    }
    corpus
}

#[test]
fn pairs_on_the_radius_match_the_naive_scan_without_dyadic_values() {
    let cfg = RecommenderConfig {
        k_subcommunities: 8,
        ..Default::default()
    };
    let rec = Recommender::build(cfg, on_radius_corpus(150, 0x0D1AD)).expect("build");
    let mut differing = 0;
    for (id, q) in clicks(&rec) {
        let got = rec.recommend_excluding(Strategy::Csf, &q, 20, &[id]);
        let want = rec.recommend_naive_excluding(Strategy::Csf, &q, 20, &[id]);
        let bits = |top: &[viderec::core::Scored]| -> Vec<(VideoId, u64)> {
            top.iter().map(|s| (s.video, s.score.to_bits())).collect()
        };
        differing += (bits(&got) != bits(&want)) as usize;
    }
    assert_eq!(differing, 0, "clicks whose pruned answer differs");
}
