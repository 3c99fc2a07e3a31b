//! Property tests for the retrieval-gate building blocks (vendored
//! proptest): LSB LCP-KNN monotonicity, posting unions against brute-force
//! sub-community membership, and the certificate's no-exclusion guarantee on
//! randomly seeded streamed corpora.

use proptest::prelude::*;
use std::collections::HashSet;
use viderec::core::{QueryVideo, Recommender, RecommenderConfig, RetrievalMode, Strategy, Tracer};
use viderec::eval::stream::{StreamConfig, StreamingCommunity};
use viderec::index::{InvertedIndex, LsbConfig, LsbForest};
use viderec::video::VideoId;

const DIMS: usize = 4;

fn forest_from(points: &[Vec<f64>]) -> LsbForest<u32> {
    let mut forest = LsbForest::new(LsbConfig::default(), DIMS);
    for (i, p) in points.iter().enumerate() {
        forest.insert(p, i as u32);
    }
    forest
}

fn payloads(cands: &[viderec::index::LsbCandidate<u32>]) -> HashSet<u32> {
    cands.iter().map(|c| c.payload).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Growing the KNN `limit` never loses a neighbour, and the truncating
    /// `query` stays a subset of the monotone set at every limit.
    #[test]
    fn lsb_knn_is_monotone_in_limit(
        points in prop::collection::vec(
            prop::collection::vec(-50.0..50.0f64, DIMS), 1..40),
        query in prop::collection::vec(-50.0..50.0f64, DIMS),
    ) {
        let forest = forest_from(&points);
        let mut prev = HashSet::new();
        for limit in 1..=points.len() + 2 {
            let mono = payloads(&forest.query_monotone(&query, limit));
            prop_assert!(
                prev.is_subset(&mono),
                "limit {limit} lost neighbours: {prev:?} vs {mono:?}"
            );
            let truncated = payloads(&forest.query(&query, limit));
            prop_assert!(truncated.is_subset(&mono));
            prev = mono;
        }
    }

    /// Shrinking the LCP radius never loses a neighbour, every result
    /// honours the radius, and radius 0 returns the whole forest.
    #[test]
    fn lsb_radius_is_monotone_and_exhaustive_at_zero(
        points in prop::collection::vec(
            prop::collection::vec(-50.0..50.0f64, DIMS), 1..40),
        query in prop::collection::vec(-50.0..50.0f64, DIMS),
    ) {
        let forest = forest_from(&points);
        let total_bits = LsbConfig::default().hashes_per_tree as u32
            * LsbConfig::default().bits;
        let mut prev = HashSet::new();
        for step in 0..=8u32 {
            let min_lcp = total_bits.saturating_sub(step * total_bits / 8);
            let hits = forest.query_radius(&query, min_lcp);
            prop_assert!(hits.iter().all(|c| c.lcp >= min_lcp));
            let got = payloads(&hits);
            prop_assert!(
                prev.is_subset(&got),
                "radius {min_lcp} lost neighbours"
            );
            prev = got;
        }
        prop_assert_eq!(prev.len(), points.len(), "radius 0 must return everything");
    }

    /// `posting_union` is exactly brute-force sub-community membership: a
    /// video is in the union iff its histogram shares a nonzero slot with
    /// the query histogram.
    #[test]
    fn posting_union_matches_brute_force_membership(
        videos in prop::collection::vec(
            prop::collection::vec(0u32..4, 8), 1..40),
        query in prop::collection::vec(0u32..4, 8),
    ) {
        let mut index = InvertedIndex::new(8);
        for (i, hist) in videos.iter().enumerate() {
            for (slot, &count) in hist.iter().enumerate() {
                if count > 0 {
                    index.add_posting(slot, VideoId(i as u64));
                }
            }
        }
        let sparse: Vec<(u32, u32)> = query
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(s, &c)| (s as u32, c))
            .collect();
        let union: HashSet<VideoId> = index.posting_union(&sparse).into_iter().collect();
        let brute: HashSet<VideoId> = videos
            .iter()
            .enumerate()
            .filter(|(_, hist)| {
                hist.iter()
                    .zip(&query)
                    .any(|(&v, &q)| v > 0 && q > 0)
            })
            .map(|(i, _)| VideoId(i as u64))
            .collect();
        prop_assert_eq!(union, brute);
    }
}

proptest! {
    // Each case builds two recommenders, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The admissible candidate bound never excludes a true top-k video:
    /// certified gated retrieval returns exactly the naive full scan, for
    /// every strategy, on a randomly seeded streamed corpus.
    #[test]
    fn certificate_never_excludes_a_true_topk_video(
        seed in 0u64..1_000_000,
        videos in 24usize..64,
        k in 1usize..6,
    ) {
        let stream = StreamingCommunity::new(StreamConfig::at_scale(videos, seed));
        let corpus = stream.materialize();
        let cfg = RecommenderConfig {
            k_subcommunities: (videos / 2).max(2),
            ..Default::default()
        };
        let naive_rec =
            Recommender::build(cfg.clone(), corpus.clone()).expect("build");
        let gated_rec = Recommender::build(
            cfg.with_retrieval(RetrievalMode::GatedCertified),
            corpus,
        )
        .expect("build");
        let query_id = stream.query_ids(1)[0];
        let query = QueryVideo {
            series: naive_rec.series_of(query_id).expect("indexed").clone(),
            users: naive_rec.users_of(query_id).expect("indexed").to_vec(),
        };
        for strategy in [
            Strategy::Cr,
            Strategy::Sr,
            Strategy::Csf,
            Strategy::CsfSar,
            Strategy::CsfSarH,
        ] {
            let naive = naive_rec.recommend_naive_excluding(strategy, &query, k, &[]);
            let (gated, trace) =
                gated_rec.recommend_traced(strategy, &query, k, &[], Tracer::OFF);
            prop_assert_eq!(
                &gated, &naive,
                "{} diverged at seed={} videos={} k={}",
                strategy.label(), seed, videos, k
            );
            prop_assert_eq!(trace.gate, 2, "must certify exactness");
        }
    }
}
