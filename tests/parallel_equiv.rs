//! Equivalence of the sharded + pruned batch engine with the sequential
//! recommender: every strategy, several worker counts, both pruning bounds,
//! and again after a round of Fig. 5 maintenance churn.

use viderec::core::{
    ParallelConfig, ParallelRecommender, PruneBound, QueryVideo, Recommender, RecommenderConfig,
    SocialUpdate, Strategy,
};
use viderec::eval::community::{Community, CommunityConfig};
use viderec::video::VideoId;

const STRATEGIES: [Strategy; 5] = [
    Strategy::Cr,
    Strategy::Sr,
    Strategy::Csf,
    Strategy::CsfSar,
    Strategy::CsfSarH,
];

const BOUNDS: [PruneBound; 2] = [
    PruneBound::Centroid,
    PruneBound::Best {
        lo: -64.0,
        hi: 64.0,
    },
];

fn community() -> Community {
    Community::generate(CommunityConfig {
        hours: 5.0,
        ..Default::default()
    })
}

fn build(community: &Community, bound: PruneBound) -> Recommender {
    let cfg = RecommenderConfig::default().with_prune_bound(bound);
    Recommender::build(cfg, community.source_corpus()).expect("build")
}

fn queries_for(community: &Community, rec: &Recommender) -> Vec<QueryVideo> {
    community
        .query_videos()
        .into_iter()
        .take(4)
        .map(|id| QueryVideo {
            series: rec.series_of(id).expect("indexed").clone(),
            users: rec.users_of(id).expect("indexed").to_vec(),
        })
        .collect()
}

fn assert_equivalent(rec: &Recommender, queries: &[QueryVideo], k: usize, label: &str) {
    for workers in [1, 2, 4] {
        // `Some(workers)` forces real OS threads even on a single-core
        // host; `None` lets the engine clamp to available parallelism
        // (possibly a fully serial drain). Both must agree with the
        // sequential path.
        for max_threads in [Some(workers), None] {
            let par = ParallelRecommender::with_config(
                rec,
                ParallelConfig {
                    workers,
                    max_threads,
                },
            );
            // The full batch is at least as wide as the worker pool
            // (inter-query sharding); the single-query slice is narrower
            // (intra-query candidate sharding). Both paths must agree.
            for batch_queries in [queries, &queries[..1]] {
                for strategy in STRATEGIES {
                    let batch = par.recommend_batch(strategy, batch_queries, k);
                    assert_eq!(batch.len(), batch_queries.len());
                    for (q, got) in batch_queries.iter().zip(&batch) {
                        let want = rec.recommend(strategy, q, k);
                        assert_eq!(
                            &want,
                            got,
                            "{label}: {} diverged at workers={workers} \
                             max_threads={max_threads:?}",
                            strategy.label()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn batch_engine_matches_sequential_for_all_strategies() {
    let community = community();
    for bound in BOUNDS {
        let rec = build(&community, bound);
        let queries = queries_for(&community, &rec);
        assert!(!queries.is_empty());
        assert_equivalent(&rec, &queries, 10, &format!("fresh corpus {bound:?}"));
    }
}

#[test]
fn batch_engine_matches_sequential_after_maintenance_churn() {
    let community = community();
    for bound in BOUNDS {
        let mut rec = build(&community, bound);

        // A round of cross-community comments heavy enough to trigger the
        // Fig. 5 merge/split machinery, then an aging pass: both rewrite
        // descriptor vectors, inverted postings and chained-hash slots.
        let targets: Vec<VideoId> = community.query_videos().into_iter().take(3).collect();
        let mut churn = Vec::new();
        for (i, &video) in targets.iter().enumerate() {
            for user in 0..6 {
                churn.push(SocialUpdate {
                    video,
                    user: format!("churn_user_{}", (user + i) % 8),
                });
            }
        }
        let summary = rec.apply_social_updates(&churn);
        assert!(summary.comments_applied > 0, "churn must actually land");
        rec.age_social_connections(1);

        // The engine borrows the recommender's own arena, so it is wrapped
        // around the post-churn recommender — equivalence must still hold
        // exactly.
        let queries = queries_for(&community, &rec);
        assert_equivalent(&rec, &queries, 10, &format!("post-churn corpus {bound:?}"));
    }
}

#[test]
fn oversized_k_and_stats_invariants() {
    let community = community();
    let rec = build(&community, PruneBound::default());
    let queries = queries_for(&community, &rec);
    let par = ParallelRecommender::with_config(
        &rec,
        ParallelConfig {
            workers: 4,
            ..Default::default()
        },
    );
    // k beyond the corpus: both paths return everything, same order.
    let k = rec.num_videos() + 10;
    for strategy in STRATEGIES {
        let batch = par.recommend_batch(strategy, &queries, k);
        for (q, got) in queries.iter().zip(&batch) {
            assert_eq!(&rec.recommend(strategy, q, k), got);
        }
    }
    // Counters partition the scanned set.
    for (_, stats) in par.recommend_batch_with_stats(Strategy::CsfSar, &queries, 10) {
        assert_eq!(stats.scanned, rec.num_videos() as u64);
        assert_eq!(stats.pruned + stats.exact_evals, stats.scanned);
        assert!(stats.prune_rate() >= 0.0 && stats.prune_rate() <= 1.0);
    }
}
