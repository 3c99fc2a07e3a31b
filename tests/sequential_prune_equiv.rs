//! Equivalence of the pruned sequential recommender with the unpruned
//! reference scan over the same candidate universe: every strategy, top-k of
//! 1 / 3 / the whole corpus, with exclusions, and again after Fig. 5
//! maintenance churn plus an incremental corpus ingest.

use viderec::core::{QueryVideo, RecError, Recommender, RecommenderConfig, SocialUpdate, Strategy};
use viderec::eval::community::{Community, CommunityConfig};
use viderec::video::VideoId;

const STRATEGIES: [Strategy; 5] = [
    Strategy::Cr,
    Strategy::Sr,
    Strategy::Csf,
    Strategy::CsfSar,
    Strategy::CsfSarH,
];

fn build() -> (Community, Recommender) {
    let community = Community::generate(CommunityConfig {
        hours: 5.0,
        ..Default::default()
    });
    let rec =
        Recommender::build(RecommenderConfig::default(), community.source_corpus()).expect("build");
    (community, rec)
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

/// The pruned path must be bit-identical to the unpruned reference for
/// every strategy and k, and its counters must partition the scanned set.
fn assert_equivalent(rec: &Recommender, queries: &[QueryVideo], label: &str) -> u64 {
    let mut total_pruned = 0;
    for strategy in STRATEGIES {
        for k in [1, 3, rec.num_videos() + 10] {
            for (qi, q) in queries.iter().enumerate() {
                let (pruned, stats) = rec.recommend_with_stats(strategy, q, k, &[]);
                let unpruned = rec.recommend_unpruned_excluding(strategy, q, k, &[]);
                assert_eq!(
                    pruned,
                    unpruned,
                    "{label}: {} diverged at k={k} query={qi}",
                    strategy.label()
                );
                assert_eq!(
                    stats.pruned + stats.exact_evals,
                    stats.scanned,
                    "{label}: counters must partition the scanned set"
                );
                assert!(stats.prune_rate() >= 0.0 && stats.prune_rate() <= 1.0);
                total_pruned += stats.pruned;
            }
        }
    }
    total_pruned
}

#[test]
fn pruned_scan_matches_unpruned_for_all_strategies_and_bounds() {
    let (community, rec) = build();
    let queries = queries_for(&community, &rec);
    assert!(!queries.is_empty());
    let pruned = assert_equivalent(&rec, &queries, "fresh");
    assert!(
        pruned > 0,
        "slice-feature ceilings should prune something across \
         {} strategies x {} queries",
        STRATEGIES.len(),
        queries.len()
    );
}

#[test]
fn pruned_scan_matches_unpruned_after_maintenance_churn() {
    let (community, mut rec) = build();

    // Cross-community comments heavy enough to trigger the Fig. 5
    // merge/split machinery, an aging pass, and an incremental corpus
    // ingest: descriptor vectors, inverted postings, chained-hash slots
    // and the scoring arena all change under the pruned path's feet.
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

    // Re-ingest copies of a few source videos under fresh ids: same
    // signatures and engaged users, so every index path gets exercised.
    let base = rec.num_videos() as u64;
    let additions: Vec<_> = community
        .source_corpus()
        .into_iter()
        .take(4)
        .enumerate()
        .map(|(i, mut v)| {
            v.id = VideoId(base + 1000 + i as u64);
            v
        })
        .collect();
    let added = additions.len();
    rec.add_videos(additions).expect("incremental ingest");
    assert_eq!(rec.num_videos(), base as usize + added);

    let queries = queries_for(&community, &rec);
    assert_equivalent(&rec, &queries, "post-churn");
}

#[test]
fn exclusions_never_surface_and_never_occupy_the_floor() {
    let (community, rec) = build();
    let queries = queries_for(&community, &rec);
    let q = &queries[0];
    for strategy in STRATEGIES {
        // Exclude the reference top result: the pruned path must return
        // exactly the reference ranking computed without it — an excluded video may not
        // influence pruning by squatting on the top-k floor.
        let full = rec.recommend_unpruned_excluding(strategy, q, 3, &[]);
        let exclude: Vec<VideoId> = full.iter().take(2).map(|s| s.video).collect();
        let (got, stats) = rec.recommend_with_stats(strategy, q, 3, &exclude);
        let want = rec.recommend_unpruned_excluding(strategy, q, 3, &exclude);
        assert_eq!(got, want, "{} diverged under exclusion", strategy.label());
        assert!(got.iter().all(|s| !exclude.contains(&s.video)));
        // The excluded pair left the candidate set before scoring.
        let (_, unfiltered) = rec.recommend_with_stats(strategy, q, 3, &[]);
        assert_eq!(stats.scanned, unfiltered.scanned - exclude.len() as u64);
    }
}

#[test]
fn duplicate_ingest_is_rejected() {
    let (community, mut rec) = build();
    let dup = community
        .source_corpus()
        .into_iter()
        .next()
        .expect("non-empty");
    let id = dup.id.0;
    assert_eq!(
        rec.add_videos(vec![dup]).err(),
        Some(RecError::DuplicateVideo(id)),
        "re-ingesting an indexed video must fail"
    );
}
