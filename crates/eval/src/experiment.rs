//! Experiment runners — one per table/figure of §5.
//!
//! Every runner is deterministic in the community seed and returns plain
//! data; the `viderec-bench` binaries print them, the integration tests
//! assert the paper's comparative *shapes* on them.

use crate::community::Community;
use crate::metrics::{EffMetrics, RatedList};
use crate::ratings::RatingPanel;
use std::time::Instant;
use viderec_core::baselines::AffrfRecommender;
use viderec_core::{fuse_fj, QueryVideo, Recommender, RecommenderConfig, SocialUpdate, Strategy};
use viderec_signature::{series_dtw_similarity, series_erp_similarity};
use viderec_video::VideoId;

/// Per-query component table: `(query id, [(video, κJ, sJ)])`.
type ComponentTable = Vec<(VideoId, Vec<(VideoId, f64, f64)>)>;

/// The paper's recommendation-list cut-offs.
pub const CUTOFFS: [usize; 3] = [5, 10, 20];

/// (AR, AC, MAP) at the three cut-offs.
#[derive(Debug, Clone, Copy, Default)]
pub struct EffTriple {
    /// Metrics over the top 5.
    pub top5: EffMetrics,
    /// Metrics over the top 10.
    pub top10: EffMetrics,
    /// Metrics over the top 20.
    pub top20: EffMetrics,
}

impl EffTriple {
    /// Aggregates per-query rated lists at all three cut-offs.
    pub fn from_lists(lists: &[RatedList]) -> Self {
        Self {
            top5: EffMetrics::at_cutoff(lists, 5),
            top10: EffMetrics::at_cutoff(lists, 10),
            top20: EffMetrics::at_cutoff(lists, 20),
        }
    }

    /// Mean AR across cut-offs (a scalar for shape assertions).
    pub fn mean_ar(&self) -> f64 {
        (self.top5.ar + self.top10.ar + self.top20.ar) / 3.0
    }

    /// Mean MAP across cut-offs.
    pub fn mean_map(&self) -> f64 {
        (self.top5.map + self.top10.map + self.top20.map) / 3.0
    }
}

/// Rates a ranked list against the community ground truth.
fn rate_list(
    community: &Community,
    panel: &RatingPanel,
    query: VideoId,
    ranked: &[VideoId],
) -> RatedList {
    let ratings = ranked
        .iter()
        .map(|&v| {
            let rel = community.relevance(query, v);
            panel.rate(rel, query.0.wrapping_mul(1_000_003).wrapping_add(v.0))
        })
        .collect();
    RatedList::new(ratings)
}

/// Builds the recommender over the community's source window.
pub fn build_recommender(community: &Community, cfg: RecommenderConfig) -> Recommender {
    Recommender::build(cfg, community.source_corpus()).expect("corpus is valid")
}

/// The query workload as `(id, QueryVideo)` pairs against a built
/// recommender (user sets read from the live index so update experiments see
/// fresh descriptors).
pub fn query_set(community: &Community, recommender: &Recommender) -> Vec<(VideoId, QueryVideo)> {
    community
        .query_videos()
        .into_iter()
        .map(|id| {
            let series = recommender.series_of(id).expect("query in corpus").clone();
            let users = recommender.users_of(id).expect("query in corpus").to_vec();
            (id, QueryVideo { series, users })
        })
        .collect()
}

fn top_by_score(mut scored: Vec<(VideoId, f64)>, exclude: VideoId, n: usize) -> Vec<VideoId> {
    scored.retain(|&(v, _)| v != exclude);
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(n);
    scored.into_iter().map(|(v, _)| v).collect()
}

// ---------------------------------------------------------------- Fig. 7

/// Fig. 7: effect of the content relevance measure (ERP vs DTW vs κJ),
/// content-only ranking. Returns `[(label, metrics); 3]` in the paper's
/// order.
pub fn content_measures(community: &Community, seed: u64) -> Vec<(&'static str, EffTriple)> {
    let recommender = build_recommender(community, RecommenderConfig::default());
    let panel = RatingPanel::paper_panel(seed);
    let queries = query_set(community, &recommender);
    type Measure<'a> = Box<dyn Fn(&QueryVideo, VideoId) -> f64 + 'a>;
    let measures: Vec<(&'static str, Measure<'_>)> = vec![
        (
            "ERP",
            Box::new(|q: &QueryVideo, v: VideoId| {
                series_erp_similarity(&q.series, recommender.series_of(v).unwrap())
            }),
        ),
        (
            "DTW",
            Box::new(|q: &QueryVideo, v: VideoId| {
                series_dtw_similarity(&q.series, recommender.series_of(v).unwrap())
            }),
        ),
        (
            "kJ",
            Box::new(|q: &QueryVideo, v: VideoId| {
                q.series.kappa_j(recommender.series_of(v).unwrap())
            }),
        ),
    ];
    let all_ids: Vec<VideoId> = community.videos.iter().map(|v| v.id).collect();
    measures
        .iter()
        .map(|(label, sim)| {
            let lists: Vec<RatedList> = queries
                .iter()
                .map(|(qid, q)| {
                    let scored: Vec<(VideoId, f64)> =
                        all_ids.iter().map(|&v| (v, sim(q, v))).collect();
                    let ranked = top_by_score(scored, *qid, 20);
                    rate_list(community, &panel, *qid, &ranked)
                })
                .collect();
            (*label, EffTriple::from_lists(&lists))
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 8

/// Fig. 8: the ω sweep. One component scan per query, fused at every ω.
pub fn omega_sweep(community: &Community, omegas: &[f64], seed: u64) -> Vec<(f64, EffTriple)> {
    let recommender = build_recommender(community, RecommenderConfig::default());
    let panel = RatingPanel::paper_panel(seed);
    let queries = query_set(community, &recommender);
    let components: ComponentTable = queries
        .iter()
        .map(|(qid, q)| (*qid, recommender.score_components(q)))
        .collect();
    omegas
        .iter()
        .map(|&omega| {
            let lists: Vec<RatedList> = components
                .iter()
                .map(|(qid, comps)| {
                    let scored: Vec<(VideoId, f64)> = comps
                        .iter()
                        .map(|&(v, kappa, sj)| (v, fuse_fj(omega, kappa, sj)))
                        .collect();
                    let ranked = top_by_score(scored, *qid, 20);
                    rate_list(community, &panel, *qid, &ranked)
                })
                .collect();
            (omega, EffTriple::from_lists(&lists))
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 9

/// Fig. 9: the sub-community count sweep (SAR at the optimal ω). Each `k`
/// rebuilds the recommender from scratch, so the sweep fans out across
/// threads (`std::thread::scope` — the community is only borrowed).
pub fn k_sweep(community: &Community, ks: &[usize], seed: u64) -> Vec<(usize, EffTriple)> {
    let panel = RatingPanel::paper_panel(seed);
    let run_one = |&k: &usize| {
        let recommender = build_recommender(community, RecommenderConfig::default().with_k(k));
        let queries = query_set(community, &recommender);
        let lists: Vec<RatedList> = queries
            .iter()
            .map(|(qid, q)| {
                let scored: Vec<(VideoId, f64)> = recommender
                    .score_components_sar(q)
                    .into_iter()
                    .map(|(v, kappa, sj)| (v, fuse_fj(recommender.config().omega, kappa, sj)))
                    .collect();
                let ranked = top_by_score(scored, *qid, 20);
                rate_list(community, &panel, *qid, &ranked)
            })
            .collect();
        (k, EffTriple::from_lists(&lists))
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = ks.iter().map(|k| scope.spawn(|| run_one(k))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread"))
            .collect()
    })
}

// ---------------------------------------------------------------- Fig. 10

/// Fig. 10: AFFRF vs CR vs SR vs CSF at the optimal parameters.
pub fn compare_approaches(community: &Community, seed: u64) -> Vec<(&'static str, EffTriple)> {
    let recommender = build_recommender(community, RecommenderConfig::default());
    let panel = RatingPanel::paper_panel(seed);
    let queries = query_set(community, &recommender);
    let omega = recommender.config().omega;

    // AFFRF over the synthetic multimodal features.
    let affrf = AffrfRecommender::new(community.affrf_features());
    let features = community.affrf_features();
    let affrf_lists: Vec<RatedList> = queries
        .iter()
        .map(|(qid, _)| {
            let qf = &features[qid.0 as usize].1;
            let recs = affrf.recommend(qf, 20, &[*qid]);
            let ranked: Vec<VideoId> = recs.into_iter().map(|s| s.video).collect();
            rate_list(community, &panel, *qid, &ranked)
        })
        .collect();

    // CR / SR / CSF from one component table per query.
    let components: ComponentTable = queries
        .iter()
        .map(|(qid, q)| (*qid, recommender.score_components(q)))
        .collect();
    let by_strategy = |f: &dyn Fn(f64, f64) -> f64| -> EffTriple {
        let lists: Vec<RatedList> = components
            .iter()
            .map(|(qid, comps)| {
                let scored: Vec<(VideoId, f64)> = comps
                    .iter()
                    .map(|&(v, kappa, sj)| (v, f(kappa, sj)))
                    .collect();
                let ranked = top_by_score(scored, *qid, 20);
                rate_list(community, &panel, *qid, &ranked)
            })
            .collect();
        EffTriple::from_lists(&lists)
    };

    vec![
        ("AFFRF", EffTriple::from_lists(&affrf_lists)),
        ("CR", by_strategy(&|kappa, _| kappa)),
        ("SR", by_strategy(&|_, sj| sj)),
        ("CSF", by_strategy(&|kappa, sj| fuse_fj(omega, kappa, sj))),
    ]
}

// ---------------------------------------------------------------- Fig. 11

/// Fig. 11: effectiveness while test-window updates are applied month by
/// month with Fig. 5 maintenance. Entry 0 is the pre-update baseline.
pub fn update_effect(community: &Community, seed: u64) -> Vec<(usize, EffTriple)> {
    let mut recommender = build_recommender(community, RecommenderConfig::default());
    let panel = RatingPanel::paper_panel(seed);
    let cfg = community.config().clone();
    let mut out = Vec::new();
    let measure = |recommender: &Recommender| -> EffTriple {
        let queries = query_set(community, recommender);
        let lists: Vec<RatedList> = queries
            .iter()
            .map(|(qid, q)| {
                let recs = recommender.recommend_excluding(Strategy::CsfSarH, q, 20, &[*qid]);
                let ranked: Vec<VideoId> = recs.into_iter().map(|s| s.video).collect();
                rate_list(community, &panel, *qid, &ranked)
            })
            .collect();
        EffTriple::from_lists(&lists)
    };
    out.push((0, measure(&recommender)));
    for month in cfg.source_months..cfg.months {
        let updates = community.updates_in_month(month);
        recommender.apply_social_updates(&updates);
        out.push((month - cfg.source_months + 1, measure(&recommender)));
    }
    out
}

// ---------------------------------------------------------------- Fig. 12a/b

/// One efficiency row: mean seconds per recommendation at one dataset scale.
#[derive(Debug, Clone)]
pub struct EfficiencyRow {
    /// Dataset scale in paper-hours.
    pub hours: f64,
    /// Videos in the corpus.
    pub videos: usize,
    /// `(strategy label, mean seconds per query)`.
    pub timings: Vec<(&'static str, f64)>,
}

/// Figs. 12a and 12b: mean recommendation wall time for CSF, CSF-SAR,
/// CSF-SAR-H and CR at one dataset scale. The caller sweeps scales by
/// generating communities at different `hours`.
pub fn efficiency(community: &Community) -> EfficiencyRow {
    let recommender = build_recommender(community, RecommenderConfig::default());
    let queries = query_set(community, &recommender);
    let strategies = [
        ("CSF", Strategy::Csf),
        ("CSF-SAR", Strategy::CsfSar),
        ("CSF-SAR-H", Strategy::CsfSarH),
        ("CR", Strategy::Cr),
    ];
    let timings = strategies
        .iter()
        .map(|&(label, strategy)| {
            // viderec-lint: allow(wallclock) — Fig. 12b reports real per-query latency
            let start = Instant::now();
            for (qid, q) in &queries {
                let _ = recommender.recommend_excluding(strategy, q, 20, &[*qid]);
            }
            (label, start.elapsed().as_secs_f64() / queries.len() as f64)
        })
        .collect();
    EfficiencyRow {
        hours: community.config().hours,
        videos: community.videos.len(),
        timings,
    }
}

// ---------------------------------------------------------------- Fig. 12c

/// One social-update cost row.
#[derive(Debug, Clone)]
pub struct UpdateCostRow {
    /// Test-window length in months.
    pub months: usize,
    /// Comment events applied.
    pub updates: usize,
    /// Measured maintenance wall time in seconds.
    pub measured_seconds: f64,
    /// Eq. 8 model estimate in seconds.
    pub estimated_seconds: f64,
}

/// Fig. 12c: cost of maintaining 1–4 months of social updates over a fixed
/// source set (fresh build per window, like the paper's experiment).
pub fn update_cost(community: &Community) -> Vec<UpdateCostRow> {
    let cfg = community.config().clone();
    (1..=cfg.months - cfg.source_months)
        .map(|window| {
            let mut recommender = build_recommender(community, RecommenderConfig::default());
            let updates: Vec<SocialUpdate> = (cfg.source_months..cfg.source_months + window)
                .flat_map(|m| community.updates_in_month(m))
                .collect();
            let n = updates.len();
            // viderec-lint: allow(wallclock) — Fig. 12c measures real maintenance wall time
            let start = Instant::now();
            let summary = recommender.apply_social_updates(&updates);
            UpdateCostRow {
                months: window,
                updates: n,
                measured_seconds: start.elapsed().as_secs_f64(),
                estimated_seconds: summary.estimated_seconds,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- §4.2.2

/// The Silhouette comparison of §4.2.2: our `SubgraphExtraction` vs spectral
/// clustering over the community's commenting users. Distance between two
/// users = 1 − Jaccard of their commented-video sets. Returns
/// `(ours, spectral)`.
pub fn silhouette_comparison(community: &Community, k: usize, seed: u64) -> (f64, f64) {
    use std::collections::HashSet;
    use viderec_social::{
        extract_subcommunities, silhouette_coefficient, spectral_clustering, UserInterestGraph,
        UserRegistry,
    };

    // Engagement sets per user over the source window.
    let mut registry = UserRegistry::new();
    let mut user_videos: Vec<HashSet<VideoId>> = Vec::new();
    let mut per_video: std::collections::HashMap<VideoId, Vec<viderec_social::UserId>> =
        Default::default();
    for c in &community.comments {
        if c.month >= community.config().source_months {
            continue;
        }
        let id = registry.intern(&c.user);
        if id.index() >= user_videos.len() {
            user_videos.resize_with(id.index() + 1, HashSet::new);
        }
        user_videos[id.index()].insert(c.video);
        per_video.entry(c.video).or_default().push(id);
    }
    let lists: Vec<Vec<viderec_social::UserId>> = per_video
        .into_values()
        .map(|mut users| {
            users.sort_unstable();
            users.dedup();
            users
        })
        .collect();
    let graph = UserInterestGraph::from_videos(registry.len(), &lists);
    let k = k.min(registry.len().max(1));
    let ours = extract_subcommunities(&graph, k);
    let spectral = spectral_clustering(&graph, k, seed);

    let dist = |a: usize, b: usize| -> f64 {
        let (sa, sb) = (&user_videos[a], &user_videos[b]);
        if sa.is_empty() && sb.is_empty() {
            return 1.0;
        }
        let inter = sa.intersection(sb).count();
        let union = sa.len() + sb.len() - inter;
        1.0 - inter as f64 / union as f64
    };
    let ours_score = silhouette_coefficient(ours.assignment(), dist);
    let spectral_score = silhouette_coefficient(&spectral, dist);
    (ours_score, spectral_score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::CommunityConfig;

    fn tiny() -> Community {
        Community::generate(CommunityConfig::tiny(11))
    }

    #[test]
    fn content_measures_runs_and_kappa_wins() {
        let c = tiny();
        let rows = content_measures(&c, 1);
        assert_eq!(rows.len(), 3);
        let kappa = rows[2].1.mean_ar();
        let erp = rows[0].1.mean_ar();
        assert!(
            kappa >= erp - 0.25,
            "κJ AR {kappa} unexpectedly far below ERP {erp}"
        );
    }

    #[test]
    fn omega_sweep_covers_requested_points() {
        let c = tiny();
        let rows = omega_sweep(&c, &[0.0, 0.5, 1.0], 2);
        assert_eq!(rows.len(), 3);
        for (omega, m) in &rows {
            assert!((0.0..=1.0).contains(omega));
            assert!(m.top5.ar >= 1.0 && m.top5.ar <= 5.0);
        }
    }

    #[test]
    fn k_sweep_runs() {
        let c = tiny();
        let rows = k_sweep(&c, &[4, 8], 3);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn compare_approaches_yields_four_rows() {
        let c = tiny();
        let rows = compare_approaches(&c, 4);
        let labels: Vec<&str> = rows.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["AFFRF", "CR", "SR", "CSF"]);
    }

    #[test]
    fn update_effect_has_baseline_plus_months() {
        let c = tiny();
        let rows = update_effect(&c, 5);
        assert_eq!(rows.len(), 1 + 4); // baseline + 4 test months
        assert_eq!(rows[0].0, 0);
        assert_eq!(rows[4].0, 4);
    }

    #[test]
    fn efficiency_times_all_strategies() {
        let c = tiny();
        let row = efficiency(&c);
        assert_eq!(row.timings.len(), 4);
        assert!(row.timings.iter().all(|&(_, t)| t >= 0.0));
        assert_eq!(row.videos, c.videos.len());
    }

    #[test]
    fn update_cost_grows_with_window() {
        let c = tiny();
        let rows = update_cost(&c);
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!(
                w[1].updates >= w[0].updates,
                "larger windows see more updates"
            );
        }
    }

    #[test]
    fn silhouette_comparison_at_true_group_count() {
        let c = tiny();
        let k = c.config().true_groups;
        let (ours, spectral) = silhouette_comparison(&c, k, 6);
        assert!((-1.0..=1.0).contains(&ours));
        assert!((-1.0..=1.0).contains(&spectral));
        // The paper's claim (graph extraction beats spectral) is asserted at
        // evaluation scale in the integration suite; the tiny community only
        // sanity-checks that extraction clusters meaningfully.
        assert!(ours > 0.0, "extraction silhouette {ours} not positive");
    }
}
