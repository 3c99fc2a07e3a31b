//! # viderec-bench
//!
//! The benchmark harness regenerating every table and figure of §5.
//!
//! Effectiveness figures (7–11) and the silhouette comparison are driven by
//! dedicated binaries — one per figure, printing the same rows/series the
//! paper reports (run with `cargo run --release -p viderec-bench --bin
//! fig08_omega`, etc.):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table2` | Table 2 (the query workload) |
//! | `silhouette_cmp` | §4.2.2 silhouette comparison |
//! | `fig07_content_measures` | Fig. 7 (ERP / DTW / κJ) |
//! | `fig08_omega` | Fig. 8 (ω sweep) |
//! | `fig09_subcommunities` | Fig. 9 (k sweep) |
//! | `fig10_compare` | Fig. 10 (AFFRF / CR / SR / CSF) |
//! | `fig11_updates_effect` | Fig. 11 (effectiveness under updates) |
//! | `fig12a_social_opt` | Fig. 12a (CSF vs CSF-SAR vs CSF-SAR-H time) |
//! | `fig12b_vs_cr` | Fig. 12b (CSF-SAR-H vs CR time) |
//! | `fig12c_update_cost` | Fig. 12c (social update cost) |
//! | `reproduce_all` | everything above in sequence |
//!
//! Beyond the paper: `scale` (index-gated retrieval and the write path on
//! streamed corpora, → `BENCH_scale.json`), `bench_diff` (the perf-regression
//! gate over the committed `BENCH_*.json`), `serve_node` (the killable
//! durable node the crash-recovery e2e drives) and `serve_smoke` (the
//! observability end-to-end check).
//!
//! Microbenchmarks (criterion, `cargo bench`) cover the hot substrate paths
//! and the DESIGN.md ablations: EMD solvers, κJ matching variants, social
//! extraction vs spectral, hash/B⁺-tree/LSB operations, and exact vs indexed
//! KNN.

pub mod diff;

/// Shared defaults for the figure binaries.
pub mod scale {
    use viderec_eval::community::CommunityConfig;

    /// Seed used by every figure binary (reported in EXPERIMENTS.md).
    pub const SEED: u64 = 0xC0FFEE;

    /// The effectiveness-figure dataset (Figs. 7–11): 50 paper-hours, the
    /// smallest scale of §5.4 — large enough for stable metrics, small
    /// enough to regenerate in minutes.
    pub fn effectiveness_config() -> CommunityConfig {
        CommunityConfig {
            hours: 50.0,
            ..Default::default()
        }
    }

    /// The efficiency sweep scales of Fig. 12 (paper-hours).
    pub const EFFICIENCY_HOURS: [f64; 4] = [50.0, 100.0, 150.0, 200.0];

    /// A community at an explicit scale.
    pub fn config_at(hours: f64) -> CommunityConfig {
        CommunityConfig {
            hours,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::scale;

    #[test]
    fn scales_match_the_paper() {
        assert_eq!(scale::EFFICIENCY_HOURS, [50.0, 100.0, 150.0, 200.0]);
        assert_eq!(scale::effectiveness_config().hours, 50.0);
        assert_eq!(scale::config_at(75.0).hours, 75.0);
    }
}
