//! Recommender configuration: the paper's tunables with their §5 optima as
//! defaults.

use crate::prune::PruneBound;
use viderec_emd::MatchingConfig;
use viderec_index::LsbConfig;

/// How `recommend*` builds its candidate universe.
///
/// `Paper` reproduces the evaluation setup of the source paper exactly and
/// stays the default: content-gated strategies (Cr, CsfSarH) draw from the
/// truncated Fig. 6 indices while the social strategies enumerate the corpus,
/// which keeps the Fig. 12 cost-model shapes intact. `GatedCertified` makes
/// the inverted index and the reach index the gatekeepers for *every*
/// strategy so `scanned << corpus` — the posting union and every video
/// holding a signature pair within the match radius — and checks the videos
/// the gather missed against the top-k floor.
///
/// The mode also decides what a build makes, so it is fixed for the life of
/// a recommender: only a `Paper` build (and its ingests) embeds every
/// signature into the LSB forest, which only the paper's gather reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetrievalMode {
    /// Full-corpus scoring universe as in the paper's evaluation (default).
    #[default]
    Paper,
    /// Index-gated gather plus an admissible-bound certificate sweep: any
    /// non-candidate whose score ceiling reaches the top-k floor is promoted
    /// and scored exactly, so results are bit-identical to the naive scan.
    GatedCertified,
}

/// All knobs of the recommendation system.
#[derive(Debug, Clone)]
pub struct RecommenderConfig {
    /// Fusion weight `ω` of Eq. 9 — the social share of the final relevance.
    /// §5.3.2 finds the optimum at 0.7.
    pub omega: f64,
    /// Number of sub-communities `k` for SAR. §5.3.3 finds effectiveness
    /// saturating at 60.
    pub k_subcommunities: usize,
    /// `κJ` matching threshold.
    pub matching: MatchingConfig,
    /// LSB forest parameters for the content index. Read by
    /// [`RetrievalMode::Paper`] builds only: a gated build holds no forest.
    pub lsb: LsbConfig,
    /// CDF-embedding dimensionality for the forest's signature points. Read
    /// by [`RetrievalMode::Paper`] builds only.
    pub embed_dims: usize,
    /// Candidates pulled per query signature from the LSB forest, and cap on
    /// social candidates, before FJ refinement (paper mode's Fig. 6 gather;
    /// the gated mode does not read it).
    pub candidate_limit: usize,
    /// Buckets of the chained user-name hash table.
    pub hash_buckets: usize,
    /// The EMD lower bound queries prune against. Inert: there is one
    /// bound, the quantile-slice bound the scoring arena always caches, and
    /// the engine reads neither this field nor [`PruneBound::Best`]'s.
    pub prune_bound: PruneBound,
    /// Candidate-retrieval mode for all `recommend*` entry points, and so
    /// which content indexes a build makes.
    pub retrieval: RetrievalMode,
}

impl Default for RecommenderConfig {
    fn default() -> Self {
        Self {
            omega: 0.7,
            k_subcommunities: 60,
            matching: MatchingConfig::default(),
            lsb: LsbConfig::default(),
            embed_dims: viderec_emd::CDF_EMBED_DIMS,
            candidate_limit: 64,
            hash_buckets: 1 << 12,
            prune_bound: PruneBound::default(),
            retrieval: RetrievalMode::Paper,
        }
    }
}

impl RecommenderConfig {
    /// Validates ranges; called by the recommender constructor.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.omega) {
            return Err(format!("omega {} outside [0, 1]", self.omega));
        }
        if self.k_subcommunities == 0 {
            return Err("k_subcommunities must be positive".into());
        }
        if self.embed_dims < 2 {
            return Err("embed_dims must be at least 2".into());
        }
        if self.candidate_limit == 0 {
            return Err("candidate_limit must be positive".into());
        }
        if self.hash_buckets == 0 {
            return Err("hash_buckets must be positive".into());
        }
        self.lsb.validate().map_err(|why| format!("lsb: {why}"))
    }

    /// A copy with a different fusion weight (the Fig. 8 sweep).
    pub fn with_omega(mut self, omega: f64) -> Self {
        self.omega = omega;
        self
    }

    /// A copy with a different sub-community count (the Fig. 9 sweep).
    pub fn with_k(mut self, k: usize) -> Self {
        self.k_subcommunities = k;
        self
    }

    /// A copy with `prune_bound` set (inert: see the field).
    pub fn with_prune_bound(mut self, bound: PruneBound) -> Self {
        self.prune_bound = bound;
        self
    }

    /// A copy with a different candidate-retrieval mode.
    pub fn with_retrieval(mut self, retrieval: RetrievalMode) -> Self {
        self.retrieval = retrieval;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_paper_optima() {
        let c = RecommenderConfig::default();
        assert_eq!(c.omega, 0.7);
        assert_eq!(c.k_subcommunities, 60);
        assert_eq!(c.embed_dims, viderec_emd::CDF_EMBED_DIMS);
        assert_eq!(
            c.retrieval,
            RetrievalMode::Paper,
            "index-gated retrieval must stay opt-in: the paper evaluation \
             figures depend on the full-scan universe"
        );
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_apply() {
        let c = RecommenderConfig::default()
            .with_omega(0.3)
            .with_k(20)
            .with_retrieval(RetrievalMode::GatedCertified);
        assert_eq!(c.omega, 0.3);
        assert_eq!(c.k_subcommunities, 20);
        assert_eq!(c.retrieval, RetrievalMode::GatedCertified);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(RecommenderConfig::default()
            .with_omega(1.5)
            .validate()
            .is_err());
        assert!(RecommenderConfig::default().with_k(0).validate().is_err());
        let c = RecommenderConfig {
            embed_dims: 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = RecommenderConfig {
            candidate_limit: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_refuses_an_lsb_config_the_forest_would_panic_on() {
        let with_lsb = |lsb: LsbConfig| RecommenderConfig {
            lsb,
            ..Default::default()
        };
        let base = LsbConfig::default();
        for (lsb, why) in [
            (LsbConfig { bits: 1, ..base }, "bits 1"),
            (
                LsbConfig {
                    bits: 64,
                    hashes_per_tree: 1,
                    ..base
                },
                "bits 64",
            ),
            (
                LsbConfig {
                    hashes_per_tree: 0,
                    ..base
                },
                "hash function",
            ),
            (
                LsbConfig {
                    bucket_width: 0.0,
                    ..base
                },
                "bucket width",
            ),
            (LsbConfig { trees: 0, ..base }, "tree"),
            (
                LsbConfig {
                    hashes_per_tree: 16,
                    bits: 9,
                    ..base
                },
                "bit budget",
            ),
        ] {
            let err = with_lsb(lsb).validate().unwrap_err();
            assert!(err.starts_with("lsb: ") && err.contains(why), "{err}");
        }
        let edges = [(1, 63), (64, 2)].map(|(hashes_per_tree, bits)| LsbConfig {
            hashes_per_tree,
            bits,
            ..base
        });
        for lsb in edges {
            assert!(with_lsb(lsb).validate().is_ok(), "{lsb:?}");
        }
    }
}
