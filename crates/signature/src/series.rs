//! Signature series and the three series-level measures of Fig. 7.
//!
//! A video is a [`SignatureSeries`] — one [`CuboidSignature`] per q-gram in
//! temporal order. The system measure is `κJ` (Eq. 4, set-based, robust to
//! temporal editing); DTW and ERP are the order-enforcing baselines the paper
//! compares against in §5.3.1.

use crate::cuboid::CuboidSignature;
use viderec_emd::dtw::dtw_similarity;
use viderec_emd::erp::erp_similarity;
use viderec_emd::{extended_jaccard, rounding_allowance, MatchingConfig};

/// The ordered cuboid signatures of one video.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SignatureSeries {
    signatures: Vec<CuboidSignature>,
}

impl SignatureSeries {
    /// Wraps a signature sequence.
    pub fn new(signatures: Vec<CuboidSignature>) -> Self {
        Self { signatures }
    }

    /// The signatures, in temporal order.
    pub fn signatures(&self) -> &[CuboidSignature] {
        &self.signatures
    }

    /// Number of signatures.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// `κJ` against another series with the default matching config.
    pub fn kappa_j(&self, other: &SignatureSeries) -> f64 {
        kappa_j_series(self, other, MatchingConfig::default())
    }
}

/// `κJ(S₁, S₂)` — Eq. 4 — with greedy one-to-one matching of signature pairs
/// whose `SimC` clears `cfg.min_similarity`.
pub fn kappa_j_series(a: &SignatureSeries, b: &SignatureSeries, cfg: MatchingConfig) -> f64 {
    extended_jaccard(
        a.len(),
        b.len(),
        |i, j| a.signatures()[i].similarity(&b.signatures()[j]),
        cfg,
    )
}

/// `κJ` with Rubner's centroid lower bound as a pre-filter: a pair can only
/// match when `SimC ≥ τ`, i.e. `EMD ≤ 1/τ − 1`; since
/// `|mean(C₁) − mean(C₂)| ≤ EMD`, any pair whose centroid gap exceeds that
/// radius is skipped without solving the EMD. Returns *exactly* the same
/// value as [`kappa_j_series`], bit for bit: the gap is a float sum compared
/// against a distance the sweep computes in floats too, so it has to clear
/// the radius by [`rounding_allowance`] before the pair is skipped — a pair
/// sitting on the radius goes to the sweep, which decides it. It is the
/// "LSH-based optimization … to reduce the number of EMD-based signature
/// measures" of §4.1 in filter form, and the reference the recommender's
/// scans are checked against.
pub fn kappa_j_series_pruned(a: &SignatureSeries, b: &SignatureSeries, cfg: MatchingConfig) -> f64 {
    if cfg.min_similarity <= 0.0 {
        return kappa_j_series(a, b, cfg);
    }
    let radius = cfg.radius();
    // Per signature: mean, cuboid count, largest |value|.
    let summary = |sig: &CuboidSignature| -> (f64, usize, f64) {
        let cuboids = sig.cuboids();
        (
            cuboids.iter().map(|c| c.value * c.weight).sum(),
            cuboids.len(),
            cuboids.iter().map(|c| c.value.abs()).fold(0.0, f64::max),
        )
    };
    let of_a: Vec<_> = a.signatures().iter().map(summary).collect();
    let of_b: Vec<_> = b.signatures().iter().map(summary).collect();
    extended_jaccard(
        a.len(),
        b.len(),
        |i, j| {
            let ((mean_a, n_a, abs_a), (mean_b, n_b, abs_b)) = (of_a[i], of_b[j]);
            if (mean_a - mean_b).abs() > radius + rounding_allowance(n_a + n_b, abs_a + abs_b) {
                // Lower bound already exceeds the match radius: SimC < τ.
                0.0
            } else {
                a.signatures()[i].similarity(&b.signatures()[j])
            }
        },
        cfg,
    )
}

/// DTW similarity between two series, using EMD as the local distance.
/// Enforces the global temporal order (the property that makes it fragile
/// under sequence editing).
pub fn series_dtw_similarity(a: &SignatureSeries, b: &SignatureSeries) -> f64 {
    dtw_similarity(a.len(), b.len(), |i, j| {
        a.signatures()[i].emd(&b.signatures()[j])
    })
}

/// ERP similarity between two series: EMD as the element distance and the
/// zero-motion signature (one cuboid `v = 0, μ = 1`) as the gap element, so a
/// gap costs the EMD of the element to "stillness".
pub fn series_erp_similarity(a: &SignatureSeries, b: &SignatureSeries) -> f64 {
    // EMD of a signature to the zero point-mass = Σ μ_i |v_i|.
    let gap = |sig: &CuboidSignature| -> f64 {
        sig.cuboids().iter().map(|c| c.weight * c.value.abs()).sum()
    };
    erp_similarity(
        a.len(),
        b.len(),
        |i, j| a.signatures()[i].emd(&b.signatures()[j]),
        |i| gap(&a.signatures()[i]),
        |j| gap(&b.signatures()[j]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuboid::Cuboid;

    fn sig(v: f64) -> CuboidSignature {
        CuboidSignature::new(vec![Cuboid {
            value: v,
            weight: 1.0,
        }])
    }

    fn series(vals: &[f64]) -> SignatureSeries {
        SignatureSeries::new(vals.iter().map(|&v| sig(v)).collect())
    }

    #[test]
    fn identical_series_kappa_is_one() {
        let s = series(&[0.0, 5.0, -3.0]);
        assert!((s.kappa_j(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kappa_survives_reordering_but_dtw_does_not() {
        // The central claim of §5.3.1: κJ ignores segment order, DTW/ERP
        // punish it.
        // Values distinct from zero motion, so ERP's stillness gap element
        // cannot delete them for free.
        let a = series(&[5.0, 5.0, 40.0, 40.0]);
        let b = series(&[40.0, 40.0, 5.0, 5.0]);
        let kappa = a.kappa_j(&b);
        assert!((kappa - 1.0).abs() < 1e-12, "κJ = {kappa}");
        let dtw = series_dtw_similarity(&a, &b);
        assert!(dtw < 0.5, "dtw = {dtw}");
        let erp = series_erp_similarity(&a, &b);
        assert!(erp < 1.0, "erp = {erp}");
    }

    #[test]
    fn dtw_tolerates_stretch_kappa_tolerates_subset() {
        let a = series(&[1.0, 2.0, 3.0]);
        let stretched = series(&[1.0, 1.0, 2.0, 2.0, 3.0]);
        assert!((series_dtw_similarity(&a, &stretched) - 1.0).abs() < 1e-12);

        let subset = series(&[1.0, 2.0]);
        let kappa = a.kappa_j(&subset);
        // 2 perfect matches over a union of 3.
        assert!((kappa - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series_scores() {
        let e = SignatureSeries::default();
        let s = series(&[1.0]);
        assert!(e.is_empty());
        assert_eq!(e.kappa_j(&s), 0.0);
        assert_eq!(series_dtw_similarity(&e, &s), 0.0);
    }

    #[test]
    fn erp_identical_is_one() {
        let s = series(&[2.0, -4.0]);
        assert!((series_erp_similarity(&s, &s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_measures_symmetric() {
        let a = series(&[0.0, 7.0, 2.0]);
        let b = series(&[5.0, 1.0]);
        assert!((a.kappa_j(&b) - b.kappa_j(&a)).abs() < 1e-12);
        assert!((series_dtw_similarity(&a, &b) - series_dtw_similarity(&b, &a)).abs() < 1e-12);
        assert!((series_erp_similarity(&a, &b) - series_erp_similarity(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn pruned_kappa_equals_exact_kappa() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..40 {
            let n = rng.gen_range(1..12);
            let m = rng.gen_range(1..12);
            let a = series(
                &(0..n)
                    .map(|_| rng.gen_range(-80.0..80.0))
                    .collect::<Vec<_>>(),
            );
            let b = series(
                &(0..m)
                    .map(|_| rng.gen_range(-80.0..80.0))
                    .collect::<Vec<_>>(),
            );
            for tau in [0.0, 0.3, 0.5, 0.8] {
                let cfg = MatchingConfig {
                    min_similarity: tau,
                };
                let exact = kappa_j_series(&a, &b, cfg);
                let pruned = kappa_j_series_pruned(&a, &b, cfg);
                assert_eq!(exact, pruned, "τ={tau}");
            }
        }
    }

    #[test]
    fn kappa_in_unit_interval_on_random_series() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..30 {
            let n = rng.gen_range(1..10);
            let m = rng.gen_range(1..10);
            let a = series(
                &(0..n)
                    .map(|_| rng.gen_range(-50.0..50.0))
                    .collect::<Vec<_>>(),
            );
            let b = series(
                &(0..m)
                    .map(|_| rng.gen_range(-50.0..50.0))
                    .collect::<Vec<_>>(),
            );
            let k = a.kappa_j(&b);
            assert!((0.0..=1.0 + 1e-12).contains(&k), "κJ = {k}");
        }
    }
}
