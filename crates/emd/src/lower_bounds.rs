//! Cheap lower bounds on EMD for candidate filtering.
//!
//! The LSH pipeline of §4.4 prunes most signature pairs, but the refinement
//! step still evaluates EMD on the survivors; these O(m + n) lower bounds let
//! the refinement skip pairs whose bound already exceeds the current pruning
//! radius. Both are classic:
//!
//! * [`centroid_lower_bound`] — Rubner's LB: for ground distance `|x − y|`
//!   and equal total mass, `|mean(C₁) − mean(C₂)| ≤ EMD(C₁, C₂)` (Jensen).
//! * [`anchor_lower_bound_from_features`] — Kantorovich duality over the
//!   1-Lipschitz maps `x ↦ |x − c|`: the gap between the two sides'
//!   [`anchor_features`] at any anchor `c` never exceeds the EMD.

/// Weighted mean of a normalised `(value, weight)` set.
fn mean(sig: &[(f64, f64)]) -> f64 {
    sig.iter().map(|&(v, w)| v * w).sum()
}

/// Rubner's centroid lower bound: `|E[C₁] − E[C₂]| ≤ EMD(C₁, C₂)`.
///
/// Valid for scalar values with ground distance `|x − y|` and normalised
/// masses (Definition 1's setting).
pub fn centroid_lower_bound(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    (mean(a) - mean(b)).abs()
}

/// Lipschitz anchor features of a signature: `E[|X − c|]` at `k` anchors `c`
/// evenly spaced over `[lo, hi]` (endpoints included for `k ≥ 2`).
///
/// Each map `x ↦ |x − c|` is 1-Lipschitz, so by Kantorovich duality the
/// difference of the two sides' expectations lower-bounds their EMD — see
/// [`anchor_lower_bound_from_features`]. Computed once per signature and
/// compared in O(k) per pair, these are the cheap sound screen the
/// recommender's pruning ceilings are built from.
pub fn anchor_features(sig: &[(f64, f64)], lo: f64, hi: f64, k: usize) -> Vec<f64> {
    assert!(k >= 1, "need at least one anchor");
    assert!(hi >= lo, "empty anchor domain");
    (0..k)
        .map(|i| {
            let c = anchor_position(lo, hi, k, i);
            sig.iter().map(|&(v, w)| w * (v - c).abs()).sum()
        })
        .collect()
}

fn anchor_position(lo: f64, hi: f64, k: usize, i: usize) -> f64 {
    if k == 1 {
        (lo + hi) / 2.0
    } else {
        lo + (hi - lo) * i as f64 / (k - 1) as f64
    }
}

/// Lower bound on EMD from two signatures' [`anchor_features`]:
/// `max_c |E_a[|X − c|] − E_b[|X − c|]| ≤ EMD(a, b)`.
///
/// Soundness: for any 1-Lipschitz `f`, `∫f dμ − ∫f dν ≤ EMD(μ, ν)`
/// (Kantorovich–Rubinstein), and `x ↦ |x − c|` is 1-Lipschitz for every
/// anchor `c`; taking the best anchor and either sign keeps the inequality.
///
/// # Panics
/// Panics if the feature vectors have different lengths.
#[inline]
pub fn anchor_lower_bound_from_features(fa: &[f64], fb: &[f64]) -> f64 {
    assert_eq!(fa.len(), fb.len(), "anchor feature dimension mismatch");
    fa.iter()
        .zip(fb)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Upper bound on `SimC` from a lower bound on EMD: `SimC = 1/(1 + EMD)` is
/// strictly decreasing in the distance, so `1/(1 + LB) ≥ SimC` whenever
/// `LB ≤ EMD`. This is the hook the recommender's query-level pruning uses to
/// turn any of the bounds in this module into an admissible similarity
/// ceiling.
pub fn sim_c_upper_bound(emd_lower_bound: f64) -> f64 {
    crate::sim_c(emd_lower_bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emd1d::emd_1d;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sig(rng: &mut StdRng, n: usize) -> Vec<(f64, f64)> {
        let mut ws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
        let t: f64 = ws.iter().sum();
        ws.iter_mut().for_each(|w| *w /= t);
        ws.into_iter()
            .map(|w| (rng.gen_range(-20.0..20.0), w))
            .collect()
    }

    #[test]
    fn centroid_bound_never_exceeds_emd() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let na = rng.gen_range(1..8);
            let a = random_sig(&mut rng, na);
            let nb = rng.gen_range(1..8);
            let b = random_sig(&mut rng, nb);
            let lb = centroid_lower_bound(&a, &b);
            let d = emd_1d(&a, &b);
            assert!(lb <= d + 1e-9, "lb {lb} > emd {d}");
        }
    }

    #[test]
    fn centroid_bound_tight_for_point_masses() {
        let a = vec![(0.0, 1.0)];
        let b = vec![(4.0, 1.0)];
        assert!((centroid_lower_bound(&a, &b) - 4.0).abs() < 1e-12);
        assert!((emd_1d(&a, &b) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn anchor_bound_is_admissible_and_tight_for_shifted_supports() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let na = rng.gen_range(1..8);
            let a = random_sig(&mut rng, na);
            let nb = rng.gen_range(1..8);
            let b = random_sig(&mut rng, nb);
            let fa = anchor_features(&a, -25.0, 25.0, 8);
            let fb = anchor_features(&b, -25.0, 25.0, 8);
            let lb = anchor_lower_bound_from_features(&fa, &fb);
            let d = emd_1d(&a, &b);
            assert!(lb <= d + 1e-9, "anchor lb {lb} > emd {d}");
        }
        // Separated point masses with an anchor at one support: the feature
        // gap equals the full distance.
        let a = vec![(0.0, 1.0)];
        let b = vec![(10.0, 1.0)];
        let fa = anchor_features(&a, 0.0, 10.0, 2);
        let fb = anchor_features(&b, 0.0, 10.0, 2);
        assert!((anchor_lower_bound_from_features(&fa, &fb) - 10.0).abs() < 1e-12);
        // Equal means, different spread: anchors still separate what the
        // centroid bound cannot.
        let a = vec![(-1.0, 0.5), (1.0, 0.5)];
        let b = vec![(-5.0, 0.5), (5.0, 0.5)];
        let fa = anchor_features(&a, -6.0, 6.0, 5);
        let fb = anchor_features(&b, -6.0, 6.0, 5);
        assert!(anchor_lower_bound_from_features(&fa, &fb) >= 4.0 - 1e-12);
    }
}
