//! Cheap lower bounds on EMD for candidate filtering.
//!
//! The LSH pipeline of §4.4 prunes most signature pairs, but the refinement
//! step still evaluates EMD on the survivors; these lower bounds let the
//! refinement skip pairs whose bound already exceeds the current pruning
//! radius.
//!
//! * [`centroid_lower_bound`] — Rubner's LB: for ground distance `|x − y|`
//!   and equal total mass, `|mean(C₁) − mean(C₂)| ≤ EMD(C₁, C₂)` (Jensen).
//! * [`slice_lower_bound_from_features`] — the same inequality on each
//!   equal-mass slice of the two quantile functions ([`slice_features`]):
//!   the L1 distance between partial means. It dominates the centroid
//!   bound, needs no value domain, and is near the distance itself.

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

/// Quantile-slice partial means of a signature given as value-ascending
/// lanes: `out[k] = ∫ Q(t) dt` over the `k`-th of `out.len()` equal slices of
/// `[0, 1]`, `Q` the quantile function — cuboid `i` holds the mass interval
/// `(W_{i−1}, W_i]` of the running weight sum `W` and adds
/// `v_i · |(W_{i−1}, W_i] ∩ slice|` to every slice it reaches into, so the
/// features sum to the mean. `W` is accumulated exactly as the sweeps of
/// [`crate::emd1d`] accumulate their CDF — the features describe the very
/// staircase the float distance integrates — and a power-of-two slice count
/// makes the edges exact too. Mass beyond 1 (a sum an ulp high) is dropped.
pub fn slice_features(values: &[f64], weights: &[f64], out: &mut [f64]) {
    debug_assert_eq!(values.len(), weights.len(), "lane length mismatch");
    debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "lanes unsorted");
    out.fill(0.0);
    let k = out.len();
    let width = 1.0 / k as f64;
    let (mut slice, mut from, mut cdf) = (0usize, 0.0f64, 0.0f64);
    for (&v, &w) in values.iter().zip(weights) {
        cdf += w;
        while slice < k {
            let edge = (slice + 1) as f64 * width;
            let to = cdf.min(edge);
            out[slice] += v * (to - from);
            from = to;
            if cdf <= edge {
                break;
            }
            slice += 1;
        }
    }
}

/// Lower bound on EMD from two signatures' [`slice_features`]:
/// `Σ_k |φ_k(a) − φ_k(b)| ≤ EMD(a, b)`, summed in slice order and returned
/// early — as the partial sum, itself a lower bound — once it exceeds `stop`
/// (pass `f64::INFINITY` for the whole sum).
///
/// Soundness: `EMD(a, b) = ∫₀¹ |Q_a − Q_b| dt` for scalar ground distance,
/// and on each slice `|∫ Q_a − ∫ Q_b| ≤ ∫ |Q_a − Q_b|`, for any partition of
/// `[0, 1]`. One slice is the centroid bound; refining a partition can only
/// raise the sum (triangle inequality).
///
/// # Panics
/// Panics if the feature vectors have different lengths.
#[inline]
pub fn slice_lower_bound_from_features(fa: &[f64], fb: &[f64], stop: f64) -> f64 {
    assert_eq!(fa.len(), fb.len(), "slice feature dimension mismatch");
    let mut sum = 0.0;
    for (x, y) in fa.iter().zip(fb) {
        sum += (x - y).abs();
        if sum > stop {
            break;
        }
    }
    sum
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
    fn slice_bound_is_admissible_and_exact_on_aligned_slices() {
        let feats = |sig: &[(f64, f64)], k: usize| {
            let mut sig = sig.to_vec();
            sig.sort_by(|x, y| x.0.total_cmp(&y.0));
            let (v, w): (Vec<f64>, Vec<f64>) = sig.into_iter().unzip();
            let mut out = vec![0.0; k];
            slice_features(&v, &w, &mut out);
            out
        };
        let lb = |a: &[(f64, f64)], b: &[(f64, f64)], k: usize| {
            slice_lower_bound_from_features(&feats(a, k), &feats(b, k), f64::INFINITY)
        };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let na = rng.gen_range(1..8);
            let a = random_sig(&mut rng, na);
            let nb = rng.gen_range(1..8);
            let b = random_sig(&mut rng, nb);
            let d = emd_1d(&a, &b);
            let (one, eight) = (lb(&a, &b, 1), lb(&a, &b, 8));
            assert!(eight <= d + 1e-9, "slice lb {eight} > emd {d}");
            assert!((one - centroid_lower_bound(&a, &b)).abs() < 1e-9);
            assert!(eight >= one - 1e-9, "refining the partition lowered it");
        }
        // Equal means, different spread: the halves separate what the
        // centroid bound cannot, and with every cuboid inside one slice the
        // bound is the distance.
        let a = vec![(-1.0, 0.5), (1.0, 0.5)];
        let b = vec![(-5.0, 0.5), (5.0, 0.5)];
        assert_eq!(centroid_lower_bound(&a, &b), 0.0);
        assert_eq!(lb(&a, &b, 8), 4.0);
        assert_eq!(emd_1d(&a, &b), 4.0);
        // A partial sum past `stop` comes back early and is still a bound.
        let (fa, fb) = (feats(&a, 8), feats(&b, 8));
        assert_eq!(slice_lower_bound_from_features(&fa, &fb, 1.0), 1.5);
    }
}
