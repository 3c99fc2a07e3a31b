//! CDF embedding of 1-D EMD into L1.
//!
//! §4.4: "we embed EMD-metric into L1-norm space like [35], and use LSB-index
//! to index Z-order values of points obtained by hash conversion". For scalar
//! cuboid values, `EMD(C₁, C₂) = ∫|F₁ − F₂| dt`, so sampling the CDF at `d`
//! uniform points and scaling by the step width gives a vector whose L1
//! distance converges to the true EMD as `d` grows:
//!
//! ```text
//! φ(C)_i = F_C(lo + i·Δ) · Δ          ‖φ(C₁) − φ(C₂)‖₁ ≈ EMD(C₁, C₂)
//! ```
//!
//! The embedding never *overestimates* by more than the discretisation error
//! bound returned by [`CdfEmbedder::error_bound`].

/// Default dimensionality of the LSB-tree's [`CdfEmbedder`] embedding.
pub const CDF_EMBED_DIMS: usize = 32;

/// Embeds normalised scalar `(value, weight)` signatures into `dims`-point L1
/// space by CDF sampling over a fixed value domain.
#[derive(Debug, Clone)]
pub struct CdfEmbedder {
    lo: f64,
    hi: f64,
    dims: usize,
}

impl CdfEmbedder {
    /// Creates an embedder over the value domain `[lo, hi]` with `dims`
    /// sample points.
    ///
    /// # Panics
    /// Panics if the domain is empty or `dims < 2`.
    pub fn new(lo: f64, hi: f64, dims: usize) -> Self {
        assert!(hi > lo, "empty value domain");
        assert!(dims >= 2, "need at least two dimensions");
        Self { lo, hi, dims }
    }

    /// The embedder for cuboid intensity deltas: values lie in
    /// `[-255, 255]` (difference of two 8-bit intensities).
    pub fn for_intensity_deltas(dims: usize) -> Self {
        Self::new(-255.0, 255.0, dims)
    }

    /// Embedding dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Sampling step width Δ.
    pub fn step(&self) -> f64 {
        (self.hi - self.lo) / (self.dims - 1) as f64
    }

    /// Embeds one signature.
    pub fn embed(&self, sig: &[(f64, f64)]) -> Vec<f64> {
        assert!(!sig.is_empty(), "cannot embed an empty signature");
        // Sort values once (stably, so tied values keep their weights'
        // order); sweep the CDF over the sample grid.
        let mut pts: Vec<(f64, f64)> = sig.to_vec();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut out = Vec::with_capacity(self.dims);
        self.sweep_into(pts.into_iter(), &mut out);
        out
    }

    /// Embeds one signature given as value-ascending lanes — the order
    /// [`Self::embed`]'s stable sort leaves a signature in — into `out`,
    /// which is cleared first. Bit-identical to [`Self::embed`] over the
    /// same signature, with no allocation once `out` holds
    /// [`Self::dims`] entries.
    ///
    /// # Panics
    /// Panics if the lanes are empty or of different lengths.
    pub fn embed_sorted_into(&self, values: &[f64], weights: &[f64], out: &mut Vec<f64>) {
        assert!(!values.is_empty(), "cannot embed an empty signature");
        assert_eq!(values.len(), weights.len(), "lane length mismatch");
        debug_assert!(values.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()));
        out.clear();
        self.sweep_into(values.iter().copied().zip(weights.iter().copied()), out);
    }

    /// The CDF sweep over the sample grid, pushing [`Self::dims`] entries
    /// onto `out`: `sorted` yields `(value, weight)` pairs value-ascending.
    fn sweep_into(&self, sorted: impl Iterator<Item = (f64, f64)>, out: &mut Vec<f64>) {
        let step = self.step();
        let mut pts = sorted.peekable();
        let mut cdf = 0.0;
        for i in 0..self.dims {
            let t = self.lo + step * i as f64;
            while let Some((_, w)) = pts.next_if(|&(v, _)| v <= t) {
                cdf += w;
            }
            out.push(cdf * step);
        }
    }

    /// Worst-case absolute error of `‖φ(a) − φ(b)‖₁` versus the true EMD for
    /// signatures fully supported inside the domain: one step width of mass
    /// discrepancy per endpoint, i.e. `2Δ`.
    pub fn error_bound(&self) -> f64 {
        2.0 * self.step()
    }
}

/// L1 distance between two embedded points.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
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
            .map(|w| (rng.gen_range(-200.0..200.0), w))
            .collect()
    }

    #[test]
    fn identical_signatures_embed_identically() {
        let e = CdfEmbedder::for_intensity_deltas(32);
        let s = vec![(-10.0, 0.5), (40.0, 0.5)];
        assert_eq!(e.embed(&s), e.embed(&s));
        assert_eq!(l1_distance(&e.embed(&s), &e.embed(&s)), 0.0);
    }

    #[test]
    fn embedding_l1_approximates_emd() {
        let e = CdfEmbedder::for_intensity_deltas(256);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let na = rng.gen_range(1..8);
            let a = random_sig(&mut rng, na);
            let nb = rng.gen_range(1..8);
            let b = random_sig(&mut rng, nb);
            let approx = l1_distance(&e.embed(&a), &e.embed(&b));
            let exact = emd_1d(&a, &b);
            assert!(
                (approx - exact).abs() <= e.error_bound() + 1e-9,
                "approx {approx} vs exact {exact} (bound {})",
                e.error_bound()
            );
        }
    }

    #[test]
    fn finer_grids_reduce_error() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = random_sig(&mut rng, 5);
        let b = random_sig(&mut rng, 5);
        let exact = emd_1d(&a, &b);
        let err = |dims: usize| {
            let e = CdfEmbedder::for_intensity_deltas(dims);
            (l1_distance(&e.embed(&a), &e.embed(&b)) - exact).abs()
        };
        assert!(err(512) <= err(16) + 1e-9);
    }

    #[test]
    fn embedding_dimension_and_step() {
        let e = CdfEmbedder::new(0.0, 10.0, 11);
        assert_eq!(e.dims(), 11);
        assert!((e.step() - 1.0).abs() < 1e-12);
        assert!((e.error_bound() - 2.0).abs() < 1e-12);
        assert_eq!(e.embed(&[(5.0, 1.0)]).len(), 11);
    }

    #[test]
    fn monotone_nondecreasing_coordinates() {
        let e = CdfEmbedder::for_intensity_deltas(64);
        let s = vec![(-100.0, 0.3), (0.0, 0.4), (100.0, 0.3)];
        let v = e.embed(&s);
        for w in v.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn l1_rejects_mismatched_dims() {
        l1_distance(&[0.0], &[0.0, 1.0]);
    }
}
