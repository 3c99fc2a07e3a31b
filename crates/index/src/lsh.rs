//! p-stable locality-sensitive hashing for the L1 norm.
//!
//! §4.4 converts EMD-embedded L1 points into hash grid points before Z-order
//! encoding. For L1, the p-stable distribution is Cauchy (Datar et al.): each
//! hash is `h(v) = ⌊(a·v + b) / W⌋` with `a` drawn i.i.d. Cauchy(0, 1) and
//! `b` uniform in `[0, W)`. Close points in L1 collide with higher
//! probability than far points.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Most hash functions one [`CauchyLsh`] may hold: the Z-order budget of 128
/// bits at the minimum of 2 bits a coordinate.
pub(crate) const MAX_HASHES: usize = 64;

/// A bundle of `m` Cauchy LSH functions mapping `dims`-dimensional points to
/// `m` integer grid coordinates.
#[derive(Debug, Clone)]
pub struct CauchyLsh {
    /// Projection coefficients, transposed: `dims` rows of `m`, so row `d`
    /// holds every function's coefficient for coordinate `d` and the `m` dot
    /// products advance side by side, one coordinate at a time.
    a: Vec<f64>,
    /// `m` offsets in `[0, w)`.
    b: Vec<f64>,
    /// `m` random grid translations in `[0, 1)`, applied by
    /// [`CauchyLsh::hash_unsigned_into`] so the Z-order quadrant boundaries
    /// fall at different places in each tree (without this, every point near
    /// the data origin straddles the most significant bit of every coordinate
    /// and common prefixes collapse).
    shift: Vec<f64>,
    w: f64,
}

impl CauchyLsh {
    /// Samples `m` hash functions for `dims`-dimensional input with bucket
    /// width `w`, deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `m` or `dims` is zero, `m` exceeds 64, or `w` is not
    /// positive and finite.
    pub fn new(m: usize, dims: usize, w: f64, seed: u64) -> Self {
        assert!(
            m > 0 && dims > 0,
            "need at least one function and dimension"
        );
        assert!(m <= MAX_HASHES, "at most {MAX_HASHES} hash functions");
        assert!(
            w > 0.0 && w.is_finite(),
            "bucket width must be positive and finite"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        // Drawn function by function, as the coefficients always were, and
        // stored transposed.
        let mut a = vec![0.0; dims * m];
        for j in 0..m {
            for d in 0..dims {
                a[d * m + j] = sample_cauchy(&mut rng);
            }
        }
        let b = (0..m).map(|_| rng.gen_range(0.0..w)).collect();
        let shift = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
        Self { a, b, shift, w }
    }

    /// Number of hash functions `m`.
    pub fn m(&self) -> usize {
        self.b.len()
    }

    /// Input dimensionality.
    pub fn dims(&self) -> usize {
        self.a.len() / self.m()
    }

    /// Bucket width `W`.
    pub fn width(&self) -> f64 {
        self.w
    }

    /// Hashes `point` into `out` as `m` unsigned coordinates clamped into
    /// `[0, 2^bits)` around a per-function randomly translated centre — the
    /// representation the Z-order encoder consumes. Allocates nothing.
    ///
    /// Each dot product sums its terms in coordinate order starting from
    /// `-0.0`, exactly as `Iterator::sum` over one row would, so every
    /// coordinate is the one the row-by-row form computes (which overflowed
    /// where this saturates, on hashes within `2^bits` of `i64::MAX`).
    ///
    /// # Panics
    /// Panics if the point's dimensionality is wrong, `out` does not hold
    /// `m` coordinates, or `bits` is outside `2..=63`.
    pub fn hash_unsigned_into(&self, point: &[f64], bits: u32, out: &mut [u64]) {
        let m = self.m();
        assert_eq!(point.len(), self.dims(), "point dimensionality mismatch");
        assert_eq!(out.len(), m, "one output coordinate per function");
        assert!((2..=63).contains(&bits), "bits must be in 2..=63");
        let mut dots = [0.0; MAX_HASHES];
        let dots = &mut dots[..m];
        self.project(point, dots);
        let max = ((1u64 << bits) - 1) as i64;
        let centre = 1i64 << (bits - 1);
        // Translate by up to a quarter of the grid per function so quadrant
        // boundaries decorrelate across trees.
        let span = (1i64 << (bits - 2)) as f64;
        for (((coord, &dot), &b), &s) in out.iter_mut().zip(&*dots).zip(&self.b).zip(&self.shift) {
            let h = ((dot + b) / self.w).floor() as i64;
            let off = (s * span) as i64;
            // Saturating: a hash near `i64::MAX` clamps to the grid's edge
            // instead of wrapping to the other one.
            *coord = h.saturating_add(centre + off).clamp(0, max) as u64;
        }
    }

    /// The `m` projections `a·point`, side by side: one pass over the
    /// transposed coefficients, each dot product summed in coordinate order
    /// from `-0.0`.
    fn project(&self, point: &[f64], dots: &mut [f64]) {
        dots.fill(-0.0);
        for (row, &x) in self.a.chunks_exact(dots.len()).zip(point) {
            for (dot, &a) in dots.iter_mut().zip(row) {
                *dot += a * x;
            }
        }
    }
}

fn sample_cauchy(rng: &mut StdRng) -> f64 {
    // Inverse-CDF sampling: tan(π(u − ½)) with u uniform in (0, 1).
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (std::f64::consts::PI * (u - 0.5)).tan()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row-by-row form the transposed one replaced: `m` nested rows,
    /// sampled from the same seed in the same order, one dot product at a
    /// time, a fresh `Vec` per call. Kept as the oracle.
    struct RowLsh {
        a: Vec<Vec<f64>>,
        b: Vec<f64>,
        shift: Vec<f64>,
        w: f64,
    }

    impl RowLsh {
        fn new(m: usize, dims: usize, w: f64, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = (0..m)
                .map(|_| (0..dims).map(|_| sample_cauchy(&mut rng)).collect())
                .collect();
            let b = (0..m).map(|_| rng.gen_range(0.0..w)).collect();
            let shift = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
            Self { a, b, shift, w }
        }

        fn dots(&self, point: &[f64]) -> Vec<f64> {
            let dot = |row: &Vec<f64>| row.iter().zip(point).map(|(a, x)| a * x).sum();
            self.a.iter().map(dot).collect()
        }

        fn hash(&self, point: &[f64]) -> Vec<i64> {
            self.dots(point)
                .into_iter()
                .zip(&self.b)
                .map(|(dot, &b)| ((dot + b) / self.w).floor() as i64)
                .collect()
        }

        fn hash_unsigned(&self, point: &[f64], bits: u32) -> Vec<u64> {
            let max = (1u64 << bits) - 1;
            let centre = 1i64 << (bits - 1);
            let span = (1i64 << (bits - 2)) as f64;
            self.hash(point)
                .into_iter()
                .zip(&self.shift)
                .map(|(h, &s)| {
                    let off = (s * span) as i64;
                    (h + centre + off).clamp(0, max as i64) as u64
                })
                .collect()
        }
    }

    fn hash(lsh: &CauchyLsh, point: &[f64], bits: u32) -> Vec<u64> {
        let mut out = vec![0; lsh.m()];
        lsh.hash_unsigned_into(point, bits, &mut out);
        out
    }

    #[test]
    fn in_place_hash_matches_the_row_by_row_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(21);
        for round in 0..200u64 {
            let m = rng.gen_range(1..=16);
            let dims = rng.gen_range(1..40);
            let w = rng.gen_range(0.25..16.0);
            let bits = rng.gen_range(2..=20);
            let ours = CauchyLsh::new(m, dims, w, round);
            let oracle = RowLsh::new(m, dims, w, round);
            let mut coefficients = vec![0.0; dims * m];
            for (j, row) in oracle.a.iter().enumerate() {
                for (d, &c) in row.iter().enumerate() {
                    coefficients[d * m + j] = c;
                }
            }
            assert_eq!(ours.a, coefficients, "same draws, transposed");
            let mut dots = vec![0.0; m];
            for _ in 0..50 {
                // Random magnitudes from 1e-3 to 1e6 — far enough out that
                // coordinates clamp at small `bits` — and signed zeros.
                let scale = 10f64.powi(rng.gen_range(-3..=6));
                let point: Vec<f64> = (0..dims)
                    .map(|_| match rng.gen_range(0..8) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-scale..scale),
                    })
                    .collect();
                ours.project(&point, &mut dots);
                let bits_of = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits_of(&dots), bits_of(&oracle.dots(&point)), "{point:?}");
                assert_eq!(
                    hash(&ours, &point, bits),
                    oracle.hash_unsigned(&point, bits),
                    "m {m} dims {dims} bits {bits} point {point:?}"
                );
            }
        }
    }

    #[test]
    fn signed_zero_points_hash_alike_and_far_points_clamp() {
        let ours = CauchyLsh::new(8, 6, 2.0, 3);
        let oracle = RowLsh::new(8, 6, 2.0, 3);
        let plus = [0.0; 6];
        let minus = [-0.0; 6];
        assert_eq!(hash(&ours, &plus, 12), oracle.hash_unsigned(&plus, 12));
        assert_eq!(hash(&ours, &minus, 12), oracle.hash_unsigned(&minus, 12));
        assert_eq!(hash(&ours, &plus, 12), hash(&ours, &minus, 12));
        let far = [1e12; 6];
        let coords = hash(&ours, &far, 4);
        assert!(coords.iter().all(|&c| c == 0 || c == 15), "{coords:?}");
        assert_eq!(coords, oracle.hash_unsigned(&far, 4));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = CauchyLsh::new(4, 8, 4.0, 7);
        let b = CauchyLsh::new(4, 8, 4.0, 7);
        let p = vec![0.5; 8];
        assert_eq!(hash(&a, &p, 12), hash(&b, &p, 12));
    }

    #[test]
    fn near_points_collide_more_than_far_points() {
        let lsh = CauchyLsh::new(32, 8, 8.0, 3);
        let base = vec![0.0; 8];
        let near: Vec<f64> = (0..8).map(|i| if i == 0 { 0.3 } else { 0.0 }).collect();
        let far: Vec<f64> = (0..8).map(|_| 20.0).collect();
        // A grid wide enough that nothing clamps: coordinates collide only
        // when the hashes do.
        let collisions = |x: &[f64], y: &[f64]| {
            hash(&lsh, x, 40)
                .iter()
                .zip(hash(&lsh, y, 40))
                .filter(|&(&a, b)| a == b)
                .count()
        };
        let cn = collisions(&base, &near);
        let cf = collisions(&base, &far);
        assert!(cn > cf, "near {cn} vs far {cf}");
    }

    #[test]
    fn unsigned_hash_respects_bit_budget() {
        let lsh = CauchyLsh::new(8, 4, 1.0, 5);
        let p = vec![100.0, -100.0, 5.0, 0.0];
        for bits in [2, 10, 63] {
            for &h in &hash(&lsh, &p, bits) {
                assert!(h < 1 << bits);
            }
        }
    }

    #[test]
    fn accessors() {
        let lsh = CauchyLsh::new(3, 7, 2.5, 0);
        assert_eq!(lsh.m(), 3);
        assert_eq!(lsh.dims(), 7);
        assert_eq!(lsh.width(), 2.5);
    }

    #[test]
    fn cauchy_sampler_is_heavy_tailed() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let samples: Vec<f64> = (0..10_000).map(|_| sample_cauchy(&mut rng)).collect();
        // Median near 0; a visible fraction of |x| > 10 (tails).
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        assert!(sorted[5000].abs() < 0.2);
        let tail = samples.iter().filter(|x| x.abs() > 10.0).count();
        assert!(tail > 100, "only {tail} tail samples");
    }

    #[test]
    #[should_panic(expected = "point dimensionality")]
    fn wrong_dims_rejected() {
        hash(&CauchyLsh::new(2, 3, 1.0, 0), &[0.0; 4], 8);
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=63")]
    fn one_bit_grid_rejected() {
        hash(&CauchyLsh::new(2, 3, 1.0, 0), &[0.0; 3], 1);
    }

    #[test]
    #[should_panic(expected = "at most 64 hash functions")]
    fn too_many_functions_rejected() {
        CauchyLsh::new(MAX_HASHES + 1, 3, 1.0, 0);
    }
}
