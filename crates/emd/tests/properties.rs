//! Property tests for the EMD closed form, its oracle, the bounds and the
//! sequence measures.

mod support;

use proptest::prelude::*;
use support::matrix::DenseMatrix;
use support::transport::{solve_ssp, TransportProblem};
use viderec_emd::dtw::dtw_distance;
use viderec_emd::erp::erp_scalar;
use viderec_emd::lower_bounds::{
    centroid_lower_bound, sim_c_upper_bound, slice_features, slice_lower_bound_from_features,
};
use viderec_emd::{
    emd_1d, extended_jaccard, extended_jaccard_upper_bound, rounding_allowance, sim_c, CdfEmbedder,
    MatchingConfig,
};

/// A normalised scalar signature: 1..8 cuboids, values in ±60.
fn signature() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-60.0..60.0f64, 0.05..1.0f64), 1..8).prop_map(|mut sig| {
        let total: f64 = sig.iter().map(|&(_, w)| w).sum();
        for (_, w) in &mut sig {
            *w /= total;
        }
        sig
    })
}

/// A signature for the slice bound: 1..=12 cuboids on a half-unit grid of
/// mixed sign (so values repeat). The weights are counts over their total — dyadic when `dyadic` pads the total to a power of two,
/// thirds and sevenths and worse otherwise — and `heavy` gives the first
/// cuboid drawn at least 7/8 of the mass, wherever its value sorts.
fn sliced_signature() -> impl Strategy<Value = Vec<(f64, f64)>> {
    let cuboids = prop::collection::vec((-40..40i32, 1..9u32), 1..13);
    (cuboids, 0..2u32, 0..2u32).prop_map(|(mut raw, dyadic, heavy)| {
        if heavy == 1 {
            raw[0].1 += 7 * 8 * 11;
        }
        let total: u32 = raw.iter().map(|&(_, w)| w).sum();
        if dyadic == 1 {
            raw[0].1 += total.next_power_of_two() - total;
        }
        let total: u32 = raw.iter().map(|&(_, w)| w).sum();
        raw.iter()
            .map(|&(v, w)| (v as f64 / 2.0, w as f64 / total as f64))
            .collect()
    })
}

/// A signature for the sorted-lane embedding: 1..=12 cuboids on a
/// quarter-unit grid in ±12 (so values repeat, tie with sample points, and
/// fall outside an embedder domain of ±8), weights counts over their total.
fn lane_signature() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-48..48i32, 1..9u32), 1..13).prop_map(|raw| {
        let total: u32 = raw.iter().map(|&(_, w)| w).sum();
        raw.iter()
            .map(|&(v, w)| (v as f64 / 4.0, w as f64 / total as f64))
            .collect()
    })
}

/// The eight [`slice_features`] of a signature, sorted by value as
/// [`emd_1d`] sorts it.
fn eight_slices(sig: &[(f64, f64)]) -> [f64; 8] {
    let mut sig = sig.to_vec();
    sig.sort_by(|x, y| x.0.total_cmp(&y.0));
    let (values, weights): (Vec<f64>, Vec<f64>) = sig.into_iter().unzip();
    let mut out = [0.0; 8];
    slice_features(&values, &weights, &mut out);
    out
}

/// The slice bound of a pair and the rounding it is allowed.
fn slice_bound(a: &[(f64, f64)], b: &[(f64, f64)]) -> (f64, f64) {
    let largest = |s: &[(f64, f64)]| s.iter().map(|&(v, _)| v.abs()).fold(0.0, f64::max);
    (
        slice_lower_bound_from_features(&eight_slices(a), &eight_slices(b), f64::INFINITY),
        rounding_allowance(a.len() + b.len(), largest(a) + largest(b)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The 1-D closed form agrees with the general transportation solver
    /// under the `|x − y|` cost table on every instance.
    #[test]
    fn solvers_agree(a in signature(), b in signature()) {
        let d1 = emd_1d(&a, &b);
        let cost = DenseMatrix::from_fn(a.len(), b.len(), |i, j| (a[i].0 - b[j].0).abs());
        let weights = |s: &[(f64, f64)]| s.iter().map(|&(_, w)| w).collect::<Vec<f64>>();
        let (_, dp) = solve_ssp(&TransportProblem::new(weights(&a), weights(&b), cost));
        prop_assert!((d1 - dp).abs() < 1e-6 * (1.0 + d1), "1d {} vs ssp {}", d1, dp);
    }

    /// EMD is a metric on the scalar domain: non-negative, symmetric, zero
    /// on identity, triangle inequality.
    #[test]
    fn emd_metric_properties(a in signature(), b in signature(), c in signature()) {
        let ab = emd_1d(&a, &b);
        let ba = emd_1d(&b, &a);
        let aa = emd_1d(&a, &a);
        let bc = emd_1d(&b, &c);
        let ac = emd_1d(&a, &c);
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(aa.abs() < 1e-9);
        prop_assert!(ac <= ab + bc + 1e-9, "triangle: {} > {} + {}", ac, ab, bc);
    }

    /// Both lower bounds stay below the exact distance, neither is positive
    /// on identical signatures, and the `SimC` ceiling derived from either
    /// dominates the true `SimC`.
    #[test]
    fn lower_bounds_are_sound(a in signature(), b in signature()) {
        let exact = emd_1d(&a, &b);
        let centroid = centroid_lower_bound(&a, &b);
        let (slices, _) = slice_bound(&a, &b);
        prop_assert!(centroid <= exact + 1e-9);
        prop_assert!(slices <= exact + 1e-9, "slice lb {} > exact {}", slices, exact);
        prop_assert!(centroid_lower_bound(&a, &a).abs() < 1e-9);
        prop_assert!(sim_c_upper_bound(centroid.max(slices)) >= sim_c(exact) - 1e-12);
    }

    /// The slice bound, less its rounding allowance and nothing more, never
    /// exceeds the float sweep; it never falls short of the centroid gap by
    /// more than that allowance; and it vanishes on identical inputs —
    /// whatever the cuboid counts, repeated values, a cuboid straddling
    /// seven slice edges, and weights that do or do not sum to 1 exactly.
    #[test]
    fn slice_bound_is_admissible_to_the_allowance_and_dominates_the_centroid(
        a in sliced_signature(),
        b in sliced_signature(),
    ) {
        let (lb, give) = slice_bound(&a, &b);
        let exact = emd_1d(&a, &b);
        prop_assert!(lb - give <= exact, "slice lb {} > exact {} + {}", lb, exact, give);
        prop_assert!(lb >= centroid_lower_bound(&a, &b) - give);
        prop_assert!(slice_bound(&a, &a).0 == 0.0);
    }

    /// Eight cuboids of weight 1/8 a side put one cuboid in each slice: the
    /// bound is the distance.
    #[test]
    fn slice_bound_is_the_distance_when_cuboids_and_slices_coincide(
        a in prop::collection::vec(-400..400i32, 8),
        b in prop::collection::vec(-400..400i32, 8),
    ) {
        let eighths =
            |values: &[i32]| values.iter().map(|&v| (v as f64 / 8.0, 0.125)).collect::<Vec<_>>();
        let (a, b) = (eighths(&a), eighths(&b));
        let (lb, give) = slice_bound(&a, &b);
        prop_assert!((lb - emd_1d(&a, &b)).abs() <= give);
    }

    /// The `κJ` ceiling built from per-row similarity ceilings dominates the
    /// exact greedy `κJ` whenever the row ceilings are honest.
    #[test]
    fn kappa_upper_bound_is_admissible(
        n in 1..8usize,
        m in 1..8usize,
        tau in 0.0..0.9f64,
        seed in 0..u64::MAX,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let table: Vec<Vec<f64>> =
            (0..n).map(|_| (0..m).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let cfg = MatchingConfig { min_similarity: tau };
        let exact = extended_jaccard(n, m, |i, j| table[i][j], cfg);
        // Honest ceilings: the true row maxima, and slightly inflated ones.
        for slack in [0.0, 0.05] {
            let ub = extended_jaccard_upper_bound(
                n,
                m,
                |i| table[i].iter().cloned().fold(0.0, f64::max) + slack,
                cfg,
            );
            prop_assert!(ub >= exact - 1e-12, "slack {}: ub {} < exact {}", slack, ub, exact);
        }
    }

    /// The CDF embedding approximates EMD within its declared error bound.
    #[test]
    fn embedding_error_within_bound(a in signature(), b in signature()) {
        let embedder = CdfEmbedder::new(-65.0, 65.0, 128);
        let ea = embedder.embed(&a);
        let eb = embedder.embed(&b);
        let approx: f64 = ea.iter().zip(&eb).map(|(x, y)| (x - y).abs()).sum();
        let exact = emd_1d(&a, &b);
        prop_assert!((approx - exact).abs() <= embedder.error_bound() + 1e-9);
    }

    /// The embedding over value-ascending lanes is [`CdfEmbedder::embed`]
    /// bit for bit: tied values keep their weights' order in both, and
    /// values outside the domain land in the first or no sample.
    #[test]
    fn sorted_lane_embedding_is_embed_bit_for_bit(sig in lane_signature(), dims in 2..40usize) {
        let embedder = CdfEmbedder::new(-8.0, 8.0, dims);
        let mut sorted = sig.clone();
        sorted.sort_by(|x, y| x.0.total_cmp(&y.0));
        let (values, weights): (Vec<f64>, Vec<f64>) = sorted.into_iter().unzip();
        // A reused buffer holding another point's entries.
        let mut out = vec![f64::NAN; dims + 3];
        embedder.embed_sorted_into(&values, &weights, &mut out);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&out), bits(&embedder.embed(&sig)));
    }

    /// SimC is a similarity in (0, 1] and decreasing in distance.
    #[test]
    fn sim_c_behaviour(d1 in 0.0..100.0f64, d2 in 0.0..100.0f64) {
        let (s1, s2) = (sim_c(d1), sim_c(d2));
        prop_assert!(s1 > 0.0 && s1 <= 1.0);
        if d1 < d2 {
            prop_assert!(s1 >= s2);
        }
    }

    /// κJ stays in [0, 1] and is symmetric for symmetric similarity tables.
    #[test]
    fn kappa_bounds_and_symmetry(
        n in 1..8usize,
        m in 1..8usize,
        seed in 0..u64::MAX,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let table: Vec<Vec<f64>> =
            (0..n).map(|_| (0..m).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let cfg = MatchingConfig::default();
        let forward = extended_jaccard(n, m, |i, j| table[i][j], cfg);
        let backward = extended_jaccard(m, n, |j, i| table[i][j], cfg);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&forward));
        prop_assert!((forward - backward).abs() < 1e-12);
    }

    /// DTW: non-negative, symmetric, zero on self.
    #[test]
    fn dtw_properties(xs in prop::collection::vec(-50.0..50.0f64, 1..12),
                      ys in prop::collection::vec(-50.0..50.0f64, 1..12)) {
        let d = dtw_distance(xs.len(), ys.len(), |i, j| (xs[i] - ys[j]).abs());
        let rev = dtw_distance(ys.len(), xs.len(), |j, i| (ys[j] - xs[i]).abs());
        let own = dtw_distance(xs.len(), xs.len(), |i, j| (xs[i] - xs[j]).abs());
        prop_assert!(d >= 0.0);
        prop_assert!((d - rev).abs() < 1e-9);
        prop_assert!(own.abs() < 1e-12);
    }

    /// ERP is a metric: symmetric, identity, triangle inequality.
    #[test]
    fn erp_metric(xs in prop::collection::vec(-20.0..20.0f64, 0..8),
                  ys in prop::collection::vec(-20.0..20.0f64, 0..8),
                  zs in prop::collection::vec(-20.0..20.0f64, 0..8)) {
        let xy = erp_scalar(&xs, &ys, 0.0);
        let yx = erp_scalar(&ys, &xs, 0.0);
        let yz = erp_scalar(&ys, &zs, 0.0);
        let xz = erp_scalar(&xs, &zs, 0.0);
        prop_assert!((xy - yx).abs() < 1e-9);
        prop_assert!(erp_scalar(&xs, &xs, 0.0).abs() < 1e-12);
        prop_assert!(xz <= xy + yz + 1e-9);
    }
}
