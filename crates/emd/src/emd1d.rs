//! Closed-form EMD for scalar ground distance.
//!
//! The paper simplifies cuboid signatures so that "each `v` is a single
//! value" (§4.1), making the ground distance `c_ij = |v_1i − v_2j|`. For that
//! case EMD has the classic closed form
//!
//! ```text
//! EMD(C₁, C₂) = ∫ |F₁(t) − F₂(t)| dt
//! ```
//!
//! where `F₁`, `F₂` are the cumulative mass functions — computable with one
//! merge sweep over the sorted cuboids in `O((m+n) log(m+n))`, against the
//! polynomial augmentations of a general transportation solver. Its
//! agreement with a successive-shortest-paths transportation solver (test
//! support, `tests/support/transport.rs`) is property-tested in
//! `tests/properties.rs`.
//!
//! Three entry points, one sweep each: [`emd_1d`] (validating, sorting — the
//! reference), [`emd_1d_presorted_capped`] (the same sweep over presorted
//! pairs, with an early abort) and [`emd_1d_soa_capped`] (the branchless
//! lane kernel every query runs, bit-identical to the pair sweep). A cap of
//! `f64::INFINITY` is the uncapped distance.

/// Exact EMD between two normalised 1-D weighted point sets under ground
/// distance `|x − y|`.
///
/// Each input is a slice of `(value, weight)` pairs; weights must be positive
/// and each side must sum to 1 (within tolerance), matching Definition 1's
/// "normalized total mass".
///
/// # Panics
/// Panics if either side is empty, has non-positive weights, or is not
/// normalised.
pub fn emd_1d(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    validate(a, "first");
    validate(b, "second");

    // Sort by value (stable, so ties keep input order) and sweep.
    let mut sa: Vec<(f64, f64)> = a.to_vec();
    let mut sb: Vec<(f64, f64)> = b.to_vec();
    sa.sort_by(|x, y| x.0.total_cmp(&y.0));
    sb.sort_by(|x, y| x.0.total_cmp(&y.0));
    emd_1d_presorted_capped(&sa, &sb, f64::INFINITY)
}

/// [`emd_1d`]'s sweep for inputs already sorted by value ascending — no
/// validation and no per-call sort — with an early abort: the sweep
/// accumulates non-negative interval terms, so the running total only grows,
/// and the moment it exceeds `cap` the function returns `f64::INFINITY`
/// without finishing. With `cap = f64::INFINITY` it returns exactly
/// [`emd_1d`]'s value on the same multiset of pairs.
///
/// Callers that only need to distinguish "distance ≤ cap (and its exact
/// value)" from "distance > cap" — e.g. the κJ matcher, whose `SimC ≥ τ`
/// eligibility test is `EMD ≤ 1/τ − 1` — get the exact distance in the first
/// case and skip most of the sweep in the second.
///
/// Sortedness is only debug-asserted; unsorted input silently yields a wrong
/// (but finite) result in release builds.
pub fn emd_1d_presorted_capped(a: &[(f64, f64)], b: &[(f64, f64)], cap: f64) -> f64 {
    debug_assert!(
        a.windows(2).all(|w| w[0].0 <= w[1].0),
        "first side unsorted"
    );
    debug_assert!(
        b.windows(2).all(|w| w[0].0 <= w[1].0),
        "second side unsorted"
    );

    // Merge sweep integrating |F_a(t) − F_b(t)| dt between consecutive
    // breakpoints of the union of supports.
    let mut ia = 0;
    let mut ib = 0;
    let mut cdf_a = 0.0f64;
    let mut cdf_b = 0.0f64;
    let mut prev_t = f64::NEG_INFINITY;
    let mut total = 0.0;
    while ia < a.len() || ib < b.len() {
        let ta = if ia < a.len() { a[ia].0 } else { f64::INFINITY };
        let tb = if ib < b.len() { b[ib].0 } else { f64::INFINITY };
        let t = ta.min(tb);
        if prev_t.is_finite() && t > prev_t {
            total += (cdf_a - cdf_b).abs() * (t - prev_t);
            if total > cap {
                return f64::INFINITY;
            }
        }
        // Absorb all points at exactly t from both sides.
        while ia < a.len() && a[ia].0 == t {
            cdf_a += a[ia].1;
            ia += 1;
        }
        while ib < b.len() && b[ib].0 == t {
            cdf_b += b[ib].1;
            ib += 1;
        }
        prev_t = t;
    }
    total
}

/// How many merge steps the SoA kernel runs between cap checks. The running
/// total is a sum of non-negative terms, so it is monotone — checking once
/// per block instead of once per element cannot change the result, only how
/// soon an over-cap sweep aborts.
const CAP_CHECK_BLOCK: usize = 8;

/// Exact EMD over flat structure-of-arrays lanes, with the early-abort
/// contract of [`emd_1d_presorted_capped`]: `av`/`bv` are the value lanes
/// (ascending), `aw`/`bw` the matching weight lanes. The total comes back
/// exact when it is `<= cap`, and `f64::INFINITY` as soon as a block-boundary
/// check sees the monotone total exceed `cap`. Bit-identical to the pair
/// sweep on the same multiset of pairs and the same cap (pinned by
/// `soa_kernel_is_bit_identical_to_pair_sweep`).
///
/// This is the hot-path kernel: the merge select is branchless (the
/// not-taken side contributes `+0.0`, which cannot move a non-negative sum),
/// indices advance by `bool as usize`, and the lanes are contiguous — the
/// shape the backend turns into cmov/select code with no bounds checks in
/// the blocked body. The pair-slice sweep above is kept as the reference
/// implementation the lane kernel is pinned against.
///
/// `inline(never)`: this is the hot kernel the sampling profiler must be
/// able to attribute — a physical frame here costs one call per sweep
/// (thousands of merge steps), and buys every `/debug/profile` capture and
/// the bench folded stacks a named `emd_1d_soa_capped` leaf instead of
/// samples smeared into whichever caller the inliner picked.
#[inline(never)]
// viderec-lint: allow(serve-no-panic) — the only `unwrap()`s are
// `try_into()` on slices the loop guard proved are exactly
// `CAP_CHECK_BLOCK` long; the conversion is infallible.
pub fn emd_1d_soa_capped(av: &[f64], aw: &[f64], bv: &[f64], bw: &[f64], cap: f64) -> f64 {
    debug_assert_eq!(av.len(), aw.len(), "first lane length mismatch");
    debug_assert_eq!(bv.len(), bw.len(), "second lane length mismatch");
    debug_assert!(av.windows(2).all(|w| w[0] <= w[1]), "first lane unsorted");
    debug_assert!(bv.windows(2).all(|w| w[0] <= w[1]), "second lane unsorted");

    let (n, m) = (av.len(), bv.len());
    let (mut ia, mut ib) = (0usize, 0usize);
    let mut cdf_a = 0.0f64;
    let mut cdf_b = 0.0f64;
    let mut total = 0.0f64;
    // Start the sweep at the lowest breakpoint instead of a −∞ sentinel: the
    // first per-point area term is then a zero-width `gap · 0.0` (no
    // `0 · ∞ = NaN` hazard), and zero-width terms add `+0.0`, which is
    // bit-neutral on a non-negative total. That is what makes this
    // one-point-at-a-time sweep bit-identical to the absorb-all-ties
    // reference sweep: both add the identical `|F_a − F_b| · Δt` term at
    // every distinct breakpoint, in the same order.
    let mut prev_t = match (av.first(), bv.first()) {
        (Some(&x), Some(&y)) => {
            if x <= y {
                x
            } else {
                y
            }
        }
        (Some(&x), None) => x,
        (None, Some(&y)) => y,
        (None, None) => return 0.0,
    };

    macro_rules! merge_step {
        () => {{
            let ta = av[ia];
            let tb = bv[ib];
            // Both weights are loaded unconditionally so the selects below
            // work on registers — a guarded load would force the backend to
            // emit a real branch around the bounds check.
            let wa = aw[ia];
            let wb = bw[ib];
            // Ties go to `a` first, matching the reference sweep's absorb
            // order (it drains side `a` at each breakpoint before side `b`).
            let take_a = ta <= tb;
            let t = if take_a { ta } else { tb };
            total += (cdf_a - cdf_b).abs() * (t - prev_t);
            prev_t = t;
            cdf_a += if take_a { wa } else { 0.0 };
            cdf_b += if take_a { 0.0 } else { wb };
            ia += take_a as usize;
            ib += !take_a as usize;
        }};
    }

    // Blocked merge: both sides are guaranteed in-bounds for a full block,
    // so the unrolled body carries no per-element cap checks; the cap is
    // checked once per block, which cannot change the result because the
    // total is monotone. The selects are all-ones/all-zeros bit masks from
    // the compare — pure integer and/or with no float arithmetic, so the
    // taken side's value is reproduced bit-for-bit (`f64::min` would cost a
    // NaN-ordering fixup sequence per step, and a float `if` compiles to a
    // branch that mispredicts on ~half of random merge steps). The
    // not-taken weight masks to `+0.0`, bit-neutral when added to a
    // non-negative CDF.
    //
    // Each block re-slices fixed `[f64; CAP_CHECK_BLOCK]` windows and walks
    // them with in-block offsets. The offsets advance by `bool as usize`, so
    // after `k < CAP_CHECK_BLOCK` unrolled steps each is statically in
    // `0..=k` — the backend drops every per-step bounds check, where
    // data-dependent indices into the full slices defeat its range analysis
    // and pay four compare-and-branch guards per merge step.
    while n - ia >= CAP_CHECK_BLOCK && m - ib >= CAP_CHECK_BLOCK {
        let av8: &[f64; CAP_CHECK_BLOCK] = av[ia..ia + CAP_CHECK_BLOCK].try_into().unwrap();
        let aw8: &[f64; CAP_CHECK_BLOCK] = aw[ia..ia + CAP_CHECK_BLOCK].try_into().unwrap();
        let bv8: &[f64; CAP_CHECK_BLOCK] = bv[ib..ib + CAP_CHECK_BLOCK].try_into().unwrap();
        let bw8: &[f64; CAP_CHECK_BLOCK] = bw[ib..ib + CAP_CHECK_BLOCK].try_into().unwrap();
        let (mut ka, mut kb) = (0usize, 0usize);
        for _ in 0..CAP_CHECK_BLOCK {
            let ta = av8[ka];
            let tb = bv8[kb];
            let fa = aw8[ka];
            let fb = bw8[kb];
            // Ties go to `a` first, matching the reference sweep's absorb
            // order (it drains side `a` at each breakpoint before side `b`).
            let take_a = ta <= tb;
            let mask = (take_a as u64).wrapping_neg();
            let t = f64::from_bits((ta.to_bits() & mask) | (tb.to_bits() & !mask));
            total += (cdf_a - cdf_b).abs() * (t - prev_t);
            prev_t = t;
            cdf_a += f64::from_bits(fa.to_bits() & mask);
            cdf_b += f64::from_bits(fb.to_bits() & !mask);
            ka += take_a as usize;
            kb += !take_a as usize;
        }
        ia += ka;
        ib += kb;
        if total > cap {
            return f64::INFINITY;
        }
    }
    // Drain the merge until one side is exhausted.
    while ia < n && ib < m {
        merge_step!();
    }
    if total > cap {
        return f64::INFINITY;
    }
    // Tail: only one of these loops runs; the other side's CDF is complete.
    while ia < n {
        let t = av[ia];
        total += (cdf_a - cdf_b).abs() * (t - prev_t);
        prev_t = t;
        cdf_a += aw[ia];
        ia += 1;
    }
    while ib < m {
        let t = bv[ib];
        total += (cdf_a - cdf_b).abs() * (t - prev_t);
        prev_t = t;
        cdf_b += bw[ib];
        ib += 1;
    }
    if total > cap {
        f64::INFINITY
    } else {
        total
    }
}

fn validate(side: &[(f64, f64)], which: &str) {
    assert!(!side.is_empty(), "{which} signature is empty");
    assert!(
        side.iter()
            .all(|&(v, w)| v.is_finite() && w.is_finite() && w > 0.0),
        "{which} signature has non-positive or non-finite entries"
    );
    let mass: f64 = side.iter().map(|&(_, w)| w).sum();
    assert!(
        (mass - 1.0).abs() <= 1e-6,
        "{which} signature mass {mass} is not normalised"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_have_zero_emd() {
        let a = vec![(1.0, 0.5), (3.0, 0.5)];
        assert!(emd_1d(&a, &a).abs() < 1e-12);
    }

    #[test]
    fn point_masses_distance_is_value_gap() {
        let a = vec![(0.0, 1.0)];
        let b = vec![(7.5, 1.0)];
        assert!((emd_1d(&a, &b) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn split_mass_example() {
        // Move 0.5 mass from 0 to 1 → EMD = 0.5.
        let a = vec![(0.0, 1.0)];
        let b = vec![(0.0, 0.5), (1.0, 0.5)];
        assert!((emd_1d(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let a = vec![(0.0, 0.25), (2.0, 0.75)];
        let b = vec![(1.0, 0.6), (5.0, 0.4)];
        assert!((emd_1d(&a, &b) - emd_1d(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn translation_shifts_emd_by_offset_for_point_masses() {
        let a = vec![(2.0, 1.0)];
        let b = vec![(2.0, 0.3), (4.0, 0.7)];
        // EMD = 0.7 × 2.
        assert!((emd_1d(&a, &b) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn triangle_inequality_on_samples() {
        let a = vec![(0.0, 0.5), (1.0, 0.5)];
        let b = vec![(2.0, 1.0)];
        let c = vec![(0.5, 0.2), (3.0, 0.8)];
        let (ab, bc, ac) = (emd_1d(&a, &b), emd_1d(&b, &c), emd_1d(&a, &c));
        assert!(ac <= ab + bc + 1e-12);
    }

    #[test]
    fn duplicate_values_merge_correctly() {
        let a = vec![(1.0, 0.5), (1.0, 0.5)];
        let b = vec![(1.0, 1.0)];
        assert!(emd_1d(&a, &b).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_is_fine() {
        let a = vec![(5.0, 0.5), (0.0, 0.5)];
        let b = vec![(0.0, 0.5), (5.0, 0.5)];
        assert!(emd_1d(&a, &b).abs() < 1e-12);
    }

    #[test]
    fn presorted_matches_emd_1d() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..100 {
            let mk = |rng: &mut StdRng| {
                let n = rng.gen_range(1..10);
                let mut ws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
                let t: f64 = ws.iter().sum();
                ws.iter_mut().for_each(|w| *w /= t);
                ws.into_iter()
                    .map(|w| (rng.gen_range(-30.0f64..30.0), w))
                    .collect::<Vec<_>>()
            };
            let a = mk(&mut rng);
            let b = mk(&mut rng);
            let full = emd_1d(&a, &b);
            let mut sa = a.clone();
            let mut sb = b.clone();
            sa.sort_by(|x, y| x.0.total_cmp(&y.0));
            sb.sort_by(|x, y| x.0.total_cmp(&y.0));
            // Bit-identical, not merely close: same sweep over the same
            // sorted sequence.
            assert_eq!(full, emd_1d_presorted_capped(&sa, &sb, f64::INFINITY));
        }
    }

    #[test]
    fn capped_sweep_is_exact_below_cap_and_infinite_above() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..200 {
            let mk = |rng: &mut StdRng| {
                let n = rng.gen_range(1..8);
                let mut ws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
                let t: f64 = ws.iter().sum();
                ws.iter_mut().for_each(|w| *w /= t);
                let mut pairs: Vec<(f64, f64)> = ws
                    .into_iter()
                    .map(|w| (rng.gen_range(-30.0f64..30.0), w))
                    .collect();
                pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
                pairs
            };
            let a = mk(&mut rng);
            let b = mk(&mut rng);
            let exact = emd_1d_presorted_capped(&a, &b, f64::INFINITY);
            let cap = rng.gen_range(0.0..20.0);
            let capped = emd_1d_presorted_capped(&a, &b, cap);
            if exact <= cap {
                assert_eq!(capped, exact);
            } else {
                assert_eq!(capped, f64::INFINITY, "exact {exact} cap {cap}");
            }
        }
    }

    fn split_lanes(pairs: &[(f64, f64)]) -> (Vec<f64>, Vec<f64>) {
        pairs.iter().copied().unzip()
    }

    fn random_sorted_signature(rng: &mut impl rand::Rng, max_len: usize) -> Vec<(f64, f64)> {
        let n = rng.gen_range(1..=max_len);
        let mut ws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
        let t: f64 = ws.iter().sum();
        ws.iter_mut().for_each(|w| *w /= t);
        let mut pairs: Vec<(f64, f64)> = ws
            .into_iter()
            .map(|w| (rng.gen_range(-30.0f64..30.0), w))
            .collect();
        pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
        pairs
    }

    #[test]
    fn soa_kernel_is_bit_identical_to_pair_sweep() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(41);
        for round in 0..400 {
            let mut a = random_sorted_signature(&mut rng, 80);
            let mut b = random_sorted_signature(&mut rng, 80);
            // Inject duplicate values, within a side and across sides, so
            // the tie-handling paths of both sweeps are exercised.
            if round % 3 == 0 && a.len() > 1 {
                a[1].0 = a[0].0;
                b[0].0 = a[0].0;
                b.sort_by(|x, y| x.0.total_cmp(&y.0));
            }
            let (av, aw) = split_lanes(&a);
            let (bv, bw) = split_lanes(&b);
            let reference = emd_1d_presorted_capped(&a, &b, f64::INFINITY);
            let soa = emd_1d_soa_capped(&av, &aw, &bv, &bw, f64::INFINITY);
            assert_eq!(reference.to_bits(), soa.to_bits(), "round {round}");
        }
    }

    #[test]
    fn soa_capped_kernel_matches_pair_capped_sweep() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..400 {
            let a = random_sorted_signature(&mut rng, 40);
            let b = random_sorted_signature(&mut rng, 40);
            let (av, aw) = split_lanes(&a);
            let (bv, bw) = split_lanes(&b);
            let cap = rng.gen_range(0.0..25.0);
            let reference = emd_1d_presorted_capped(&a, &b, cap);
            let soa = emd_1d_soa_capped(&av, &aw, &bv, &bw, cap);
            assert_eq!(reference.to_bits(), soa.to_bits(), "cap {cap}");
        }
    }

    #[test]
    fn soa_kernel_handles_extreme_weights_bitwise() {
        // One weight carries almost all the mass; the rest are tiny. The
        // absorb order must still match the reference exactly.
        let mut a: Vec<(f64, f64)> = vec![(0.0, 1.0 - 3e-9), (1.0, 1e-9), (1.0, 1e-9), (2.0, 1e-9)];
        let b: Vec<(f64, f64)> = vec![(0.5, 0.5), (0.5, 0.5)];
        a.sort_by(|x, y| x.0.total_cmp(&y.0));
        let (av, aw) = split_lanes(&a);
        let (bv, bw) = split_lanes(&b);
        assert_eq!(
            emd_1d_presorted_capped(&a, &b, f64::INFINITY).to_bits(),
            emd_1d_soa_capped(&av, &aw, &bv, &bw, f64::INFINITY).to_bits()
        );
    }

    #[test]
    fn soa_kernel_lengths_straddling_the_block_size_agree() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(47);
        for n in [1usize, 7, 8, 9, 15, 16, 17, 64] {
            for m in [1usize, 8, 9, 63, 64] {
                let mut mk = |len: usize| {
                    let mut ws: Vec<f64> = (0..len).map(|_| rng.gen_range(0.1..1.0)).collect();
                    let t: f64 = ws.iter().sum();
                    ws.iter_mut().for_each(|w| *w /= t);
                    let mut pairs: Vec<(f64, f64)> = ws
                        .into_iter()
                        .map(|w| (rng.gen_range(-30.0f64..30.0), w))
                        .collect();
                    pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
                    pairs
                };
                let a = mk(n);
                let b = mk(m);
                let (av, aw) = split_lanes(&a);
                let (bv, bw) = split_lanes(&b);
                assert_eq!(
                    emd_1d_presorted_capped(&a, &b, f64::INFINITY).to_bits(),
                    emd_1d_soa_capped(&av, &aw, &bv, &bw, f64::INFINITY).to_bits(),
                    "n={n} m={m}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not normalised")]
    fn unnormalised_rejected() {
        emd_1d(&[(0.0, 0.7)], &[(0.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        emd_1d(&[], &[(0.0, 1.0)]);
    }
}
