//! The extended Jaccard similarity `κJ` over signature series (Eq. 4).
//!
//! Eq. 4 divides the summed similarity of *matched* cuboid-signature pairs by
//! `|S₁ ∪ S₂|`. Following the source model of [35] (Zhou & Chen, MM'10), a
//! "match" is a greedy one-to-one assignment of signature pairs in decreasing
//! `SimC` order, keeping only pairs above a match threshold; the union size
//! is then `|S₁| + |S₂| − matched`.
//!
//! The measure and its upper bound are generic over the pairwise similarity,
//! so they work for any signature representation.

/// Configuration of the greedy matcher.
#[derive(Debug, Clone, Copy)]
pub struct MatchingConfig {
    /// Minimum `SimC` for a pair to count as matched. `SimC = 1/(1+EMD)`
    /// lives in `(0, 1]`, so 0.5 means "EMD below 1 intensity unit".
    pub min_similarity: f64,
}

impl Default for MatchingConfig {
    fn default() -> Self {
        Self {
            min_similarity: 0.5,
        }
    }
}

impl MatchingConfig {
    /// The match radius: every float distance `d` whose `SimC`
    /// ([`crate::sim_c`]) passes the matcher's `SimC ≥ τ` test is at most
    /// this (infinite when every pair is eligible). That is `1/τ − 1`
    /// widened by twice the roundings between the two forms of the test —
    /// `1 + d`, its reciprocal, and this quotient and difference, each at
    /// most half an `ε` of `1 + d` — so a screen or sweep cap that compares
    /// a distance with the radius never rejects a pair the matcher would
    /// take; the matcher's own test still decides every pair inside it.
    pub fn radius(&self) -> f64 {
        if self.min_similarity > 0.0 {
            let radius = 1.0 / self.min_similarity - 1.0;
            radius + 4.0 * f64::EPSILON * (1.0 + radius)
        } else {
            f64::INFINITY
        }
    }
}

/// How far a float EMD lower bound can sit above the float EMD sweep of the
/// same pair through rounding alone, when the two signatures hold `terms`
/// cuboids between them and every summed magnitude is at most `scale` (the
/// sum of the two signatures' largest `|value|`, mass being 1).
///
/// Bound and sweep read the same staircase, the running float weight sum
/// (the sweep's CDF, [`crate::slice_features`]' mass cursor). In units of
/// `ε/2 · scale`: the sweep's thrice-rounded terms and recursive sum fall
/// short of the staircase's integral by `terms + 3`; it stops at the last
/// breakpoint, so where two weight sums — each within `n·ε` of 1 — end
/// apart, a bound sees `2·terms` the sweep never crosses; a centroid gap,
/// two recursive sums of `v·w` against the staircase's rounded steps, is
/// off by `2·terms`; the slice bound, recursive sums of twice-rounded `v·Δ`
/// and an L1 sum of eight rounded differences, by `terms + 10`. Either
/// total is under `4·(terms + 2)·ε · scale` (DESIGN.md §7 has it line by
/// line). A screen that skips a pair only when `bound − allowance > radius`
/// therefore skips only pairs whose swept distance is over the radius too.
pub fn rounding_allowance(terms: usize, scale: f64) -> f64 {
    4.0 * (terms + 2) as f64 * f64::EPSILON * scale
}

/// `κJ(S₁, S₂)` with greedy one-to-one matching (the system's measure).
///
/// `sim(i, j)` must return the similarity between the i-th signature of `S₁`
/// and the j-th of `S₂`, in `[0, 1]`.
///
/// Returns 0 for two empty series (no evidence either way).
pub fn extended_jaccard(
    n1: usize,
    n2: usize,
    mut sim: impl FnMut(usize, usize) -> f64,
    cfg: MatchingConfig,
) -> f64 {
    if n1 == 0 || n2 == 0 {
        return 0.0;
    }
    // All candidate pairs above the threshold, best first.
    let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
    for i in 0..n1 {
        for j in 0..n2 {
            let s = sim(i, j);
            debug_assert!(
                (-1e-9..=1.0 + 1e-9).contains(&s),
                "similarity {s} out of range"
            );
            if s >= cfg.min_similarity {
                pairs.push((s, i, j));
            }
        }
    }
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut used1 = vec![false; n1];
    let mut used2 = vec![false; n2];
    let mut matched = 0usize;
    let mut total = 0.0;
    for (s, i, j) in pairs {
        if !used1[i] && !used2[j] {
            used1[i] = true;
            used2[j] = true;
            matched += 1;
            total += s;
        }
    }
    total / (n1 + n2 - matched) as f64
}

/// Admissible upper bound on [`extended_jaccard`] from per-row similarity
/// ceilings.
///
/// `row_upper(i)` must over-estimate `max_j sim(i, j)` for the i-th signature
/// of `S₁` (e.g. `SimC` of the cheapest EMD lower bound, via
/// [`crate::lower_bounds::sim_c_upper_bound`]), with values in `[0, 1]`.
///
/// Soundness: any one-to-one matching `M` with all pair similarities ≥ τ has
/// `|M| = m ≤ min(n1, n2)` and touches `m` distinct rows, each with
/// `row_upper(i) ≥ sim(i, σ(i)) ≥ τ`; hence `Σ_M sim ≤` the sum of the `m`
/// largest eligible row ceilings, and
/// `κJ = Σ_M sim / (n1 + n2 − m) ≤ max_t Σ_{top t} / (n1 + n2 − t)`.
/// The maximisation over `t` is required because the matched count that the
/// greedy matcher realises is unknown at bound time.
pub fn extended_jaccard_upper_bound(
    n1: usize,
    n2: usize,
    row_upper: impl FnMut(usize) -> f64,
    cfg: MatchingConfig,
) -> f64 {
    extended_jaccard_upper_bound_in(&mut Vec::new(), n1, n2, row_upper, cfg)
}

/// [`extended_jaccard_upper_bound`] with the row ceilings kept in
/// `ceilings`, a caller-owned buffer (cleared first): a caller that reuses
/// it allocates nothing once it has grown to the longest series.
pub fn extended_jaccard_upper_bound_in(
    ceilings: &mut Vec<f64>,
    n1: usize,
    n2: usize,
    mut row_upper: impl FnMut(usize) -> f64,
    cfg: MatchingConfig,
) -> f64 {
    ceilings.clear();
    if n1 == 0 || n2 == 0 {
        return 0.0;
    }
    for i in 0..n1 {
        let u = row_upper(i).min(1.0);
        if u >= cfg.min_similarity {
            ceilings.push(u);
        }
    }
    // Values equal under `total_cmp` are the same bits, so the unstable
    // sort (which never allocates) leaves the one possible sequence.
    ceilings.sort_unstable_by(|a, b| b.total_cmp(a));
    let mut best = 0.0f64;
    let mut sum = 0.0;
    for (t, u) in ceilings.iter().take(n2).enumerate() {
        sum += u;
        best = best.max(sum / (n1 + n2 - (t + 1)) as f64);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radius_covers_every_distance_the_threshold_test_accepts() {
        for step in 1..200 {
            let cfg = MatchingConfig {
                min_similarity: step as f64 / 200.0,
            };
            let radius = cfg.radius();
            assert!(crate::sim_c(radius + radius * f64::EPSILON) < cfg.min_similarity);
            // Walk up from below `1/τ − 1` an ulp at a time: whatever the
            // matcher accepts lies inside the radius.
            let mut d = (1.0 / cfg.min_similarity - 1.0) * (1.0 - 8.0 * f64::EPSILON);
            for _ in 0..64 {
                assert!(crate::sim_c(d) < cfg.min_similarity || d <= radius);
                d = f64::from_bits(d.to_bits() + 1);
            }
        }
        assert_eq!(
            MatchingConfig {
                min_similarity: 0.0
            }
            .radius(),
            f64::INFINITY
        );
    }

    #[test]
    fn identical_series_score_one() {
        // Perfect diagonal matches: 3 matched pairs of sim 1.0 over a union
        // of size 3.
        let sim = |i: usize, j: usize| if i == j { 1.0 } else { 0.0 };
        let s = extended_jaccard(3, 3, sim, MatchingConfig::default());
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_series_score_zero() {
        let s = extended_jaccard(3, 4, |_, _| 0.0, MatchingConfig::default());
        assert_eq!(s, 0.0);
    }

    #[test]
    fn partial_overlap_scores_in_between() {
        // 2 of 4 query signatures match perfectly; union = 4 + 4 − 2 = 6.
        let sim = |i: usize, j: usize| if i == j && i < 2 { 1.0 } else { 0.0 };
        let s = extended_jaccard(4, 4, sim, MatchingConfig::default());
        assert!((s - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn matching_is_one_to_one() {
        // One query signature resembles every target; only one match may
        // count, leaving the union large.
        let sim = |i: usize, _j: usize| if i == 0 { 0.9 } else { 0.0 };
        let s = extended_jaccard(1, 5, sim, MatchingConfig::default());
        assert!((s - 0.9 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_prefers_best_pairs() {
        // sim(0,0)=0.6, sim(0,1)=0.9, sim(1,0)=0.9: greedy must take the two
        // 0.9 pairs, not the diagonal.
        let table = [[0.6, 0.9], [0.9, 0.0]];
        let s = extended_jaccard(2, 2, |i, j| table[i][j], MatchingConfig::default());
        assert!((s - 1.8 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_excludes_weak_pairs() {
        let s = extended_jaccard(
            2,
            2,
            |_, _| 0.4,
            MatchingConfig {
                min_similarity: 0.5,
            },
        );
        assert_eq!(s, 0.0);
        let s2 = extended_jaccard(
            2,
            2,
            |i, j| if i == j { 0.4 } else { 0.0 },
            MatchingConfig {
                min_similarity: 0.3,
            },
        );
        assert!(s2 > 0.0);
    }

    #[test]
    fn empty_series_yield_zero() {
        assert_eq!(
            extended_jaccard(0, 3, |_, _| 1.0, MatchingConfig::default()),
            0.0
        );
        assert_eq!(
            extended_jaccard(3, 0, |_, _| 1.0, MatchingConfig::default()),
            0.0
        );
    }

    #[test]
    fn upper_bound_dominates_exact_on_random_tables() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let n1 = rng.gen_range(1..8);
            let n2 = rng.gen_range(1..8);
            let table: Vec<Vec<f64>> = (0..n1)
                .map(|_| (0..n2).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            for tau in [0.0, 0.3, 0.5, 0.8] {
                let cfg = MatchingConfig {
                    min_similarity: tau,
                };
                let exact = extended_jaccard(n1, n2, |i, j| table[i][j], cfg);
                let ub = extended_jaccard_upper_bound(
                    n1,
                    n2,
                    |i| table[i].iter().cloned().fold(0.0, f64::max),
                    cfg,
                );
                assert!(
                    ub >= exact - 1e-12,
                    "τ={tau}: upper bound {ub} below exact {exact}"
                );
            }
        }
    }

    #[test]
    fn upper_bound_in_a_reused_buffer_matches_a_fresh_one() {
        let cfg = MatchingConfig::default();
        let rows = [0.9, 0.6, 1.0, 0.55, 0.7, 0.3, 0.8];
        let mut buffer = Vec::new();
        for n1 in [7, 2, 5, 0, 3] {
            let fresh = extended_jaccard_upper_bound(n1, 4, |i| rows[i], cfg);
            let reused = extended_jaccard_upper_bound_in(&mut buffer, n1, 4, |i| rows[i], cfg);
            assert_eq!(reused.to_bits(), fresh.to_bits(), "n1 = {n1}");
        }
    }

    #[test]
    fn upper_bound_is_tight_for_perfect_diagonal() {
        let sim = |i: usize, j: usize| if i == j { 1.0 } else { 0.0 };
        let exact = extended_jaccard(3, 3, sim, MatchingConfig::default());
        let ub = extended_jaccard_upper_bound(3, 3, |_| 1.0, MatchingConfig::default());
        assert!((ub - exact).abs() < 1e-12, "ub {ub} vs exact {exact}");
    }

    #[test]
    fn upper_bound_zero_when_no_row_clears_threshold() {
        let ub = extended_jaccard_upper_bound(4, 4, |_| 0.3, MatchingConfig::default());
        assert_eq!(ub, 0.0);
        assert_eq!(
            extended_jaccard_upper_bound(0, 3, |_| 1.0, MatchingConfig::default()),
            0.0
        );
    }

    #[test]
    fn symmetric_under_swap() {
        let table = [[0.9, 0.2, 0.0], [0.1, 0.8, 0.3]];
        let a = extended_jaccard(2, 3, |i, j| table[i][j], MatchingConfig::default());
        let b = extended_jaccard(3, 2, |j, i| table[i][j], MatchingConfig::default());
        assert!((a - b).abs() < 1e-12);
    }
}
