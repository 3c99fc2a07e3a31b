//! Query-level pruning.
//!
//! The expensive part of refining a candidate is the exact `κJ`: every
//! signature pair of the two series may need an EMD solve. Once a scan
//! already holds `k` results, a candidate whose *best possible* score cannot
//! strictly beat the current k-th score can be skipped without any exact
//! evaluation:
//!
//! 1. per query signature, the cheapest admissible EMD lower bound against
//!    each video signature gives a `SimC` ceiling
//!    ([`viderec_emd::sim_c_upper_bound`]);
//! 2. the per-row ceilings combine into an admissible `κJ` ceiling
//!    ([`viderec_emd::extended_jaccard_upper_bound`]);
//! 3. fusing that ceiling with the (cheap, exact) social score gives a score
//!    ceiling to test against the running k-th score.
//!
//! The per-pair bound is evaluated from two [`SeriesView`]s into the
//! corpus-owned [`crate::arena::ScoringArena`] — signature means (Rubner's
//! centroid bound) and cached quantile-slice partial means, whose L1
//! distance ([`viderec_emd::slice_lower_bound_from_features`]) is an
//! O([`SLICES`]) bound close to the distance itself, instead of a per-pair
//! sort or sweep. The slice bound dominates the centroid gap (one slice *is*
//! the centroid bound), so it is the only bound there is, and one kernel
//! ([`row_bounds`]) prices it: a query row against every signature of the
//! video at once, off the video's slice-major feature block. Paper mode's
//! `κJ` ceiling ([`kappa_upper_bound`]) and the exact matcher's keys
//! ([`kappa_exact_cached`]) read its rows.
//!
//! The gated mode asks the same question of the whole corpus at once: which
//! videos hold a signature pair whose bound is within `reach`, the match
//! radius plus the rounding give? [`reach_set`] answers it off the corpus's
//! mean-sorted [`ReachIndex`] — per query signature, one binary search for
//! the window of means within `reach`, and one pass of the same expression
//! ([`pair_bounds`]) over the window's slice columns. Its answer `R` is the
//! content gather, and `idx ∉ R` is the ladder's zero rung: a video outside
//! `R` has no row ceiling at `τ`, so its `κJ` ceiling is 0. The pass also
//! keeps, per member and query row, the smallest bound in reach
//! ([`ReachRows`]), and a member's `κJ` ceiling is taken from those minima
//! ([`kappa_ceiling_in_reach`]) — [`kappa_upper_bound`]'s bits, with no
//! second pass over the member's pairs. A gated query runs [`row_bounds`]
//! only to key the exact matcher.
//!
//! The pruning test uses *strict* inequality: a candidate tying the k-th
//! score must still be evaluated because ranking ties break by `VideoId`, so
//! the result set stays identical to the unpruned scan.
//!
//! Every content scan — gathered candidates and certificate survivors alike,
//! in every retrieval mode — drives those ceilings through one lazy
//! best-first [`Ladder`]: a max-queue keyed
//! by each candidate's *current* score ceiling, refined one rung at a time
//! and only while the ceiling still clears the top-k floor — in *runs*
//! between scoring events, so a traced query reads the clock per scoring
//! event, not per candidate.

use crate::arena::{ReachIndex, SeriesView};
use crate::config::RecommenderConfig;
use crate::recommender::{Content, Scored};
use crate::relevance::{strategy_score, Strategy};
use crate::topk::{floor_of, push_top_k, WorstFirst};
use crate::trace::{QueryTrace, Stage, Tracer};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use viderec_emd::{
    emd_1d_soa_capped, extended_jaccard_upper_bound_in, rounding_allowance, sim_c,
    sim_c_upper_bound, MatchingConfig,
};

/// Equal-mass quantile slices cached per signature
/// ([`viderec_emd::slice_features`]): the bound is an L1 distance over this
/// many partial means per pair, so the per-pair cost is O([`SLICES`]) — it
/// has to pay for itself against exact evaluations that are themselves only
/// a few microseconds. A power of two, so the slice edges are exact.
pub(crate) const SLICES: usize = 8;

/// Per-query pruning counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Candidates considered.
    pub scanned: u64,
    /// Candidates that never paid for an exact `κJ` evaluation: their score
    /// ceiling fell strictly below the running k-th score, or a bound proved
    /// `κJ = 0` and with it the exact score. `pruned + exact_evals ==
    /// scanned` always.
    pub pruned: u64,
    /// Retired with the cached-embedding tier (which pruned nothing on any
    /// measured workload); kept so counters and trace records keep their
    /// layout. Always 0.
    pub pruned_embed: u64,
    /// Candidates that paid for an exact `κJ` evaluation.
    pub exact_evals: u64,
    /// Signature pairs inside exact evaluations that were proven under `τ`
    /// without a finished sweep: within the centroid gap's reach but keyed
    /// under `τ` by their `SimC` ceiling, or aborted by the capped sweep once
    /// the matcher reached them. A pair the matcher never reached counts
    /// here no more than in `full_sweeps`, and neither counts a pair the
    /// centroid gap screened.
    pub cap_aborted: u64,
    /// Signature pairs inside exact evaluations whose sweep the matcher ran
    /// to completion: the exact distances it had to price.
    pub full_sweeps: u64,
}

impl PruneStats {
    /// Accumulates another query's counters.
    pub fn absorb(&mut self, other: PruneStats) {
        self.scanned += other.scanned;
        self.pruned += other.pruned;
        self.exact_evals += other.exact_evals;
        self.cap_aborted += other.cap_aborted;
        self.full_sweeps += other.full_sweeps;
    }

    /// Fraction of scanned candidates that were pruned (0 when none scanned).
    pub fn prune_rate(&self) -> f64 {
        if self.scanned == 0 {
            0.0
        } else {
            self.pruned as f64 / self.scanned as f64
        }
    }
}

/// The EMD lower bound that feeds the `SimC` ceilings. There is one: the
/// quantile-slice bound ([`viderec_emd::slice_lower_bound_from_features`]),
/// the mean of each of [`SLICES`] equal-mass slices, cached per signature in
/// the scoring arena and compared in O([`SLICES`]) per pair. It dominates
/// the centroid bound (the slice means sum to the mean) and adapts to the
/// data by construction. The type selects nothing; it stays because
/// [`crate::RecommenderConfig::with_prune_bound`] takes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruneBound {
    /// The quantile-slice bound.
    Best {
        /// Inert: the slices need no value domain (the Lipschitz anchors
        /// this variant replaced did). Read by nothing, any value accepted;
        /// the fields go once the benchmark that sets them may be edited.
        lo: f64,
        /// Inert, as `lo`.
        hi: f64,
    },
}

impl Default for PruneBound {
    fn default() -> Self {
        PruneBound::Best {
            lo: -16.0,
            hi: 16.0,
        }
    }
}

/// Reusable buffers of the `κJ` ceilings ([`kappa_upper_bound`],
/// [`kappa_ceiling_in_reach`]) and [`kappa_exact_cached`]: the pair-bound
/// row, the row ceilings, the matcher's two tiers of [`PairKey`]s and its
/// row/column occupancy flags.
#[derive(Default)]
struct Scratch {
    /// One query row's pair bounds ([`row_bounds`]).
    lbs: Vec<f64>,
    /// The row ceilings of a `κJ` ceiling.
    ceilings: Vec<f64>,
    /// Pairs not yet swept, keyed by their `SimC` ceiling, sorted ascending:
    /// the best at the back.
    unswept: Vec<PairKey>,
    /// Swept pairs, keyed by their exact `SimC`.
    swept: BinaryHeap<PairKey>,
    used1: Vec<bool>,
    used2: Vec<bool>,
}

thread_local! {
    /// Scratch reused across `κJ` ceiling and [`kappa_exact_cached`] calls
    /// on this thread. One bound or refinement runs per thread at a time,
    /// and the buffers regrow to the largest series pair seen, so the hot
    /// path allocates nothing after warm-up.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

#[cfg(test)]
thread_local! {
    /// Signature pairs [`kappa_exact_cached`] keyed on this thread but never
    /// examined: dropped for a used row or column, or left when it stopped.
    static NEVER_EXAMINED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Signature pairs [`row_bounds`] bounded on this thread.
    static PAIRS_BOUNDED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Of those, the pairs [`key_pairs`] bounded for the exact matcher.
    static PAIRS_KEYED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A signature pair `(i, j)` under a non-negative `SimC` key, packed so that
/// integer order is the matcher's order reversed into a max-order: key
/// ascending (a non-negative `f64`'s bits order as the value does), then
/// `(i, j)` *descending* — the greatest `PairKey` is the highest key, and
/// among equal keys the row-major first pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PairKey(u128);

impl PairKey {
    fn new(key: f64, i: usize, j: usize) -> Self {
        debug_assert!(key.is_sign_positive(), "pair key {key} is negative");
        let ij = ((i as u64) << 32) | j as u64;
        Self((u128::from(key.to_bits()) << 64) | u128::from(!ij))
    }

    fn key(self) -> f64 {
        f64::from_bits((self.0 >> 64) as u64)
    }

    fn pair(self) -> (usize, usize) {
        let ij = !(self.0 as u64);
        ((ij >> 32) as usize, ij as u32 as usize)
    }
}

/// How many video signatures [`row_bounds`] prices side by side: one
/// 256-bit vector of `f64`s.
const LANES: usize = 4;

/// The pair-bound pass's one kernel: row `i` of the `n1 × n2` matrix of
/// per-pair EMD lower bounds, into `lbs` (resized to the row) —
/// `lbs[j] = max(|q_i − m_j|, Σ_k |fq_ik − f_jk|)`, the centroid gap maxed
/// with the whole quantile-slice L1 — and the row's smallest bound.
///
/// The slices are summed in slice order from `0`, so every pair's sum is
/// the one [`viderec_emd::slice_lower_bound_from_features`] forms, bit for
/// bit; the video's slice-major block makes each slice of [`LANES`]
/// neighbouring signatures one contiguous run, which the compiler turns
/// into vector arithmetic across `j`.
fn row_bounds(query: SeriesView<'_>, i: usize, video: SeriesView<'_>, lbs: &mut Vec<f64>) -> f64 {
    let (q, fq) = (query.means[i], query.features(i));
    let cols: [&[f64]; SLICES] = std::array::from_fn(|k| video.slice(k));
    let n = video.len();
    lbs.resize(n, 0.0);
    let full = n - n % LANES;
    let mut mins = [f64::INFINITY; LANES];
    for j in (0..full).step_by(LANES) {
        let block = pair_bounds::<LANES>(q, &fq, &cols, video.means, j);
        lbs[j..j + LANES].copy_from_slice(&block);
        for (min, lb) in mins.iter_mut().zip(block) {
            *min = min.min(lb);
        }
    }
    for (j, lb) in lbs.iter_mut().enumerate().skip(full) {
        [*lb] = pair_bounds::<1>(q, &fq, &cols, video.means, j);
        mins[0] = mins[0].min(*lb);
    }
    #[cfg(test)]
    PAIRS_BOUNDED.set(PAIRS_BOUNDED.get() + n as u64);
    mins.into_iter().fold(f64::INFINITY, f64::min)
}

/// The pair bounds of [`row_bounds`] for the `W` video signatures from `j`
/// on: the query row's mean `q` and slice features `fq` against the video's
/// slice columns `cols` and its `means`.
#[inline(always)]
fn pair_bounds<const W: usize>(
    q: f64,
    fq: &[f64; SLICES],
    cols: &[&[f64]; SLICES],
    means: &[f64],
    j: usize,
) -> [f64; W] {
    let mut sums = [0.0; W];
    for (col, &x) in cols.iter().zip(fq) {
        for (sum, &f) in sums.iter_mut().zip(&col[j..j + W]) {
            *sum += (x - f).abs();
        }
    }
    for (sum, &m) in sums.iter_mut().zip(&means[j..j + W]) {
        *sum = (q - m).abs().max(*sum);
    }
    sums
}

/// How many index entries [`reach_pass`] prices per step: two vectors.
const REACH_STEP: usize = 2 * LANES;

/// A gated query's reach set `R` with its row minima, as [`reach_set`]
/// leaves them: per member video and query row, the smallest bound among
/// the row's pairs in reach (`≤ reach`), `+∞` for a row holding none. Thread
/// scratch: a slot per corpus video, reset through the member list rather
/// than cleared whole, and `rows × |R|` minima.
#[derive(Default)]
pub(crate) struct ReachRows {
    /// Per corpus video, its place in `members`, or [`Self::OUT`].
    slot: Vec<u32>,
    /// The videos of `R`, in the order the pass first found them.
    members: Vec<u32>,
    /// Query rows.
    rows: usize,
    /// `rows` minima per member, in member order.
    minima: Vec<f64>,
}

impl ReachRows {
    /// The slot of a video outside `R`.
    const OUT: u32 = u32::MAX;

    /// Empties the set and sizes it for `videos` videos and `rows` query rows.
    fn reset(&mut self, videos: usize, rows: usize) {
        for &video in &self.members {
            self.slot[video as usize] = Self::OUT;
        }
        self.members.clear();
        self.minima.clear();
        self.slot.resize(videos, Self::OUT);
        self.rows = rows;
    }

    /// Takes pair bound `lb`, in reach, of query row `row` against a
    /// signature of `video` into the row's minimum.
    fn note(&mut self, row: usize, video: u32, lb: f64) {
        let mut at = self.slot[video as usize];
        if at == Self::OUT {
            at = self.members.len() as u32;
            self.slot[video as usize] = at;
            self.members.push(video);
            self.minima
                .resize(self.minima.len() + self.rows, f64::INFINITY);
        }
        let min = &mut self.minima[at as usize * self.rows + row];
        *min = min.min(lb);
    }

    /// Whether `idx` is in `R`.
    pub(crate) fn contains(&self, idx: u32) -> bool {
        self.slot[idx as usize] != Self::OUT
    }

    /// The videos of `R`, in no particular order.
    pub(crate) fn members(&self) -> &[u32] {
        &self.members
    }

    /// The row minima of `idx`, or `None` outside `R`.
    fn row_minima(&self, idx: u32) -> Option<&[f64]> {
        let at = self.slot[idx as usize] as usize;
        self.contains(idx)
            .then(|| &self.minima[at * self.rows..(at + 1) * self.rows])
    }
}

/// The reach set `R` of a gated query, with its row minima, into `out`
/// (reset to the corpus size first): every video holding a signature pair
/// whose [`row_bounds`] bound is `≤ reach`. A video outside it has no row
/// ceiling at or above `τ` — each of its pairs is further than `reach`, so
/// conceded by `give` it is over the radius — and so `κJ = 0` by
/// [`kappa_upper_bound`]; a member's `κJ` ceiling is
/// [`kappa_ceiling_in_reach`] over its minima.
pub(crate) fn reach_set(
    index: &ReachIndex,
    query: SeriesView<'_>,
    reach: f64,
    videos: usize,
    out: &mut ReachRows,
) {
    out.reset(videos, query.len());
    reach_pass(index, query, reach, |row, video, lb| {
        out.note(row, video, lb)
    });
}

/// The pair-bound pass over a [`ReachIndex`]: per query signature, the
/// window of entries whose centroid gap is within `reach`
/// ([`ReachIndex::window`], one run per chunk it crosses), priced [`REACH_STEP`] at a time by
/// [`pair_bounds`] — the expression [`row_bounds`] forms, on the same bits —
/// and `in_reach(row, video, lb)` for each entry whose bound `lb` is
/// `≤ reach`. Entries outside the window have a gap, and so a bound, over
/// `reach`.
fn reach_pass(
    index: &ReachIndex,
    query: SeriesView<'_>,
    reach: f64,
    mut in_reach: impl FnMut(usize, u32, f64),
) {
    for (i, &q) in query.means.iter().enumerate() {
        let fq = query.features(i);
        for (means, cols, videos) in index.window(q, reach) {
            let full = means.len() - means.len() % REACH_STEP;
            for j in (0..full).step_by(REACH_STEP) {
                let lbs = pair_bounds::<REACH_STEP>(q, &fq, &cols, means, j);
                // No branch per entry: a step holding a pair in reach is
                // walked again.
                if lbs.iter().fold(false, |any, &lb| any | (lb <= reach)) {
                    for (&lb, &video) in lbs.iter().zip(&videos[j..]) {
                        if lb <= reach {
                            in_reach(i, video, lb);
                        }
                    }
                }
            }
            for (j, &video) in videos.iter().enumerate().skip(full) {
                let [lb] = pair_bounds::<1>(q, &fq, &cols, means, j);
                if lb <= reach {
                    in_reach(i, video, lb);
                }
            }
        }
    }
}

/// [`kappa_upper_bound`] of a video in a gated query's reach set, off its
/// [`ReachRows`] minima instead of a second pass over its pairs: `SimC` of
/// each row's minimum conceded by `give`, then the matcher bound over those
/// row ceilings, for a video of `n2` signatures. The same bits: a row with a
/// pair in reach has its smallest bound among those pairs — every other
/// pair is over `reach` — and a row with none (`+∞`, a ceiling of 0) has
/// every bound over `reach = radius + give`, so a ceiling under `τ` that
/// [`extended_jaccard_upper_bound_in`] drops as it drops 0. (`τ ≤ 0` makes
/// `reach` infinite, so then every row holds a pair in reach.)
fn kappa_ceiling_in_reach(minima: &[f64], n2: usize, give: f64, cfg: MatchingConfig) -> f64 {
    SCRATCH.with_borrow_mut(|scratch| {
        let row_ceiling = |i: usize| sim_c_upper_bound(conceded(minima[i], give));
        extended_jaccard_upper_bound_in(&mut scratch.ceilings, minima.len(), n2, row_ceiling, cfg)
    })
}

/// What [`kappa_exact_cached`]'s keying step compares a pair's bounds with.
#[derive(Debug, Clone, Copy)]
struct Keying {
    /// The match threshold.
    tau: f64,
    /// The rounding allowance ([`rounding_give`]).
    give: f64,
    /// The match radius plus `give`: what a float lower bound has to exceed
    /// before it proves the swept distance over the radius.
    reach: f64,
}

/// The keying step of [`kappa_exact_cached`], off the rows of
/// [`row_bounds`]: every pair whose centroid gap is within `reach` gets the
/// `SimC` ceiling of its conceded lower bound — the ceiling
/// [`kappa_upper_bound`] takes the row's best of — pushed to `unswept`, or,
/// when that ceiling is under `τ`, is counted in the returned total.
fn key_pairs(
    query: SeriesView<'_>,
    video: SeriesView<'_>,
    at: Keying,
    lbs: &mut Vec<f64>,
    unswept: &mut Vec<PairKey>,
) -> u64 {
    #[cfg(test)]
    PAIRS_KEYED.set(PAIRS_KEYED.get() + (query.len() * video.len()) as u64);
    let mut under = 0;
    for (i, &q) in query.means.iter().enumerate() {
        row_bounds(query, i, video, lbs);
        for (j, (&lb, &m)) in lbs.iter().zip(video.means).enumerate() {
            if (q - m).abs() > at.reach {
                // Centroid lower bound already exceeds the match radius; the
                // pair scores `SimC = 0`.
                continue;
            }
            let key = sim_c_upper_bound(conceded(lb, at.give));
            if key < at.tau {
                // The bound proves `SimC < τ`: a sweep would burn a partial
                // merge only to fail the threshold test.
                under += 1;
                continue;
            }
            unswept.push(PairKey::new(key, i, j));
        }
    }
    under
}

/// Exact `κJ(query, video)` from cached state — the same value (bit for bit)
/// as the unscreened [`viderec_signature::kappa_j_series`] on the underlying
/// series: identical EMD sweep (over the arena's value-sorted SoA lanes,
/// which [`viderec_emd::emd_1d_soa_capped`] pins bit-identical to the
/// pair-slice sweep), identical threshold test, identical greedy matching —
/// pairs accepted in decreasing `SimC` order, ties by `(i, j)`, each while
/// its row and column are both free.
///
/// The matcher prices pairs lazily, best first:
///
/// 1. **key** ([`key_pairs`]) — each pair whose centroid gap is within
///    `reach` (the match radius plus [`rounding_give`]) gets the `SimC`
///    ceiling of its conceded lower bound, from the same row pass
///    [`kappa_upper_bound`] reads; a ceiling under `τ` screens it;
/// 2. **match** — two tiers, as the [`LadderQueue`] has: the keyed pairs,
///    sorted by ceiling, and a heap of swept pairs by exact `SimC`; both
///    ordered key descending, then `(i, j)` ascending. The best entry of
///    either goes next. With its row or column used it is dropped, never
///    swept; unswept, it runs [`emd_1d_soa_capped`] at the radius and goes
///    back as its exact `SimC` if that is `≥ τ`; swept, it is accepted. The
///    matcher stops at `min(n1, n2)` matches or with both tiers empty.
///
/// Exactness, against the eager matcher that sweeps every keyed pair, sorts
/// the eligible ones and matches: every ceiling is at least its pair's float
/// `SimC` (each bound gives [`rounding_give`] away first), and used flags
/// only grow, so no pair is accepted before a pair the eager sort puts ahead
/// of it, and none is dropped that the eager matcher would take — the
/// matches, their order, and the float sum are the eager matcher's bit for
/// bit. With `τ ≤ 0` the radius and `reach` are infinite, every pair is
/// keyed, and the capped sweep is the uncapped one.
///
/// `stats` collects the per-pair sweep counters of the pairs the matcher
/// examined (`cap_aborted`: keyed under `τ`, or aborted by the capped sweep;
/// `full_sweeps`); a pair it never needed counts in neither, and
/// candidate-level counters are the caller's business.
pub(crate) fn kappa_exact_cached(
    query: SeriesView<'_>,
    video: SeriesView<'_>,
    cfg: MatchingConfig,
    stats: &mut PruneStats,
) -> f64 {
    kappa_exact_keyed(query, video, cfg, stats, key_pairs)
}

/// [`kappa_exact_cached`] with its keying step as a parameter.
fn kappa_exact_keyed(
    query: SeriesView<'_>,
    video: SeriesView<'_>,
    cfg: MatchingConfig,
    stats: &mut PruneStats,
    key: impl FnOnce(SeriesView<'_>, SeriesView<'_>, Keying, &mut Vec<f64>, &mut Vec<PairKey>) -> u64,
) -> f64 {
    let (n1, n2) = (query.len(), video.len());
    if n1 == 0 || n2 == 0 {
        return 0.0;
    }
    let tau = cfg.min_similarity;
    let radius = cfg.radius();
    let give = rounding_give(query.rounding, video.rounding);
    let at = Keying {
        tau,
        give,
        reach: radius + give,
    };
    let (mut cap_aborted, mut full_sweeps) = (0u64, 0u64);
    let kappa = SCRATCH.with_borrow_mut(|scratch| {
        let Scratch {
            lbs,
            unswept,
            swept,
            used1,
            used2,
            ..
        } = scratch;
        unswept.clear();
        swept.clear();
        cap_aborted += key(query, video, at, lbs, unswept);
        unswept.sort_unstable();
        used1.clear();
        used1.resize(n1, false);
        used2.clear();
        used2.resize(n2, false);
        let mut matched = 0usize;
        let mut total = 0.0;
        while matched < n1.min(n2) {
            let Some(&best) = unswept.last().max(swept.peek()) else {
                break;
            };
            // A pair sits in one tier at a time, so equal entries are one.
            let is_swept = swept.peek() == Some(&best);
            if is_swept {
                swept.pop();
            } else {
                unswept.pop();
            }
            let (i, j) = best.pair();
            if used1[i] || used2[j] {
                #[cfg(test)]
                if !is_swept {
                    NEVER_EXAMINED.set(NEVER_EXAMINED.get() + 1);
                }
                continue;
            }
            if is_swept {
                used1[i] = true;
                used2[j] = true;
                matched += 1;
                total += best.key();
                continue;
            }
            // A pair is only eligible when its swept distance is within the
            // radius ([`MatchingConfig::radius`] covers every distance whose
            // `SimC` rounds to τ or above), so the sweep may abort once its
            // running total passes it: distances within the radius come back
            // exact.
            let (qv, qw) = query.lanes(i);
            let (vv, vw) = video.lanes(j);
            let d = emd_1d_soa_capped(qv, qw, vv, vw, radius);
            if !d.is_finite() {
                cap_aborted += 1;
                continue;
            }
            full_sweeps += 1;
            let s = sim_c(d);
            // The matcher's threshold test: `d` at the radius can round to
            // `SimC` a hair under τ.
            if s >= tau {
                swept.push(PairKey::new(s, i, j));
            }
        }
        #[cfg(test)]
        NEVER_EXAMINED.set(NEVER_EXAMINED.get() + unswept.len() as u64);
        total / (n1 + n2 - matched) as f64
    });
    stats.cap_aborted += cap_aborted;
    stats.full_sweeps += full_sweeps;
    kappa
}

/// The rounding allowance every float EMD lower bound gives away before it
/// is compared with the match radius or turned into a ceiling
/// ([`rounding_allowance`] has the derivation), from two arenas'
/// ([`SeriesView::rounding`]) `(longest signature, largest |value|)`. It is
/// absolute — the largest cuboid magnitudes bound every sum a centroid gap,
/// a slice bound or the sweep they stand in for can form. A pair that sits
/// exactly on the radius — `EMD == 1/τ − 1` to the bit, as dyadic
/// pixel-pipeline cuboids and shifted copies do — would otherwise be decided
/// by which way the cached sums happened to round, not by the sweep the
/// unpruned scan runs.
pub(crate) fn rounding_give(query: (usize, f64), video: (usize, f64)) -> f64 {
    rounding_allowance(query.0 + video.0, query.1 + video.1)
}

/// O(1) proof that `κJ = 0`, paper mode's zero rung: the two series'
/// signature-mean ranges lie
/// further apart than `reach` — the match radius plus [`rounding_give`] — so
/// every pair fails the centroid screen of the exact evaluation (float
/// subtraction is monotone: a range gap over `reach` puts every individual
/// `|mean_q − mean_v|` over it too).
pub(crate) fn separated(q_range: (f64, f64), v_range: (f64, f64), reach: f64) -> bool {
    (v_range.0 - q_range.1).max(q_range.0 - v_range.1) > reach
}

/// What is left of a pair's float EMD lower bound `lb` once the rounding
/// allowance `give` ([`rounding_give`]) is taken off it: the form in which
/// every bound becomes a ceiling or meets the radius.
#[inline]
fn conceded(lb: f64, give: f64) -> f64 {
    (lb - give).max(0.0)
}

/// Admissible upper bound on `κJ(query, video)` from the two series' views:
/// per query signature, `SimC` of the smallest conceded pair bound in its
/// [`row_bounds`] row, then the matcher bound over those row ceilings
/// ([`extended_jaccard_upper_bound_in`]). `conceded` is monotone, so the
/// row's smallest conceded bound is its smallest bound conceded.
///
/// A row whose minimum is over the radius has a ceiling under `τ`
/// ([`MatchingConfig::radius`] has the margin) and fails the matcher
/// bound's `u ≥ τ`; so when no row is at or under the radius — most
/// candidates of a gated gather — no ceiling is kept and the bound is a
/// proven `κJ = 0`. Every pair is bounded once, and an empty series on
/// either side returns 0 before any column is read.
pub(crate) fn kappa_upper_bound(
    query: SeriesView<'_>,
    video: SeriesView<'_>,
    cfg: MatchingConfig,
) -> f64 {
    let (n1, n2) = (query.len(), video.len());
    if n1 == 0 || n2 == 0 {
        return 0.0;
    }
    let give = rounding_give(query.rounding, video.rounding);
    SCRATCH.with_borrow_mut(|scratch| {
        let Scratch { lbs, ceilings, .. } = scratch;
        let row_ceiling = |i| sim_c_upper_bound(conceded(row_bounds(query, i, video, lbs), give));
        extended_jaccard_upper_bound_in(ceilings, n1, n2, row_ceiling, cfg)
    })
}

/// A candidate in the ladder's queue: its exact social score and its
/// current score ceiling — `FJ(κ=1, s)` on the first rung. Ordered
/// best-first: ceiling descending, then index ascending.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    pub(crate) key: f64,
    pub(crate) sj: f64,
    pub(crate) idx: u32,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .total_cmp(&other.key)
            .then(other.idx.cmp(&self.idx))
    }
}

/// The ladder's max-queue, in two tiers. Candidates enter on the first rung
/// in bulk and most never leave it — in a gated gather nine in ten tie at
/// `FJ(κ=1, s=0)` — so that tier is a list built in order (not sorted into
/// it) and consumed from the back; only refined candidates that fell behind
/// the front wait in a heap.
/// (One `BinaryHeap` over everything is the same queue and pays a
/// thirteen-level sift per pop: +0.8 ms on a 5.7 ms `gated_scale` query,
/// EXPERIMENTS.md, PR 14.)
#[derive(Debug, Default)]
pub(crate) struct LadderQueue {
    /// First-rung candidates, ceiling *ascending*: the best is at the back.
    fresh: Vec<Queued>,
    refined: BinaryHeap<Queued>,
}

impl LadderQueue {
    /// Queues first-rung candidates, already in ascending order (built that
    /// way by `Recommender::enqueue`, not sorted into it), with `refined`
    /// (empty) as the second tier's storage.
    pub(crate) fn new(fresh: Vec<Queued>, refined: BinaryHeap<Queued>) -> Self {
        debug_assert!(fresh.is_sorted(), "first rung out of order");
        debug_assert!(refined.is_empty(), "refined tier not empty");
        Self { fresh, refined }
    }

    /// How many candidates are queued.
    fn len(&self) -> usize {
        self.fresh.len() + self.refined.len()
    }

    /// Empties the queue; returns how many candidates were left in it.
    fn clear(&mut self) -> usize {
        let left = self.len();
        self.fresh.clear();
        self.refined.clear();
        left
    }

    /// The highest ceiling in the queue.
    fn best_key(&self) -> Option<f64> {
        let fronts = self.fresh.last().into_iter().chain(self.refined.peek());
        fronts.map(|e| e.key).reduce(f64::max)
    }

    /// Removes the best first-rung candidate if its ceiling is strictly the
    /// highest in the queue (a refined one wins a tie: it is a rung closer
    /// to raising the floor).
    fn pop_fresh(&mut self) -> Option<Queued> {
        let refined = self.refined.peek();
        self.fresh.pop_if(|f| refined.is_none_or(|r| f.key > r.key))
    }

    /// The emptied storage of both tiers, for the next query to reuse.
    pub(crate) fn into_storage(mut self) -> (Vec<Queued>, BinaryHeap<Queued>) {
        self.clear();
        (self.fresh, self.refined)
    }
}

/// The lazy best-first bound ladder every content scan runs on (optimal
/// multi-step top-k): the candidate with the highest current score ceiling
/// moves next; if that ceiling is strictly below the k-th exact score the
/// whole queue is pruned, otherwise the candidate climbs one rung —
/// `FJ(κ=1, s)` → O(1) zero rung (`κJ = 0`: outside the reach set `R` in the
/// gated mode, mean ranges [`separated`] in paper mode) → slice-bound `κJ`
/// ceiling (gated: off the reach pass's row minima,
/// [`kappa_ceiling_in_reach`]; paper mode: [`kappa_upper_bound`], a proven
/// `κJ = 0` when no pair is within reach) → exact `κJ` — and is dropped,
/// re-queued, or scored. (A gated candidate outside `R` enters at `FJ(0, s)`
/// already.)
/// [`Self::drain`] makes those moves in *runs*: everything between two
/// scoring events happens under one floor and one span.
///
/// Exactness: ceilings are admissible at every rung, so a candidate's key
/// never undercuts its exact score; the floor is always the k-th best of `k`
/// exactly scored candidates; and the prune is *strict* (`key < floor`), so
/// a candidate tying the floor is still scored and ranking ties break by
/// `VideoId` exactly as in the unpruned scan. Optimality: a candidate is
/// only refined while its key is the queue maximum and at least the floor,
/// so nothing is refined whose previous-rung ceiling is below the *final*
/// floor — `k` candidates with higher exact scores, hence higher keys, would
/// have been popped and scored first. Grouping the moves into runs changes
/// neither: a run makes the same moves in the same order, and the floor it
/// reads once is the floor every one of them would have read.
pub(crate) struct Ladder<'a> {
    pub(crate) cfg: &'a RecommenderConfig,
    /// The corpus's content component, dereferenced once per query.
    pub(crate) content: &'a Content,
    pub(crate) strategy: Strategy,
    /// The query's scoring cache and its signature-mean range.
    pub(crate) qv: SeriesView<'a>,
    pub(crate) q_range: (f64, f64),
    /// The match radius plus the query's and the arena's rounding give:
    /// what a pair bound must exceed to prove its `SimC` under `τ` (see
    /// [`separated`] and [`reach_set`]).
    pub(crate) reach: f64,
    /// A gated query's reach set `R` and its row minima ([`reach_set`]):
    /// the zero rung reads `idx ∉ R`, and the ceiling of a member its
    /// minima. `None` in paper mode, whose zero rung is [`separated`].
    pub(crate) in_reach: Option<&'a ReachRows>,
    pub(crate) top_k: usize,
}

impl Ladder<'_> {
    /// Candidate `i`'s `κJ` ceiling. Gated: 0 outside `R`, else
    /// [`kappa_ceiling_in_reach`] over the minima the reach pass left — no
    /// pair is priced again. Paper mode: 0 when [`separated`] from the
    /// query, else [`kappa_upper_bound`].
    fn kappa_ceiling(&self, i: usize) -> f64 {
        let arena = &self.content.arena;
        let video = arena.view(i);
        match self.in_reach {
            Some(reach_set) => reach_set.row_minima(i as u32).map_or(0.0, |minima| {
                let give = rounding_give(self.qv.rounding, video.rounding);
                // The pass compared with `reach` under the same `give`: the
                // arena's rounding is arena-wide, so every video's is one.
                debug_assert!(self.reach == self.cfg.matching.radius() + give);
                kappa_ceiling_in_reach(minima, video.len(), give, self.cfg.matching)
            }),
            None => {
                let (lo, hi) = arena.mean_ranges();
                match separated(self.q_range, (lo[i], hi[i]), self.reach) {
                    true => 0.0,
                    false => kappa_upper_bound(self.qv, video, self.cfg.matching),
                }
            }
        }
    }

    /// Drains `queue` into `heap`, one *run* per scoring event.
    ///
    /// A **refine run** reads the floor once — nothing is scored inside a
    /// run, so it cannot move — and pops first-rung candidates while the
    /// best of them is strictly the best key in the queue. Each gets its
    /// `κJ` ceiling and is dropped (ceiling below the floor), re-queued among
    /// the refined (a strictly better key is waiting) or ends the run as the
    /// candidate to score; so does the best refined candidate once no
    /// first-rung key beats it, and a candidate below the floor, which ends
    /// the ladder: best-first, every key left is at most its key. One span
    /// closes the run into [`Stage::Bound`], credited with the run's
    /// ceilings; the scoring event that follows is one [`Stage::Emd`] span
    /// (if it needs the sweep) and one [`Stage::TopK`] span. Clock reads are
    /// therefore ≤ 3 per scoring event + 2, whatever the queue held.
    ///
    /// With `promoting`, the queue holds certificate survivors rather than
    /// gathered candidates: one that drops below the floor was only ever a
    /// bound check and is not counted, one that gets scored is counted as
    /// promoted *and* scanned.
    pub(crate) fn drain(
        &self,
        queue: &mut LadderQueue,
        heap: &mut BinaryHeap<WorstFirst>,
        promoting: bool,
        trace: &mut QueryTrace,
        tracer: Tracer,
    ) {
        let (strategy, omega, matching) = (self.strategy, self.cfg.omega, self.cfg.matching);
        let arena = &self.content.arena;
        let mut sp = tracer.start();
        loop {
            let floor = floor_of(heap, self.top_k);
            let below_floor = |key: f64| floor.is_some_and(|floor| key < floor);
            let mut ceilings = 0;
            let next = loop {
                let Some(mut e) = queue.pop_fresh() else {
                    break queue.refined.pop();
                };
                if below_floor(e.key) {
                    break Some(e);
                }
                let kappa_ub = self.kappa_ceiling(e.idx as usize);
                e.key = strategy_score(strategy, omega, kappa_ub, e.sj);
                ceilings += 1;
                #[cfg(test)]
                tests::note(tests::Move::Refined(e.idx));
                if below_floor(e.key) {
                    if !promoting {
                        trace.stats.pruned += 1;
                    }
                } else if queue.best_key().is_some_and(|next| next > e.key) {
                    queue.refined.push(e);
                } else {
                    break Some(e);
                }
            };
            trace.lap_span_n(&mut sp, Stage::Bound, ceilings);
            let Some(e) = next else {
                return;
            };
            if below_floor(e.key) {
                let left = queue.clear() as u64;
                if !promoting {
                    trace.stats.pruned += 1 + left;
                }
                trace.lap_span(&mut sp, Stage::TopK);
                return;
            }
            // The best ceiling in play: score it. A key equal to the score
            // at `κJ = 0` already *is* the exact score (the score is monotone
            // in `κJ` and the key bounds it from above), so only a key above
            // it pays for the sweep.
            #[cfg(test)]
            tests::note(tests::Move::Scored(e.idx));
            let i = e.idx as usize;
            let score = if e.key == strategy_score(strategy, omega, 0.0, e.sj) {
                trace.stats.pruned += 1;
                e.key
            } else {
                trace.stats.exact_evals += 1;
                let kappa = kappa_exact_cached(self.qv, arena.view(i), matching, &mut trace.stats);
                let score = strategy_score(strategy, omega, kappa, e.sj);
                trace.lap_span(&mut sp, Stage::Emd);
                score
            };
            if promoting {
                trace.promoted += 1;
                trace.stats.scanned += 1;
            }
            let video = self.content.ids[i];
            push_top_k(heap, WorstFirst(Scored { video, score }), self.top_k);
            trace.lap_span(&mut sp, Stage::TopK);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{ReachIndex, ScoringArena};
    use proptest::prelude::{prop, prop_assert, proptest, ProptestConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use viderec_emd::slice_lower_bound_from_features;
    use viderec_signature::cuboid::{Cuboid, CuboidSignature};
    use viderec_signature::{kappa_j_series, SignatureSeries};
    use viderec_trace::Span;

    /// What a ladder did to a candidate, by corpus index.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Move {
        Refined(u32),
        Scored(u32),
    }

    thread_local! {
        /// Every move a ladder made on this thread, in order.
        static MOVES: RefCell<Vec<Move>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn note(m: Move) {
        MOVES.with_borrow_mut(|moves| moves.push(m));
    }

    impl LadderQueue {
        /// Removes the candidate with the highest ceiling (a refined one on
        /// a tie) and says whether it was refined: the queue as the one-move
        /// oracle sees it.
        fn pop(&mut self) -> Option<(Queued, bool)> {
            match (self.fresh.last(), self.refined.peek()) {
                (Some(f), Some(r)) if f.key > r.key => self.fresh.pop().map(|e| (e, false)),
                (_, Some(_)) => self.refined.pop().map(|e| (e, true)),
                _ => self.fresh.pop().map(|e| (e, false)),
            }
        }
    }

    impl Ladder<'_> {
        fn below_floor(&self, key: f64, heap: &BinaryHeap<WorstFirst>) -> bool {
            floor_of(heap, self.top_k).is_some_and(|floor| key < floor)
        }

        /// The oracle for [`Ladder::drain`] — the ladder as it ran before
        /// the moves were grouped into runs. One move: pop the best
        /// candidate, re-read the floor, carry the candidate as far as it
        /// goes, three laps on the way. `false` once the queue is spent.
        fn step(
            &self,
            queue: &mut LadderQueue,
            heap: &mut BinaryHeap<WorstFirst>,
            promoting: bool,
            trace: &mut QueryTrace,
            sp: &mut Span,
        ) -> bool {
            let Some((mut e, refined)) = queue.pop() else {
                return false;
            };
            let cfg = self.cfg;
            if self.below_floor(e.key, heap) {
                let left = queue.clear() as u64;
                if !promoting {
                    trace.stats.pruned += 1 + left;
                }
                trace.lap_span(sp, Stage::TopK);
                return false;
            }
            trace.lap_span(sp, Stage::TopK);
            let i = e.idx as usize;
            let arena = &self.content.arena;
            if !refined {
                let kappa_ub = self.kappa_ceiling(i);
                e.key = strategy_score(self.strategy, cfg.omega, kappa_ub, e.sj);
                note(Move::Refined(e.idx));
                trace.lap_span(sp, Stage::Bound);
                let dropped = self.below_floor(e.key, heap);
                if dropped || queue.best_key().is_some_and(|next| next > e.key) {
                    if !dropped {
                        queue.refined.push(e);
                    } else if !promoting {
                        trace.stats.pruned += 1;
                    }
                    trace.lap_span(sp, Stage::TopK);
                    return true;
                }
            }
            note(Move::Scored(e.idx));
            let score = if e.key == strategy_score(self.strategy, cfg.omega, 0.0, e.sj) {
                trace.stats.pruned += 1;
                e.key
            } else {
                trace.stats.exact_evals += 1;
                let kappa =
                    kappa_exact_cached(self.qv, arena.view(i), cfg.matching, &mut trace.stats);
                let score = strategy_score(self.strategy, cfg.omega, kappa, e.sj);
                trace.lap_span(sp, Stage::Emd);
                score
            };
            if promoting {
                trace.promoted += 1;
                trace.stats.scanned += 1;
            }
            let video = self.content.ids[i];
            push_top_k(heap, WorstFirst(Scored { video, score }), self.top_k);
            trace.lap_span(sp, Stage::TopK);
            true
        }
    }

    fn random_series(rng: &mut StdRng, max_sigs: usize) -> SignatureSeries {
        let n = rng.gen_range(1..=max_sigs);
        let sigs = (0..n)
            .map(|_| {
                let parts = rng.gen_range(1..5);
                let mut ws: Vec<f64> = (0..parts).map(|_| rng.gen_range(0.1..1.0)).collect();
                let t: f64 = ws.iter().sum();
                ws.iter_mut().for_each(|w| *w /= t);
                CuboidSignature::new(
                    ws.into_iter()
                        .map(|w| Cuboid {
                            value: rng.gen_range(-40.0..40.0),
                            weight: w,
                        })
                        .collect(),
                )
            })
            .collect();
        SignatureSeries::new(sigs)
    }

    #[test]
    fn kappa_bound_dominates_exact() {
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..60 {
            let a = random_series(&mut rng, 6);
            let b = random_series(&mut rng, 6);
            for tau in [0.3, 0.5, 0.8] {
                let cfg = MatchingConfig {
                    min_similarity: tau,
                };
                let exact = kappa_j_series(&a, &b, cfg);
                let qc = ScoringArena::for_series(&a);
                let vc = ScoringArena::for_series(&b);
                let ub = kappa_upper_bound(qc.view(0), vc.view(0), cfg);
                assert!(
                    ub >= exact - 1e-12,
                    "τ={tau}: ub {ub} below exact κJ {exact}"
                );
            }
        }
    }

    #[test]
    fn cached_exact_kappa_matches_series_kappa() {
        let mut rng = StdRng::seed_from_u64(94);
        for _ in 0..60 {
            let a = random_series(&mut rng, 6);
            let b = random_series(&mut rng, 6);
            for tau in [0.0, 0.3, 0.5, 0.8] {
                let cfg = MatchingConfig {
                    min_similarity: tau,
                };
                let qc = ScoringArena::for_series(&a);
                let vc = ScoringArena::for_series(&b);
                // Bit-identical, not merely close: same sweep, same
                // threshold test, same greedy matcher.
                let mut stats = PruneStats::default();
                assert_eq!(
                    kappa_exact_cached(qc.view(0), vc.view(0), cfg, &mut stats),
                    kappa_j_series(&a, &b, cfg),
                    "τ={tau}"
                );
            }
        }
    }

    /// The eager matcher [`kappa_exact_cached`] replaced, kept as its oracle:
    /// sweep every pair the centroid and slice screens leave, in row-major
    /// order, collect those with `SimC ≥ τ`, stable-sort them by `SimC`
    /// (ties stay row-major, as in [`viderec_emd::extended_jaccard`]) and
    /// match greedily.
    fn kappa_exact_eager(
        query: SeriesView<'_>,
        video: SeriesView<'_>,
        cfg: MatchingConfig,
        stats: &mut PruneStats,
    ) -> f64 {
        let (n1, n2) = (query.len(), video.len());
        if n1 == 0 || n2 == 0 {
            return 0.0;
        }
        let radius = cfg.radius();
        let reach = radius + rounding_give(query.rounding, video.rounding);
        let mut eligible = Vec::new();
        for i in 0..n1 {
            for j in 0..n2 {
                if (query.means[i] - video.means[j]).abs() > reach {
                    continue;
                }
                if slice_lb(query, video, i, j, reach) > reach {
                    stats.cap_aborted += 1;
                    continue;
                }
                let (qv, qw) = query.lanes(i);
                let (vv, vw) = video.lanes(j);
                let d = emd_1d_soa_capped(qv, qw, vv, vw, radius);
                if !d.is_finite() {
                    stats.cap_aborted += 1;
                    continue;
                }
                stats.full_sweeps += 1;
                let s = sim_c(d);
                if s >= cfg.min_similarity {
                    eligible.push((s, i, j));
                }
            }
        }
        eligible.sort_by(|a, b| b.0.total_cmp(&a.0));
        let (mut used1, mut used2) = (vec![false; n1], vec![false; n2]);
        let (mut matched, mut total) = (0usize, 0.0);
        for (s, i, j) in eligible {
            if !used1[i] && !used2[j] {
                used1[i] = true;
                used2[j] = true;
                matched += 1;
                total += s;
            }
        }
        total / (n1 + n2 - matched) as f64
    }

    /// The quantile-slice bound of signature pair `(i, j)`
    /// ([`slice_lower_bound_from_features`]); a partial sum once it is over
    /// `stop`, which is all a caller comparing it with `stop` needs. The
    /// cut-short form the bound and keying loops read before the row pass.
    fn slice_lb(
        query: SeriesView<'_>,
        video: SeriesView<'_>,
        i: usize,
        j: usize,
        stop: f64,
    ) -> f64 {
        slice_lower_bound_from_features(&query.features(i), &video.features(j), stop)
    }

    /// Whether a pair whose float EMD lower bound is `lb` can still match:
    /// the bound less `give` is within the match radius.
    fn within_reach(lb: f64, give: f64, radius: f64) -> bool {
        conceded(lb, give) <= radius
    }

    /// The reach screen [`row_bounds`] replaced: whether any signature
    /// pair's lower bound — the centroid gap, maxed with the *whole* slice
    /// L1 — is [`within_reach`], answered at the first query row holding
    /// one. `false` proves `κJ = 0`.
    fn any_pair_within_reach(
        query: SeriesView<'_>,
        video: SeriesView<'_>,
        give: f64,
        radius: f64,
    ) -> bool {
        (0..query.len()).any(|i| {
            let (q, fq) = (query.means[i], query.features(i));
            (0..video.len()).any(|j| {
                let slices =
                    slice_lower_bound_from_features(&fq, &video.features(j), f64::INFINITY);
                within_reach((q - video.means[j]).abs().max(slices), give, radius)
            })
        })
    }

    /// The centroid-ordered row scan [`row_bounds`] replaced: each row's
    /// smallest pair bound, visiting the video's signatures by centroid gap
    /// (a two-pointer walk from the query mean over a mean order it sorts
    /// here, ties by index) and cutting slice sums short once they can
    /// neither lower the row's minimum nor stay within the radius, then the
    /// matcher bound over the row ceilings.
    fn kappa_row_scan(
        query: SeriesView<'_>,
        video: SeriesView<'_>,
        cfg: MatchingConfig,
        give: f64,
        radius: f64,
    ) -> f64 {
        use viderec_emd::extended_jaccard_upper_bound;
        let (n1, n2) = (query.len(), video.len());
        let mut order: Vec<usize> = (0..n2).collect();
        order.sort_unstable_by(|&x, &y| video.means[x].total_cmp(&video.means[y]).then(x.cmp(&y)));
        let row = |i: usize| {
            let q = query.means[i];
            let mut r = order.partition_point(|&j| video.means[j] < q);
            let mut l = r;
            let mut min_lb = f64::INFINITY;
            while l > 0 || r < n2 {
                let gap_l = if l > 0 {
                    (q - video.means[order[l - 1]]).abs()
                } else {
                    f64::INFINITY
                };
                let gap_r = if r < n2 {
                    (video.means[order[r]] - q).abs()
                } else {
                    f64::INFINITY
                };
                let (j, gap) = if gap_l <= gap_r {
                    l -= 1;
                    (order[l], gap_l)
                } else {
                    r += 1;
                    (order[r - 1], gap_r)
                };
                if conceded(gap, give) >= min_lb || !within_reach(gap, give, radius) {
                    break;
                }
                let stop = min_lb.min(radius) + give;
                let lb = gap.max(slice_lb(query, video, i, j, stop));
                min_lb = min_lb.min(conceded(lb, give));
            }
            sim_c_upper_bound(min_lb)
        };
        extended_jaccard_upper_bound(n1, n2, row, cfg)
    }

    /// [`kappa_upper_bound`] before the row pass: the reach screen, then the
    /// row scan.
    fn kappa_upper_bound_oracle(
        query: SeriesView<'_>,
        video: SeriesView<'_>,
        cfg: MatchingConfig,
    ) -> f64 {
        if query.len() == 0 || video.len() == 0 {
            return 0.0;
        }
        let give = rounding_give(query.rounding, video.rounding);
        let radius = cfg.radius();
        if !any_pair_within_reach(query, video, give, radius) {
            return 0.0;
        }
        kappa_row_scan(query, video, cfg, give, radius)
    }

    /// [`key_pairs`] before the row pass: pair by pair, the centroid screen
    /// first, then the slice sum cut short at `reach`.
    fn key_pairs_cut_short(
        query: SeriesView<'_>,
        video: SeriesView<'_>,
        at: Keying,
        _lbs: &mut Vec<f64>,
        unswept: &mut Vec<PairKey>,
    ) -> u64 {
        let mut under = 0;
        for i in 0..query.len() {
            for j in 0..video.len() {
                let gap = (query.means[i] - video.means[j]).abs();
                if gap > at.reach {
                    continue;
                }
                let lb = gap.max(slice_lb(query, video, i, j, at.reach));
                let key = sim_c_upper_bound(conceded(lb, at.give));
                if key < at.tau {
                    under += 1;
                    continue;
                }
                unswept.push(PairKey::new(key, i, j));
            }
        }
        under
    }

    #[test]
    fn exact_kappa_examines_every_pair_at_most_once() {
        let mut rng = StdRng::seed_from_u64(95);
        for _ in 0..60 {
            let a = random_series(&mut rng, 6);
            let b = random_series(&mut rng, 6);
            for tau in [0.0, 0.3, 0.5, 0.8] {
                let cfg = MatchingConfig {
                    min_similarity: tau,
                };
                let qc = ScoringArena::for_series(&a);
                let vc = ScoringArena::for_series(&b);
                let (q, v) = (qc.view(0), vc.view(0));
                let reach = cfg.radius() + rounding_give(q.rounding, v.rounding);
                let gaps = q
                    .means
                    .iter()
                    .flat_map(|x| v.means.iter().map(move |y| x - y));
                let screened = gaps.filter(|gap| gap.abs() > reach).count() as u64;
                let mut stats = PruneStats::default();
                let before = NEVER_EXAMINED.get();
                kappa_exact_cached(q, v, cfg, &mut stats);
                let never = NEVER_EXAMINED.get() - before;
                assert_eq!(
                    stats.cap_aborted + stats.full_sweeps + screened + never,
                    (q.len() * v.len()) as u64,
                    "τ={tau}"
                );
            }
        }
    }

    /// A series against itself, its signatures point masses `spacing`
    /// apart: each row's own pair keys at 1 and sweeps to `SimC = 1`, ahead
    /// of every other pair in its row and column, so the lazy matcher
    /// sweeps the `n` matches and nothing else — whether the other pairs
    /// are out of reach (10 apart) or all keyed under 1 (a quarter apart,
    /// where the eager matcher swept them all).
    #[test]
    fn identical_series_take_one_full_sweep_per_signature() {
        let cfg = MatchingConfig::default();
        let n = 6;
        for spacing in [10.0, 0.25] {
            let sigs = (0..n).map(|k| level_sig(&[k as f64 * spacing]));
            let series = SignatureSeries::new(sigs.collect());
            let arena = ScoringArena::for_series(&series);
            let (mut lazy, mut eager) = (PruneStats::default(), PruneStats::default());
            let kappa = kappa_exact_cached(arena.view(0), arena.view(0), cfg, &mut lazy);
            kappa_exact_eager(arena.view(0), arena.view(0), cfg, &mut eager);
            assert_eq!(kappa, 1.0);
            assert_eq!((lazy.full_sweeps, lazy.cap_aborted), (n as u64, 0));
            if spacing < 1.0 {
                assert!(eager.full_sweeps > n as u64, "{eager:?}");
            }
        }
    }

    /// A series from `(value, relative weight)` shapes, every value shifted
    /// by `shift`; each signature's last cuboid takes the mass the others
    /// leave, so dyadic weights stay dyadic.
    fn shaped_series(shape: &[Vec<(f64, f64)>], shift: f64) -> SignatureSeries {
        let sigs = shape.iter().map(|sig| {
            let mass: f64 = sig.iter().map(|&(_, w)| w).sum();
            let last = sig.len() - 1;
            let used: f64 = sig[..last].iter().map(|&(_, w)| w / mass).sum();
            let cuboids = sig.iter().enumerate().map(|(n, &(v, w))| Cuboid {
                value: v + shift,
                weight: if n == last { 1.0 - used } else { w / mass },
            });
            CuboidSignature::new(cuboids.collect())
        });
        SignatureSeries::new(sigs.collect())
    }

    /// A series and its copy shifted by exactly the match radius have every
    /// aligned pair at `EMD == radius` give or take the sweep's rounding.
    /// The cached evaluation must agree with the unscreened measure bit for
    /// bit, so must the screened series measure the naive scan scores with,
    /// and every ceiling must stay above them.
    fn check_on_the_radius(shape: &[Vec<(f64, f64)>], tau: f64) -> f64 {
        use viderec_signature::kappa_j_series_pruned;
        let cfg = MatchingConfig {
            min_similarity: tau,
        };
        let (a, b) = (
            shaped_series(shape, 0.0),
            shaped_series(shape, 1.0 / tau - 1.0),
        );
        let want = kappa_j_series(&a, &b, cfg);
        assert_eq!(kappa_j_series_pruned(&a, &b, cfg).to_bits(), want.to_bits());
        let qc = ScoringArena::for_series(&a);
        let vc = ScoringArena::for_series(&b);
        let got = kappa_exact_cached(qc.view(0), vc.view(0), cfg, &mut PruneStats::default());
        assert_eq!(got.to_bits(), want.to_bits());
        let ub = kappa_upper_bound(qc.view(0), vc.view(0), cfg);
        assert!(ub >= want, "ceiling {ub} under exact {want}");
        let (q, v) = (qc.mean_ranges(), vc.mean_ranges());
        let reach = cfg.radius() + rounding_give(qc.rounding(), vc.rounding());
        assert!(want == 0.0 || !separated((q.0[0], q.1[0]), (v.0[0], v.1[0]), reach));
        want
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Regression for the pixel-pipeline defect: dyadic values (a 1/8
        /// grid) and weights (sixteenths) put the aligned pairs on the
        /// radius to the bit, so `SimC == τ` and the pair matches — unless
        /// a screen whose cached sums rounded an ulp high throws it out.
        /// `heavy` counts the mass in 128ths instead, which leaves each
        /// signature's last cuboid over 7/8 of it: across every slice edge.
        #[test]
        fn dyadic_pairs_exactly_on_the_radius_are_never_screened_out(
            shape in prop::collection::vec(
                prop::collection::vec((-120..120i32, 1..4u32), 1..5), 1..4),
            heavy in 0..2u32,
        ) {
            let whole = if heavy == 1 { 128 } else { 16 };
            let shape: Vec<Vec<(f64, f64)>> = shape
                .iter()
                .map(|sig| {
                    let spare = whole - sig.iter().map(|&(_, w)| w).sum::<u32>();
                    let mut sig: Vec<_> =
                        sig.iter().map(|&(v, w)| (v as f64 / 8.0, w as f64)).collect();
                    sig.last_mut().unwrap().1 += spare as f64;
                    sig
                })
                .collect();
            let want = check_on_the_radius(&shape, 0.5);
            prop_assert!(want > 0.0, "aligned pairs sit on the radius and match");
        }

        /// The same without the grid: arbitrary values and weights, mixed
        /// signs around a mean near zero, and radii that are not themselves
        /// representable — the swept distance lands an ulp or two either
        /// side of the radius and the matcher's own `SimC ≥ τ` decides.
        /// `heavy` again puts over 7/8 of each signature in its last cuboid.
        #[test]
        fn shifted_copies_agree_with_the_unscreened_measure(
            mut shape in prop::collection::vec(
                prop::collection::vec((-45.0..45.0f64, 0.1..1.0f64), 1..5), 1..4),
            tau in 0..3usize,
            heavy in 0..2u32,
        ) {
            if heavy == 1 {
                shape.iter_mut().for_each(|sig| sig.last_mut().unwrap().1 += 28.0);
            }
            check_on_the_radius(&shape, [0.3, 0.5, 0.8][tau]);
        }
    }

    /// A random series on the dyadic grid of
    /// `dyadic_pairs_exactly_on_the_radius_are_never_screened_out`: values
    /// in eighths, weights in sixteenths.
    fn dyadic_shape(rng: &mut StdRng, max_sigs: usize) -> Vec<Vec<(f64, f64)>> {
        let n = rng.gen_range(1..=max_sigs);
        let sig = |rng: &mut StdRng| {
            let parts = rng.gen_range(1..5);
            let mut sig: Vec<(f64, f64)> = (0..parts)
                .map(|_| {
                    (
                        rng.gen_range(-120..120) as f64 / 8.0,
                        rng.gen_range(1..4) as f64,
                    )
                })
                .collect();
            let spare = 16.0 - sig.iter().map(|&(_, w)| w).sum::<f64>();
            sig.last_mut().unwrap().1 += spare;
            sig
        };
        (0..n).map(|_| sig(rng)).collect()
    }

    /// Two series drawn from a few dyadic base signatures and their copies
    /// shifted by `0, δ, −δ, 2δ` (δ an eighth, a quarter or a half), each
    /// picked many times over: identical signatures put many pairs at
    /// `SimC = 1`, and a copy sits at exactly the same distance from the
    /// copies either side of it, so keys and exact `SimC`s tie within and
    /// across the matcher's two tiers — and which of two tied pairs is taken
    /// decides what the next row can still match.
    fn tie_heavy_pair(rng: &mut StdRng) -> (SignatureSeries, SignatureSeries) {
        let bases = shaped_series(&dyadic_shape(rng, 3), 0.0);
        let delta = [0.125, 0.25, 0.5][rng.gen_range(0..3)];
        let copies: Vec<SignatureSeries> = [0.0, delta, -delta, 2.0 * delta]
            .iter()
            .map(|&shift| shifted(&bases, shift))
            .collect();
        let pool: Vec<&CuboidSignature> = copies.iter().flat_map(|c| c.signatures()).collect();
        let pick = |rng: &mut StdRng| {
            let n = rng.gen_range(1..=9);
            let sigs = (0..n).map(|_| pool[rng.gen_range(0..pool.len())].clone());
            SignatureSeries::new(sigs.collect())
        };
        (pick(rng), pick(rng))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The lazy matcher against the eager one it replaced: the same
        /// `κJ` to the bit and never more full sweeps, under both bounds and
        /// every τ, on random series, on dyadic series against their copy
        /// shifted onto the match radius, and on tie-heavy series.
        #[test]
        fn lazy_matcher_agrees_with_the_eager_one_and_sweeps_no_more(
            seed in 0..u64::MAX,
            kind in 0..3usize,
            tau in 0..4usize,
        ) {
            let tau = [0.0, 0.3, 0.5, 0.8][tau];
            let cfg = MatchingConfig { min_similarity: tau };
            let radius = if tau > 0.0 { 1.0 / tau - 1.0 } else { 1.0 };
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b) = match kind {
                0 => (random_series(&mut rng, 8), random_series(&mut rng, 8)),
                1 => {
                    let shape = dyadic_shape(&mut rng, 6);
                    (shaped_series(&shape, 0.0), shaped_series(&shape, radius))
                }
                _ => tie_heavy_pair(&mut rng),
            };
            let qc = ScoringArena::for_series(&a);
            let vc = ScoringArena::for_series(&b);
            let (mut lazy, mut eager) = (PruneStats::default(), PruneStats::default());
            let got = kappa_exact_cached(qc.view(0), vc.view(0), cfg, &mut lazy);
            let want = kappa_exact_eager(qc.view(0), vc.view(0), cfg, &mut eager);
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "τ={tau}: lazy {got} != eager {want}"
            );
            prop_assert!(
                lazy.full_sweeps <= eager.full_sweeps,
                "τ={tau}: {lazy:?} against {eager:?}"
            );
        }
    }

    /// A shape of 1–40 signatures of 1–16 cuboids each, as
    /// [`shaped_series`] takes it: values in eighths and weights in 128ths
    /// (the last cuboid takes the spare mass) when `dyadic`, else arbitrary.
    fn long_shape(rng: &mut StdRng, dyadic: bool) -> Vec<Vec<(f64, f64)>> {
        let n = rng.gen_range(1..=40);
        let sig = |rng: &mut StdRng| {
            let parts = rng.gen_range(1..=16);
            let mut sig: Vec<(f64, f64)> = (0..parts)
                .map(|_| match dyadic {
                    true => (
                        rng.gen_range(-120..120) as f64 / 8.0,
                        rng.gen_range(1..8) as f64,
                    ),
                    false => (rng.gen_range(-45.0..45.0), rng.gen_range(0.1..1.0)),
                })
                .collect();
            if dyadic {
                let spare = 128.0 - sig.iter().map(|&(_, w)| w).sum::<f64>();
                sig.last_mut().unwrap().1 += spare;
            }
            sig
        };
        (0..n).map(|_| sig(rng)).collect()
    }

    /// `shape` with every signature shifted by its own draw from
    /// `±spread`, in a random order and with some signatures dropped: a
    /// long series whose rows hold pairs near, in and out of reach.
    fn jittered(rng: &mut StdRng, shape: &[Vec<(f64, f64)>], spread: f64) -> SignatureSeries {
        let mut sigs: Vec<Vec<(f64, f64)>> = shape
            .iter()
            .filter_map(|sig| {
                let shift = rng.gen_range(-spread..=spread);
                let kept = rng.gen_range(0..4) > 0;
                kept.then(|| sig.iter().map(|&(v, w)| (v + shift, w)).collect())
            })
            .collect();
        if sigs.is_empty() {
            sigs.push(shape[0].clone());
        }
        for n in (1..sigs.len()).rev() {
            sigs.swap(n, rng.gen_range(0..=n));
        }
        shaped_series(&sigs, 0.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The row pass against the code it replaced, on long series:
        /// independent random series, a series against a jittered,
        /// reordered subset of itself, and dyadic shapes against their copy
        /// shifted onto the match radius (or an eighth either side of it).
        /// The `κJ` ceiling is the reach screen then the row scan bit for
        /// bit, and the exact `κJ`, `cap_aborted` and `full_sweeps` are
        /// those of the cut-short keying loop.
        #[test]
        fn the_row_pass_agrees_with_the_screen_the_row_scan_and_the_old_keys(
            seed in 0..u64::MAX,
            kind in 0..3usize,
            tau in 0..4usize,
        ) {
            let tau = [0.0, 0.3, 0.5, 0.8][tau];
            let cfg = MatchingConfig { min_similarity: tau };
            let radius = if tau > 0.0 { 1.0 / tau - 1.0 } else { 1.0 };
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b) = match kind {
                0 => (
                    shaped_series(&long_shape(&mut rng, false), 0.0),
                    shaped_series(&long_shape(&mut rng, false), 0.0),
                ),
                1 => {
                    let shape = long_shape(&mut rng, false);
                    (shaped_series(&shape, 0.0), jittered(&mut rng, &shape, 2.0 * radius))
                }
                _ => {
                    let shape = long_shape(&mut rng, true);
                    let off = [0.0, 0.125, -0.125][rng.gen_range(0..3)];
                    (shaped_series(&shape, 0.0), shaped_series(&shape, radius + off))
                }
            };
            let qc = ScoringArena::for_series(&a);
            let vc = ScoringArena::for_series(&b);
            for (q, v) in [(qc.view(0), vc.view(0)), (vc.view(0), qc.view(0))] {
                let got = kappa_upper_bound(q, v, cfg);
                let want = kappa_upper_bound_oracle(q, v, cfg);
                prop_assert!(got.to_bits() == want.to_bits(), "τ={tau}: {got} != {want}");
                let (mut new, mut old) = (PruneStats::default(), PruneStats::default());
                let got = kappa_exact_cached(q, v, cfg, &mut new);
                let want = kappa_exact_keyed(q, v, cfg, &mut old, key_pairs_cut_short);
                prop_assert!(got.to_bits() == want.to_bits(), "τ={tau}: {got} != {want}");
                prop_assert!(new == old, "τ={tau}: {new:?} != {old:?}");
            }
        }
    }

    /// `x` moved by `ulps` units in the last place (`x` positive).
    fn nudged(x: f64, ulps: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + ulps) as u64)
    }

    /// A signature of equal-weight cuboids at `values` (a power-of-two count,
    /// so weights, slice edges and `v · w` are all exact).
    fn level_sig(values: &[f64]) -> CuboidSignature {
        let weight = 1.0 / values.len() as f64;
        let cuboids = values.iter().map(|&value| Cuboid { value, weight });
        CuboidSignature::new(cuboids.collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The reach screen against the scan it stands in front of, on the
        /// boundary both compare with. The query is a point mass at 0 (and
        /// one far away), the video eight equal cuboids (and one far away,
        /// which pins `give`): its slice features are the cuboid values over
        /// 8, so the first value puts one L1 term — and with the others at
        /// 0 the centroid gap too — on an edge to the ulp, and the rest add
        /// a few ulps more, nothing, or as much again. That covers a slice
        /// sum the row scan cuts short right over `radius + give` while the
        /// whole sum the screen reads is further out, and both orders of
        /// subtracting `give`. Ceilings must agree bit for bit either way
        /// round and under both bounds.
        #[test]
        fn reach_screen_agrees_with_the_row_scan_on_the_boundary(
            tau in 0..3usize,
            edge in 0..3usize,
            first in -3..4i64,
            rest in prop::collection::vec((0..3u32, -4..5i64), 7),
        ) {
            let cfg = MatchingConfig { min_similarity: [0.3, 0.5, 0.8][tau] };
            let far = 1024.0;
            let radius = cfg.radius();
            let give = rounding_give((1, far), (8, far));
            // Where the screen's verdict turns, the same less `give`, and
            // where the row's `SimC` ceiling crosses τ — a few ulps inside
            // the radius, which is what makes an ulp on it harmless.
            let edge = [radius + give, radius, 1.0 / cfg.min_similarity - 1.0 + give][edge];
            let ulp = nudged(edge, 1) - edge;
            let mut values = vec![-8.0 * nudged(edge, first)];
            values.extend(rest.iter().map(|&(kind, n)| match kind {
                0 => 0.0,
                1 => 8.0 * n as f64 * ulp,
                _ => 8.0 * nudged(edge, n),
            }));
            let query = SignatureSeries::new(vec![level_sig(&[0.0]), level_sig(&[-far])]);
            let video = SignatureSeries::new(vec![level_sig(&values), level_sig(&[far])]);
            let qc = ScoringArena::for_series(&query);
            let vc = ScoringArena::for_series(&video);
            prop_assert!(rounding_give(qc.rounding(), vc.rounding()) == give);
            for (a, b) in [(qc.view(0), vc.view(0)), (vc.view(0), qc.view(0))] {
                let got = kappa_upper_bound(a, b, cfg);
                let want = kappa_row_scan(a, b, cfg, give, radius);
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "{values:?}: screened {got} != scanned {want}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The reach index's pass against the row pass, pair by pair, on the
        /// boundary both compare with. The corpus is a boundary video —
        /// eight equal cuboids, the first putting its slice-0 feature and
        /// the centroid gap to a point mass at 0 on `reach` or an ulp or two
        /// off it, then up to three half ulps (where the order of the slice
        /// sum decides the rounding) and up to three terms of whole ulps,
        /// nothing, or as much again, the rest 0; a far signature pins
        /// `give` — plus random or dyadic series. The queries
        /// are the point mass (with a far signature of its own) and two of
        /// the corpus series. Per query row and video, the pass finds in
        /// reach exactly the pairs whose [`row_bounds`] bound is `≤ reach`,
        /// and whose bound formed in slice order by
        /// [`slice_lower_bound_from_features`] is; and `R` holds every video
        /// whose `κJ` ceiling is not 0.
        #[test]
        fn the_reach_pass_decides_every_pair_as_the_row_pass_does(
            seed in 0..u64::MAX,
            dyadic in 0..2u32,
            tau in 0..3usize,
            first in -2..3i64,
            halves in 0..4usize,
            rest in prop::collection::vec((0..3u32, -2..3i64), 0..4),
        ) {
            let cfg = MatchingConfig { min_similarity: [0.3, 0.5, 0.8][tau] };
            let far = 1024.0;
            let reach = cfg.radius() + rounding_give((1, far), (8, far));
            let ulp = nudged(reach, 1) - reach;
            let mut values = vec![-8.0 * nudged(reach, first)];
            values.extend(std::iter::repeat_n(4.0 * ulp, halves));
            values.extend(rest.iter().map(|&(kind, n)| match kind {
                0 => 0.0,
                1 => 8.0 * n as f64 * ulp,
                _ => 8.0 * nudged(reach, n),
            }));
            values.resize(8, 0.0);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut corpus = vec![SignatureSeries::new(vec![level_sig(&values), level_sig(&[far])])];
            for _ in 0..6 {
                corpus.push(match dyadic {
                    1 => shaped_series(&dyadic_shape(&mut rng, 5), 0.0),
                    _ => random_series(&mut rng, 5),
                });
            }
            let mut arena = ScoringArena::new();
            for series in &corpus {
                arena.push_series(series, &mut Vec::new());
            }
            let mut index = ReachIndex::default();
            index.extend(&arena, 0);
            let point = SignatureSeries::new(vec![level_sig(&[0.0]), level_sig(&[-far])]);
            for query in [&point, &corpus[1], &corpus[2]] {
                let qc = ScoringArena::for_series(query);
                let q = qc.view(0);
                let reach = cfg.radius() + rounding_give(qc.rounding(), arena.rounding());
                let mut found = vec![vec![0usize; corpus.len()]; q.len()];
                reach_pass(&index, q, reach, |i, video, _| found[i][video as usize] += 1);
                let mut lbs = Vec::new();
                for (i, row) in found.iter().enumerate() {
                    for (v, &got) in row.iter().enumerate() {
                        let video = arena.view(v);
                        row_bounds(q, i, video, &mut lbs);
                        let want = lbs.iter().filter(|&&lb| lb <= reach).count();
                        prop_assert!(got == want, "row {i} video {v}: {got} != {want}");
                        let in_slice_order = (0..video.len()).filter(|&j| {
                            let slices = slice_lower_bound_from_features(
                                &q.features(i), &video.features(j), f64::INFINITY);
                            (q.means[i] - video.means[j]).abs().max(slices) <= reach
                        });
                        prop_assert!(got == in_slice_order.count(), "row {i} video {v}");
                    }
                }
                let mut in_reach = ReachRows::default();
                reach_set(&index, q, reach, corpus.len(), &mut in_reach);
                for v in 0..corpus.len() {
                    let ceiling = kappa_upper_bound(q, arena.view(v), cfg);
                    prop_assert!(ceiling == 0.0 || in_reach.contains(v as u32), "video {v}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The gated ladder's fused ceilings against the row pass, on the
        /// boundaries both compare with. The corpus is a boundary video —
        /// eight equal cuboids, the first putting its slice-0 feature and the
        /// centroid gap to a point mass at 0 on an edge or an ulp or two off
        /// it, then up to three terms of whole ulps, nothing, or as much
        /// again, the rest 0; a far signature pins `give` — plus random or
        /// dyadic series. The edges are `reach`, where the pass's verdict
        /// turns; the radius; and `1/τ − 1 + give`, where a row's `SimC`
        /// ceiling crosses `τ`. The queries are the point mass (with a far
        /// signature of its own) and two of the corpus series. Per video
        /// and query row, the pass's minimum is the [`row_bounds`] row's
        /// when that row holds a bound `≤ reach`, and `+∞` (or the video
        /// outside `R`) when it holds none; and per video, in `R` or not,
        /// the ladder's ceiling is [`kappa_upper_bound`]'s bit for bit.
        #[test]
        fn the_fused_ceiling_is_the_row_pass_ceiling_on_the_boundary(
            seed in 0..u64::MAX,
            dyadic in 0..2u32,
            tau in 0..3usize,
            edge in 0..3usize,
            first in -2..3i64,
            rest in prop::collection::vec((0..3u32, -2..3i64), 0..4),
        ) {
            use crate::{CorpusVideo, Recommender};
            use viderec_video::VideoId;
            let matching = MatchingConfig { min_similarity: [0.3, 0.5, 0.8][tau] };
            let far = 1024.0;
            let (radius, give) = (matching.radius(), rounding_give((1, far), (8, far)));
            let edge = [radius + give, radius, 1.0 / matching.min_similarity - 1.0 + give][edge];
            let ulp = nudged(edge, 1) - edge;
            let mut values = vec![-8.0 * nudged(edge, first)];
            values.extend(rest.iter().map(|&(kind, n)| match kind {
                0 => 0.0,
                1 => 8.0 * n as f64 * ulp,
                _ => 8.0 * nudged(edge, n),
            }));
            values.resize(8, 0.0);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut corpus = vec![SignatureSeries::new(vec![level_sig(&values), level_sig(&[far])])];
            for _ in 0..6 {
                corpus.push(match dyadic {
                    1 => shaped_series(&dyadic_shape(&mut rng, 5), 0.0),
                    _ => random_series(&mut rng, 5),
                });
            }
            let videos = corpus.iter().enumerate().map(|(n, series)| CorpusVideo {
                id: VideoId(n as u64),
                series: series.clone(),
                users: vec![format!("u{n}")],
            });
            let cfg = RecommenderConfig { k_subcommunities: 1, matching, ..Default::default() };
            let rec = Recommender::build(cfg, videos.collect()).unwrap();
            let arena = &rec.content.arena;
            let point = SignatureSeries::new(vec![level_sig(&[0.0]), level_sig(&[-far])]);
            let mut rows = ReachRows::default();
            let mut lbs = Vec::new();
            for query in [&point, &corpus[1], &corpus[2]] {
                let cache = ScoringArena::for_series(query);
                let ladder = rec.ladder(Strategy::Cr, &cache, 1);
                let (q, reach) = (ladder.qv, ladder.reach);
                reach_set(&rec.content.reach, q, reach, corpus.len(), &mut rows);
                for v in 0..corpus.len() {
                    let video = arena.view(v);
                    let want: Vec<Option<f64>> = (0..q.len())
                        .map(|i| {
                            let min = row_bounds(q, i, video, &mut lbs);
                            lbs.iter().any(|&lb| lb <= reach).then_some(min)
                        })
                        .collect();
                    let bits = |x: Option<f64>| x.map(f64::to_bits);
                    match rows.row_minima(v as u32) {
                        None => prop_assert!(want.iter().all(Option::is_none), "video {v}"),
                        Some(got) => {
                            prop_assert!(want.iter().any(Option::is_some), "video {v}");
                            for (i, (&got, &want)) in got.iter().zip(&want).enumerate() {
                                let got = Some(got).filter(|m| m.is_finite());
                                prop_assert!(
                                    bits(got) == bits(want),
                                    "video {v} row {i}: {got:?} != {want:?}"
                                );
                            }
                        }
                    }
                    let fused = Ladder { in_reach: Some(&rows), ..ladder };
                    let got = fused.kappa_ceiling(v);
                    let want = kappa_upper_bound(q, video, matching);
                    prop_assert!(got.to_bits() == want.to_bits(), "video {v}: {got} != {want}");
                }
            }
        }
    }

    /// A gated query prices no pair twice: the ladder's ceilings come from
    /// the reach pass, so every pair [`row_bounds`] bounds on the way is one
    /// the exact matcher keys. The paper-mode ladder, whose ceilings run
    /// the row pass, is the control.
    #[test]
    fn a_gated_ladder_bounds_no_pair_outside_exact_keying() {
        use crate::{CorpusVideo, QueryVideo, Recommender, RetrievalMode};
        use viderec_video::VideoId;
        let mut rng = StdRng::seed_from_u64(96);
        let bases: Vec<SignatureSeries> = (0..3).map(|_| random_series(&mut rng, 4)).collect();
        let corpus: Vec<CorpusVideo> = (0..24)
            .map(|n| CorpusVideo {
                id: VideoId(n),
                series: shifted(
                    &bases[n as usize % 3],
                    [0.0, 0.25, 0.75, 6.0][n as usize / 6],
                ),
                users: vec![format!("u{}", n % 5)],
            })
            .collect();
        let cfg = RecommenderConfig {
            k_subcommunities: 2,
            ..Default::default()
        };
        for (mode, outside_keying) in [
            (RetrievalMode::GatedCertified, false),
            (RetrievalMode::Paper, true),
        ] {
            let rec = Recommender::build(cfg.clone().with_retrieval(mode), corpus.clone()).unwrap();
            let (mut ceilings, mut bounded_outside) = (0, 0);
            for source in &corpus {
                let query = QueryVideo::from_corpus(source);
                for strategy in [Strategy::Cr, Strategy::Csf, Strategy::CsfSarH] {
                    let (bounded, keyed) = (PAIRS_BOUNDED.get(), PAIRS_KEYED.get());
                    let (_, trace) = rec.recommend_traced(strategy, &query, 3, &[], Tracer::ON);
                    let bounded = PAIRS_BOUNDED.get() - bounded;
                    let keyed = PAIRS_KEYED.get() - keyed;
                    assert!(keyed <= bounded);
                    bounded_outside += bounded - keyed;
                    ceilings += trace.stage(Stage::Bound).count;
                }
            }
            assert!(
                ceilings > 0,
                "{mode:?}: no ceiling taken, the test is vacuous"
            );
            assert_eq!(
                bounded_outside > 0,
                outside_keying,
                "{mode:?}: {bounded_outside} pairs"
            );
        }
    }

    /// The same boundary walked ulp by ulp with every other cuboid at 0, so
    /// gap and slice sum are both exactly the nudged edge: the verdict flips
    /// once, and the screen flips with the scan.
    #[test]
    fn reach_screen_flips_where_the_row_scan_does() {
        let cfg = MatchingConfig::default();
        let far = 1024.0;
        let (radius, give) = (cfg.radius(), rounding_give((1, far), (8, far)));
        let query = SignatureSeries::new(vec![level_sig(&[0.0]), level_sig(&[-far])]);
        let qc = ScoringArena::for_series(&query);
        let mut verdicts = Vec::new();
        for ulps in -2_000_000..2_000_000i64 {
            // `give` is some 10⁵ ulps of the radius: step coarsely, then
            // ulp by ulp around both edges.
            let near = |edge: f64| (nudged(radius, ulps) - edge).abs() < 8.0 * f64::EPSILON;
            if ulps % 1000 != 0 && !near(radius) && !near(radius + give) {
                continue;
            }
            let mut values = [0.0; 8];
            values[0] = 8.0 * nudged(radius, ulps);
            let video = SignatureSeries::new(vec![level_sig(&values), level_sig(&[far])]);
            let vc = ScoringArena::for_series(&video);
            let got = kappa_upper_bound(qc.view(0), vc.view(0), cfg);
            let want = kappa_row_scan(qc.view(0), vc.view(0), cfg, give, radius);
            assert_eq!(got.to_bits(), want.to_bits(), "{ulps} ulps off the radius");
            verdicts.push(got > 0.0);
        }
        assert!(verdicts[0] && !verdicts[verdicts.len() - 1]);
        let flips = verdicts.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(flips, 1, "ceilings fall to zero once and stay there");
    }

    /// The pass prices every pair once, whatever the rows hold — no row
    /// returns early, and none is walked twice — and an empty series on
    /// either side is a zero before any column is read.
    #[test]
    fn the_bound_pass_prices_every_pair_once() {
        let cfg = MatchingConfig::default();
        let points = |at: &[f64]| {
            let sigs = at.iter().map(|&v| level_sig(&[v]));
            ScoringArena::for_series(&SignatureSeries::new(sigs.collect()))
        };
        let pairs_bounded = |q: &ScoringArena, v: &ScoringArena| {
            let before = PAIRS_BOUNDED.get();
            let ub = kappa_upper_bound(q.view(0), v.view(0), cfg);
            assert_eq!(
                ub.to_bits(),
                kappa_upper_bound_oracle(q.view(0), v.view(0), cfg).to_bits()
            );
            (ub, PAIRS_BOUNDED.get() - before)
        };
        let video = points(&[40.0, 0.5, 41.0, 42.0, 43.0]);
        // Row 0 holds a pair within the radius: still every row, once.
        let (ub, pairs) = pairs_bounded(&points(&[0.0, 40.0, 41.0, 90.0]), &video);
        assert!(ub > 0.0);
        assert_eq!(pairs, 4 * 5);
        // The only such pair is in the last row.
        let (ub, pairs) = pairs_bounded(&points(&[90.0, 91.0, 92.0, 0.0]), &video);
        assert!(ub > 0.0);
        assert_eq!(pairs, 4 * 5);
        // No pair anywhere: all of them, once, and a proven zero.
        let (ub, pairs) = pairs_bounded(&points(&[90.0, 91.0, 92.0, 93.0]), &video);
        assert_eq!((ub.to_bits(), pairs), (0, 4 * 5));
        // An empty series on either side: zero before any column is read.
        let empty = points(&[]);
        assert_eq!(pairs_bounded(&empty, &video), (0.0, 0));
        assert_eq!(pairs_bounded(&video, &empty), (0.0, 0));
    }

    /// One signature per video: a point mass, or two half masses `±spread`
    /// around the same mean (which the centroid bound cannot tell from the
    /// point mass; the slice bound reads the spread off the two halves).
    fn one_sig(mean: f64, spread: f64) -> SignatureSeries {
        let cuboids = if spread == 0.0 {
            vec![(mean, 1.0)]
        } else {
            vec![(mean - spread, 0.5), (mean + spread, 0.5)]
        };
        let cuboids = cuboids
            .into_iter()
            .map(|(value, weight)| Cuboid { value, weight });
        SignatureSeries::new(vec![CuboidSignature::new(cuboids.collect())])
    }

    #[test]
    fn ladder_sweeps_exactly_the_ceilings_that_reach_the_final_floor_and_keeps_ties() {
        use crate::{CorpusVideo, QueryVideo, Recommender};
        use viderec_video::VideoId;
        // Against a point-mass query at 0 with τ = 0.5 (radius 1), CR scores
        // `1 / (1 + EMD)` inside the radius and 0 outside. (mean, spread):
        let shapes = [
            (0.25, 0.0), // exact 0.8, tight ceiling
            (0.0, 0.5),  // exact 2/3, and so is the ceiling (centroid: 1)
            (0.5, 0.0),  // exact 2/3 again: a tie at the final floor
            (0.9, 0.0),  // exact 0.526, tight ceiling below the floor
            (5.0, 0.0),  // mean gap over the radius: separated, κJ = 0
            (0.0, 3.0),  // slice bound 3, over the radius: ceiling 0, as exact
        ];
        let corpus = shapes
            .iter()
            .enumerate()
            .map(|(n, &(mean, spread))| CorpusVideo {
                id: VideoId(10 + n as u64),
                series: one_sig(mean, spread),
                users: vec![format!("u{n}")],
            });
        let cfg = RecommenderConfig {
            k_subcommunities: 2,
            ..Default::default()
        };
        let rec = Recommender::build(cfg, corpus.collect()).unwrap();
        let query = QueryVideo {
            series: one_sig(0.0, 0.0),
            users: Vec::new(),
        };
        let (top, stats) = rec.recommend_with_stats(Strategy::Cr, &query, 2, &[]);
        assert_eq!(
            top,
            rec.recommend_naive_excluding(Strategy::Cr, &query, 2, &[])
        );
        // The tie at the floor is swept and resolved by id, not pruned.
        assert_eq!((top[1].video, top[1].score), (VideoId(11), 1.0 / 1.5));

        // Refinement-optimality: swept ⟺ last ceiling ≥ final floor.
        let floor = top[1].score;
        let matching = rec.config().matching;
        let qc = ScoringArena::for_series(&query.series);
        let ceilings = (0..shapes.len()).map(|i| {
            let (lo, hi) = rec.content.arena.mean_ranges();
            if separated((0.0, 0.0), (lo[i], hi[i]), matching.radius()) {
                0.0
            } else {
                kappa_upper_bound(qc.view(0), rec.content.arena.view(i), matching)
            }
        });
        let reach = ceilings.filter(|&c| c >= floor).count() as u64;
        assert_eq!((reach, stats.exact_evals), (3, 3));
        assert_eq!(stats.pruned + stats.exact_evals, stats.scanned);
    }

    /// `series` with every value moved by `shift`.
    fn shifted(series: &SignatureSeries, shift: f64) -> SignatureSeries {
        let sigs = series.signatures().iter().map(|sig| {
            let cuboids = sig.cuboids().iter().map(|c| Cuboid {
                value: c.value + shift,
                weight: c.weight,
            });
            CuboidSignature::new(cuboids.collect())
        });
        SignatureSeries::new(sigs.collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// [`Ladder::drain`] against the one-move oracle on small corpora
        /// built to tie: videos are shifted copies of three base series
        /// (the query is the first), so first-rung keys, ceilings and exact
        /// scores all repeat; social scores come from three shared values;
        /// the heap starts empty or already holding scores, as it does when
        /// certificate survivors are promoted; the zero rung is the paper
        /// mode's separation test or a gated query's reach set. Same
        /// candidates refined and scored in the same order, same counters,
        /// same heap — and the run-structured ladder closes a span per
        /// scoring event, never per candidate.
        #[test]
        fn drain_makes_the_moves_of_the_one_move_oracle(
            seed in 0..u64::MAX,
            videos in prop::collection::vec((0..3usize, 0..5usize, 0..3usize), 1..14),
            held in prop::collection::vec(0..6u32, 0..5),
            top_k in 1..6usize,
            promoting in 0..2u32,
            fused in 0..2u32,
            gated in 0..2u32,
        ) {
            use crate::{CorpusVideo, Recommender};
            use viderec_video::VideoId;
            let mut rng = StdRng::seed_from_u64(seed);
            let bases: Vec<SignatureSeries> =
                (0..3).map(|_| random_series(&mut rng, 3)).collect();
            let shifts = [0.0, 0.125, 0.5, 0.875, 6.0];
            let corpus = videos.iter().enumerate().map(|(n, &(base, shift, _))| CorpusVideo {
                id: VideoId(n as u64),
                series: shifted(&bases[base], shifts[shift]),
                users: vec![format!("u{n}")],
            });
            let cfg = RecommenderConfig { k_subcommunities: 1, ..Default::default() };
            let rec = Recommender::build(cfg, corpus.collect()).unwrap();
            let strategy = if fused == 1 { Strategy::Csf } else { Strategy::Cr };
            let promoting = promoting == 1;
            let cache = ScoringArena::for_series(&bases[0]);
            let ladder = rec.ladder(strategy, &cache, top_k);
            let mut in_reach = ReachRows::default();
            reach_set(&rec.content.reach, ladder.qv, ladder.reach, videos.len(), &mut in_reach);
            let in_reach = (gated == 1).then_some(&in_reach);
            let ladder = Ladder { in_reach, ..ladder };
            let (omega, matching) = (rec.config().omega, rec.config().matching);
            // Every third candidate enters on another one's *refined* key
            // when that is still a ceiling for its own, so first-rung keys
            // also tie keys already refined — where the refined one goes first.
            let arena = &rec.content.arena;
            let sj = |n: usize| [0.0, 0.25, 0.5][videos[n].2];
            let refined_key = |n: usize, sj: f64| {
                let video = arena.view(n);
                let kappa_ub = kappa_upper_bound(cache.view(0), video, matching);
                strategy_score(strategy, omega, kappa_ub, sj)
            };
            let entries = (0..videos.len()).map(|n| {
                let next = (n + 1) % videos.len();
                let (sj, other) = (sj(n), refined_key(next, sj(next)));
                let key = if n % 3 == 0 && other >= refined_key(n, sj) {
                    other
                } else {
                    strategy_score(strategy, omega, 1.0, sj)
                };
                Queued { key, sj, idx: n as u32 }
            });
            let mut entries: Vec<Queued> = entries.collect();
            entries.sort_unstable();
            let fill = |heap: &mut BinaryHeap<WorstFirst>| {
                for (n, &sixths) in held.iter().take(top_k).enumerate() {
                    let (video, score) = (VideoId(1000 + n as u64), sixths as f64 / 6.0);
                    heap.push(WorstFirst(Scored { video, score }));
                }
            };
            let ranked = |heap: BinaryHeap<WorstFirst>| -> Vec<(VideoId, u64)> {
                let ranked = heap.into_sorted_vec();
                ranked.iter().map(|w| (w.0.video, w.0.score.to_bits())).collect()
            };

            let (mut want_heap, mut want) = (BinaryHeap::new(), QueryTrace::new(strategy, top_k));
            fill(&mut want_heap);
            let mut queue = LadderQueue::new(entries.clone(), BinaryHeap::new());
            let mut sp = Span::off();
            MOVES.take();
            while ladder.step(&mut queue, &mut want_heap, promoting, &mut want, &mut sp) {}
            let want_moves = MOVES.take();

            let (mut heap, mut got) = (BinaryHeap::new(), QueryTrace::new(strategy, top_k));
            fill(&mut heap);
            let mut queue = LadderQueue::new(entries, BinaryHeap::new());
            let closes = crate::trace::SPAN_CLOSES.get();
            ladder.drain(&mut queue, &mut heap, promoting, &mut got, Tracer::ON);
            let closes = crate::trace::SPAN_CLOSES.get() - closes;
            let moves = MOVES.take();

            prop_assert!(moves == want_moves, "{moves:?} != {want_moves:?}");
            prop_assert!(got.stats == want.stats, "{:?} != {:?}", got.stats, want.stats);
            prop_assert!(got.promoted == want.promoted);
            prop_assert!(queue.len() == 0);
            prop_assert!(ranked(heap) == ranked(want_heap));

            let refined = moves.iter().filter(|m| matches!(m, Move::Refined(_))).count() as u64;
            let scored = moves.len() as u64 - refined;
            prop_assert!(closes <= 3 * scored + 2, "{closes} closes, {scored} scored");
            prop_assert!(got.stage(Stage::Bound).count == refined);
            prop_assert!(got.stage(Stage::Emd).count == got.stats.exact_evals);
        }
    }

    /// The `κJ` ceiling Rubner's centroid bound alone gives — per query row,
    /// `SimC` of the smallest conceded `|mean gap|` — computed from the pure
    /// [`viderec_emd::centroid_lower_bound`], off the arena: the one-slice
    /// partition the slice bound refines.
    fn centroid_ceiling(a: &SignatureSeries, b: &SignatureSeries, cfg: MatchingConfig) -> f64 {
        use viderec_emd::{centroid_lower_bound, extended_jaccard_upper_bound};
        let give = rounding_give(
            ScoringArena::for_series(a).rounding(),
            ScoringArena::for_series(b).rounding(),
        );
        let (sa, sb) = (a.signatures(), b.signatures());
        let row = |i: usize| {
            let gaps = sb
                .iter()
                .map(|y| centroid_lower_bound(&sa[i].as_pairs(), &y.as_pairs()));
            sim_c_upper_bound(
                gaps.map(|gap| conceded(gap, give))
                    .fold(f64::INFINITY, f64::min),
            )
        };
        extended_jaccard_upper_bound(sa.len(), sb.len(), row, cfg)
    }

    #[test]
    fn best_bound_is_no_looser_than_centroid() {
        let mut rng = StdRng::seed_from_u64(92);
        let cfg = MatchingConfig::default();
        for _ in 0..40 {
            let a = random_series(&mut rng, 5);
            let b = random_series(&mut rng, 5);
            let centroid_ub = centroid_ceiling(&a, &b, cfg);
            let best_ub = kappa_upper_bound(
                ScoringArena::for_series(&a).view(0),
                ScoringArena::for_series(&b).view(0),
                cfg,
            );
            assert!(
                best_ub <= centroid_ub + 1e-12,
                "best {best_ub} looser than centroid {centroid_ub}"
            );
        }
    }

    #[test]
    fn bound_is_exact_for_identical_series() {
        let mut rng = StdRng::seed_from_u64(93);
        let a = random_series(&mut rng, 4);
        let cfg = MatchingConfig::default();
        let qc = ScoringArena::for_series(&a);
        let vc = ScoringArena::for_series(&a);
        let ub = kappa_upper_bound(qc.view(0), vc.view(0), cfg);
        assert!(ub >= kappa_j_series(&a, &a, cfg) - 1e-12);
    }

    #[test]
    fn stats_absorb_and_rate() {
        let mut s = PruneStats::default();
        assert_eq!(s.prune_rate(), 0.0);
        s.absorb(PruneStats {
            scanned: 8,
            pruned: 6,
            exact_evals: 2,
            cap_aborted: 5,
            full_sweeps: 3,
            ..Default::default()
        });
        s.absorb(PruneStats {
            scanned: 2,
            pruned: 0,
            exact_evals: 2,
            ..Default::default()
        });
        assert_eq!(
            s,
            PruneStats {
                scanned: 10,
                pruned: 6,
                pruned_embed: 0,
                exact_evals: 4,
                cap_aborted: 5,
                full_sweeps: 3,
            }
        );
        assert!((s.prune_rate() - 0.6).abs() < 1e-12);
    }
}
