//! The LSB-tree ensemble (Tao et al., SIGMOD'09 [28]), as adopted in §4.4.
//!
//! Each of the `L` trees owns an independent Cauchy LSH bundle: a point is
//! hashed to `m` grid coordinates, Z-order encoded, and stored in a B⁺-tree
//! under that Z-value. A query "continuously find[s] the next longest common
//! prefix with the query" (Fig. 6): bidirectional cursors expand around the
//! query's Z-value, always taking the side whose next entry shares the longer
//! prefix, because a longer shared Z-prefix means a smaller shared quadrant
//! of the LSH grid and therefore (w.h.p.) a closer point in L1.

use crate::btree::BPlusTree;
use crate::lsh::{CauchyLsh, MAX_HASHES};
use crate::zorder::{common_prefix_len, zorder_encode};

/// LSB ensemble parameters.
#[derive(Debug, Clone, Copy)]
pub struct LsbConfig {
    /// Number of independent trees `L`.
    pub trees: usize,
    /// LSH functions per tree `m` (Z-order dimensions).
    pub hashes_per_tree: usize,
    /// Bits per LSH coordinate.
    pub bits: u32,
    /// LSH bucket width `W`.
    pub bucket_width: f64,
    /// Base seed; tree `t` uses `seed + t`.
    pub seed: u64,
}

impl Default for LsbConfig {
    fn default() -> Self {
        Self {
            trees: 4,
            hashes_per_tree: 8,
            bits: 12,
            bucket_width: 4.0,
            seed: 0x15b,
        }
    }
}

impl LsbConfig {
    /// Why [`LsbForest::new`] would refuse this config, if it would: no
    /// trees or hash functions, a coordinate width outside `2..=63` bits (the
    /// grid centre's quarter-span shift needs 2, the clamp's `2^bits − 1`
    /// allows 63), more than 128 Z-order bits a key, or a bucket width that
    /// is not positive and finite.
    pub fn validate(&self) -> Result<(), String> {
        if self.trees == 0 {
            return Err("need at least one tree".into());
        }
        if self.hashes_per_tree == 0 {
            return Err("need at least one hash function per tree".into());
        }
        if !(2..=63).contains(&self.bits) {
            return Err(format!("bits {} outside 2..=63", self.bits));
        }
        if self.hashes_per_tree as u64 * u64::from(self.bits) > 128 {
            return Err(format!(
                "Z-order bit budget {} × {} exceeds u128",
                self.hashes_per_tree, self.bits
            ));
        }
        if !(self.bucket_width > 0.0 && self.bucket_width.is_finite()) {
            return Err(format!(
                "bucket width {} is not positive and finite",
                self.bucket_width
            ));
        }
        Ok(())
    }
}

/// A candidate returned by an LSB query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsbCandidate<P> {
    /// Stored payload.
    pub payload: P,
    /// The best (longest) common Z-prefix across trees, in bits.
    pub lcp: u32,
}

/// What the forest stores: a small unsigned integer — a corpus index — so a
/// query keeps score in an array indexed by payload ([`LsbForest::query`])
/// instead of sorting its pulls to find the duplicates.
pub trait Slot: Copy + Ord {
    /// The payload as an array index.
    fn slot(self) -> usize;
    /// The payload whose [`Self::slot`] is `slot`.
    fn from_slot(slot: usize) -> Self;
}

macro_rules! impl_slot {
    ($($t:ty),*) => {$(
        impl Slot for $t {
            fn slot(self) -> usize {
                self as usize
            }
            fn from_slot(slot: usize) -> Self {
                slot as $t
            }
        }
    )*};
}
impl_slot!(u8, u16, u32, usize);

/// `L` independent LSH → Z-order → B⁺-tree indexes.
#[derive(Debug, Clone)]
pub struct LsbForest<P> {
    cfg: LsbConfig,
    dims: usize,
    trees: Vec<(CauchyLsh, BPlusTree<P>)>,
    len: usize,
    /// One past the largest payload slot indexed: a query's scoreboard size.
    slots: usize,
}

impl<P: Slot> LsbForest<P> {
    /// Empty forest for `dims`-dimensional points.
    ///
    /// # Panics
    /// Panics on a config [`LsbConfig::validate`] refuses.
    pub fn new(cfg: LsbConfig, dims: usize) -> Self {
        if let Err(why) = cfg.validate() {
            panic!("{why}");
        }
        let trees = (0..cfg.trees)
            .map(|t| {
                (
                    CauchyLsh::new(
                        cfg.hashes_per_tree,
                        dims,
                        cfg.bucket_width,
                        cfg.seed + t as u64,
                    ),
                    BPlusTree::new(),
                )
            })
            .collect();
        Self {
            cfg,
            dims,
            trees,
            len: 0,
            slots: 0,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the forest is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Point dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total Z-order bits per key.
    fn total_bits(&self) -> u32 {
        self.cfg.hashes_per_tree as u32 * self.cfg.bits
    }

    /// Distinct Z-values stored, summed over the trees.
    pub fn distinct_keys(&self) -> usize {
        self.trees
            .iter()
            .map(|(_, tree)| tree.distinct_keys())
            .sum()
    }

    /// Stored `(Z-value, payload)` pairs, summed over the trees: what
    /// [`Self::insert`]'s dedup kept of `trees × len()`.
    pub fn stored_pairs(&self) -> usize {
        self.trees.iter().map(|(_, tree)| tree.len()).sum()
    }

    /// Each tree's `(Z-value, payloads)` entries in ascending key order:
    /// what two forests fed the same points in the same order agree on
    /// entry for entry.
    pub fn listings(&self) -> impl Iterator<Item = impl Iterator<Item = (u128, &[P])>> {
        self.trees.iter().map(|(_, tree)| tree.iter())
    }

    /// Indexes `point` under `payload` in every tree.
    ///
    /// Each tree keeps a key's payloads as a set, so a `(key, payload)` pair
    /// already present is not stored twice: queries dedup payloads anyway
    /// (keeping the best LCP, and within one Z-value the LCP is identical),
    /// so a duplicate would only bloat the bag. Without this, a payload
    /// indexed under many near-identical points — a video contributing
    /// dozens of similar signatures — piles thousands of copies into one hot
    /// Z-cell, and every query pays to re-dedup them.
    pub fn insert(&mut self, point: &[f64], payload: P) {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        let bits = self.cfg.bits;
        for (lsh, tree) in &mut self.trees {
            tree.insert(zvalue(lsh, bits, point), payload);
        }
        self.len += 1;
        self.slots = self.slots.max(payload.slot() + 1);
    }

    /// Returns up to `limit` distinct candidates, best common-prefix first.
    ///
    /// Per tree, up to `limit` entries are pulled by expanding two cursors
    /// around the query Z-value, always stepping the side with the longer
    /// common prefix (the "next longest common prefix" rule of Fig. 6).
    /// Candidates found in several trees keep their best LCP.
    ///
    /// The final `limit` truncation happens *after* the cross-tree dedup
    /// keeps each candidate's best LCP, so the returned *set* is **not**
    /// monotone in `limit` — a candidate on the truncation boundary can be
    /// displaced when a wider pull upgrades another candidate's LCP. Paths
    /// that widen and must never lose a candidate use
    /// [`Self::query_monotone`] instead.
    pub fn query(&self, point: &[f64], limit: usize) -> Vec<LsbCandidate<P>> {
        if limit == 0 {
            return Vec::new();
        }
        let mut out = self.expand(point, |pulled, _lcp| pulled < limit);
        out.truncate(limit);
        out
    }

    /// Like [`Self::query`] but *without* the final truncation: every
    /// candidate the per-tree `limit`-bounded cursor expansion touched is
    /// returned (so the result holds at most `trees × limit` candidates, not
    /// `limit`). Because each tree's pull sequence at `limit + 1` extends its
    /// pull sequence at `limit`, the returned candidate set is **monotone in
    /// `limit`**: widening the fan-out never drops a candidate.
    pub fn query_monotone(&self, point: &[f64], limit: usize) -> Vec<LsbCandidate<P>> {
        if limit == 0 {
            return Vec::new();
        }
        self.expand(point, |pulled, _lcp| pulled < limit)
    }

    /// All candidates whose common Z-prefix with the query is at least
    /// `min_lcp` bits in at least one tree, best prefix first.
    ///
    /// Keys sharing a `≥ min_lcp` prefix with the query form one contiguous
    /// Z-value range around it, so the bidirectional cursors enumerate the
    /// radius exactly: each side stops at the first entry whose prefix is
    /// shorter. Lowering `min_lcp` (a wider LCP radius) can only extend each
    /// side's pull sequence, so the candidate set is **monotone in the
    /// radius**: widening never drops a candidate, and `min_lcp == 0` returns
    /// the whole forest.
    pub fn query_radius(&self, point: &[f64], min_lcp: u32) -> Vec<LsbCandidate<P>> {
        self.expand(point, |_pulled, lcp| lcp >= min_lcp)
    }

    /// Shared bidirectional cursor expansion: [`Self::pull`]ed candidates,
    /// deduplicated across trees keeping each payload's best LCP, best prefix
    /// first and equal prefixes by payload ascending. The order is a function
    /// of the pulls alone — no hasher — so [`Self::query`]'s truncation keeps
    /// the same candidates on every call.
    ///
    /// A hot Z-cell holds thousands of payloads and every tree pulls much the
    /// same ones, so the pulls outnumber the candidates several times over.
    /// They are scored on a board indexed by payload slot — one byte each:
    /// 1 + the best LCP so far (at most 128 bits), 0 while unpulled — which
    /// makes the dedup O(1) a pull and leaves the candidates in payload
    /// order for free; the stable sort on LCP alone then has few distinct keys
    /// to tell apart. (Sorting the pulls by payload to find the duplicates
    /// was 97 % of a probe: 340 → 40 µs at 50k videos, EXPERIMENTS.md PR 24.)
    fn expand(&self, point: &[f64], keep: impl FnMut(usize, u32) -> bool) -> Vec<LsbCandidate<P>> {
        let mut best = vec![0u8; self.slots];
        self.pull(point, keep, |v, lcp| {
            let mark = &mut best[v.slot()];
            *mark = (*mark).max(lcp as u8 + 1);
        });
        let pulled = best.iter().enumerate().filter(|(_, &mark)| mark > 0);
        let mut out: Vec<LsbCandidate<P>> = pulled
            .map(|(slot, &mark)| LsbCandidate {
                payload: P::from_slot(slot),
                lcp: u32::from(mark) - 1,
            })
            .collect();
        out.sort_by_key(|c| std::cmp::Reverse(c.lcp));
        out
    }

    /// Per tree, pulls the side with the longer common prefix while
    /// `keep(pulled_so_far, next_lcp)` holds, visiting every `(payload, lcp)`.
    fn pull(
        &self,
        point: &[f64],
        mut keep: impl FnMut(usize, u32) -> bool,
        mut visit: impl FnMut(&P, u32),
    ) {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        let total_bits = self.total_bits();
        for (lsh, tree) in &self.trees {
            let q = zvalue(lsh, self.cfg.bits, point);
            let mut fwd = tree.cursor_forward(q);
            let mut bwd = tree.cursor_backward(q);
            let mut pulled = 0usize;
            loop {
                let flcp = fwd.peek_key().map(|k| common_prefix_len(q, k, total_bits));
                let blcp = bwd.peek_key().map(|k| common_prefix_len(q, k, total_bits));
                // The longer prefix wins, forward on a tie; with both sides
                // exhausted there is no prefix to take.
                let take_forward = match (flcp, blcp) {
                    (Some(f), Some(b)) => f >= b,
                    (f, _) => f.is_some(),
                };
                let Some(lcp) = (if take_forward { flcp } else { blcp }) else {
                    break;
                };
                if !keep(pulled, lcp) {
                    break;
                }
                let pulled_entry = if take_forward { fwd.next() } else { bwd.next() };
                let Some((_, values)) = pulled_entry else {
                    break;
                };
                values.iter().for_each(|v| visit(v, lcp));
                pulled += values.len();
            }
        }
    }
}

/// `point`'s Z-value under one tree's hash bundle, hashed into a stack
/// buffer: no allocation on the insert or the query path.
fn zvalue(lsh: &CauchyLsh, bits: u32, point: &[f64]) -> u128 {
    let mut coords = [0u64; MAX_HASHES];
    let coords = &mut coords[..lsh.m()];
    lsh.hash_unsigned_into(point, bits, coords);
    zorder_encode(coords, bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg() -> LsbConfig {
        LsbConfig {
            trees: 4,
            hashes_per_tree: 6,
            bits: 10,
            bucket_width: 2.0,
            seed: 9,
        }
    }

    fn random_point(rng: &mut StdRng, dims: usize, scale: f64) -> Vec<f64> {
        (0..dims).map(|_| rng.gen_range(-scale..scale)).collect()
    }

    #[test]
    fn exact_match_is_top_candidate() {
        let mut f: LsbForest<u32> = LsbForest::new(cfg(), 8);
        let mut rng = StdRng::seed_from_u64(1);
        let target = random_point(&mut rng, 8, 5.0);
        f.insert(&target, 42);
        for i in 0..50 {
            let p = random_point(&mut rng, 8, 50.0);
            f.insert(&p, i);
        }
        let res = f.query(&target, 5);
        assert_eq!(res[0].payload, 42);
        assert_eq!(res[0].lcp, f.total_bits());
    }

    #[test]
    fn near_neighbours_surface_in_candidates() {
        // Insert clusters far apart; querying near one cluster should return
        // mostly that cluster's members.
        let mut f: LsbForest<usize> = LsbForest::new(cfg(), 4);
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..20 {
            let base = if i < 10 { 0.0 } else { 400.0 };
            let p: Vec<f64> = (0..4).map(|_| base + rng.gen_range(-0.5..0.5)).collect();
            f.insert(&p, i);
        }
        let res = f.query(&[0.0, 0.0, 0.0, 0.0], 10);
        let near_hits = res.iter().filter(|c| c.payload < 10).count();
        assert!(
            near_hits >= 7,
            "only {near_hits}/10 candidates from the near cluster"
        );
    }

    #[test]
    fn candidates_ordered_by_lcp() {
        let mut f: LsbForest<usize> = LsbForest::new(cfg(), 4);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..60 {
            f.insert(&random_point(&mut rng, 4, 30.0), i);
        }
        let res = f.query(&[0.0; 4], 20);
        for w in res.windows(2) {
            assert!(w[0].lcp >= w[1].lcp);
        }
    }

    #[test]
    fn truncated_query_is_deterministic_with_ties_by_payload() {
        let mut f: LsbForest<u32> = LsbForest::new(cfg(), 4);
        let mut rng = StdRng::seed_from_u64(13);
        // Few distinct points under many payloads: LCP ties at every cut.
        let points: Vec<Vec<f64>> = (0..6).map(|_| random_point(&mut rng, 4, 8.0)).collect();
        for i in 0..120u32 {
            f.insert(&points[i as usize % points.len()], i);
        }
        for limit in [1, 7, 20, 64] {
            let first = f.query(&points[0], limit);
            assert_eq!(first, f.query(&points[0], limit), "limit {limit}");
            assert_eq!(first, f.clone().query(&points[0], limit), "limit {limit}");
            for w in first.windows(2) {
                assert!((w[1].lcp, w[0].payload) < (w[0].lcp, w[1].payload));
            }
        }
    }

    /// The dedup the scoreboard replaced — sort the pulls by payload, keep
    /// each payload's best LCP, stable-sort on LCP — kept as its oracle.
    fn expand_by_sorting(
        f: &LsbForest<u32>,
        point: &[f64],
        keep: impl FnMut(usize, u32) -> bool,
    ) -> Vec<LsbCandidate<u32>> {
        let mut out = Vec::new();
        f.pull(point, keep, |&payload, lcp| {
            out.push(LsbCandidate { payload, lcp })
        });
        out.sort_unstable_by_key(|c| c.payload);
        out.dedup_by(|later, kept| {
            let same = later.payload == kept.payload;
            if same {
                kept.lcp = kept.lcp.max(later.lcp);
            }
            same
        });
        out.sort_by_key(|c| std::cmp::Reverse(c.lcp));
        out
    }

    #[test]
    fn scoreboard_dedup_returns_what_sorting_the_pulls_did() {
        // Few cells, many points a payload, payloads inserted in no order:
        // every tree pulls the same payloads several times over.
        let mut rng = StdRng::seed_from_u64(11);
        let mut f: LsbForest<u32> = LsbForest::new(cfg(), 4);
        for _ in 0..600 {
            let payload = rng.gen_range(0..150);
            f.insert(&random_point(&mut rng, 4, 6.0), payload);
        }
        for _ in 0..40 {
            let q = random_point(&mut rng, 4, 8.0);
            for limit in [1, 7, 64, 1000] {
                let want = expand_by_sorting(&f, &q, |pulled, _| pulled < limit);
                assert_eq!(f.query_monotone(&q, limit), want, "limit {limit}");
                let mut top = want;
                top.truncate(limit);
                assert_eq!(f.query(&q, limit), top, "limit {limit}");
            }
            for min_lcp in [0, 3, 12] {
                let want = expand_by_sorting(&f, &q, |_, lcp| lcp >= min_lcp);
                assert_eq!(f.query_radius(&q, min_lcp), want, "radius {min_lcp}");
            }
        }
    }

    #[test]
    fn limit_respected_and_dedup() {
        let mut f: LsbForest<u8> = LsbForest::new(cfg(), 4);
        let p = [1.0, 2.0, 3.0, 4.0];
        f.insert(&p, 7); // appears in all 4 trees
        let res = f.query(&p, 10);
        assert_eq!(res.len(), 1, "payload must be deduplicated across trees");
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..30 {
            f.insert(&random_point(&mut rng, 4, 10.0), i);
        }
        assert!(f.query(&p, 5).len() <= 5);
    }

    #[test]
    fn empty_forest_returns_nothing() {
        let f: LsbForest<u8> = LsbForest::new(cfg(), 3);
        assert!(f.is_empty());
        assert!(f.query(&[0.0; 3], 8).is_empty());
        assert_eq!(f.dims(), 3);
    }

    #[test]
    fn zero_limit_returns_nothing() {
        let mut f: LsbForest<u8> = LsbForest::new(cfg(), 2);
        f.insert(&[0.0, 0.0], 1);
        assert!(f.query(&[0.0, 0.0], 0).is_empty());
        assert_eq!(f.len(), 1);
    }

    #[test]
    #[should_panic(expected = "bit budget")]
    fn oversized_bits_rejected() {
        let cfg = LsbConfig {
            hashes_per_tree: 16,
            bits: 16,
            ..Default::default()
        };
        let _f: LsbForest<u8> = LsbForest::new(cfg, 2);
    }

    #[test]
    #[should_panic(expected = "bits 1 outside 2..=63")]
    fn one_bit_coordinates_rejected() {
        let cfg = LsbConfig {
            bits: 1,
            ..Default::default()
        };
        let _f: LsbForest<u8> = LsbForest::new(cfg, 2);
    }

    #[test]
    #[should_panic(expected = "bits 64 outside 2..=63")]
    fn sixty_four_bit_coordinates_rejected() {
        let cfg = LsbConfig {
            hashes_per_tree: 1,
            bits: 64,
            ..Default::default()
        };
        let _f: LsbForest<u8> = LsbForest::new(cfg, 2);
    }

    #[test]
    #[should_panic(expected = "at least one hash function")]
    fn zero_hash_functions_rejected() {
        let cfg = LsbConfig {
            hashes_per_tree: 0,
            ..Default::default()
        };
        let _f: LsbForest<u8> = LsbForest::new(cfg, 2);
    }

    #[test]
    fn bucket_width_must_be_positive_and_finite() {
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = LsbConfig {
                bucket_width: w,
                ..Default::default()
            };
            assert!(cfg.validate().is_err(), "width {w}");
            let built = std::panic::catch_unwind(|| LsbForest::<u8>::new(cfg, 2));
            assert!(built.is_err(), "width {w} built a forest");
        }
    }

    #[test]
    fn edge_of_range_configs_build_and_hash() {
        for (m, bits) in [(1, 63), (64, 2), (2, 2)] {
            let cfg = LsbConfig {
                hashes_per_tree: m,
                bits,
                ..Default::default()
            };
            let mut f: LsbForest<u8> = LsbForest::new(cfg, 3);
            f.insert(&[1e9, -1e9, 0.5], 1);
            assert_eq!(f.query(&[1e9, -1e9, 0.5], 1)[0].lcp, f.total_bits());
        }
    }

    #[test]
    fn counters_count_keys_and_deduped_pairs() {
        let mut f: LsbForest<u32> = LsbForest::new(cfg(), 4);
        assert_eq!((f.distinct_keys(), f.stored_pairs()), (0, 0));
        let p = [1.0, 2.0, 3.0, 4.0];
        f.insert(&p, 3);
        f.insert(&p, 3);
        assert_eq!((f.distinct_keys(), f.stored_pairs()), (4, 4), "deduped");
        f.insert(&p, 1);
        assert_eq!((f.distinct_keys(), f.stored_pairs()), (4, 8));
        assert_eq!(f.len(), 3, "len counts inserted points");
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..200 {
            f.insert(&random_point(&mut rng, 4, 40.0), i);
        }
        let trees: Vec<_> = f.trees.iter().map(|(_, t)| t).collect();
        for t in &trees {
            t.check_invariants().unwrap();
        }
        let keys: usize = trees.iter().map(|t| t.iter().count()).sum();
        let pairs: usize = trees
            .iter()
            .flat_map(|t| t.iter())
            .map(|(_, vs)| vs.len())
            .sum();
        assert_eq!((f.distinct_keys(), f.stored_pairs()), (keys, pairs));
    }

    fn payload_set(candidates: &[LsbCandidate<usize>]) -> std::collections::BTreeSet<usize> {
        candidates.iter().map(|c| c.payload).collect()
    }

    #[test]
    fn monotone_query_is_monotone_in_limit_and_covers_query() {
        let mut f: LsbForest<usize> = LsbForest::new(cfg(), 4);
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..80 {
            f.insert(&random_point(&mut rng, 4, 25.0), i);
        }
        let q = [0.5, -1.0, 3.0, 0.0];
        let mut prev = payload_set(&f.query_monotone(&q, 1));
        for limit in 2..=40 {
            let cur = payload_set(&f.query_monotone(&q, limit));
            assert!(
                prev.is_subset(&cur),
                "widening the fan-out from {} to {limit} dropped a candidate",
                limit - 1
            );
            // The truncated query draws from the same pulls, so everything it
            // returns must already be in the untruncated set.
            let truncated = payload_set(&f.query(&q, limit));
            assert!(truncated.is_subset(&cur));
            prev = cur;
        }
    }

    #[test]
    fn radius_query_is_monotone_and_exhaustive_at_zero() {
        let mut f: LsbForest<usize> = LsbForest::new(cfg(), 4);
        let mut rng = StdRng::seed_from_u64(12);
        for i in 0..60 {
            f.insert(&random_point(&mut rng, 4, 25.0), i);
        }
        let q = [2.0, 2.0, -2.0, 1.0];
        let mut prev = payload_set(&f.query_radius(&q, f.total_bits()));
        for min_lcp in (0..f.total_bits()).rev() {
            let cur = payload_set(&f.query_radius(&q, min_lcp));
            assert!(
                prev.is_subset(&cur),
                "widening the radius to min_lcp={min_lcp} dropped a candidate"
            );
            // Every returned candidate actually meets the radius.
            for c in f.query_radius(&q, min_lcp) {
                assert!(c.lcp >= min_lcp);
            }
            prev = cur;
        }
        assert_eq!(
            payload_set(&f.query_radius(&q, 0)).len(),
            60,
            "radius 0 must enumerate the whole forest"
        );
    }

    #[test]
    fn monotone_and_radius_agree_with_query_on_empty_forest() {
        let f: LsbForest<u8> = LsbForest::new(cfg(), 3);
        assert!(f.query_monotone(&[0.0; 3], 8).is_empty());
        assert!(f.query_monotone(&[0.0; 3], 0).is_empty());
        assert!(f.query_radius(&[0.0; 3], 0).is_empty());
    }
}
