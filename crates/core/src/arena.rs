//! The corpus-owned scoring arena: every per-video cache the hot scoring
//! paths need, laid out as contiguous structure-of-arrays buffers.
//!
//! Before this module existed, each [`crate::parallel::ParallelRecommender`]
//! rebuilt a `Vec<SeriesCache>` — one heap-allocated cache per video, each
//! holding its own `Vec`s — every time it was constructed, and the sequential
//! [`crate::recommender::Recommender::recommend`] path had no caches at all:
//! it re-sorted every signature's `(value, weight)` pairs inside every exact
//! `κJ` evaluation. The arena moves all of that to *ingest time*:
//!
//! * one flat `means` buffer (one entry per signature, videos own contiguous
//!   ranges via `sig_off`);
//! * one flat `feats` buffer of Lipschitz anchor features
//!   ([`crate::prune::ANCHORS`] per signature) for the arena's configured
//!   [`PruneBound`];
//! * flat `values`/`weights` lanes (value-ascending, one pair of entries per
//!   cuboid) with a per-signature `pair_off` table — the SoA layout the
//!   branchless EMD kernel ([`viderec_emd::emd_1d_soa_capped`]) sweeps with
//!   no sorting, no allocation, and no `(f64, f64)` interleaving;
//! * per-video `mean_lo`/`mean_hi` columns — the signature-mean range the
//!   O(1) separation rung and the flat certificate sweep read without
//!   touching any per-signature buffer;
//! * optional quantized lanes (`qvalues`/`qweights` plus a per-signature
//!   error bound `qerr`) when the arena is built for
//!   [`crate::config::EmdKernel::Quantized`];
//! * a per-video `mean_order` permutation so bound rows can visit signatures
//!   in centroid-gap order.
//!
//! The arena is built once in [`crate::recommender::Recommender::build`],
//! *extended* (never rebuilt) when [`crate::maintenance`] ingests new videos,
//! and borrowed by both the sequential pruned scan and the batch engine, so
//! the two query paths literally share one cache.

use crate::prune::{PruneBound, ANCHORS};
use viderec_emd::{anchor_features, anchor_features_from_lanes, quantize_lanes};
use viderec_signature::SignatureSeries;

/// Structure-of-arrays scoring caches for a whole corpus (or, via
/// [`ScoringArena::for_series`], a single query series).
#[derive(Debug, Clone)]
pub(crate) struct ScoringArena {
    bound: PruneBound,
    quantize: bool,
    /// Cuboid count of the longest signature ingested so far, and the
    /// largest `|value|` of any cuboid — what the rounding allowance of the
    /// cached sums ([`viderec_emd::rounding_allowance`]) scales with.
    max_terms: usize,
    max_abs: f64,
    /// Per-video signature ranges: video `v` owns global signature indices
    /// `sig_off[v]..sig_off[v + 1]`. Length `num_videos + 1`.
    sig_off: Vec<u32>,
    /// Weighted mean of each signature (mass is normalised to 1 per
    /// Definition 1, so the weighted value sum *is* the mean). One entry per
    /// global signature index.
    means: Vec<f64>,
    /// Per-video permutation of *local* signature indices, ordered by mean
    /// ascending; laid out in the same per-video ranges as `means`.
    mean_order: Vec<u32>,
    /// Anchor features, [`ANCHORS`] per signature, flattened; empty for
    /// [`PruneBound::Centroid`].
    feats: Vec<f64>,
    /// Per-signature ranges into the lane buffers: signature `s` (global
    /// index) owns `pair_off[s]..pair_off[s + 1]`. Length
    /// `total_signatures + 1`.
    pair_off: Vec<u32>,
    /// Every signature's cuboid values, sorted ascending per signature.
    values: Vec<f64>,
    /// The weights matching `values`, in the same (value-sorted) order.
    weights: Vec<f64>,
    /// Smallest signature mean of each video (`0.0` for an empty series).
    mean_lo: Vec<f64>,
    /// Largest signature mean of each video (`0.0` for an empty series).
    mean_hi: Vec<f64>,
    /// Quantized value lanes (same offsets as `values`); empty unless
    /// `quantize`.
    qvalues: Vec<i32>,
    /// Quantized weight lanes (same offsets as `weights`); empty unless
    /// `quantize`.
    qweights: Vec<u16>,
    /// Per-signature weight-rounding error `δ`; `f64::INFINITY` marks a
    /// signature whose values did not fit the integer grid (its quantized
    /// lanes are zero-filled placeholders and the prefilter skips it).
    qerr: Vec<f64>,
}

impl ScoringArena {
    /// Empty arena for `bound`; extend it with [`Self::push_series`]. With
    /// `quantize`, every ingested signature also gets u16/i32 quantized
    /// lanes for the integer EMD prefilter.
    pub(crate) fn new(bound: PruneBound, quantize: bool) -> Self {
        Self {
            bound,
            quantize,
            max_terms: 0,
            max_abs: 0.0,
            sig_off: vec![0],
            means: Vec::new(),
            mean_order: Vec::new(),
            feats: Vec::new(),
            pair_off: vec![0],
            values: Vec::new(),
            weights: Vec::new(),
            mean_lo: Vec::new(),
            mean_hi: Vec::new(),
            qvalues: Vec::new(),
            qweights: Vec::new(),
            qerr: Vec::new(),
        }
    }

    /// Single-series arena — the query-side cache of a pruned scan. View it
    /// with `view(0)`.
    pub(crate) fn for_series(series: &SignatureSeries, bound: PruneBound, quantize: bool) -> Self {
        let mut arena = Self::new(bound, quantize);
        arena.push_series(series);
        arena
    }

    /// Appends one video's caches. This is the ingest-time (and
    /// maintenance-time) extension point: adding a video to the corpus costs
    /// one pass over its signatures, never a rebuild of the arena.
    pub(crate) fn push_series(&mut self, series: &SignatureSeries) {
        let base = self.means.len();
        for sig in series.signatures() {
            let mut pairs = sig.as_pairs();
            self.means.push(pairs.iter().map(|&(v, w)| v * w).sum());
            if let PruneBound::Best { lo, hi } = self.bound {
                self.feats.extend(anchor_features(&pairs, lo, hi, ANCHORS));
            }
            pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
            let lane_start = self.values.len();
            self.max_terms = self.max_terms.max(pairs.len());
            for &(v, w) in &pairs {
                self.max_abs = self.max_abs.max(v.abs());
                self.values.push(v);
                self.weights.push(w);
            }
            if self.quantize {
                match quantize_lanes(&self.values[lane_start..], &self.weights[lane_start..]) {
                    Some(q) => {
                        self.qvalues.extend_from_slice(&q.values);
                        self.qweights.extend_from_slice(&q.weights);
                        self.qerr.push(q.weight_l1_err);
                    }
                    None => {
                        // Keep the lane offsets aligned; the infinite error
                        // bound disables the prefilter for this signature.
                        self.qvalues.extend(std::iter::repeat_n(0, pairs.len()));
                        self.qweights.extend(std::iter::repeat_n(0, pairs.len()));
                        self.qerr.push(f64::INFINITY);
                    }
                }
            }
            self.pair_off.push(self.values.len() as u32);
        }
        let n = self.means.len() - base;
        let means = &self.means;
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&x, &y| means[base + x as usize].total_cmp(&means[base + y as usize]));
        let mean_at = |o: Option<&u32>| o.map_or(0.0, |&x| means[base + x as usize]);
        self.mean_lo.push(mean_at(order.first()));
        self.mean_hi.push(mean_at(order.last()));
        self.mean_order.extend_from_slice(&order);
        self.sig_off.push(self.means.len() as u32);
    }

    /// The per-video `[min, max]` signature-mean columns, indexed by video.
    pub(crate) fn mean_ranges(&self) -> (&[f64], &[f64]) {
        (&self.mean_lo, &self.mean_hi)
    }

    /// `(longest signature, largest |value|)` over everything ingested: the
    /// arena's side of [`crate::prune::Slack::between`].
    pub(crate) fn rounding(&self) -> (usize, f64) {
        (self.max_terms, self.max_abs)
    }

    /// The bound the arena's anchor features were computed for.
    pub(crate) fn bound(&self) -> PruneBound {
        self.bound
    }

    /// Number of videos in the arena.
    pub(crate) fn len(&self) -> usize {
        self.sig_off.len() - 1
    }

    /// Anchor features for a *different* anchor domain than the arena's own,
    /// recomputed from the stored lanes (`E[|X − c|]` is order-independent,
    /// so the sorted buffers are a valid source). Returned flattened in the
    /// arena's signature layout; view them via [`Self::view_with_feats`].
    /// This is the overlay a [`crate::parallel::ParallelRecommender`] builds
    /// when its configured bound disagrees with the arena's — everything
    /// else (means, orders, presorted lanes) is still borrowed.
    pub(crate) fn anchor_feats_for(&self, lo: f64, hi: f64) -> Vec<f64> {
        let mut feats = Vec::with_capacity(self.means.len() * ANCHORS);
        for s in 0..self.means.len() {
            let range = self.pair_off[s] as usize..self.pair_off[s + 1] as usize;
            feats.extend(anchor_features_from_lanes(
                &self.values[range.clone()],
                &self.weights[range],
                lo,
                hi,
                ANCHORS,
            ));
        }
        feats
    }

    /// Borrowed view of one video's caches.
    pub(crate) fn view(&self, video: usize) -> SeriesView<'_> {
        self.view_with_feats(video, &self.feats)
    }

    /// Like [`Self::view`] but reading anchor features from `feats` (an
    /// [`Self::anchor_feats_for`] overlay in the arena's layout, or an empty
    /// slice to view without features).
    pub(crate) fn view_with_feats<'a>(&'a self, video: usize, feats: &'a [f64]) -> SeriesView<'a> {
        let (lo, hi) = (
            self.sig_off[video] as usize,
            self.sig_off[video + 1] as usize,
        );
        SeriesView {
            means: &self.means[lo..hi],
            mean_order: &self.mean_order[lo..hi],
            feats: if feats.is_empty() {
                &[]
            } else {
                &feats[lo * ANCHORS..hi * ANCHORS]
            },
            pair_off: &self.pair_off[lo..=hi],
            values: &self.values,
            weights: &self.weights,
            rounding: self.rounding(),
            quant: if self.quantize {
                Some(QuantLanes {
                    values: &self.qvalues,
                    weights: &self.qweights,
                    err: &self.qerr[lo..hi],
                })
            } else {
                None
            },
        }
    }
}

/// The quantized lane buffers a [`SeriesView`] exposes when its arena was
/// built for the quantized kernel.
#[derive(Clone, Copy)]
struct QuantLanes<'a> {
    values: &'a [i32],
    weights: &'a [u16],
    /// Per-signature weight error `δ`, local indexing; `∞` disables the
    /// prefilter for that signature.
    err: &'a [f64],
}

/// One video's (or one query's) slice of a [`ScoringArena`]: everything the
/// bound evaluation ([`crate::prune::kappa_upper_bound`]) and the cached
/// exact refinement ([`crate::prune::kappa_exact_cached`]) read.
#[derive(Clone, Copy)]
pub(crate) struct SeriesView<'a> {
    /// Signature means, local indexing.
    pub(crate) means: &'a [f64],
    /// Local signature indices ordered by mean ascending.
    pub(crate) mean_order: &'a [u32],
    /// Anchor features, [`ANCHORS`] per signature, local indexing; empty when
    /// the view carries no features (centroid-only bounds never read them).
    pub(crate) feats: &'a [f64],
    /// Global lane offsets of this video's signatures (`len + 1` entries).
    pair_off: &'a [u32],
    /// The arena-wide value lane the offsets index into.
    values: &'a [f64],
    /// The arena-wide weight lane the offsets index into.
    weights: &'a [f64],
    /// The arena's [`ScoringArena::rounding`] (arena-wide, not just this
    /// series).
    pub(crate) rounding: (usize, f64),
    quant: Option<QuantLanes<'a>>,
}

impl SeriesView<'_> {
    /// Number of signatures in the series.
    pub(crate) fn len(&self) -> usize {
        self.means.len()
    }

    /// Signature `i`'s value/weight lanes, values ascending.
    pub(crate) fn lanes(&self, i: usize) -> (&[f64], &[f64]) {
        let range = self.pair_off[i] as usize..self.pair_off[i + 1] as usize;
        (&self.values[range.clone()], &self.weights[range])
    }

    /// Signature `i`'s quantized lanes and weight error, when the arena was
    /// built for the quantized kernel and this signature fit the grid.
    pub(crate) fn quant_lanes(&self, i: usize) -> Option<(&[i32], &[u16], f64)> {
        let q = self.quant?;
        let err = q.err[i];
        if !err.is_finite() {
            return None;
        }
        let range = self.pair_off[i] as usize..self.pair_off[i + 1] as usize;
        Some((&q.values[range.clone()], &q.weights[range], err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viderec_signature::cuboid::{Cuboid, CuboidSignature};

    fn series(sig_values: &[&[f64]]) -> SignatureSeries {
        let sigs = sig_values
            .iter()
            .map(|vals| {
                let w = 1.0 / vals.len() as f64;
                CuboidSignature::new(
                    vals.iter()
                        .map(|&v| Cuboid {
                            value: v,
                            weight: w,
                        })
                        .collect(),
                )
            })
            .collect();
        SignatureSeries::new(sigs)
    }

    #[test]
    fn arena_layout_matches_per_video_views() {
        let a = series(&[&[3.0, 1.0], &[10.0]]);
        let b = series(&[&[-2.0, 4.0, 0.0]]);
        let mut arena = ScoringArena::new(PruneBound::default(), false);
        arena.push_series(&a);
        arena.push_series(&b);
        assert_eq!(arena.len(), 2);

        let va = arena.view(0);
        assert_eq!(va.len(), 2);
        assert!((va.means[0] - 2.0).abs() < 1e-12);
        assert!((va.means[1] - 10.0).abs() < 1e-12);
        assert_eq!(va.lanes(0), (&[1.0, 3.0][..], &[0.5, 0.5][..]));
        assert_eq!(va.mean_order, &[0, 1]);
        assert_eq!(va.feats.len(), 2 * ANCHORS);
        let (lo, hi) = arena.mean_ranges();
        assert_eq!((lo[0], hi[0]), (va.means[0], va.means[1]));
        assert_eq!(lo[1], hi[1], "a one-signature video has a point range");

        let vb = arena.view(1);
        assert_eq!(vb.len(), 1);
        assert_eq!(vb.lanes(0).0.len(), 3);
        assert_eq!(vb.lanes(0).0[0], -2.0);
    }

    #[test]
    fn centroid_arena_has_no_feats() {
        let a = series(&[&[1.0], &[2.0]]);
        let arena = ScoringArena::for_series(&a, PruneBound::Centroid, false);
        assert!(arena.view(0).feats.is_empty());
    }

    #[test]
    fn mean_order_sorts_locally_per_video() {
        let a = series(&[&[5.0], &[1.0], &[3.0]]);
        let arena = ScoringArena::for_series(&a, PruneBound::Centroid, false);
        assert_eq!(arena.view(0).mean_order, &[1, 2, 0]);
    }

    #[test]
    fn push_series_extends_without_disturbing_existing_views() {
        let a = series(&[&[2.0, 6.0]]);
        let b = series(&[&[-1.0]]);
        let mut arena = ScoringArena::for_series(&a, PruneBound::default(), false);
        let before: (Vec<f64>, Vec<f64>) = {
            let view = arena.view(0);
            let (v, w) = view.lanes(0);
            (v.to_vec(), w.to_vec())
        };
        arena.push_series(&b);
        assert_eq!(arena.len(), 2);
        let view = arena.view(0);
        let (v, w) = view.lanes(0);
        assert_eq!((v, w), (before.0.as_slice(), before.1.as_slice()));
        assert_eq!(arena.view(1).lanes(0), (&[-1.0][..], &[1.0][..]));
    }

    #[test]
    fn overlay_feats_match_a_fresh_arena_for_that_domain() {
        let a = series(&[&[3.0, -7.0], &[12.0]]);
        let base = ScoringArena::for_series(
            &a,
            PruneBound::Best {
                lo: -16.0,
                hi: 16.0,
            },
            false,
        );
        let overlay = base.anchor_feats_for(-64.0, 64.0);
        let fresh = ScoringArena::for_series(
            &a,
            PruneBound::Best {
                lo: -64.0,
                hi: 64.0,
            },
            false,
        );
        assert_eq!(overlay, fresh.feats);
        let view = base.view_with_feats(0, &overlay);
        assert_eq!(view.feats, fresh.view(0).feats);
    }

    #[test]
    fn quantized_arena_exposes_lanes_and_plain_arena_does_not() {
        let a = series(&[&[3.0, 1.0], &[10.0]]);
        let plain = ScoringArena::for_series(&a, PruneBound::default(), false);
        assert!(plain.view(0).quant_lanes(0).is_none());

        let quant = ScoringArena::for_series(&a, PruneBound::default(), true);
        let view = quant.view(0);
        let (qv, qw, err) = view.quant_lanes(0).expect("quantized");
        assert_eq!(qv.len(), 2);
        let sum: u64 = qw.iter().map(|&w| w as u64).sum();
        assert_eq!(sum, viderec_emd::QUANT_WEIGHT_SCALE as u64);
        assert!(err.is_finite() && err >= 0.0);
        // Quantized values stay in value order.
        assert!(qv.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn out_of_grid_values_disable_quant_for_that_signature_only() {
        let a = series(&[&[5000.0], &[1.0, 2.0]]);
        let arena = ScoringArena::for_series(&a, PruneBound::default(), true);
        let view = arena.view(0);
        assert!(view.quant_lanes(0).is_none());
        assert!(view.quant_lanes(1).is_some());
    }
}
