//! The corpus-owned scoring arena: every per-video cache the hot scoring
//! paths need, laid out as contiguous structure-of-arrays buffers.
//!
//! Everything a bound or an exact `κJ` evaluation reads about a video is
//! derived once, at *ingest time*:
//!
//! * one flat `means` buffer (one entry per signature, videos own contiguous
//!   ranges via `sig_off`);
//! * one flat `feats` buffer of quantile-slice partial means
//!   ([`crate::prune::SLICES`] per signature; [`viderec_emd::slice_features`]),
//!   the quantile-slice bound's input, indexed like `means`;
//! * flat `values`/`weights` lanes (value-ascending, one pair of entries per
//!   cuboid) with a per-signature `pair_off` table — the SoA layout the
//!   branchless EMD kernel ([`viderec_emd::emd_1d_soa_capped`]) sweeps with
//!   no sorting, no allocation, and no `(f64, f64)` interleaving;
//! * per-video `mean_lo`/`mean_hi` columns — the signature-mean range the
//!   O(1) separation rung and the flat certificate sweep read without
//!   touching any per-signature buffer;
//! * a per-video `mean_order` permutation so bound rows can visit signatures
//!   in centroid-gap order.
//!
//! The arena is built once in [`crate::recommender::Recommender::build`],
//! *extended* (never rebuilt) when [`crate::maintenance`] ingests new videos,
//! and borrowed — through [`ScoringArena::view`], the one view there is — by
//! every query.

use crate::prune::SLICES;
use viderec_emd::slice_features;
use viderec_signature::SignatureSeries;

/// Structure-of-arrays scoring caches for a whole corpus (or, via
/// [`ScoringArena::for_series`], a single query series).
#[derive(Debug, Clone)]
pub(crate) struct ScoringArena {
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
    /// Slice features, [`SLICES`] per signature, one entry per global
    /// signature index.
    feats: Vec<[f64; SLICES]>,
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
}

impl ScoringArena {
    /// Empty arena; extend it with [`Self::push_series`].
    pub(crate) fn new() -> Self {
        Self {
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
        }
    }

    /// Single-series arena — the query-side cache of a pruned scan. View it
    /// with `view(0)`.
    pub(crate) fn for_series(series: &SignatureSeries) -> Self {
        let mut arena = Self::new();
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
            pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
            self.max_terms = self.max_terms.max(pairs.len());
            let lanes = self.values.len();
            for &(v, w) in &pairs {
                self.max_abs = self.max_abs.max(v.abs());
                self.values.push(v);
                self.weights.push(w);
            }
            self.pair_off.push(self.values.len() as u32);
            let mut feats = [0.0; SLICES];
            slice_features(&self.values[lanes..], &self.weights[lanes..], &mut feats);
            self.feats.push(feats);
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

    /// Number of videos in the arena.
    pub(crate) fn len(&self) -> usize {
        self.sig_off.len() - 1
    }

    /// Borrowed view of one video's caches.
    pub(crate) fn view(&self, video: usize) -> SeriesView<'_> {
        let (lo, hi) = (
            self.sig_off[video] as usize,
            self.sig_off[video + 1] as usize,
        );
        SeriesView {
            means: &self.means[lo..hi],
            mean_order: &self.mean_order[lo..hi],
            feats: &self.feats[lo..hi],
            pair_off: &self.pair_off[lo..=hi],
            values: &self.values,
            weights: &self.weights,
            rounding: self.rounding(),
        }
    }
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
    /// Slice features, [`SLICES`] per signature, local indexing: as long as
    /// `means` by construction ([`ScoringArena::view`] is the only way to
    /// build a view, and the arena pushes one entry to each per signature).
    pub(crate) feats: &'a [[f64; SLICES]],
    /// Global lane offsets of this video's signatures (`len + 1` entries).
    pair_off: &'a [u32],
    /// The arena-wide value lane the offsets index into.
    values: &'a [f64],
    /// The arena-wide weight lane the offsets index into.
    weights: &'a [f64],
    /// The arena's [`ScoringArena::rounding`] (arena-wide, not just this
    /// series).
    pub(crate) rounding: (usize, f64),
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
        let mut arena = ScoringArena::new();
        arena.push_series(&a);
        arena.push_series(&b);
        assert_eq!(arena.len(), 2);

        let va = arena.view(0);
        assert_eq!(va.len(), 2);
        assert!((va.means[0] - 2.0).abs() < 1e-12);
        assert!((va.means[1] - 10.0).abs() < 1e-12);
        assert_eq!(va.lanes(0), (&[1.0, 3.0][..], &[0.5, 0.5][..]));
        assert_eq!(va.mean_order, &[0, 1]);
        assert_eq!(va.feats.len(), 2);
        // Halves of the mass at 1 and 3: four slices of 1/8 each.
        assert_eq!(
            va.feats[0],
            [0.125, 0.125, 0.125, 0.125, 0.375, 0.375, 0.375, 0.375]
        );
        let (lo, hi) = arena.mean_ranges();
        assert_eq!((lo[0], hi[0]), (va.means[0], va.means[1]));
        assert_eq!(lo[1], hi[1], "a one-signature video has a point range");

        let vb = arena.view(1);
        assert_eq!(vb.len(), 1);
        assert_eq!(vb.lanes(0).0.len(), 3);
        assert_eq!(vb.lanes(0).0[0], -2.0);
    }

    #[test]
    fn mean_order_sorts_locally_per_video() {
        let a = series(&[&[5.0], &[1.0], &[3.0]]);
        let arena = ScoringArena::for_series(&a);
        assert_eq!(arena.view(0).mean_order, &[1, 2, 0]);
    }

    #[test]
    fn push_series_extends_without_disturbing_existing_views() {
        let a = series(&[&[2.0, 6.0]]);
        let b = series(&[&[-1.0]]);
        let mut arena = ScoringArena::for_series(&a);
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
}
