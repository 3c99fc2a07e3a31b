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
//!   the quantile-slice bound's input, stored as one **slice-major block**
//!   per video: slice `k` of local signature `j` of an `n`-signature video
//!   sits at `k·n + j` of its block, so the bound's row pass
//!   ([`crate::prune::kappa_upper_bound`]) reads each slice of a whole video
//!   as one contiguous run;
//! * flat `values`/`weights` lanes (value-ascending, one pair of entries per
//!   cuboid) with a per-signature `pair_off` table — the SoA layout the
//!   branchless EMD kernel ([`viderec_emd::emd_1d_soa_capped`]) sweeps with
//!   no sorting, no allocation, and no `(f64, f64)` interleaving;
//! * per-video `mean_lo`/`mean_hi` columns — the signature-mean range the
//!   paper mode's O(1) separation rung reads without touching any
//!   per-signature buffer.
//!
//! The arena is built once in [`crate::recommender::Recommender::build`],
//! its columns sized up front from the corpus [`Totals`]
//! ([`ScoringArena::reserve`]), *extended* (never rebuilt) when
//! [`crate::maintenance`] ingests new videos, and borrowed — through
//! [`ScoringArena::view`], the one view there is — by every query.
//!
//! Beside it sits the [`ReachIndex`]: every signature's mean and slice
//! features again, sorted by mean across the whole corpus, with its video —
//! 76 bytes per signature, in shared chunks of about 512 entries. A gated
//! query binary-searches it per query signature for the means within reach
//! and prices that window with the row pass's own expression
//! ([`crate::prune::reach_set`]): the videos it finds are the content
//! gather, and every other video has a `κJ` ceiling of 0. It is built in
//! the content half of the build and merged into, not rebuilt, on ingest,
//! which writes only the chunks the new signatures land in.
//!
//! The offset columns (`sig_off`, `pair_off`) hold counts as `u32`, and so
//! do the video indices the LSB forest and the engagement lists store:
//! [`Totals::check`] refuses a corpus any of whose counts would not fit,
//! before anything is built or extended.

use crate::errors::RecError;
use crate::prune::SLICES;
use std::sync::Arc;
use viderec_emd::slice_features;
use viderec_signature::SignatureSeries;

/// How many videos, signatures and cuboids a corpus (or a batch of
/// additions, or an arena) holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Totals {
    pub(crate) videos: usize,
    pub(crate) signatures: usize,
    pub(crate) cuboids: usize,
}

impl Totals {
    /// The totals of a run of series, one per video.
    pub(crate) fn of<'a>(series: impl IntoIterator<Item = &'a SignatureSeries>) -> Self {
        let mut totals = Self::default();
        for series in series {
            totals.videos += 1;
            totals.signatures += series.len();
            totals.cuboids += series.signatures().iter().map(|s| s.len()).sum::<usize>();
        }
        totals
    }

    /// Both totals together (saturating, so an absurd sum still fails
    /// [`Self::check`]).
    pub(crate) fn plus(self, more: Self) -> Self {
        Self {
            videos: self.videos.saturating_add(more.videos),
            signatures: self.signatures.saturating_add(more.signatures),
            cuboids: self.cuboids.saturating_add(more.cuboids),
        }
    }

    /// A [`RecError::BadConfig`] naming the first count past `u32::MAX`:
    /// the largest video index, signature offset and lane offset the
    /// `u32` columns can hold.
    pub(crate) fn check(self) -> Result<(), RecError> {
        let counts = [
            (self.videos, "videos"),
            (self.signatures, "signatures"),
            (self.cuboids, "cuboids"),
        ];
        match counts.into_iter().find(|&(n, _)| n > u32::MAX as usize) {
            Some((n, what)) => Err(RecError::BadConfig(format!(
                "the corpus holds {n} {what}; the index counts {what} in u32 (at most {})",
                u32::MAX
            ))),
            None => Ok(()),
        }
    }
}

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
    /// Slice features, [`SLICES`] per signature: video `v` owns the
    /// slice-major block `SLICES·sig_off[v]..SLICES·sig_off[v + 1]`, in
    /// which slice `k` of local signature `j` sits at `k·n + j` (`n` the
    /// video's signature count).
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
}

impl ScoringArena {
    /// Empty arena; extend it with [`Self::push_series`].
    pub(crate) fn new() -> Self {
        Self {
            max_terms: 0,
            max_abs: 0.0,
            sig_off: vec![0],
            means: Vec::new(),
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
        arena.push_series(series, &mut Vec::new());
        arena
    }

    /// What the arena holds.
    pub(crate) fn totals(&self) -> Totals {
        Totals {
            videos: self.len(),
            signatures: self.means.len(),
            cuboids: self.values.len(),
        }
    }

    /// Reserves room in every column for `more` videos, signatures and
    /// cuboids, in one allocation per column: the capacity pushing them one
    /// by one would have doubled its way up to (the next power of two), so
    /// a build that knows its corpus leaves no outgrown copies behind, and
    /// the next ingest still finds the room it did.
    pub(crate) fn reserve(&mut self, more: Totals) {
        fn room<T>(column: &mut Vec<T>, more: usize) {
            let doubled = (column.len() + more).next_power_of_two();
            column.reserve_exact(doubled - column.len());
        }
        let Totals {
            videos,
            signatures,
            cuboids,
        } = more;
        room(&mut self.sig_off, videos);
        room(&mut self.mean_lo, videos);
        room(&mut self.mean_hi, videos);
        room(&mut self.means, signatures);
        room(&mut self.feats, SLICES * signatures);
        room(&mut self.pair_off, signatures);
        room(&mut self.values, cuboids);
        room(&mut self.weights, cuboids);
    }

    /// Appends one video's caches. This is the ingest-time (and
    /// maintenance-time) extension point: adding a video to the corpus costs
    /// one pass over its signatures, never a rebuild of the arena. `pairs`
    /// is scratch, reused across signatures (and across calls by a caller
    /// that keeps it): each signature's cuboids are sorted there once, then
    /// written to the lanes.
    ///
    /// Offsets are stored as `u32`: a caller growing a corpus has
    /// [`Totals::check`]ed what the arena will hold after the push.
    pub(crate) fn push_series(&mut self, series: &SignatureSeries, pairs: &mut Vec<(f64, f64)>) {
        let n = series.len();
        let block = self.feats.len();
        self.feats.resize(block + SLICES * n, 0.0);
        for (j, sig) in series.signatures().iter().enumerate() {
            let cuboids = sig.cuboids();
            self.means
                .push(cuboids.iter().map(|c| c.value * c.weight).sum());
            pairs.clear();
            pairs.extend(cuboids.iter().map(|c| (c.value, c.weight)));
            pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
            self.max_terms = self.max_terms.max(pairs.len());
            let lanes = self.values.len();
            for &(v, w) in pairs.iter() {
                self.max_abs = self.max_abs.max(v.abs());
                self.values.push(v);
                self.weights.push(w);
            }
            self.pair_off.push(self.values.len() as u32);
            let mut feats = [0.0; SLICES];
            slice_features(&self.values[lanes..], &self.weights[lanes..], &mut feats);
            for (k, f) in feats.into_iter().enumerate() {
                self.feats[block + k * n + j] = f;
            }
        }
        let means = self.means[self.means.len() - n..].iter().copied();
        self.mean_lo
            .push(means.clone().min_by(f64::total_cmp).unwrap_or(0.0));
        self.mean_hi
            .push(means.max_by(f64::total_cmp).unwrap_or(0.0));
        self.sig_off.push(self.means.len() as u32);
    }

    /// Whether every column of `self` and `other` holds the same bits.
    pub(crate) fn same_bits(&self, other: &Self) -> bool {
        fn bits(xs: &[f64]) -> impl Iterator<Item = u64> + '_ {
            xs.iter().map(|x| x.to_bits())
        }
        self.max_terms == other.max_terms
            && self.max_abs.to_bits() == other.max_abs.to_bits()
            && self.sig_off == other.sig_off
            && self.pair_off == other.pair_off
            && bits(&self.means).eq(bits(&other.means))
            && bits(&self.values).eq(bits(&other.values))
            && bits(&self.weights).eq(bits(&other.weights))
            && bits(&self.mean_lo).eq(bits(&other.mean_lo))
            && bits(&self.mean_hi).eq(bits(&other.mean_hi))
            && bits(&self.feats).eq(bits(&other.feats))
    }

    /// Every column's `(len, capacity)`.
    #[cfg(test)]
    pub(crate) fn column_sizes(&self) -> [(usize, usize); 8] {
        fn size<T>(column: &Vec<T>) -> (usize, usize) {
            (column.len(), column.capacity())
        }
        [
            size(&self.sig_off),
            size(&self.means),
            size(&self.feats),
            size(&self.pair_off),
            size(&self.values),
            size(&self.weights),
            size(&self.mean_lo),
            size(&self.mean_hi),
        ]
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
            feats: &self.feats[SLICES * lo..SLICES * hi],
            pair_off: &self.pair_off[lo..=hi],
            values: &self.values,
            weights: &self.weights,
            rounding: self.rounding(),
        }
    }
}

/// Every signature of a corpus, sorted by mean: the index the gated gather
/// computes its reach set `R` from ([`crate::prune::reach_set`]).
///
/// Entries are ordered by mean ([`f64::total_cmp`]), ties by global
/// signature index (video, then local signature). Beside each mean sit its
/// [`SLICES`] slice features, one column per slice over that order — the
/// layout a video's slice-major block has in the arena, so one query row
/// prices a run of neighbouring entries a vector step at a time — and the
/// corpus index of its video: 76 bytes per signature. The columns are
/// copies of the arena's `means` / `feats`, bit for bit.
///
/// The order is cut into shared chunks of about [`CHUNK`] entries. A build
/// merges the whole corpus into an empty index; an ingest merges its new
/// signatures in the same way ([`Self::extend`]), writing only the chunks
/// they land in and sharing every other chunk with the index it came from —
/// so a snapshot of an earlier ingest generation holds a copy of only what
/// the later ingests touched.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReachIndex {
    /// Runs of the entry order, each non-empty.
    chunks: Vec<Arc<Chunk>>,
    /// The last mean of each chunk, so a window finds its chunks without
    /// reading theirs.
    tops: Vec<f64>,
}

/// How many entries a [`ReachIndex`] build puts in a chunk; a merge splits
/// a chunk that grows past twice this. Unit tests use short chunks, so
/// their merges cross chunk edges and split chunks.
const CHUNK: usize = if cfg!(test) { 8 } else { 512 };

/// One run of a [`ReachIndex`]'s entries: `cols` holds their `n` means,
/// then slice 0 of each, …, slice `SLICES − 1` of each.
#[derive(Debug)]
struct Chunk {
    cols: Box<[f64]>,
    videos: Box<[u32]>,
}

/// One entry of a [`ReachIndex`]: mean, slice features, video.
type Entry = (f64, [f64; SLICES], u32);

/// A run of consecutive [`ReachIndex`] entries as the reach pass reads
/// them: means, one column per slice, videos.
pub(crate) type Entries<'a> = (&'a [f64], [&'a [f64]; SLICES], &'a [u32]);

impl Chunk {
    fn len(&self) -> usize {
        self.videos.len()
    }

    fn means(&self) -> &[f64] {
        &self.cols[..self.len()]
    }

    /// The last, and so largest, mean.
    fn top(&self) -> f64 {
        self.cols[self.len() - 1]
    }

    fn entries(&self, run: std::ops::Range<usize>) -> Entries<'_> {
        let n = self.len();
        let cols = std::array::from_fn(|k| &self.cols[(k + 1) * n..][run.clone()]);
        (&self.means()[run.clone()], cols, &self.videos[run])
    }

    fn entry(&self, e: usize) -> Entry {
        let n = self.len();
        let feats = std::array::from_fn(|k| self.cols[(k + 1) * n + e]);
        (self.cols[e], feats, self.videos[e])
    }
}

/// Writes a merged run of entries as chunks: one chunk up to `2·CHUNK`
/// entries, past that as many of near-equal length as `CHUNK` entries each
/// make.
struct ChunkWriter<'a> {
    out: &'a mut Vec<Arc<Chunk>>,
    /// Entries not yet written, and the chunks they still fill.
    left: usize,
    pieces: usize,
    /// The chunk being filled, to its `len` entries.
    cols: Vec<f64>,
    videos: Vec<u32>,
    len: usize,
}

impl<'a> ChunkWriter<'a> {
    fn new(out: &'a mut Vec<Arc<Chunk>>, len: usize) -> Self {
        let pieces = match len <= 2 * CHUNK {
            true => 1,
            false => len.div_ceil(CHUNK),
        };
        let mut writer = Self {
            out,
            left: len,
            pieces,
            cols: Vec::new(),
            videos: Vec::new(),
            len: 0,
        };
        writer.start();
        writer
    }

    /// Opens the next chunk: its share of the entries left.
    fn start(&mut self) {
        self.len = self.left.div_ceil(self.pieces);
        self.cols = vec![0.0; (1 + SLICES) * self.len];
        self.videos = Vec::with_capacity(self.len);
    }

    fn push(&mut self, (mean, feats, video): Entry) {
        let (n, e) = (self.len, self.videos.len());
        self.cols[e] = mean;
        for (k, f) in feats.into_iter().enumerate() {
            self.cols[(k + 1) * n + e] = f;
        }
        self.videos.push(video);
        if self.videos.len() == n {
            self.out.push(Arc::new(Chunk {
                cols: std::mem::take(&mut self.cols).into_boxed_slice(),
                videos: std::mem::take(&mut self.videos).into_boxed_slice(),
            }));
            self.left -= n;
            self.pieces -= 1;
            if self.left > 0 {
                self.start();
            }
        }
    }
}

/// A bit pattern whose unsigned order is [`f64::total_cmp`]'s.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

impl ReachIndex {
    /// Merges the signatures of arena videos `from..` into the index: sorts
    /// them once, hands each to the chunk its place in the order falls in,
    /// and merges each such chunk with its new entries forward into fresh
    /// chunks; every other chunk is shared as it is. Every new signature
    /// comes after every held one in the arena, so on a tied mean the held
    /// entry stays first — the order a build over the whole corpus gives.
    pub(crate) fn extend(&mut self, arena: &ScoringArena, from: usize) {
        // (mean order, global signature index, video), packed so that
        // integer order is entry order.
        let first = arena.sig_off[from] as usize;
        let mut fresh: Vec<u128> = Vec::with_capacity(arena.means.len() - first);
        for video in from..arena.len() {
            let sigs = arena.sig_off[video] as usize..arena.sig_off[video + 1] as usize;
            for (g, &mean) in sigs.clone().zip(&arena.means[sigs]) {
                let at = (g as u128) << 32 | video as u128;
                fresh.push(u128::from(total_order_bits(mean)) << 64 | at);
            }
        }
        if fresh.is_empty() {
            return;
        }
        fresh.sort_unstable();
        let mean_bits = |key: u128| (key >> 64) as u64;
        let entry = |key: u128| -> Entry {
            let (g, video) = ((key >> 32) as u32 as usize, key as u32);
            let lo = arena.sig_off[video as usize] as usize;
            let n = arena.sig_off[video as usize + 1] as usize - lo;
            // Slice `k` of local signature `g − lo` in the video's block.
            let block = &arena.feats[SLICES * lo + (g - lo)..];
            (arena.means[g], std::array::from_fn(|k| block[k * n]), video)
        };
        let mut chunks = Vec::with_capacity(self.chunks.len() + fresh.len().div_ceil(CHUNK));
        if self.chunks.is_empty() {
            let mut writer = ChunkWriter::new(&mut chunks, fresh.len());
            fresh.iter().for_each(|&key| writer.push(entry(key)));
        }
        let (mut rest, last) = (&fresh[..], self.chunks.len().saturating_sub(1));
        for (c, (chunk, &top)) in self.chunks.iter().zip(&self.tops).enumerate() {
            // A new entry goes before the first held entry of a larger mean:
            // into this chunk if its last mean is larger, else further on.
            let take = match c == last {
                true => rest.len(),
                false => rest.partition_point(|&key| mean_bits(key) < total_order_bits(top)),
            };
            let (mine, after) = rest.split_at(take);
            rest = after;
            if mine.is_empty() {
                chunks.push(Arc::clone(chunk));
                continue;
            }
            let mut writer = ChunkWriter::new(&mut chunks, chunk.len() + mine.len());
            let mut held = 0;
            for &key in mine {
                let below = chunk.means()[held..]
                    .iter()
                    .take_while(|&&m| total_order_bits(m) <= mean_bits(key))
                    .count();
                (held..held + below).for_each(|e| writer.push(chunk.entry(e)));
                held += below;
                writer.push(entry(key));
            }
            (held..chunk.len()).for_each(|e| writer.push(chunk.entry(e)));
        }
        self.tops = chunks.iter().map(|chunk| chunk.top()).collect();
        self.chunks = chunks;
    }

    /// Every entry, in order.
    fn all(&self) -> impl Iterator<Item = Entry> + '_ {
        self.chunks
            .iter()
            .flat_map(|chunk| (0..chunk.len()).map(|e| chunk.entry(e)))
    }

    /// Every entry as `(mean, slice features, video)`, in order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> Vec<Entry> {
        self.all().collect()
    }

    /// The entries whose centroid gap to a query signature of mean `q` is
    /// within `reach`: `|q − m| ≤ reach` in float arithmetic, which is
    /// monotone in `m`, so they are one run of the mean order, handed out
    /// one chunk's part at a time.
    pub(crate) fn window(&self, q: f64, reach: f64) -> impl Iterator<Item = Entries<'_>> {
        let first = self.tops.partition_point(|&top| q - top > reach);
        let (mut c, mut open) = (first, true);
        std::iter::from_fn(move || {
            let chunk = self.chunks.get(c).filter(|_| open)?;
            let means = chunk.means();
            // Only the first chunk starts below the window, and only a chunk
            // whose last mean is past it ends early.
            let lo = match c == first {
                true => means.partition_point(|&m| q - m > reach),
                false => 0,
            };
            let hi = match self.tops[c] - q <= reach {
                true => means.len(),
                false => lo + means[lo..].partition_point(|&m| m - q <= reach),
            };
            (c, open) = (c + 1, hi == means.len());
            (lo < hi).then(|| chunk.entries(lo..hi))
        })
    }

    /// Whether both indexes hold the same entries, bit for bit.
    pub(crate) fn same_bits(&self, other: &Self) -> bool {
        fn bits((mean, feats, video): Entry) -> (u64, [u64; SLICES], u32) {
            (mean.to_bits(), feats.map(f64::to_bits), video)
        }
        self.all().map(bits).eq(other.all().map(bits))
    }
}

/// One video's (or one query's) slice of a [`ScoringArena`]: everything the
/// bound evaluation ([`crate::prune::kappa_upper_bound`]) and the cached
/// exact refinement ([`crate::prune::kappa_exact_cached`]) read.
#[derive(Clone, Copy)]
pub(crate) struct SeriesView<'a> {
    /// Signature means, local indexing.
    pub(crate) means: &'a [f64],
    /// The video's slice-major block of slice features: slice `k` of
    /// signature `j` at `k·len + j`, [`SLICES`] times as long as `means` by
    /// construction ([`ScoringArena::view`] is the only way to build a view,
    /// and the arena pushes [`SLICES`] entries per signature).
    feats: &'a [f64],
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

    /// Slice `k` of every signature, in local order.
    pub(crate) fn slice(&self, k: usize) -> &[f64] {
        let n = self.len();
        &self.feats[k * n..(k + 1) * n]
    }

    /// Signature `j`'s [`SLICES`] slice features, in slice order.
    // `row_bounds` calls this once per query row and video; left to itself,
    // LLVM has outlined it there, which cost ≈ 15 % of a short-series query's
    // bound stage.
    #[inline]
    pub(crate) fn features(&self, j: usize) -> [f64; SLICES] {
        std::array::from_fn(|k| self.feats[k * self.len() + j])
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
        arena.push_series(&a, &mut Vec::new());
        arena.push_series(&b, &mut Vec::new());
        assert_eq!(arena.len(), 2);

        let va = arena.view(0);
        assert_eq!(va.len(), 2);
        assert!((va.means[0] - 2.0).abs() < 1e-12);
        assert!((va.means[1] - 10.0).abs() < 1e-12);
        assert_eq!(va.lanes(0), (&[1.0, 3.0][..], &[0.5, 0.5][..]));
        assert_eq!(va.feats.len(), 2 * SLICES);
        // Halves of the mass at 1 and 3: four slices of 1/8 each.
        assert_eq!(
            va.features(0),
            [0.125, 0.125, 0.125, 0.125, 0.375, 0.375, 0.375, 0.375]
        );
        // A point mass at 10: every slice holds 10/8.
        assert_eq!(va.features(1), [1.25; SLICES]);
        // Slice-major: slice `k` of both signatures side by side.
        assert_eq!(va.slice(0), &[0.125, 1.25]);
        assert_eq!(va.slice(7), &[0.375, 1.25]);
        let (lo, hi) = arena.mean_ranges();
        assert_eq!((lo[0], hi[0]), (va.means[0], va.means[1]));
        assert_eq!(lo[1], hi[1], "a one-signature video has a point range");

        let vb = arena.view(1);
        assert_eq!(vb.len(), 1);
        assert_eq!(vb.lanes(0).0.len(), 3);
        assert_eq!(vb.lanes(0).0[0], -2.0);
    }

    #[test]
    fn totals_count_videos_signatures_and_cuboids() {
        let (a, b) = (
            series(&[&[3.0, 1.0], &[10.0]]),
            series(&[&[-2.0, 4.0, 0.0]]),
        );
        let totals = Totals::of([&a, &b]);
        let want = Totals {
            videos: 2,
            signatures: 3,
            cuboids: 6,
        };
        assert_eq!(totals, want);
        let mut arena = ScoringArena::new();
        arena.reserve(totals);
        arena.push_series(&a, &mut Vec::new());
        arena.push_series(&b, &mut Vec::new());
        assert_eq!(arena.totals(), want);
    }

    #[test]
    fn counts_past_u32_are_refused_by_name() {
        let max = u32::MAX as usize;
        let at_max = Totals {
            videos: max,
            signatures: max,
            cuboids: max,
        };
        assert_eq!(at_max.check(), Ok(()));
        let over = [
            (
                Totals {
                    videos: max + 1,
                    ..Totals::default()
                },
                "videos",
            ),
            (
                Totals {
                    signatures: max + 1,
                    ..Totals::default()
                },
                "signatures",
            ),
            (
                Totals {
                    cuboids: max + 1,
                    ..at_max
                },
                "cuboids",
            ),
        ];
        for (totals, what) in over {
            let Err(RecError::BadConfig(why)) = totals.check() else {
                panic!("{totals:?} passed");
            };
            assert!(why.contains(&format!("{} {what}", max + 1)), "{why}");
        }
        // What `add_videos` checks: the arena's totals plus the batch's.
        let arena = Totals {
            signatures: max - 2,
            ..Totals::default()
        };
        let batch = Totals {
            videos: 1,
            signatures: 2,
            cuboids: 9,
        };
        assert_eq!(arena.plus(batch).check(), Ok(()));
        let batch = Totals {
            signatures: 3,
            ..batch
        };
        assert!(arena.plus(batch).check().is_err());
        let huge = Totals {
            cuboids: usize::MAX,
            ..Totals::default()
        };
        assert_eq!(huge.plus(huge).cuboids, usize::MAX, "saturates");
        assert!(huge.plus(huge).check().is_err());
    }

    #[test]
    fn mean_ranges_are_each_videos_smallest_and_largest_mean() {
        let mut arena = ScoringArena::for_series(&series(&[&[5.0], &[1.0], &[3.0]]));
        arena.push_series(&SignatureSeries::new(Vec::new()), &mut Vec::new());
        assert_eq!(arena.mean_ranges(), (&[1.0, 0.0][..], &[5.0, 0.0][..]));
        assert_eq!(arena.view(1).len(), 0);
        assert!(arena.view(1).feats.is_empty());
    }

    /// The means of the entries `window` hands out, in order.
    fn window_means(index: &ReachIndex, q: f64, reach: f64) -> Vec<f64> {
        let runs = index.window(q, reach);
        runs.flat_map(|(means, _, _)| means.to_vec()).collect()
    }

    #[test]
    fn the_reach_index_orders_every_signature_by_mean_then_by_arena_order() {
        // Means 5, 1, 3 | none | 3, -2, 1 | 1.
        let corpus = [
            series(&[&[5.0], &[1.0], &[3.0]]),
            SignatureSeries::new(Vec::new()),
            series(&[&[2.0, 4.0], &[-2.0], &[0.0, 2.0]]),
            series(&[&[1.0]]),
        ];
        let mut arena = ScoringArena::new();
        for video in &corpus {
            arena.push_series(video, &mut Vec::new());
        }
        let mut index = ReachIndex::default();
        index.extend(&arena, 0);
        let got: Vec<(f64, u32)> = index.entries().iter().map(|e| (e.0, e.2)).collect();
        let want = [
            (-2.0, 2),
            (1.0, 0),
            (1.0, 2),
            (1.0, 3),
            (3.0, 0),
            (3.0, 2),
            (5.0, 0),
        ];
        assert_eq!(got, want);
        // Each entry carries its signature's slice features from the arena.
        for (mean, feats, video) in index.entries() {
            let view = arena.view(video as usize);
            let j = view.means.iter().position(|&m| m == mean).unwrap();
            assert_eq!(feats, view.features(j));
        }
        // The window is every entry whose centroid gap is within reach, the
        // edges included.
        assert_eq!(window_means(&index, 2.0, 1.0), [1.0, 1.0, 1.0, 3.0, 3.0]);
        assert!(window_means(&index, 0.0, 0.5).is_empty());
        assert_eq!(window_means(&index, -10.0, f64::INFINITY).len(), 7);
        assert!(window_means(&index, 6.0, 0.5).is_empty());
    }

    /// Batch by batch, the merge leaves the entries a build over the whole
    /// arena makes, no chunk empty or past twice [`CHUNK`], and every chunk
    /// no new entry lands in shared with the index before the batch.
    #[test]
    fn merging_into_the_reach_index_shares_every_chunk_it_does_not_touch() {
        // Means on a coarse grid: new ones tie held ones and fall between
        // them; every fourth video has no signature.
        let corpus: Vec<SignatureSeries> = (0..90)
            .map(|v: usize| {
                let means: Vec<[f64; 1]> = (0..v % 4)
                    .map(|j| [((v * 7 + j * 13) % 23) as f64 * 0.5 - 3.0])
                    .collect();
                series(&means.iter().map(|m| &m[..]).collect::<Vec<_>>())
            })
            .collect();
        let mut arena = ScoringArena::new();
        let mut index = ReachIndex::default();
        for batch in [0..30, 30..31, 31..32, 32..60, 60..61, 61..90] {
            for video in &corpus[batch.clone()] {
                arena.push_series(video, &mut Vec::new());
            }
            let before = index.clone();
            index.extend(&arena, batch.start);
            let added = arena.sig_off[batch.end] - arena.sig_off[batch.start];
            let shared = before
                .chunks
                .iter()
                .filter(|old| index.chunks.iter().any(|new| Arc::ptr_eq(old, new)));
            assert!(shared.count() + added as usize >= before.chunks.len());
            assert!(index
                .chunks
                .iter()
                .all(|c| (1..=2 * CHUNK).contains(&c.len())));
        }
        assert!(index.chunks.len() > 4, "the merges cross chunk edges");
        let mut whole = ReachIndex::default();
        whole.extend(&arena, 0);
        assert!(index.same_bits(&whole));
        // A window is every entry within reach, across chunk edges.
        let entries = index.entries();
        for (q, reach) in [(0.0, 1.0), (-3.0, 0.0), (1.25, 2.5), (9.0, 0.5)] {
            let within = entries.iter().filter(|e| (q - e.0).abs() <= reach);
            let want: Vec<f64> = within.map(|e| e.0).collect();
            assert_eq!(window_means(&index, q, reach), want, "q {q} reach {reach}");
        }
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
        arena.push_series(&b, &mut Vec::new());
        assert_eq!(arena.len(), 2);
        let view = arena.view(0);
        let (v, w) = view.lanes(0);
        assert_eq!((v, w), (before.0.as_slice(), before.1.as_slice()));
        assert_eq!(arena.view(1).lanes(0), (&[-1.0][..], &[1.0][..]));
    }
}
