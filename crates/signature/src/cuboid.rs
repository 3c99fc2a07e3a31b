//! Video cuboids and cuboid signatures.
//!
//! §4.1: "video cuboids are produced by grouping the temporally adjacent
//! blocks, and each is described as a pair `(v, μ)`, where `v` is the average
//! intensity change between temporally adjacent blocks and `μ` denotes its
//! weight indicating the block size." A [`CuboidSignature`] is the set of
//! cuboids of one q-gram, with total mass normalised to 1 as Definition 1
//! requires.

use crate::block::BlockGrid;
use crate::merge::{merge_blocks, Region};
use viderec_emd::{emd_1d, sim_c};
use viderec_video::QGram;

/// One video cuboid: average temporal intensity change `v` with normalised
/// spatial mass `μ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cuboid {
    /// Average intensity change between temporally adjacent blocks.
    pub value: f64,
    /// Normalised block mass (region size / grid size); positive.
    pub weight: f64,
}

/// The cuboid signature of one q-gram: a normalised weighted point set.
#[derive(Debug, Clone, PartialEq)]
pub struct CuboidSignature {
    cuboids: Vec<Cuboid>,
}

impl CuboidSignature {
    /// Creates a signature, validating Definition 1: at least one cuboid,
    /// every weight positive and finite, total mass 1 within 1e-6, and every
    /// value finite with `|v| ≤ f64::MAX / 4` (so that no EMD difference or
    /// sweep total overflows).
    pub fn try_new(cuboids: Vec<Cuboid>) -> Result<Self, String> {
        if cuboids.is_empty() {
            return Err("signature needs at least one cuboid".into());
        }
        if !cuboids
            .iter()
            .all(|c| c.weight > 0.0 && c.weight.is_finite())
        {
            return Err("weights must be positive and finite".into());
        }
        // Within a quarter of `f64::MAX`, every difference of two values and
        // every EMD sweep total (at most the largest difference, mass being
        // 1) stays finite.
        let out_of_range = |v: f64| !v.is_finite() || v.abs() > f64::MAX / 4.0;
        if let Some(c) = cuboids.iter().find(|c| out_of_range(c.value)) {
            return Err(format!("value {:e} is outside ±f64::MAX/4", c.value));
        }
        let mass: f64 = cuboids.iter().map(|c| c.weight).sum();
        if (mass - 1.0).abs() >= 1e-6 {
            return Err(format!("mass {mass} != 1"));
        }
        Ok(Self { cuboids })
    }

    /// [`Self::try_new`] for cuboids known to be valid.
    ///
    /// # Panics
    /// Panics where [`Self::try_new`] returns an error.
    pub fn new(cuboids: Vec<Cuboid>) -> Self {
        Self::try_new(cuboids).expect("invalid cuboid signature")
    }

    /// Builds the signature of a q-gram:
    ///
    /// 1. every keyframe becomes a `cols × rows` [`BlockGrid`];
    /// 2. the *first* keyframe is the reference; its similar adjacent blocks
    ///    merge into regions (threshold `merge_threshold`);
    /// 3. each region becomes one cuboid: `v` = mean over member blocks and
    ///    over the q−1 temporal transitions of the block intensity change,
    ///    `μ` = region size / grid size.
    pub fn from_qgram(gram: &QGram, cols: usize, rows: usize, merge_threshold: f64) -> Self {
        assert!(gram.q() >= 2, "need at least a bigram");
        let grids: Vec<BlockGrid> = gram
            .frames
            .iter()
            .map(|f| BlockGrid::from_frame(f, cols, rows))
            .collect();
        let regions = merge_blocks(&grids[0], merge_threshold);
        let total_blocks = (cols * rows) as f64;
        let transitions = (grids.len() - 1) as f64;
        let cuboids = regions
            .iter()
            .map(|region: &Region| {
                let mut delta_sum = 0.0;
                for &b in &region.blocks {
                    for t in 1..grids.len() {
                        delta_sum += grids[t].get_flat(b) - grids[t - 1].get_flat(b);
                    }
                }
                Cuboid {
                    value: delta_sum / (region.size() as f64 * transitions),
                    weight: region.size() as f64 / total_blocks,
                }
            })
            .collect();
        Self::new(cuboids)
    }

    /// The cuboids.
    pub fn cuboids(&self) -> &[Cuboid] {
        &self.cuboids
    }

    /// Number of cuboids.
    pub fn len(&self) -> usize {
        self.cuboids.len()
    }

    /// Whether the signature is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cuboids.is_empty()
    }

    /// `(value, weight)` pairs in the layout `viderec-emd` consumes.
    pub fn as_pairs(&self) -> Vec<(f64, f64)> {
        self.cuboids.iter().map(|c| (c.value, c.weight)).collect()
    }

    /// Exact EMD to another signature (Definition 1, scalar ground distance).
    pub fn emd(&self, other: &CuboidSignature) -> f64 {
        emd_1d(&self.as_pairs(), &other.as_pairs())
    }

    /// `SimC(self, other) = 1 / (1 + EMD)` — Eq. 3.
    pub fn similarity(&self, other: &CuboidSignature) -> f64 {
        sim_c(self.emd(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viderec_video::Frame;

    fn gram_from_intensities(frames: Vec<Vec<u8>>, w: usize, h: usize) -> QGram {
        QGram {
            segment: 0,
            frames: frames
                .into_iter()
                .map(|d| Frame::from_data(w, h, d))
                .collect(),
        }
    }

    /// 8×8 frames, 2×2 grid; each quadrant constant.
    fn quad_frame(q: [u8; 4]) -> Vec<u8> {
        let mut data = vec![0u8; 64];
        for y in 0..8 {
            for x in 0..8 {
                let qi = (y / 4) * 2 + x / 4;
                data[y * 8 + x] = q[qi];
            }
        }
        data
    }

    #[test]
    fn static_gram_yields_zero_valued_cuboids() {
        let g = gram_from_intensities(
            vec![quad_frame([10, 10, 10, 10]), quad_frame([10, 10, 10, 10])],
            8,
            8,
        );
        let sig = CuboidSignature::from_qgram(&g, 2, 2, 5.0);
        assert_eq!(sig.len(), 1, "uniform frame must merge to one region");
        assert_eq!(sig.cuboids()[0].value, 0.0);
        assert_eq!(sig.cuboids()[0].weight, 1.0);
    }

    #[test]
    fn temporal_change_is_measured() {
        // All quadrants same in frame 1, +20 in frame 2.
        let g = gram_from_intensities(
            vec![quad_frame([50, 50, 50, 50]), quad_frame([70, 70, 70, 70])],
            8,
            8,
        );
        let sig = CuboidSignature::from_qgram(&g, 2, 2, 5.0);
        assert_eq!(sig.len(), 1);
        assert!((sig.cuboids()[0].value - 20.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_regions_get_distinct_cuboids() {
        // Two intensity groups in the reference: {10,12} and {200,202};
        // group one brightens by 30, group two dims by 10.
        let g = gram_from_intensities(
            vec![
                quad_frame([10, 12, 200, 202]),
                quad_frame([40, 42, 190, 192]),
            ],
            8,
            8,
        );
        let sig = CuboidSignature::from_qgram(&g, 2, 2, 5.0);
        assert_eq!(sig.len(), 2);
        let mut vals: Vec<f64> = sig.cuboids().iter().map(|c| c.value).collect();
        vals.sort_by(f64::total_cmp);
        assert!((vals[0] + 10.0).abs() < 1e-9);
        assert!((vals[1] - 30.0).abs() < 1e-9);
        assert!(sig.cuboids().iter().all(|c| (c.weight - 0.5).abs() < 1e-9));
    }

    #[test]
    fn mass_always_normalised() {
        let g = gram_from_intensities(
            vec![quad_frame([1, 60, 120, 240]), quad_frame([5, 55, 130, 235])],
            8,
            8,
        );
        let sig = CuboidSignature::from_qgram(&g, 2, 2, 10.0);
        let mass: f64 = sig.cuboids().iter().map(|c| c.weight).sum();
        assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn brightness_shift_invariance() {
        // A global +15 shift on both frames leaves all temporal deltas
        // unchanged — the robustness property §4.1 claims.
        let base = vec![
            quad_frame([50, 90, 130, 170]),
            quad_frame([60, 85, 140, 165]),
        ];
        let shifted: Vec<Vec<u8>> = base
            .iter()
            .map(|f| f.iter().map(|&p| p + 15).collect())
            .collect();
        let g1 = gram_from_intensities(base, 8, 8);
        let g2 = gram_from_intensities(shifted, 8, 8);
        let s1 = CuboidSignature::from_qgram(&g1, 2, 2, 5.0);
        let s2 = CuboidSignature::from_qgram(&g2, 2, 2, 5.0);
        assert!(s1.emd(&s2) < 1e-9, "emd = {}", s1.emd(&s2));
        assert!((s1.similarity(&s2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn similarity_decreases_with_motion_difference() {
        let still = gram_from_intensities(vec![quad_frame([100; 4]), quad_frame([100; 4])], 8, 8);
        let slow = gram_from_intensities(vec![quad_frame([100; 4]), quad_frame([110; 4])], 8, 8);
        let fast = gram_from_intensities(vec![quad_frame([100; 4]), quad_frame([180; 4])], 8, 8);
        let s_still = CuboidSignature::from_qgram(&still, 2, 2, 5.0);
        let s_slow = CuboidSignature::from_qgram(&slow, 2, 2, 5.0);
        let s_fast = CuboidSignature::from_qgram(&fast, 2, 2, 5.0);
        assert!(s_still.similarity(&s_slow) > s_still.similarity(&s_fast));
    }

    #[test]
    fn trigram_averages_transitions() {
        // 3 keyframes with +10 then +30 per step → average change 20.
        let g = gram_from_intensities(
            vec![
                quad_frame([50; 4]),
                quad_frame([60; 4]),
                quad_frame([90; 4]),
            ],
            8,
            8,
        );
        let sig = CuboidSignature::from_qgram(&g, 2, 2, 5.0);
        assert!((sig.cuboids()[0].value - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "mass")]
    fn unnormalised_rejected() {
        CuboidSignature::new(vec![Cuboid {
            value: 0.0,
            weight: 0.5,
        }]);
    }

    #[test]
    #[should_panic(expected = "at least one cuboid")]
    fn empty_rejected() {
        CuboidSignature::new(vec![]);
    }
}
