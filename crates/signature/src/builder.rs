//! End-to-end signature extraction: video → cuts → keyframes → q-grams →
//! cuboid signature series.

use crate::cuboid::CuboidSignature;
use crate::series::SignatureSeries;
use viderec_video::gram::qgrams;
use viderec_video::{CutDetector, Video};

/// Configuration of the signature pipeline.
#[derive(Debug, Clone)]
pub struct SignatureConfig {
    /// Block grid columns per keyframe.
    pub grid_cols: usize,
    /// Block grid rows per keyframe.
    pub grid_rows: usize,
    /// Spatial merge threshold in intensity units.
    pub merge_threshold: f64,
    /// Keyframes selected per segment.
    pub keyframes_per_segment: usize,
    /// q-gram size (the paper uses bigrams).
    pub q: usize,
    /// Shot-boundary detector settings.
    pub cut_detector: CutDetector,
}

impl Default for SignatureConfig {
    fn default() -> Self {
        Self {
            grid_cols: 4,
            grid_rows: 4,
            merge_threshold: 12.0,
            keyframes_per_segment: 4,
            q: 2,
            cut_detector: CutDetector::default(),
        }
    }
}

/// Stateless builder turning videos into [`SignatureSeries`].
#[derive(Debug, Clone, Default)]
pub struct SignatureBuilder {
    cfg: SignatureConfig,
}

impl SignatureBuilder {
    /// Builder with the given configuration.
    pub fn new(cfg: SignatureConfig) -> Self {
        assert!(
            cfg.grid_cols > 0 && cfg.grid_rows > 0,
            "grid must be non-empty"
        );
        assert!(cfg.q >= 2, "q-grams need q >= 2");
        assert!(cfg.keyframes_per_segment >= 1, "need at least one keyframe");
        Self { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &SignatureConfig {
        &self.cfg
    }

    /// Extracts the cuboid signature series of a video: shot detection,
    /// keyframe selection, q-gram windows, one signature per q-gram.
    pub fn build(&self, video: &Video) -> SignatureSeries {
        let cuts = self.cfg.cut_detector.detect(video);
        let segments =
            viderec_video::segment_keyframes(video, &cuts, self.cfg.keyframes_per_segment);
        let grams = qgrams(&segments, self.cfg.q);
        let sigs = grams
            .iter()
            .map(|g| {
                CuboidSignature::from_qgram(
                    g,
                    self.cfg.grid_cols,
                    self.cfg.grid_rows,
                    self.cfg.merge_threshold,
                )
            })
            .collect();
        SignatureSeries::new(sigs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viderec_video::{SynthConfig, Transform, VideoId, VideoSynthesizer};

    fn synth_video(seed: u64, topic: usize, secs: f64) -> Video {
        let mut s = VideoSynthesizer::new(SynthConfig::default(), 3, seed);
        s.generate(VideoId(seed), topic, secs)
    }

    #[test]
    fn builder_produces_nonempty_series() {
        let v = synth_video(1, 0, 20.0);
        let series = SignatureBuilder::default().build(&v);
        assert!(!series.is_empty(), "no signatures extracted");
        for sig in series.signatures() {
            let mass: f64 = sig.cuboids().iter().map(|c| c.weight).sum();
            assert!((mass - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn self_similarity_is_maximal() {
        let v = synth_video(2, 0, 15.0);
        let b = SignatureBuilder::default();
        let s = b.build(&v);
        assert!((s.kappa_j(&s) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn edited_copy_stays_closer_than_unrelated_video() {
        // The system's core content property: a brightness-shifted, slightly
        // noisy copy scores higher κJ than an unrelated same-generator video.
        let v = synth_video(3, 0, 20.0);
        let edited = Transform::apply_all(
            &[
                Transform::BrightnessShift(12),
                Transform::Noise { amp: 3, seed: 9 },
            ],
            &v,
        );
        let unrelated = synth_video(77, 2, 20.0);
        let b = SignatureBuilder::default();
        let (sv, se, su) = (b.build(&v), b.build(&edited), b.build(&unrelated));
        let close = sv.kappa_j(&se);
        let far = sv.kappa_j(&su);
        assert!(
            close > far,
            "edited copy κJ {close} not above unrelated κJ {far}"
        );
    }

    #[test]
    fn temporal_reorder_keeps_high_kappa() {
        let v = synth_video(4, 1, 24.0);
        let reordered = Transform::ReorderChunks { chunks: 3 }.apply(&v);
        let b = SignatureBuilder::default();
        let k = b.build(&v).kappa_j(&b.build(&reordered));
        assert!(k > 0.5, "κJ after reorder only {k}");
    }

    #[test]
    fn config_validation() {
        let cfg = SignatureConfig {
            q: 1,
            ..Default::default()
        };
        let r = std::panic::catch_unwind(|| SignatureBuilder::new(cfg));
        assert!(r.is_err());
    }
}
