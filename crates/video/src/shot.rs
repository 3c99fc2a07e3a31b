//! Shot-boundary (cut) detection.
//!
//! §4.1: "we exploit the state-of-the-art shot detection technique proposed
//! in [18] to detect a number of cuts. A series of segments are then obtained
//! by extracting the subsequences between adjacent cuts." The AT&T TRECVID
//! detector thresholds inter-frame colour-histogram differences with an
//! adaptive threshold; we implement the same principle on luminance
//! histograms: a boundary is declared where the histogram distance spikes
//! well above the local average.

use crate::frame::Frame;
use crate::video::Video;

/// Adaptive histogram-difference cut detector.
#[derive(Debug, Clone)]
pub struct CutDetector {
    /// A boundary requires distance ≥ `abs_threshold` (hard floor, in the
    /// `[0, 2]` L1-histogram range). Kept low: its job is to reject cuts in
    /// near-static footage where the adaptive floor collapses to zero.
    pub abs_threshold: f64,
    /// ... and distance ≥ `noise_factor ×` the median boundary distance of
    /// the whole video. Static overlays (logos, letterboxes) scale every
    /// histogram distance by the uncovered-area fraction; a ratio test
    /// against the video's own motion level is invariant to that, where a
    /// fixed absolute floor is not.
    pub noise_factor: f64,
    /// ... and distance ≥ `rel_factor ×` the mean distance in the sliding
    /// window around it (adaptivity).
    pub rel_factor: f64,
    /// Sliding-window half-width in frames for the local mean.
    pub window: usize,
    /// Minimum frames between two declared cuts (debounce).
    pub min_gap: usize,
}

impl Default for CutDetector {
    fn default() -> Self {
        Self {
            abs_threshold: 0.05,
            noise_factor: 3.0,
            rel_factor: 3.0,
            window: 8,
            min_gap: 4,
        }
    }
}

impl CutDetector {
    /// Returns the frame indices `i` such that a cut occurs between frames
    /// `i-1` and `i` (so every index is in `1..video.len()`), in increasing
    /// order.
    pub fn detect(&self, video: &Video) -> Vec<usize> {
        detect_cuts_impl(video.frames(), self)
    }
}

/// Convenience wrapper: cut indices using the default detector.
pub fn detect_cuts(video: &Video) -> Vec<usize> {
    CutDetector::default().detect(video)
}

fn detect_cuts_impl(frames: &[Frame], cfg: &CutDetector) -> Vec<usize> {
    if frames.len() < 2 {
        return Vec::new();
    }
    // d[i] = distance between frame i and i+1; a cut at boundary i+1.
    let d: Vec<f64> = frames
        .windows(2)
        .map(|w| w[0].histogram_distance(&w[1]))
        .collect();

    // The global floor scales with the video's typical (median) boundary
    // distance, so uniform attenuation of all distances — e.g. a static
    // logo shrinking every normalised histogram difference by the covered
    // area — moves the floor by the same factor and leaves the cut set
    // unchanged. `abs_threshold` only backstops near-static footage.
    let mut sorted = d.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let floor = cfg.abs_threshold.max(cfg.noise_factor * median);

    let mut cuts = Vec::new();
    let mut last_cut: Option<usize> = None;
    for i in 0..d.len() {
        if d[i] < floor {
            continue;
        }
        // Local mean over the window, excluding the candidate itself.
        let lo = i.saturating_sub(cfg.window);
        let hi = (i + cfg.window + 1).min(d.len());
        let mut sum = 0.0;
        let mut n = 0usize;
        for (j, &dj) in d[lo..hi].iter().enumerate() {
            if lo + j != i {
                sum += dj;
                n += 1;
            }
        }
        let local_mean = if n == 0 { 0.0 } else { sum / n as f64 };
        if d[i] < cfg.rel_factor * local_mean {
            continue;
        }
        // Peak condition: a cut must be a local maximum, otherwise gradual
        // transitions fire on several consecutive boundaries.
        let is_peak = (i == 0 || d[i] >= d[i - 1]) && (i + 1 == d.len() || d[i] >= d[i + 1]);
        if !is_peak {
            continue;
        }
        let boundary = i + 1;
        if let Some(prev) = last_cut {
            if boundary - prev < cfg.min_gap {
                continue;
            }
        }
        cuts.push(boundary);
        last_cut = Some(boundary);
    }
    cuts
}

/// Converts cut boundaries into `(start, end)` half-open segment ranges
/// covering the whole video. With no cuts the single segment is the video.
pub fn segments_from_cuts(video_len: usize, cuts: &[usize]) -> Vec<(usize, usize)> {
    assert!(
        cuts.windows(2).all(|w| w[0] < w[1]),
        "cuts must be strictly increasing"
    );
    assert!(
        cuts.iter().all(|&c| c > 0 && c < video_len),
        "cut index out of range"
    );
    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut start = 0;
    for &c in cuts {
        out.push((start, c));
        start = c;
    }
    out.push((start, video_len));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::VideoId;

    /// Builds a video of `scenes` constant-intensity scenes of `len` frames.
    fn scene_video(scenes: &[u8], len: usize) -> Video {
        let frames = scenes
            .iter()
            .flat_map(|&v| std::iter::repeat_n(Frame::filled(16, 16, v), len))
            .collect();
        Video::new(VideoId(1), 10.0, frames)
    }

    #[test]
    fn detects_hard_cuts_between_scenes() {
        let v = scene_video(&[20, 120, 220], 10);
        let cuts = detect_cuts(&v);
        assert_eq!(cuts, vec![10, 20]);
    }

    #[test]
    fn no_cuts_in_static_video() {
        let v = scene_video(&[100], 30);
        assert!(detect_cuts(&v).is_empty());
    }

    #[test]
    fn min_gap_debounces() {
        // Scene flips every 2 frames — closer than min_gap, so most cuts
        // must be suppressed.
        let v = scene_video(&[10, 200, 10, 200, 10, 200], 2);
        let cuts = CutDetector {
            min_gap: 4,
            ..Default::default()
        }
        .detect(&v);
        for w in cuts.windows(2) {
            assert!(w[1] - w[0] >= 4);
        }
    }

    #[test]
    fn segments_cover_video() {
        let segs = segments_from_cuts(30, &[10, 20]);
        assert_eq!(segs, vec![(0, 10), (10, 20), (20, 30)]);
        let total: usize = segs.iter().map(|(a, b)| b - a).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn segments_without_cuts_is_whole_video() {
        assert_eq!(segments_from_cuts(7, &[]), vec![(0, 7)]);
    }

    #[test]
    fn detector_finds_synthesized_scene_boundaries_approximately() {
        use crate::synth::{SynthConfig, VideoSynthesizer};
        let mut s = VideoSynthesizer::new(SynthConfig::default(), 2, 11);
        let v = s.generate(VideoId(1), 0, 30.0);
        let cuts = detect_cuts(&v);
        // 300 frames with scenes of 12..=40 frames: expect a reasonable
        // number of detected boundaries.
        assert!(cuts.len() >= 3, "found only {} cuts", cuts.len());
        assert!(cuts.len() <= 30);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_cuts_rejected() {
        segments_from_cuts(10, &[5, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cut_rejected() {
        segments_from_cuts(10, &[10]);
    }
}
