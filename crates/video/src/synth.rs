//! Seeded, topic-conditioned synthetic video generation.
//!
//! Stands in for the paper's 200-hour YouTube crawl. The generator produces
//! videos with the statistical structure the downstream algorithms rely on:
//!
//! * **scene structure** — each video is a sequence of scenes separated by
//!   hard cuts, so shot detection has real work to do;
//! * **topic conditioning** — videos on one topic draw their scene content
//!   from a shared per-topic palette of latent scene prototypes, so
//!   same-topic videos are *content-relevant* without being duplicates;
//! * **smooth intra-scene motion** — block intensities drift within a scene,
//!   giving cuboid signatures non-trivial temporal deltas.
//!
//! Determinism: everything is driven by a caller-supplied seed; the same seed
//! reproduces the same collection bit for bit.

use crate::frame::Frame;
use crate::video::{Video, VideoId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic generator.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Frames per second.
    pub fps: f64,
    /// Number of latent scene prototypes per topic.
    pub prototypes_per_topic: usize,
    /// Minimum scene length in frames.
    pub min_scene_len: usize,
    /// Maximum scene length in frames (inclusive).
    pub max_scene_len: usize,
    /// Per-frame intensity drift magnitude within a scene (std-dev-ish).
    pub motion: f64,
    /// Pixel-level texture noise amplitude.
    pub texture: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            width: 32,
            height: 32,
            fps: 10.0,
            prototypes_per_topic: 12,
            min_scene_len: 12,
            max_scene_len: 40,
            motion: 1.5,
            texture: 6.0,
        }
    }
}

/// A latent scene prototype: a coarse 4×4 intensity layout that is upsampled
/// to full resolution when rendered. Two scenes drawn from the same prototype
/// look alike; prototypes within a topic are correlated.
#[derive(Debug, Clone)]
struct ScenePrototype {
    /// 4×4 coarse layout, row-major, in intensity units.
    layout: [f64; 16],
}

impl ScenePrototype {
    fn sample(rng: &mut StdRng, topic_base: &[f64; 16], spread: f64) -> Self {
        let mut layout = [0.0; 16];
        for (l, &b) in layout.iter_mut().zip(topic_base) {
            *l = (b + rng.gen_range(-spread..spread)).clamp(8.0, 247.0);
        }
        Self { layout }
    }

    /// Renders the coarse layout at `w × h` with bilinear interpolation plus
    /// texture noise and a per-frame drift offset.
    fn render(
        &self,
        w: usize,
        h: usize,
        drift: &[f64; 16],
        texture: f64,
        rng: &mut StdRng,
    ) -> Frame {
        let mut data = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                // Map pixel to coarse grid coordinates in [0, 3].
                let gx = x as f64 / w as f64 * 3.0;
                let gy = y as f64 / h as f64 * 3.0;
                let x0 = gx.floor() as usize;
                let y0 = gy.floor() as usize;
                let x1 = (x0 + 1).min(3);
                let y1 = (y0 + 1).min(3);
                let fx = gx - x0 as f64;
                let fy = gy - y0 as f64;
                let at = |cx: usize, cy: usize| self.layout[cy * 4 + cx] + drift[cy * 4 + cx];
                let top = at(x0, y0) * (1.0 - fx) + at(x1, y0) * fx;
                let bot = at(x0, y1) * (1.0 - fx) + at(x1, y1) * fx;
                let v = top * (1.0 - fy) + bot * fy + rng.gen_range(-texture..=texture);
                data.push(v.clamp(0.0, 255.0) as u8);
            }
        }
        Frame::from_data(w, h, data)
    }
}

/// Topic-conditioned video synthesizer.
///
/// Create one per collection with [`VideoSynthesizer::new`], then call
/// [`VideoSynthesizer::generate`] per video. Topic ids are dense `usize`s.
#[derive(Debug)]
pub struct VideoSynthesizer {
    cfg: SynthConfig,
    /// Per-topic prototype palettes.
    palettes: Vec<Vec<ScenePrototype>>,
    rng: StdRng,
}

impl VideoSynthesizer {
    /// Builds palettes for `num_topics` topics from `seed`.
    pub fn new(cfg: SynthConfig, num_topics: usize, seed: u64) -> Self {
        assert!(num_topics > 0, "need at least one topic");
        assert!(
            cfg.min_scene_len >= 2,
            "scenes must span at least two frames"
        );
        assert!(
            cfg.max_scene_len >= cfg.min_scene_len,
            "bad scene length range"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let palettes = (0..num_topics)
            .map(|_| {
                // Each topic gets its own coarse base layout; prototypes are
                // perturbations of it, so intra-topic scenes correlate.
                let mut base = [0.0; 16];
                for b in &mut base {
                    *b = rng.gen_range(40.0..216.0);
                }
                (0..cfg.prototypes_per_topic)
                    .map(|_| ScenePrototype::sample(&mut rng, &base, 35.0))
                    .collect()
            })
            .collect();
        Self { cfg, palettes, rng }
    }

    /// Number of topics the synthesizer was built with.
    pub fn num_topics(&self) -> usize {
        self.palettes.len()
    }

    /// Generator configuration.
    pub fn config(&self) -> &SynthConfig {
        &self.cfg
    }

    /// Generates a video of roughly `duration_secs` seconds on `topic`.
    ///
    /// # Panics
    /// Panics if `topic` is out of range or the duration yields no frames.
    pub fn generate(&mut self, id: VideoId, topic: usize, duration_secs: f64) -> Video {
        assert!(topic < self.palettes.len(), "unknown topic {topic}");
        let total = (duration_secs * self.cfg.fps).round() as usize;
        assert!(
            total >= self.cfg.min_scene_len,
            "duration too short for one scene"
        );
        let mut frames = Vec::with_capacity(total);
        while frames.len() < total {
            let remaining = total - frames.len();
            let len = if remaining < 2 * self.cfg.min_scene_len {
                remaining
            } else {
                self.rng
                    .gen_range(self.cfg.min_scene_len..=self.cfg.max_scene_len)
                    .min(remaining)
            };
            let proto_idx = self.rng.gen_range(0..self.palettes[topic].len());
            self.render_scene(topic, proto_idx, len, &mut frames);
        }
        Video::new(id, self.cfg.fps, frames)
    }

    /// Per-topic motion style: cuboid signatures measure intensity *change*,
    /// so topics must differ in motion statistics (not just palette) for
    /// same-topic videos to be content-closer than cross-topic ones. Each
    /// topic gets its own motion magnitude band.
    fn topic_motion(&self, topic: usize) -> f64 {
        // Geometric spread: adjacent topics differ ~1.6× in motion scale,
        // enough for EMD over temporal deltas to tell them apart.
        self.cfg.motion * 0.4 * 1.6f64.powi(topic as i32)
    }

    fn render_scene(&mut self, topic: usize, proto_idx: usize, len: usize, out: &mut Vec<Frame>) {
        let proto = self.palettes[topic][proto_idx].clone();
        let mut drift = [0.0; 16];
        // Each coarse cell gets its own drift velocity: smooth block-level
        // motion, which is what cuboid temporal deltas measure. The band is
        // topic-specific (see `topic_motion`).
        let band = self.topic_motion(topic);
        let mut vel = [0.0; 16];
        for v in &mut vel {
            *v = self.rng.gen_range(-band..=band);
        }
        for _ in 0..len {
            out.push(proto.render(
                self.cfg.width,
                self.cfg.height,
                &drift,
                self.cfg.texture,
                &mut self.rng,
            ));
            for (d, v) in drift.iter_mut().zip(&vel) {
                *d += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth() -> VideoSynthesizer {
        VideoSynthesizer::new(SynthConfig::default(), 3, 42)
    }

    #[test]
    fn generates_requested_duration() {
        let mut s = synth();
        let v = s.generate(VideoId(1), 0, 12.0);
        assert_eq!(v.len(), 120);
        assert_eq!(v.width(), 32);
        assert!((v.duration_secs() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = VideoSynthesizer::new(SynthConfig::default(), 2, 7);
        let mut b = VideoSynthesizer::new(SynthConfig::default(), 2, 7);
        let va = a.generate(VideoId(1), 1, 5.0);
        let vb = b.generate(VideoId(1), 1, 5.0);
        assert_eq!(va.frames(), vb.frames());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = VideoSynthesizer::new(SynthConfig::default(), 2, 7);
        let mut b = VideoSynthesizer::new(SynthConfig::default(), 2, 8);
        let va = a.generate(VideoId(1), 1, 5.0);
        let vb = b.generate(VideoId(1), 1, 5.0);
        assert_ne!(va.frames(), vb.frames());
    }

    #[test]
    fn same_topic_videos_are_closer_than_cross_topic() {
        // Mean frame-histogram distance between same-topic videos should be
        // smaller on average than between cross-topic videos: this is the
        // property the evaluation harness leans on.
        let mut s = VideoSynthesizer::new(SynthConfig::default(), 2, 123);
        let a1 = s.generate(VideoId(1), 0, 10.0);
        let a2 = s.generate(VideoId(2), 0, 10.0);
        let b1 = s.generate(VideoId(3), 1, 10.0);
        let d = |x: &Video, y: &Video| {
            let n = x.len().min(y.len());
            (0..n)
                .map(|i| x.frames()[i].histogram_distance(&y.frames()[i]))
                .sum::<f64>()
                / n as f64
        };
        assert!(d(&a1, &a2) < d(&a1, &b1));
    }

    #[test]
    fn scene_cuts_exist() {
        // A generated video should contain at least one visible scene change
        // (large histogram jump) given duration >> max_scene_len.
        let mut s = synth();
        let v = s.generate(VideoId(1), 0, 20.0);
        let mut max_jump: f64 = 0.0;
        for w in v.frames().windows(2) {
            max_jump = max_jump.max(w[0].histogram_distance(&w[1]));
        }
        assert!(max_jump > 0.3, "expected a hard cut, max jump {max_jump}");
    }

    #[test]
    #[should_panic(expected = "unknown topic")]
    fn bad_topic_rejected() {
        synth().generate(VideoId(1), 99, 5.0);
    }
}
