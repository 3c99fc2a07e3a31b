//! Video editing and transformation operations.
//!
//! §1 and §5.3.4 of the paper argue that user-uploaded videos "have been
//! edited or undergone different variations", which is why robust signatures
//! beat global features. This module implements the standard editing
//! vocabulary from the near-duplicate-detection literature so that the
//! evaluation harness can derive realistic near-duplicates:
//!
//! * photometric: brightness shift, contrast scale, additive noise;
//! * spatial: logo overlay, border crop (letterbox), content shift;
//! * temporal: sub-clip extraction, segment reordering, ad insertion,
//!   frame-rate halving.

use crate::frame::Frame;
use crate::video::Video;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An editing operation applied to a whole video.
#[derive(Debug, Clone, PartialEq)]
pub enum Transform {
    /// Adds `delta` to every pixel (clamped). Global photometric change.
    BrightnessShift(i16),
    /// Scales every pixel around 128 by `factor` (clamped).
    ContrastScale(f64),
    /// Adds uniform noise in `[-amp, amp]` per pixel; seeded for determinism.
    Noise {
        /// Noise amplitude in intensity units.
        amp: u8,
        /// Noise seed (determinism).
        seed: u64,
    },
    /// Overlays a constant-intensity logo block covering the given fraction
    /// of the frame in the bottom-right corner.
    LogoOverlay {
        /// Fraction of each frame dimension the logo covers.
        fraction: f64,
        /// Logo intensity.
        intensity: u8,
    },
    /// Zeroes a border of `fraction` of each dimension (letterboxing).
    BorderCrop {
        /// Border fraction per side, in `[0, 0.5)`.
        fraction: f64,
    },
    /// Shifts frame content by `(dx, dy)` pixels, filling vacated area with
    /// edge replication. Models within-frame content shift.
    SpatialShift {
        /// Horizontal shift in pixels.
        dx: isize,
        /// Vertical shift in pixels.
        dy: isize,
    },
    /// Keeps only frames `[start, start + len)`.
    SubClip {
        /// First kept frame.
        start: usize,
        /// Number of kept frames.
        len: usize,
    },
    /// Splits the video into `chunks` equal pieces and reverses their order
    /// (temporal sequence editing — what defeats DTW/ERP but not κJ).
    ReorderChunks {
        /// Number of equal pieces.
        chunks: usize,
    },
    /// Inserts `len` frames of an unrelated constant "ad" at `at`.
    AdInsert {
        /// Insertion frame index.
        at: usize,
        /// Inserted frame count.
        len: usize,
        /// Ad frame intensity.
        intensity: u8,
    },
    /// Keeps every second frame (frame-rate halving).
    HalfRate,
}

impl Transform {
    /// Applies the transform, producing a new video with the same id/fps.
    ///
    /// # Panics
    /// Panics if parameters are out of range for the input (e.g. a
    /// [`Transform::SubClip`] past the end).
    pub fn apply(&self, video: &Video) -> Video {
        match *self {
            Transform::BrightnessShift(delta) => {
                map_pixels(video, |p| (p as i32 + delta as i32).clamp(0, 255) as u8)
            }
            Transform::ContrastScale(factor) => {
                assert!(factor > 0.0, "contrast factor must be positive");
                map_pixels(video, move |p| {
                    ((p as f64 - 128.0) * factor + 128.0).clamp(0.0, 255.0) as u8
                })
            }
            Transform::Noise { amp, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let frames = video
                    .frames()
                    .iter()
                    .map(|f| {
                        let data = f
                            .data()
                            .iter()
                            .map(|&p| {
                                let n = rng.gen_range(-(amp as i32)..=amp as i32);
                                (p as i32 + n).clamp(0, 255) as u8
                            })
                            .collect();
                        Frame::from_data(f.width(), f.height(), data)
                    })
                    .collect();
                video.with_frames(frames)
            }
            Transform::LogoOverlay {
                fraction,
                intensity,
            } => {
                assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
                let (w, h) = (video.width(), video.height());
                let lw = ((w as f64 * fraction).round() as usize).max(1);
                let lh = ((h as f64 * fraction).round() as usize).max(1);
                let frames = video
                    .frames()
                    .iter()
                    .map(|f| {
                        let mut g = f.clone();
                        for y in h - lh..h {
                            for x in w - lw..w {
                                g.set_pixel(x, y, intensity);
                            }
                        }
                        g
                    })
                    .collect();
                video.with_frames(frames)
            }
            Transform::BorderCrop { fraction } => {
                assert!((0.0..0.5).contains(&fraction), "crop fraction out of range");
                let (w, h) = (video.width(), video.height());
                let bx = (w as f64 * fraction).round() as usize;
                let by = (h as f64 * fraction).round() as usize;
                let frames = video
                    .frames()
                    .iter()
                    .map(|f| {
                        let mut g = f.clone();
                        for y in 0..h {
                            for x in 0..w {
                                if x < bx || x >= w - bx || y < by || y >= h - by {
                                    g.set_pixel(x, y, 0);
                                }
                            }
                        }
                        g
                    })
                    .collect();
                video.with_frames(frames)
            }
            Transform::SpatialShift { dx, dy } => {
                let (w, h) = (video.width() as isize, video.height() as isize);
                assert!(dx.abs() < w && dy.abs() < h, "shift larger than frame");
                let frames = video
                    .frames()
                    .iter()
                    .map(|f| {
                        let mut data = Vec::with_capacity((w * h) as usize);
                        for y in 0..h {
                            for x in 0..w {
                                let sx = (x - dx).clamp(0, w - 1) as usize;
                                let sy = (y - dy).clamp(0, h - 1) as usize;
                                data.push(f.pixel(sx, sy));
                            }
                        }
                        Frame::from_data(w as usize, h as usize, data)
                    })
                    .collect();
                video.with_frames(frames)
            }
            Transform::SubClip { start, len } => {
                assert!(
                    len > 0 && start + len <= video.len(),
                    "sub-clip out of range"
                );
                video.with_frames(video.frames()[start..start + len].to_vec())
            }
            Transform::ReorderChunks { chunks } => {
                assert!(chunks > 0 && chunks <= video.len(), "bad chunk count");
                let n = video.len();
                let base = n / chunks;
                let mut pieces: Vec<&[Frame]> = Vec::with_capacity(chunks);
                let mut at = 0;
                for i in 0..chunks {
                    let end = if i + 1 == chunks { n } else { at + base };
                    pieces.push(&video.frames()[at..end]);
                    at = end;
                }
                let frames = pieces
                    .into_iter()
                    .rev()
                    .flat_map(|p| p.iter().cloned())
                    .collect();
                video.with_frames(frames)
            }
            Transform::AdInsert { at, len, intensity } => {
                assert!(at <= video.len(), "insertion point out of range");
                let (w, h) = (video.width(), video.height());
                let mut frames = Vec::with_capacity(video.len() + len);
                frames.extend_from_slice(&video.frames()[..at]);
                frames.extend(std::iter::repeat_n(Frame::filled(w, h, intensity), len));
                frames.extend_from_slice(&video.frames()[at..]);
                video.with_frames(frames)
            }
            Transform::HalfRate => {
                let frames: Vec<Frame> = video.frames().iter().step_by(2).cloned().collect();
                video.with_frames(frames)
            }
        }
    }

    /// Applies a pipeline of transforms left to right. The first transform
    /// reads `video` itself; only an empty pipeline clones it.
    pub fn apply_all(transforms: &[Transform], video: &Video) -> Video {
        match transforms.split_first() {
            None => video.clone(),
            Some((first, rest)) => rest.iter().fold(first.apply(video), |v, t| t.apply(&v)),
        }
    }

    /// Samples a random realistic edit pipeline (1–3 operations) of the kinds
    /// observed on user-uploaded near-duplicates. Used by the evaluation
    /// harness to derive edited copies.
    pub fn random_edit_pipeline(rng: &mut StdRng, video_len: usize) -> Vec<Transform> {
        let mut out = Vec::new();
        let n_ops = rng.gen_range(1..=3);
        // Track the running length so temporal ops stay in range even when
        // stacked after an earlier sub-clip.
        let mut video_len = video_len;
        for _ in 0..n_ops {
            let t = match rng.gen_range(0..8u8) {
                0 => Transform::BrightnessShift(rng.gen_range(-25..=25)),
                1 => Transform::ContrastScale(rng.gen_range(0.8..1.25)),
                2 => Transform::Noise {
                    amp: rng.gen_range(2..10),
                    seed: rng.gen(),
                },
                3 => Transform::LogoOverlay {
                    fraction: rng.gen_range(0.1..0.2),
                    intensity: rng.gen_range(180..=255),
                },
                4 => Transform::BorderCrop {
                    fraction: rng.gen_range(0.05..0.15),
                },
                5 => Transform::SpatialShift {
                    dx: rng.gen_range(-3..=3),
                    dy: rng.gen_range(-3..=3),
                },
                6 => {
                    let len = (video_len * 3 / 4).max(2).min(video_len);
                    let start = rng.gen_range(0..=video_len - len);
                    video_len = len;
                    Transform::SubClip { start, len }
                }
                _ => Transform::ReorderChunks {
                    chunks: rng.gen_range(2..=4).min(video_len.max(1)),
                },
            };
            out.push(t);
        }
        out
    }
}

fn map_pixels(video: &Video, f: impl Fn(u8) -> u8) -> Video {
    let frames = video
        .frames()
        .iter()
        .map(|fr| {
            let data = fr.data().iter().map(|&p| f(p)).collect();
            Frame::from_data(fr.width(), fr.height(), data)
        })
        .collect();
    video.with_frames(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::VideoId;

    fn ramp_video(n: usize) -> Video {
        let frames = (0..n)
            .map(|i| Frame::filled(8, 8, (i * 10 % 256) as u8))
            .collect();
        Video::new(VideoId(1), 10.0, frames)
    }

    #[test]
    fn brightness_shift_clamps() {
        let v = ramp_video(3);
        let up = Transform::BrightnessShift(300).apply(&v);
        assert!(up
            .frames()
            .iter()
            .all(|f| f.data().iter().all(|&p| p == 255)));
        let down = Transform::BrightnessShift(-300).apply(&v);
        assert!(down
            .frames()
            .iter()
            .all(|f| f.data().iter().all(|&p| p == 0)));
    }

    #[test]
    fn contrast_identity_is_noop() {
        let v = ramp_video(4);
        let w = Transform::ContrastScale(1.0).apply(&v);
        assert_eq!(v.frames(), w.frames());
    }

    #[test]
    fn noise_is_seed_deterministic_and_bounded() {
        let v = ramp_video(4);
        let a = Transform::Noise { amp: 5, seed: 1 }.apply(&v);
        let b = Transform::Noise { amp: 5, seed: 1 }.apply(&v);
        assert_eq!(a.frames(), b.frames());
        for (fa, fv) in a.frames().iter().zip(v.frames()) {
            for (&pa, &pv) in fa.data().iter().zip(fv.data()) {
                assert!((pa as i32 - pv as i32).abs() <= 5);
            }
        }
    }

    #[test]
    fn logo_overlay_touches_only_corner() {
        let v = ramp_video(2);
        let w = Transform::LogoOverlay {
            fraction: 0.25,
            intensity: 200,
        }
        .apply(&v);
        assert_eq!(w.frames()[0].pixel(7, 7), 200);
        assert_eq!(w.frames()[0].pixel(0, 0), v.frames()[0].pixel(0, 0));
    }

    #[test]
    fn border_crop_zeroes_border() {
        let v = ramp_video(1);
        let w = Transform::BorderCrop { fraction: 0.25 }.apply(&v);
        assert_eq!(w.frames()[0].pixel(0, 0), 0);
        assert_eq!(w.frames()[0].pixel(7, 7), 0);
        assert_eq!(w.frames()[0].pixel(4, 4), v.frames()[0].pixel(4, 4));
    }

    #[test]
    fn spatial_shift_moves_content() {
        let mut f = Frame::filled(8, 8, 0);
        f.set_pixel(2, 2, 200);
        let v = Video::new(VideoId(1), 10.0, vec![f]);
        let w = Transform::SpatialShift { dx: 3, dy: 1 }.apply(&v);
        assert_eq!(w.frames()[0].pixel(5, 3), 200);
    }

    #[test]
    fn subclip_and_reorder_and_adinsert() {
        let v = ramp_video(10);
        let sub = Transform::SubClip { start: 2, len: 5 }.apply(&v);
        assert_eq!(sub.len(), 5);
        assert_eq!(sub.frames()[0], v.frames()[2]);

        let re = Transform::ReorderChunks { chunks: 2 }.apply(&v);
        assert_eq!(re.len(), 10);
        assert_eq!(re.frames()[0], v.frames()[5]);
        assert_eq!(re.frames()[5], v.frames()[0]);

        let ad = Transform::AdInsert {
            at: 3,
            len: 2,
            intensity: 128,
        }
        .apply(&v);
        assert_eq!(ad.len(), 12);
        assert_eq!(ad.frames()[3], Frame::filled(8, 8, 128));
        assert_eq!(ad.frames()[5], v.frames()[3]);
    }

    #[test]
    fn half_rate_keeps_even_frames() {
        let v = ramp_video(7);
        let w = Transform::HalfRate.apply(&v);
        assert_eq!(w.len(), 4);
        assert_eq!(w.frames()[1], v.frames()[2]);
    }

    #[test]
    fn reorder_chunks_preserves_multiset_of_frames() {
        let v = ramp_video(11);
        let w = Transform::ReorderChunks { chunks: 3 }.apply(&v);
        assert_eq!(w.len(), v.len());
        let mut a: Vec<_> = v.frames().iter().map(|f| f.data().to_vec()).collect();
        let mut b: Vec<_> = w.frames().iter().map(|f| f.data().to_vec()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn random_pipeline_applies() {
        use rand::SeedableRng;
        let v = ramp_video(20);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let pipe = Transform::random_edit_pipeline(&mut rng, v.len());
            let w = Transform::apply_all(&pipe, &v);
            assert!(w.len() >= 2);
        }
    }

    #[test]
    fn a_one_step_pipeline_is_that_step() {
        let v = ramp_video(9);
        for t in [
            Transform::BrightnessShift(-12),
            Transform::SubClip { start: 1, len: 6 },
            Transform::Noise { amp: 4, seed: 3 },
        ] {
            let w = Transform::apply_all(std::slice::from_ref(&t), &v);
            assert_eq!(w.frames(), t.apply(&v).frames(), "{t:?}");
        }
    }

    #[test]
    fn a_three_step_pipeline_applies_its_steps_left_to_right() {
        let v = ramp_video(12);
        let pipe = [
            Transform::ContrastScale(1.2),
            Transform::SubClip { start: 2, len: 8 },
            Transform::ReorderChunks { chunks: 3 },
        ];
        let by_hand = pipe[2].apply(&pipe[1].apply(&pipe[0].apply(&v)));
        let w = Transform::apply_all(&pipe, &v);
        assert_eq!((w.id(), w.fps()), (v.id(), v.fps()));
        assert_eq!(w.frames(), by_hand.frames());
        assert_eq!(Transform::apply_all(&[], &v).frames(), v.frames());
    }

    #[test]
    #[should_panic(expected = "sub-clip out of range")]
    fn subclip_out_of_range_rejected() {
        Transform::SubClip { start: 8, len: 5 }.apply(&ramp_video(10));
    }
}
