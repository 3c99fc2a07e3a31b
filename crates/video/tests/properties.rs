//! Property tests for the video substrate: codec error bounds, transform
//! length laws, and segmentation coverage.

use proptest::prelude::*;
use viderec_video::codec::{decode, encode, transcode};
use viderec_video::shot::segments_from_cuts;
use viderec_video::{detect_cuts, Frame, Transform, Video, VideoId};

fn video_strategy() -> impl Strategy<Value = Video> {
    (2..30usize, 4..12usize, 4..12usize, 0..u64::MAX).prop_map(|(n, w, h, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let frames = (0..n)
            .map(|_| {
                let data = (0..w * h).map(|_| rng.gen()).collect();
                Frame::from_data(w, h, data)
            })
            .collect();
        Video::new(VideoId(seed), 10.0, frames)
    })
}

/// Videos that reach the codec's edges: one frame or several, any
/// dimensions from 1 (odd ones included), and three kinds of content —
/// random pixels (runs of ~1), a static scene (runs capped at 256, then
/// resumed) and a flat scene with sparse changes (long inter runs broken by
/// single deltas).
fn codec_edge_strategy() -> impl Strategy<Value = Video> {
    (1..6usize, 1..41usize, 1..41usize, 0..3u8, 0..u64::MAX).prop_map(|(n, w, h, kind, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let base: u8 = rng.gen();
        let frames = (0..n)
            .map(|_| {
                let data = (0..w * h)
                    .map(|_| match kind {
                        0 => rng.gen(),
                        1 => base,
                        _ if rng.gen_bool(0.02) => rng.gen(),
                        _ => base,
                    })
                    .collect();
                Frame::from_data(w, h, data)
            })
            .collect();
        Video::new(VideoId(seed), 12.5, frames)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The frame-wise round trip is the whole-stream one: `transcode(v)`
    /// equals `decode(encode(v))` frame for frame, id and fps included.
    #[test]
    fn transcode_is_decode_of_encode(v in codec_edge_strategy()) {
        let whole = decode(&encode(&v)).expect("own bitstream decodes");
        let framewise = transcode(&v);
        prop_assert_eq!(framewise.id(), whole.id());
        prop_assert_eq!(framewise.fps().to_bits(), whole.fps().to_bits());
        prop_assert_eq!(framewise.frames(), whole.frames());
    }

    /// Codec roundtrip: metadata preserved, per-pixel error ≤ quantisation
    /// bound, second transcode lossless.
    #[test]
    fn codec_roundtrip(v in video_strategy()) {
        let d = transcode(&v);
        prop_assert_eq!(d.id(), v.id());
        prop_assert_eq!(d.len(), v.len());
        prop_assert_eq!((d.width(), d.height()), (v.width(), v.height()));
        for (a, b) in v.frames().iter().zip(d.frames()) {
            for (&pa, &pb) in a.data().iter().zip(b.data()) {
                prop_assert!((pa as i16 - pb as i16).abs() <= 3);
            }
        }
        let dd = transcode(&d);
        prop_assert_eq!(dd.frames(), d.frames());
    }

    /// Truncating a bitstream anywhere strictly inside never panics — it
    /// fails with a structured error (or, for prefix-complete headers,
    /// decodes a shorter payload is NOT allowed: frame count is declared, so
    /// truncation must error).
    #[test]
    fn codec_truncation_is_graceful(v in video_strategy(), cut_frac in 0.1..0.95f64) {
        let bits = encode(&v);
        let cut = ((bits.len() as f64) * cut_frac) as usize;
        let result = decode(&bits[..cut]);
        prop_assert!(result.is_err());
    }

    /// Photometric transforms preserve frame count and shape; temporal ones
    /// obey their length laws.
    #[test]
    fn transform_length_laws(v in video_strategy(), delta in -40i16..40, chunks in 1..5usize) {
        let bright = Transform::BrightnessShift(delta).apply(&v);
        prop_assert_eq!(bright.len(), v.len());
        prop_assert_eq!(bright.width(), v.width());

        let chunks = chunks.min(v.len());
        let re = Transform::ReorderChunks { chunks }.apply(&v);
        prop_assert_eq!(re.len(), v.len());

        let half = Transform::HalfRate.apply(&v);
        prop_assert_eq!(half.len(), v.len().div_ceil(2));

        let ad = Transform::AdInsert { at: v.len() / 2, len: 3, intensity: 99 }.apply(&v);
        prop_assert_eq!(ad.len(), v.len() + 3);
    }

    /// Random edit pipelines always apply cleanly and leave ≥ 2 frames.
    #[test]
    fn random_pipelines_apply(v in video_strategy(), seed in 0..u64::MAX) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let pipe = Transform::random_edit_pipeline(&mut rng, v.len());
        let out = Transform::apply_all(&pipe, &v);
        prop_assert!(out.len() >= 2);
    }

    /// Detected cuts are strictly increasing, in range, and the derived
    /// segments tile the video exactly.
    #[test]
    fn segmentation_tiles_video(v in video_strategy()) {
        let cuts = detect_cuts(&v);
        for w in cuts.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert!(cuts.iter().all(|&c| c > 0 && c < v.len()));
        let segs = segments_from_cuts(v.len(), &cuts);
        prop_assert_eq!(segs[0].0, 0);
        prop_assert_eq!(segs.last().unwrap().1, v.len());
        for w in segs.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0);
        }
    }
}
