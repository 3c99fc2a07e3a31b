//! Cross-crate content pipeline: bitstream → decode → shot detection →
//! cuboid signatures → near-duplicate identification, including the
//! robustness claims of §4.1 against edits the legacy signatures fail on.

use viderec::emd::MatchingConfig;
use viderec::signature::baselines::OrdinalSignature;
use viderec::signature::{kappa_j_series, SignatureBuilder};
use viderec::video::codec::{encode, transcode};
use viderec::video::{SynthConfig, Transform, Video, VideoId, VideoSynthesizer};

fn clip(seed: u64, topic: usize) -> Video {
    let mut synth = VideoSynthesizer::new(SynthConfig::default(), 5, seed);
    synth.generate(VideoId(seed), topic, 20.0)
}

#[test]
fn ingestion_goes_through_the_bitstream() {
    let v = clip(1, 2);
    let bits = encode(&v);
    assert!(bits.len() > 64, "bitstream suspiciously small");
    let decoded = viderec::video::codec::decode(&bits).expect("own bitstream decodes");
    // Signatures from decoded frames stay near-identical to pristine ones.
    let b = SignatureBuilder::default();
    let pristine = b.build(&v);
    let lossy = b.build(&decoded);
    let k = kappa_j_series(&pristine, &lossy, MatchingConfig::default());
    assert!(k > 0.7, "codec loss destroyed the signature: κJ = {k}");
}

#[test]
fn near_duplicates_beat_decoys_under_every_edit() {
    let original = clip(7, 3);
    let decoy_same_topic = clip(8, 3);
    let decoy_other_topic = clip(9, 0);
    let b = SignatureBuilder::default();
    let sig = b.build(&transcode(&original));
    let decoy_score = b
        .build(&transcode(&decoy_same_topic))
        .kappa_j(&sig)
        .max(b.build(&transcode(&decoy_other_topic)).kappa_j(&sig));

    let edits = [
        Transform::BrightnessShift(15),
        Transform::ContrastScale(1.15),
        Transform::Noise { amp: 4, seed: 3 },
        Transform::SpatialShift { dx: 2, dy: 2 },
        Transform::ReorderChunks { chunks: 2 },
    ];
    let mut wins = 0;
    for edit in &edits {
        let copy = transcode(&edit.apply(&original));
        let score = b.build(&copy).kappa_j(&sig);
        if score > decoy_score {
            wins += 1;
        }
    }
    // The robust-signature claim: edited copies outrank decoys for (at
    // least) the overwhelming majority of edit types.
    assert!(
        wins >= 4,
        "only {wins}/5 edits beat the best decoy ({decoy_score:.3})"
    );
}

#[test]
fn cuboids_are_robust_where_ordinal_signatures_break() {
    // §4.1: "the ordinal signature is not robust to the frame editing in
    // videos". A large logo disturbs block ranks badly but barely moves the
    // temporal-delta distribution of the untouched regions.
    let original = clip(11, 2);
    let edited = Transform::LogoOverlay {
        fraction: 0.35,
        intensity: 250,
    }
    .apply(&original);

    let b = SignatureBuilder::default();
    let kappa_drop = 1.0 - b.build(&original).kappa_j(&b.build(&edited));

    let ord_orig = OrdinalSignature::extract(&original, 4, 4, 5);
    let ord_edit = OrdinalSignature::extract(&edited, 4, 4, 5);
    let ordinal_drop = ord_orig.distance(&ord_edit); // already normalised

    assert!(
        kappa_drop < ordinal_drop + 0.15,
        "cuboid degradation {kappa_drop:.3} not better than ordinal {ordinal_drop:.3}"
    );
}

#[test]
fn temporal_reordering_separates_kappa_from_dtw() {
    use viderec::signature::{series_dtw_similarity, series_erp_similarity};
    let original = clip(13, 4);
    let reordered = Transform::ReorderChunks { chunks: 3 }.apply(&original);
    let b = SignatureBuilder::default();
    let (s1, s2) = (b.build(&original), b.build(&reordered));
    let kappa = s1.kappa_j(&s2);
    let dtw = series_dtw_similarity(&s1, &s2);
    let erp = series_erp_similarity(&s1, &s2);
    assert!(
        kappa >= dtw - 0.05 && kappa >= erp - 0.05,
        "κJ {kappa:.3} should survive reordering better than DTW {dtw:.3} / ERP {erp:.3}"
    );
}
