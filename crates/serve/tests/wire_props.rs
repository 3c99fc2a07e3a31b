//! Property tests for the update-pipeline wire codec: arbitrary events —
//! including ±0.0, subnormal and maximally awkward finite `f64` series
//! values — round-trip **bit-exactly**, and non-finite values are rejected
//! with an error, never a panic. The same properties cover the WAL payload
//! codec in `serve::durability`, which reuses these wire lines as its record
//! payloads.

use proptest::prelude::*;
use viderec_core::{CorpusVideo, SocialUpdate, UpdateEvent};
use viderec_serve::durability::{decode_event, encode_event};
use viderec_serve::wire::{
    decode_series, encode_age, encode_comment, encode_ingest, encode_series, parse_update_body,
};
use viderec_signature::{Cuboid, CuboidSignature, SignatureSeries};
use viderec_video::VideoId;

/// Arbitrary Definition-1 value (`|v| ≤ f64::MAX / 4`) from raw bits:
/// non-finite draws keep their sign and mantissa but drop the exponent,
/// landing on ±0.0 and subnormals — the exact values a decimal codec would
/// mangle — and finite draws past the bound lose their top exponent bit,
/// landing near 1.
fn finite_value() -> impl Strategy<Value = f64> {
    (0..=u64::MAX).prop_map(|bits| {
        let v = f64::from_bits(bits);
        if v.abs() <= f64::MAX / 4.0 {
            v
        } else if v.is_finite() {
            f64::from_bits(bits & !(1 << 62))
        } else {
            f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF)
        }
    })
}

/// A Definition-1-valid signature: 1–6 cuboids, arbitrary finite values,
/// positive weights normalized to unit mass.
fn signature() -> impl Strategy<Value = CuboidSignature> {
    (1..7usize)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(finite_value(), n),
                prop::collection::vec(0.05..1.0f64, n),
            )
        })
        .prop_map(|(values, raw_weights)| {
            let total: f64 = raw_weights.iter().sum();
            CuboidSignature::new(
                values
                    .into_iter()
                    .zip(raw_weights)
                    .map(|(value, w)| Cuboid {
                        value,
                        weight: w / total,
                    })
                    .collect(),
            )
        })
}

fn series() -> impl Strategy<Value = SignatureSeries> {
    prop::collection::vec(signature(), 0..4).prop_map(|sigs| {
        if sigs.is_empty() {
            SignatureSeries::default()
        } else {
            SignatureSeries::new(sigs)
        }
    })
}

/// Lowercase-ascii user names: no separators the line format reserves.
fn user() -> impl Strategy<Value = String> {
    prop::collection::vec(0..26u8, 1..8)
        .prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn series_round_trip_is_bit_exact(s in series()) {
        let encoded = encode_series(&s);
        let decoded = decode_series(&encoded)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        // Bit-level equality, cuboid by cuboid: `==` on f64 would let a
        // dropped -0.0 sign slip through.
        prop_assert_eq!(decoded.signatures().len(), s.signatures().len());
        for (d, o) in decoded.signatures().iter().zip(s.signatures()) {
            prop_assert_eq!(d.cuboids().len(), o.cuboids().len());
            for (dc, oc) in d.cuboids().iter().zip(o.cuboids()) {
                prop_assert_eq!(dc.value.to_bits(), oc.value.to_bits());
                prop_assert_eq!(dc.weight.to_bits(), oc.weight.to_bits());
            }
        }
        // Re-encoding is a fixed point — the codec is canonical.
        prop_assert_eq!(encode_series(&decoded), encoded);
    }

    #[test]
    fn non_finite_values_are_rejected_not_panicking(bits in 0..=u64::MAX, as_weight in 0..2u8) {
        // Force the exponent to all-ones: infinity or NaN, sign preserved.
        let bad = f64::from_bits(bits | 0x7FF0_0000_0000_0000);
        prop_assert!(!bad.is_finite());
        let good = "3fe0000000000000"; // 0.5
        let line = if as_weight == 0 {
            // Bad value, valid weights summing to 1.
            format!("{:016x}:{good},{good}:{good}", bad.to_bits())
        } else {
            // Bad weight.
            format!("{good}:{:016x}", bad.to_bits())
        };
        prop_assert!(decode_series(&line).is_err(), "accepted {line}");
    }

    #[test]
    fn any_16_hex_digits_in_either_case_decode_like_from_str_radix(
        picks in prop::collection::vec(0..22usize, 16),
    ) {
        const DIGITS: &[u8; 22] = b"0123456789abcdefABCDEF";
        let hex: String = picks.iter().map(|&i| DIGITS[i] as char).collect();
        let bits = u64::from_str_radix(&hex, 16).expect("16 hex digits");
        // Weight 1.0: the value is the only thing under test.
        let decoded = decode_series(&format!("{hex}:3ff0000000000000"));
        if f64::from_bits(bits).is_finite() {
            let series = decoded
                .map_err(|e| TestCaseError::fail(format!("rejected {hex}: {e}")))?;
            prop_assert_eq!(series.signatures()[0].cuboids()[0].value.to_bits(), bits);
        } else {
            prop_assert!(decoded.is_err(), "accepted non-finite {hex}");
        }
    }

    #[test]
    fn event_bodies_round_trip_through_the_parser(
        specs in prop::collection::vec(
            (0..3u8, 1..50_000u64, user(), 1..5u32, series()),
            1..10,
        ),
    ) {
        // Build the body and, in parallel, the expected event list with the
        // parser's collapse rule: consecutive comments form one batch.
        let mut body = String::new();
        let mut expected: Vec<UpdateEvent> = Vec::new();
        for (tag, id, user, amount, series) in specs {
            match tag {
                0 => {
                    body.push_str(&encode_comment(VideoId(id), &user));
                    let update = SocialUpdate { video: VideoId(id), user };
                    match expected.last_mut() {
                        Some(UpdateEvent::Comments(batch)) => batch.push(update),
                        _ => expected.push(UpdateEvent::Comments(vec![update])),
                    }
                }
                1 => {
                    let video = CorpusVideo { id: VideoId(id), series, users: vec![user] };
                    body.push_str(&encode_ingest(&video));
                    expected.push(UpdateEvent::Ingest(vec![video]));
                }
                _ => {
                    body.push_str(&encode_age(amount));
                    expected.push(UpdateEvent::Age(amount));
                }
            }
            body.push('\n');
        }
        let parsed = parse_update_body(&body)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        // `UpdateEvent` has no `PartialEq`; its Debug form includes every
        // f64 in `{:?}` notation, which is value-lossless for finite f64.
        prop_assert_eq!(format!("{parsed:?}"), format!("{expected:?}"));
    }

    #[test]
    fn wal_event_payloads_round_trip(
        tag in 0..3u8,
        id in 1..50_000u64,
        names in prop::collection::vec(user(), 1..4),
        amount in 1..5u32,
        s in series(),
    ) {
        let event = match tag {
            0 => UpdateEvent::Comments(
                names
                    .iter()
                    .map(|u| SocialUpdate { video: VideoId(id), user: u.clone() })
                    .collect(),
            ),
            1 => UpdateEvent::Ingest(
                names
                    .iter()
                    .enumerate()
                    .map(|(i, u)| CorpusVideo {
                        id: VideoId(id + i as u64),
                        series: s.clone(),
                        users: vec![u.clone()],
                    })
                    .collect(),
            ),
            _ => UpdateEvent::Age(amount),
        };
        let payload = encode_event(&event);
        let decoded = decode_event(payload.as_bytes())
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(format!("{decoded:?}"), format!("{event:?}"));
    }
}

#[test]
fn decode_event_rejects_garbage_without_panicking() {
    for junk in [
        &b""[..],
        b"# nothing but a comment\n",
        b"\xff\xfe not utf8",
        b"comment 1 ann\nage 2", // two events in one record
    ] {
        assert!(decode_event(junk).is_err(), "accepted {junk:?}");
    }
}
