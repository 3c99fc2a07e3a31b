//! The update-pipeline wire format.
//!
//! `POST /update` carries a plain-text, line-oriented batch — one event per
//! line, `#` comments and blank lines ignored:
//!
//! ```text
//! comment <video_id> <user name...>
//! ingest <video_id> <users-csv|-> <series|->
//! age <amount>
//! ```
//!
//! Signature series travel as **bit-exact** hex: every `f64` is encoded as
//! its 16-digit `to_bits` hex, cuboids as `value:weight`, cuboids joined by
//! `,`, signatures joined by `|`, and an empty series as `-`. Decoding
//! re-validates Definition 1 (positive weights, unit mass) before
//! constructing the signature, so a malformed body can never panic the
//! server — it parses to an error and is answered with 400.
//!
//! The same codec backs the load generator and the e2e suite: a series that
//! round-trips through this format is `==` to the original, which is what
//! makes "served results are bit-identical to direct library calls" testable
//! across a real socket.
//!
//! The encoders append to a caller's `String` (`*_into`), so a whole boot
//! corpus or WAL batch is one buffer: each `f64` is 16 digits off a nibble
//! table, with no per-field `String`, `Vec` or `join`. The `String`-returning
//! forms wrap them. The decoder reads hex through a 256-entry table that
//! accepts exactly `[0-9a-fA-F]` — no sign, no space — in one pass.

use std::fmt::Write as _;
use viderec_core::{CorpusVideo, SocialUpdate, UpdateEvent};
use viderec_signature::{Cuboid, CuboidSignature, SignatureSeries};
use viderec_video::VideoId;

/// Lowercase hex digit of each nibble.
const HEX_DIGITS: [u8; 16] = *b"0123456789abcdef";

/// Bytes of one encoded `f64`.
const F64_HEX_LEN: usize = 16;

/// Bytes of one encoded cuboid, `<16 hex>:<16 hex>`.
const CUBOID_LEN: usize = 2 * F64_HEX_LEN + 1;

/// Marks a byte that is not a hex digit in [`HEX_VALUES`]: any nibble value
/// fits in the low four bits, so a set high bit can only come from here.
const NOT_HEX: u8 = 0xF0;

const fn hex_values() -> [u8; 256] {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table
}

/// Nibble value of each byte, [`NOT_HEX`] for every byte outside
/// `[0-9a-fA-F]`.
static HEX_VALUES: [u8; 256] = hex_values();

/// Appends `v`'s bits as 16 lowercase hex digits, most significant first.
fn push_f64_hex(out: &mut String, v: f64) {
    let bits = v.to_bits();
    for shift in (0..16).rev() {
        out.push(char::from(HEX_DIGITS[(bits >> (4 * shift)) as usize & 0xF]));
    }
}

/// The `f64` whose bits `s` spells as exactly 16 hex digits (either case).
fn f64_from_hex(s: &str) -> Result<f64, String> {
    if s.len() != F64_HEX_LEN {
        return Err(format!("f64 hex '{s}' is not 16 digits"));
    }
    let mut bits = 0u64;
    let mut seen = 0u8;
    for &b in s.as_bytes() {
        let nibble = HEX_VALUES[b as usize];
        seen |= nibble;
        bits = (bits << 4) | u64::from(nibble & 0xF);
    }
    if seen & NOT_HEX != 0 {
        return Err(format!("bad f64 hex '{s}'"));
    }
    Ok(f64::from_bits(bits))
}

/// Appends a series' bit-exact encoding to `out` (`-` for an empty series).
pub fn encode_series_into(series: &SignatureSeries, out: &mut String) {
    if series.is_empty() {
        out.push('-');
        return;
    }
    for (i, sig) in series.signatures().iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        for (j, c) in sig.cuboids().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_f64_hex(out, c.value);
            out.push(':');
            push_f64_hex(out, c.weight);
        }
    }
}

/// Encodes a series bit-exactly (`-` for an empty series).
pub fn encode_series(series: &SignatureSeries) -> String {
    let mut out = String::new();
    encode_series_into(series, &mut out);
    out
}

/// Decodes [`encode_series`] output, re-validating Definition 1.
pub fn decode_series(s: &str) -> Result<SignatureSeries, String> {
    if s == "-" {
        return Ok(SignatureSeries::default());
    }
    let mut signatures = Vec::new();
    for (i, sig_str) in s.split('|').enumerate() {
        let mut cuboids = Vec::with_capacity((sig_str.len() + 1) / (CUBOID_LEN + 1));
        for pair in sig_str.split(',') {
            let (Some(v), Some(b':'), Some(w)) = (
                pair.get(..F64_HEX_LEN),
                pair.as_bytes().get(F64_HEX_LEN),
                pair.get(F64_HEX_LEN + 1..),
            ) else {
                return Err(format!(
                    "signature {i}: cuboid '{pair}' is not <16 hex>:<16 hex>"
                ));
            };
            cuboids.push(Cuboid {
                value: f64_from_hex(v)?,
                weight: f64_from_hex(w)?,
            });
        }
        let sig = CuboidSignature::try_new(cuboids).map_err(|e| format!("signature {i}: {e}"))?;
        signatures.push(sig);
    }
    Ok(SignatureSeries::new(signatures))
}

/// Slot of an event's kind in the apply-latency histograms
/// ([`crate::metrics::UPDATE_KIND_LABELS`] has the matching labels).
pub fn event_kind_index(event: &UpdateEvent) -> usize {
    match event {
        UpdateEvent::Comments(_) => 0,
        UpdateEvent::Ingest(_) => 1,
        UpdateEvent::Age(_) => 2,
    }
}

/// Metric label of an event's kind.
pub fn event_kind_label(event: &UpdateEvent) -> &'static str {
    crate::metrics::UPDATE_KIND_LABELS[event_kind_index(event)]
}

/// Appends one comment event line (no newline) to `out`.
pub(crate) fn encode_comment_into(video: VideoId, user: &str, out: &mut String) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "comment {} ", video.0);
    out.push_str(user);
}

/// Encodes one comment event line.
pub fn encode_comment(video: VideoId, user: &str) -> String {
    let mut out = String::new();
    encode_comment_into(video, user, &mut out);
    out
}

/// Appends one ingest event line (no newline) to `out`.
pub fn encode_ingest_into(video: &CorpusVideo, out: &mut String) {
    let _ = write!(out, "ingest {} ", video.id.0);
    if video.users.is_empty() {
        out.push('-');
    }
    for (i, user) in video.users.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(user);
    }
    out.push(' ');
    encode_series_into(&video.series, out);
}

/// An upper bound on the bytes [`encode_ingest_into`] appends for `video`:
/// `ingest `, up to 20 id digits and a space, the users with a separator
/// each (or `-`) and a space, the cuboids with a separator each (or `-`).
pub(crate) fn ingest_line_bound(video: &CorpusVideo) -> usize {
    let users: usize = video.users.iter().map(|u| u.len() + 1).sum();
    let cuboids: usize = video
        .series
        .signatures()
        .iter()
        .map(|s| s.cuboids().len())
        .sum();
    "ingest ".len() + 21 + users.max(1) + 1 + ((CUBOID_LEN + 1) * cuboids).max(1)
}

/// Encodes one ingest event line.
pub fn encode_ingest(video: &CorpusVideo) -> String {
    let mut out = String::new();
    encode_ingest_into(video, &mut out);
    out
}

/// Appends one aging event line (no newline) to `out`.
pub(crate) fn encode_age_into(amount: u32, out: &mut String) {
    let _ = write!(out, "age {amount}");
}

/// Encodes one aging event line.
pub fn encode_age(amount: u32) -> String {
    let mut out = String::new();
    encode_age_into(amount, &mut out);
    out
}

/// Parses an update body into events. Consecutive `comment` lines collapse
/// into one [`UpdateEvent::Comments`] batch (one Fig. 5 maintenance run),
/// matching how a period's comments arrive together.
pub fn parse_update_body(body: &str) -> Result<Vec<UpdateEvent>, String> {
    let mut events: Vec<UpdateEvent> = Vec::new();
    for (lineno, raw) in body.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        let mut parts = line.splitn(2, ' ');
        let verb = parts.next().unwrap_or("");
        let rest = parts.next().unwrap_or("").trim();
        match verb {
            "comment" => {
                let Some((id_str, user)) = rest.split_once(' ') else {
                    return Err(err("comment needs '<video_id> <user>'".into()));
                };
                let id: u64 = id_str
                    .parse()
                    .map_err(|_| err(format!("bad video id '{id_str}'")))?;
                let user = user.trim();
                if user.is_empty() {
                    return Err(err("empty user name".into()));
                }
                let update = SocialUpdate {
                    video: VideoId(id),
                    user: user.to_string(),
                };
                match events.last_mut() {
                    Some(UpdateEvent::Comments(batch)) => batch.push(update),
                    _ => events.push(UpdateEvent::Comments(vec![update])),
                }
            }
            "ingest" => {
                let mut fields = rest.splitn(3, ' ');
                let (Some(id_str), Some(users_csv), Some(series_str)) =
                    (fields.next(), fields.next(), fields.next())
                else {
                    return Err(err("ingest needs '<id> <users-csv|-> <series|->'".into()));
                };
                let id: u64 = id_str
                    .parse()
                    .map_err(|_| err(format!("bad video id '{id_str}'")))?;
                let users: Vec<String> = if users_csv == "-" {
                    Vec::new()
                } else {
                    users_csv
                        .split(',')
                        .filter(|u| !u.is_empty())
                        .map(str::to_string)
                        .collect()
                };
                let series = decode_series(series_str.trim()).map_err(err)?;
                events.push(UpdateEvent::Ingest(vec![CorpusVideo {
                    id: VideoId(id),
                    series,
                    users,
                }]));
            }
            "age" => {
                let amount: u32 = rest
                    .parse()
                    .map_err(|_| err(format!("bad age amount '{rest}'")))?;
                events.push(UpdateEvent::Age(amount));
            }
            other => return Err(err(format!("unknown verb '{other}'"))),
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `format!` / `join` encoder [`encode_series_into`] replaced: the
    /// byte-for-byte oracle.
    fn encode_series_joined(series: &SignatureSeries) -> String {
        if series.is_empty() {
            return "-".to_string();
        }
        let hex = |v: f64| format!("{:016x}", v.to_bits());
        series
            .signatures()
            .iter()
            .map(|sig| {
                sig.cuboids()
                    .iter()
                    .map(|c| format!("{}:{}", hex(c.value), hex(c.weight)))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect::<Vec<_>>()
            .join("|")
    }

    /// A Definition-1 signature over arbitrary value bits within
    /// ±`f64::MAX / 4` (non-finite draws lose their exponent: ±0.0 and
    /// subnormals; finite draws past the bound lose their top exponent bit:
    /// magnitudes near 1).
    fn signature() -> impl Strategy<Value = CuboidSignature> {
        prop::collection::vec((0..=u64::MAX, 0.05..1.0f64), 1..7).prop_map(|raw| {
            let total: f64 = raw.iter().map(|(_, w)| w).sum();
            CuboidSignature::new(
                raw.iter()
                    .map(|&(bits, w)| {
                        let v = f64::from_bits(bits);
                        Cuboid {
                            value: if v.abs() <= f64::MAX / 4.0 {
                                v
                            } else if v.is_finite() {
                                f64::from_bits(bits & !(1 << 62))
                            } else {
                                f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF)
                            },
                            weight: w / total,
                        }
                    })
                    .collect(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn table_encoder_matches_the_join_encoder(
            sigs in prop::collection::vec(signature(), 0..5),
            prefix in 0..3usize,
        ) {
            let series = if sigs.is_empty() {
                SignatureSeries::default()
            } else {
                SignatureSeries::new(sigs)
            };
            // Appends after whatever the buffer already holds.
            let mut out = "ingest 7 - ".repeat(prefix);
            let before = out.len();
            encode_series_into(&series, &mut out);
            let want = encode_series_joined(&series);
            prop_assert_eq!(&out[before..], want.as_str());
            prop_assert_eq!(encode_series(&series), want);
        }
    }

    #[test]
    fn empty_series_encodes_as_a_dash_either_way() {
        let empty = SignatureSeries::default();
        assert_eq!(encode_series_joined(&empty), "-");
        let mut out = String::from("x ");
        encode_series_into(&empty, &mut out);
        assert_eq!(out, "x -");
    }

    /// Every byte at every position of a valid 16-digit string: the table
    /// accepts exactly `[0-9a-fA-F]`, and what it accepts decodes to the
    /// bits `from_str_radix` reads.
    #[test]
    fn hex_table_accepts_exactly_the_hex_digits() {
        let base = *b"3fF0a1B2c3D4e5F6";
        for pos in 0..16 {
            for b in 0..=255u8 {
                let mut digits = base;
                digits[pos] = b;
                let Ok(s) = std::str::from_utf8(&digits) else {
                    continue; // not a `&str`: the decoder never sees it
                };
                match f64_from_hex(s) {
                    Ok(v) => {
                        assert!(b.is_ascii_hexdigit(), "accepted {s:?}");
                        assert_eq!(Ok(v.to_bits()), u64::from_str_radix(s, 16));
                    }
                    Err(e) => {
                        assert!(!b.is_ascii_hexdigit(), "rejected {s:?}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn hex_rejects_signs_and_spaces_and_names_the_line() {
        // `from_str_radix` reads the first as 0x3ff000000000000 (1.99e-289).
        for bad in ["+3ff000000000000", "-3ff000000000000", " 3ff000000000000"] {
            assert_eq!(bad.len(), 16);
            assert!(f64_from_hex(bad).is_err(), "accepted {bad:?}");
            let pair = |v: &str, w: &str| format!("{v}:{w}");
            for cuboid in [pair(bad, "3ff0000000000000"), pair("3ff0000000000000", bad)] {
                assert!(decode_series(&cuboid).is_err(), "accepted {cuboid:?}");
                let body = format!("age 1\ningest 5 - {cuboid}\n");
                let err = parse_update_body(&body).unwrap_err();
                assert!(err.starts_with("line 2:"), "{err}");
            }
        }
        assert_eq!(f64_from_hex("3FF0000000000000"), Ok(1.0));
    }

    /// A pair is split at byte 16 only: a colon anywhere else, or a field of
    /// another length, is an error.
    #[test]
    fn a_pair_not_split_at_byte_16_is_rejected() {
        for pair in [
            "3ff:000000000000:3ff0000000000000",
            "3ff0000000000000:3ff0:00000000000",
            "3ff:0000000000000:3ff000000000000",
            ":3ff0000000000000",
            "3ff0000000000000",
            "3ff0000000000000:",
            "3ff0000000000000:3ff00000000000000",
        ] {
            assert!(decode_series(pair).is_err(), "accepted {pair:?}");
        }
    }

    fn sample_series() -> SignatureSeries {
        SignatureSeries::new(vec![
            CuboidSignature::new(vec![
                Cuboid {
                    value: 0.123456789,
                    weight: 0.25,
                },
                Cuboid {
                    value: -3.5e-7,
                    weight: 0.75,
                },
            ]),
            CuboidSignature::new(vec![Cuboid {
                value: 42.0,
                weight: 1.0,
            }]),
        ])
    }

    #[test]
    fn series_roundtrip_is_bit_identical() {
        let s = sample_series();
        assert_eq!(decode_series(&encode_series(&s)).unwrap(), s);
        let empty = SignatureSeries::default();
        assert_eq!(encode_series(&empty), "-");
        assert_eq!(decode_series("-").unwrap(), empty);
    }

    #[test]
    fn decode_rejects_bad_input_without_panicking() {
        assert!(decode_series("nonsense").is_err());
        assert!(decode_series("zzzz:zzzz").is_err());
        // Valid hex but negative weight: bff0000000000000 = -1.0.
        let neg = format!("{}:bff0000000000000", "3ff0000000000000");
        assert!(decode_series(&neg).unwrap_err().contains("positive"));
        // Mass != 1: two cuboids of weight 1.0 each.
        let heavy = "3ff0000000000000:3ff0000000000000,3ff0000000000000:3ff0000000000000";
        assert!(decode_series(heavy).unwrap_err().contains("mass"));
    }

    #[test]
    fn update_body_roundtrip() {
        let video = CorpusVideo {
            id: VideoId(9),
            series: sample_series(),
            users: vec!["ann".into(), "bob".into()],
        };
        let body = format!(
            "# a batch\n{}\n{}\n\n{}\n{}\n",
            encode_comment(VideoId(1), "carol jones"),
            encode_comment(VideoId(2), "dave"),
            encode_ingest(&video),
            encode_age(3),
        );
        let events = parse_update_body(&body).unwrap();
        assert_eq!(events.len(), 3, "comments collapse into one batch");
        match &events[0] {
            UpdateEvent::Comments(batch) => {
                assert_eq!(batch.len(), 2);
                assert_eq!(batch[0].user, "carol jones");
                assert_eq!(batch[1].video, VideoId(2));
            }
            other => panic!("expected comments, got {other:?}"),
        }
        match &events[1] {
            UpdateEvent::Ingest(videos) => {
                assert_eq!(videos[0].id, VideoId(9));
                assert_eq!(videos[0].users, vec!["ann", "bob"]);
                assert_eq!(videos[0].series, sample_series());
            }
            other => panic!("expected ingest, got {other:?}"),
        }
        assert!(matches!(events[2], UpdateEvent::Age(3)));
    }

    #[test]
    fn event_kinds_label_distinctly() {
        let events = [
            UpdateEvent::Comments(vec![]),
            UpdateEvent::Ingest(vec![]),
            UpdateEvent::Age(1),
        ];
        let labels: Vec<&str> = events.iter().map(event_kind_label).collect();
        assert_eq!(labels, vec!["comments", "ingest", "age"]);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(event_kind_index(e), i);
        }
    }

    #[test]
    fn update_body_errors_name_the_line() {
        assert!(parse_update_body("comment 1")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_update_body("bogus 1 2")
            .unwrap_err()
            .contains("bogus"));
        assert!(parse_update_body("age x").unwrap_err().contains("line 1"));
        assert!(parse_update_body("ingest 5 - zz")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_update_body("").unwrap().is_empty());
    }

    /// A cuboid value past ±f64::MAX/4 — here 0x7fe0… ≈ 8.99e307 — would
    /// overflow the EMD sweep (`t − prev_t`) into a NaN distance, so it is a
    /// parse error naming the line, not an accepted ingest.
    #[test]
    fn ingest_values_past_a_quarter_of_f64_max_are_rejected_by_line() {
        let hostile = "7fe0000000000000:3ff0000000000000";
        let err = parse_update_body(&format!("age 1\ningest 5 u1 {hostile}"))
            .expect_err("accepted a value the EMD sweep overflows on");
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("f64::MAX/4"), "{err}");
        // Negative too, and the bound itself is still admitted.
        assert!(decode_series("ffe0000000000000:3ff0000000000000").is_err());
        let quarter = format!("{:016x}:3ff0000000000000", (f64::MAX / 4.0).to_bits());
        assert!(decode_series(&quarter).is_ok());
    }
}
