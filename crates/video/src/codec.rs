//! A small lossy block video codec.
//!
//! The paper's pipeline starts from encoded YouTube streams; mature pure-Rust
//! decoders for those formats don't exist (`repro_why`), so this codec keeps
//! the *shape* of the pipeline honest: every upload the evaluation harness
//! ingests goes through the bitstream and is decoded before signature
//! extraction, exactly like a real ingestion path.
//!
//! Format (all little-endian):
//!
//! ```text
//! magic "VRC1" | id u64 | fps f64 | width u32 | height u32 | nframes u32
//! per frame: mode u8 (0 = intra, 1 = inter) | rle-payload
//! ```
//!
//! Pixels are quantised to 6 bits (`p >> 2`). Intra frames RLE-encode the
//! quantised values; inter frames RLE-encode zig-zag deltas against the
//! previous *reconstructed* frame, so decoder drift cannot accumulate. The
//! per-pixel reconstruction error is bounded by the quantisation step:
//! `|decoded - original| <= 3`.
//!
//! The format is written and read in one place: `put_header` /
//! `read_header` and the per-frame pair `FrameEncoder` / `FrameDecoder`.
//! [`encode`] and [`decode`] loop them over a whole stream. [`transcode`]
//! round-trips **frame by frame**: it writes one frame's mode byte and
//! payload into a reused buffer and reads it straight back, with every check
//! `decode` makes, so the ingest path never holds a whole bitstream — only
//! one frame of it, plus the two codec ends' previous quantised frames.
//! `transcode(v)` equals `decode(encode(v))` frame for frame.
//!
//! `decode` trusts no header count: a pixel count that overflows `usize` is
//! a bad header, and a frame count or frame size the remaining bytes cannot
//! encode (at least 3 bytes a frame, at most 256 pixels per 2-byte run pair)
//! is `Truncated` before anything is allocated for it.

use crate::frame::Frame;
use crate::video::{Video, VideoId};

const MAGIC: &[u8; 4] = b"VRC1";

/// Header bytes after the magic: id, fps, width, height, frame count.
const HEADER_LEN: usize = 8 + 8 + 4 + 4 + 4;

/// The fewest bytes a frame takes: its mode byte and one run pair.
const MIN_FRAME_BYTES: usize = 3;

/// The longest RLE run (a run pair stores `run - 1` in one byte).
const MAX_RUN: usize = 256;

const INTRA: u8 = 0;
const INTER: u8 = 1;

/// Errors from [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream does not start with the `VRC1` magic.
    BadMagic,
    /// The stream ended before the declared payload was complete.
    Truncated,
    /// A header field is inconsistent (zero dimensions, zero frames, bad fps).
    BadHeader(&'static str),
    /// An RLE run overflows the frame's pixel count.
    RunOverflow,
    /// An unknown frame mode byte.
    BadMode(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bitstream missing VRC1 magic"),
            CodecError::Truncated => write!(f, "bitstream truncated"),
            CodecError::BadHeader(what) => write!(f, "bad header field: {what}"),
            CodecError::RunOverflow => write!(f, "RLE run overflows frame"),
            CodecError::BadMode(m) => write!(f, "unknown frame mode {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

#[inline]
fn quantize(p: u8) -> u8 {
    p >> 2
}

#[inline]
fn dequantize(q: u8) -> u8 {
    (q << 2) | 2
}

#[inline]
fn zigzag(d: i16) -> u8 {
    // Deltas of 6-bit values lie in [-63, 63]; zig-zag fits in u8.
    debug_assert!((-63..=63).contains(&d));
    ((d << 1) ^ (d >> 15)) as u8
}

#[inline]
fn unzigzag(z: u8) -> i16 {
    ((z >> 1) as i16) ^ -((z & 1) as i16)
}

/// Consumes `N` bytes from the front of `buf`.
#[inline]
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(CodecError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// Appends `symbols` as (run-1, value) byte pairs, runs greedy and capped
/// at [`MAX_RUN`].
fn put_runs(symbols: &[u8], out: &mut Vec<u8>) {
    let Some((&first, rest)) = symbols.split_first() else {
        return;
    };
    let start = out.len();
    // Room for the worst case (every run of length 1); cut back after.
    out.resize(start + 2 * symbols.len(), 0);
    let dst = &mut out[start..];
    // The run in progress is always written at `dst[w..w + 2]`; a symbol
    // that cannot extend it moves `w` on. No branch depends on the pixels:
    // on textured frames a run ends after one or two symbols, too
    // irregularly to predict, and a mispredicted branch per symbol costs
    // more than the rest of the loop.
    let (mut w, mut value, mut run) = (0, first, 1);
    dst[0] = 0;
    dst[1] = first;
    for &symbol in rest {
        let extends = (symbol == value) & (run < MAX_RUN);
        w += 2 * usize::from(!extends);
        run = std::hint::select_unpredictable(extends, run + 1, 1);
        value = symbol;
        dst[w] = (run - 1) as u8;
        dst[w + 1] = value;
    }
    out.truncate(start + w + 2);
}

/// The checked fields of a `VRC1` header.
struct Header {
    id: VideoId,
    fps: f64,
    width: usize,
    height: usize,
    nframes: usize,
    npix: usize,
}

impl Header {
    /// A decoded frame from its quantised pixels.
    fn frame(&self, q: &[u8]) -> Frame {
        Frame::from_data(
            self.width,
            self.height,
            q.iter().map(|&v| dequantize(v)).collect(),
        )
    }
}

fn put_header(video: &Video, out: &mut Vec<u8>) {
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&video.id().0.to_le_bytes());
    out.extend_from_slice(&video.fps().to_le_bytes());
    out.extend_from_slice(&(video.width() as u32).to_le_bytes());
    out.extend_from_slice(&(video.height() as u32).to_le_bytes());
    out.extend_from_slice(&(video.len() as u32).to_le_bytes());
}

fn read_header(buf: &mut &[u8]) -> Result<Header, CodecError> {
    if take::<4>(buf).ok().as_ref() != Some(MAGIC) {
        return Err(CodecError::BadMagic);
    }
    if buf.len() < HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    let id = VideoId(u64::from_le_bytes(take(buf)?));
    let fps = f64::from_le_bytes(take(buf)?);
    let width = u32::from_le_bytes(take(buf)?) as usize;
    let height = u32::from_le_bytes(take(buf)?) as usize;
    let nframes = u32::from_le_bytes(take(buf)?) as usize;
    if width == 0 || height == 0 {
        return Err(CodecError::BadHeader("dimensions"));
    }
    if nframes == 0 {
        return Err(CodecError::BadHeader("frame count"));
    }
    if !(fps.is_finite() && fps > 0.0) {
        return Err(CodecError::BadHeader("fps"));
    }
    let npix = width
        .checked_mul(height)
        .ok_or(CodecError::BadHeader("dimensions"))?;
    Ok(Header {
        id,
        fps,
        width,
        height,
        nframes,
        npix,
    })
}

/// The encoding end of the per-frame codec: it carries the previous
/// frame's quantised pixels (none before the first frame) between frames.
#[derive(Default)]
struct FrameEncoder {
    prev: Vec<u8>,
    symbols: Vec<u8>,
}

impl FrameEncoder {
    /// Appends one frame: its mode byte and RLE payload.
    fn put(&mut self, pixels: &[u8], out: &mut Vec<u8>) {
        let mode = if self.prev.is_empty() { INTRA } else { INTER };
        self.symbols.clear();
        if mode == INTRA {
            self.symbols.extend(pixels.iter().map(|&p| quantize(p)));
        } else {
            self.symbols.extend(
                pixels
                    .iter()
                    .zip(&self.prev)
                    .map(|(&p, &pre)| zigzag(quantize(p) as i16 - pre as i16)),
            );
        }
        self.prev.clear();
        self.prev.extend(pixels.iter().map(|&p| quantize(p)));
        out.push(mode);
        put_runs(&self.symbols, out);
    }
}

/// Runs up to this long are expanded by one fixed-width store.
const SHORT_RUN: usize = 16;

/// The decoding end of the per-frame codec: it carries the previous
/// reconstructed frame's quantised pixels (none before the first frame)
/// between frames.
#[derive(Default)]
struct FrameDecoder {
    prev: Vec<u8>,
    symbols: Vec<u8>,
}

impl FrameDecoder {
    /// Reads one frame of `npix` pixels — its mode byte and RLE payload, with
    /// every check [`decode`] makes — and returns its quantised pixels.
    fn read(&mut self, buf: &mut &[u8], npix: usize) -> Result<&[u8], CodecError> {
        let [mode] = take(buf)?;
        match mode {
            INTRA => {}
            INTER if !self.prev.is_empty() => {}
            INTER => return Err(CodecError::BadHeader("inter frame without reference")),
            m => return Err(CodecError::BadMode(m)),
        }
        // The fewest run pairs that cover the frame must be there before any
        // pixel is allocated for it.
        if buf.len() / 2 < npix.div_ceil(MAX_RUN) {
            return Err(CodecError::Truncated);
        }
        // Expand the runs into `symbols`, padded so that a short run is one
        // `SHORT_RUN`-wide store whatever its length: the bytes it writes
        // past its end are overwritten by the next run or lie past the frame.
        self.symbols.resize(npix + SHORT_RUN, 0);
        let src = *buf;
        let (mut at, mut r) = (0, 0);
        while at < npix {
            let Some(&[run, symbol]) = src.get(r..r + 2) else {
                return Err(CodecError::Truncated);
            };
            r += 2;
            let run = usize::from(run) + 1;
            if at + run > npix {
                return Err(CodecError::RunOverflow);
            }
            self.symbols[at..at + SHORT_RUN].fill(symbol);
            if run > SHORT_RUN {
                self.symbols[at..at + run].fill(symbol);
            }
            at += run;
        }
        *buf = &src[r..];
        let symbols = &self.symbols[..npix];
        if mode == INTRA {
            self.prev.clear();
            self.prev.extend_from_slice(symbols);
        } else {
            for (q, &z) in self.prev.iter_mut().zip(symbols) {
                *q = (*q as i16 + unzigzag(z)) as u8;
            }
        }
        Ok(&self.prev)
    }
}

/// Encodes a video into a `VRC1` bitstream.
pub fn encode(video: &Video) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + video.len() * 32);
    put_header(video, &mut out);
    let mut frames = FrameEncoder::default();
    for frame in video.frames() {
        frames.put(frame.data(), &mut out);
    }
    out
}

/// Decodes a `VRC1` bitstream back into a video.
pub fn decode(mut buf: &[u8]) -> Result<Video, CodecError> {
    let header = read_header(&mut buf)?;
    if header.nframes > buf.len() / MIN_FRAME_BYTES {
        return Err(CodecError::Truncated);
    }
    let mut frames = Vec::with_capacity(header.nframes);
    let mut decoder = FrameDecoder::default();
    for _ in 0..header.nframes {
        frames.push(header.frame(decoder.read(&mut buf, header.npix)?));
    }
    Ok(Video::new(header.id, header.fps, frames))
}

/// Round-trips a video through the codec: the "ingest" step the evaluation
/// harness applies so downstream algorithms see decoder output, not pristine
/// synthetic pixels. Equal to `decode(encode(video))`, but one frame of
/// bitstream at a time (see the module doc).
pub fn transcode(video: &Video) -> Video {
    const OWN: &str = "self-produced bitstream must decode";
    let mut bits = Vec::new();
    put_header(video, &mut bits);
    let header = read_header(&mut &bits[..]).expect(OWN);
    let (mut encoder, mut decoder) = (FrameEncoder::default(), FrameDecoder::default());
    let frames = video
        .frames()
        .iter()
        .map(|frame| {
            bits.clear();
            encoder.put(frame.data(), &mut bits);
            header.frame(decoder.read(&mut &bits[..], header.npix).expect(OWN))
        })
        .collect();
    Video::new(header.id, header.fps, frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_video(seed: u64, n: usize, w: usize, h: usize) -> Video {
        let mut rng = StdRng::seed_from_u64(seed);
        let frames = (0..n)
            .map(|_| {
                let data = (0..w * h).map(|_| rng.gen()).collect();
                Frame::from_data(w, h, data)
            })
            .collect();
        Video::new(VideoId(9), 12.5, frames)
    }

    #[test]
    fn roundtrip_preserves_metadata() {
        let v = random_video(1, 5, 8, 6);
        let d = transcode(&v);
        assert_eq!(d.id(), v.id());
        assert_eq!(d.fps(), v.fps());
        assert_eq!(d.len(), v.len());
        assert_eq!((d.width(), d.height()), (8, 6));
    }

    #[test]
    fn reconstruction_error_bounded_by_quantisation() {
        let v = random_video(2, 8, 16, 16);
        let d = transcode(&v);
        for (fo, fd) in v.frames().iter().zip(d.frames()) {
            for (&a, &b) in fo.data().iter().zip(fd.data()) {
                assert!((a as i16 - b as i16).abs() <= 3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn transcode_is_idempotent() {
        // Decoding then re-encoding must be lossless the second time:
        // dequantised values quantise back to themselves.
        let v = random_video(3, 4, 8, 8);
        let once = transcode(&v);
        let twice = transcode(&once);
        assert_eq!(once.frames(), twice.frames());
    }

    #[test]
    fn static_scenes_compress_well() {
        let v = Video::new(VideoId(1), 10.0, vec![Frame::filled(32, 32, 77); 50]);
        let bits = encode(&v);
        // 50 frames × 1024 pixels = 51200 raw bytes; static content must
        // collapse to a tiny fraction via inter-frame RLE.
        assert!(bits.len() < 1200, "compressed to {} bytes", bits.len());
        let d = decode(&bits).unwrap();
        assert_eq!(d.len(), 50);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = decode(b"NOPE....").unwrap_err();
        assert_eq!(err, CodecError::BadMagic);
    }

    #[test]
    fn truncated_stream_rejected() {
        let v = random_video(4, 3, 8, 8);
        let bits = encode(&v);
        let err = decode(&bits[..bits.len() - 5]).unwrap_err();
        assert!(matches!(
            err,
            CodecError::Truncated | CodecError::RunOverflow
        ));
    }

    /// A header with the given dimensions and frame count, then `payload`.
    fn crafted(width: u32, height: u32, nframes: u32, payload: &[u8]) -> Vec<u8> {
        let mut bits = MAGIC.to_vec();
        bits.extend_from_slice(&9u64.to_le_bytes());
        bits.extend_from_slice(&10.0f64.to_le_bytes());
        bits.extend_from_slice(&width.to_le_bytes());
        bits.extend_from_slice(&height.to_le_bytes());
        bits.extend_from_slice(&nframes.to_le_bytes());
        bits.extend_from_slice(payload);
        bits
    }

    #[test]
    fn a_frame_count_the_bytes_cannot_hold_is_truncated_before_allocating() {
        // 35 bytes claiming u32::MAX frames: trusting the count would ask
        // `Vec::with_capacity` for ~172 GB of frames, an abort.
        let bits = crafted(8, 8, u32::MAX, &[0, 63, 0]);
        assert_eq!(bits.len(), 35);
        assert_eq!(decode(&bits).unwrap_err(), CodecError::Truncated);
    }

    #[test]
    fn a_pixel_count_the_bytes_cannot_hold_is_rejected_before_allocating() {
        // u32::MAX × u32::MAX pixels: trusting it would overflow the RLE
        // buffer's capacity. On 64-bit targets the product fits `usize` and
        // the 3 payload bytes cannot cover it; on 32-bit it overflows.
        let err = decode(&crafted(u32::MAX, u32::MAX, 1, &[0, 255, 0])).unwrap_err();
        if usize::BITS >= 64 {
            assert_eq!(err, CodecError::Truncated);
        } else {
            assert_eq!(err, CodecError::BadHeader("dimensions"));
        }
    }

    #[test]
    fn inter_frame_without_reference_and_unknown_modes_are_rejected() {
        assert_eq!(
            decode(&crafted(2, 2, 1, &[INTER, 3, 0])).unwrap_err(),
            CodecError::BadHeader("inter frame without reference")
        );
        assert_eq!(
            decode(&crafted(2, 2, 1, &[7, 3, 0])).unwrap_err(),
            CodecError::BadMode(7)
        );
        assert_eq!(
            decode(&crafted(2, 2, 1, &[INTRA, 4, 0])).unwrap_err(),
            CodecError::RunOverflow
        );
    }

    #[test]
    fn error_display_is_informative() {
        assert!(CodecError::BadMode(7).to_string().contains('7'));
        assert!(CodecError::BadHeader("fps").to_string().contains("fps"));
    }

    #[test]
    fn zigzag_roundtrip() {
        for d in -63..=63i16 {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }
}
