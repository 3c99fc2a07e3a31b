//! Hand-rolled CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! The container has no registry access, so the checksum the WAL frames
//! depend on is implemented here and pinned by golden vectors — the standard
//! check value `crc32(b"123456789") == 0xCBF4_3926` guarantees we match
//! every other IEEE CRC-32 implementation bit-for-bit, which keeps log
//! segments portable across builds.
//!
//! **Slice-by-8.** The byte-at-a-time recurrence `c ← T₀[(c ⊕ b) & 0xFF] ⊕
//! (c >> 8)` is linear over GF(2), so eight steps fold into one: with
//! `Tₖ[i]` the remainder of byte `i` followed by `k` zero bytes (`Tₖ[i] =
//! (Tₖ₋₁[i] >> 8) ⊕ T₀[Tₖ₋₁[i] & 0xFF]`), the state after eight bytes
//! `b₀…b₇` is the XOR of `T₇[b₀ ⊕ c₀] ⊕ T₆[b₁ ⊕ c₁] ⊕ T₅[b₂ ⊕ c₂] ⊕ T₄[b₃ ⊕
//! c₃] ⊕ T₃[b₄] ⊕ T₂[b₅] ⊕ T₁[b₆] ⊕ T₀[b₇]` (`cⱼ` the state's little-endian
//! bytes). Eight independent lookups per word instead of a chain of eight
//! dependent ones; the tail shorter than a word takes the byte recurrence.
//! Same polynomial, same bits — the byte loop survives as the test oracle.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Streaming CRC-32 state, for checksumming a record without concatenating
/// its parts into one buffer.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state (initial remainder `0xFFFF_FFFF`).
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum, eight bytes a step.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let lo = u32::from_le_bytes([word[0], word[1], word[2], word[3]]) ^ c;
            let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final checksum (post-inverted).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time recurrence slice-by-8 replaced: the oracle.
    fn bytewise(state: u32, bytes: &[u8]) -> u32 {
        let mut c = state;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    #[test]
    fn golden_vectors() {
        // The canonical CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"segmented write-ahead log record payload";
        for split in 0..data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"comment 17 alice".to_vec();
        let want = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), want, "flip {byte}:{bit} undetected");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any length 0..4096, any start offset inside a larger buffer (so
        /// the words are unaligned), any split into two streamed updates:
        /// slice-by-8 lands on the byte loop's bits.
        #[test]
        fn slice_by_8_matches_the_byte_loop(
            data in prop::collection::vec(0..=255u8, 0..4104),
            start in 0..8usize,
            cut in 0..=4096usize,
            seed in 0..=u32::MAX,
        ) {
            let bytes = &data[start.min(data.len())..];
            let cut = cut.min(bytes.len());
            let mut c = Crc32 { state: seed };
            c.update(&bytes[..cut]);
            c.update(&bytes[cut..]);
            prop_assert_eq!(c.state, bytewise(seed, bytes));
            prop_assert_eq!(crc32(bytes), bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF);
        }
    }
}
