//! Golden digests of `Community::generate`: every cuboid's bits, every
//! AFFRF feature's bits and every comment, folded into one FNV-1a hash per
//! configuration. The expected values were computed at the commit before
//! content extraction was fanned out over helper threads, from the
//! one-thread generator, so they pin that the corpus does not depend on how
//! many threads extract it or in which order their jobs finish.

use viderec_eval::community::{Community, CommunityConfig};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(v.to_bits());
        }
    }
}

fn digest(community: &Community) -> u64 {
    let mut h = Fnv::new();
    h.u64(community.videos.len() as u64);
    for v in &community.videos {
        h.u64(v.id.0);
        h.u64(v.topic as u64);
        h.u64(v.story as u64);
        h.u64(u64::from(v.derived));
        h.u64(v.series.len() as u64);
        for sig in v.series.signatures() {
            h.u64(sig.len() as u64);
            for c in sig.cuboids() {
                h.u64(c.value.to_bits());
                h.u64(c.weight.to_bits());
            }
        }
        h.f64s(&v.features.text);
        h.f64s(&v.features.visual);
        h.f64s(&v.features.aural);
    }
    h.u64(community.comments.len() as u64);
    for c in &community.comments {
        h.u64(c.video.0);
        h.bytes(c.user.as_bytes());
        h.u64(c.month as u64);
    }
    h.0
}

#[test]
fn tiny_community_matches_its_golden_digest() {
    let community = Community::generate(CommunityConfig::tiny(7));
    assert_eq!(digest(&community), 0x3f0c_faed_0085_38f0);
}

/// `reqbench`'s `dense_scan` corpus: 10 paper-hours at the default seed.
#[test]
fn dense_scan_community_matches_its_golden_digest() {
    let community = Community::generate(CommunityConfig {
        hours: 10.0,
        seed: 0xC0FFEE,
        ..Default::default()
    });
    assert_eq!(digest(&community), 0xec15_7fb0_8612_a1a5);
}
