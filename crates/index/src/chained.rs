//! The chained hash table of Fig. 4.
//!
//! "Each element of the hash table is a triad formed as `<key, cno,
//! nextptr>`, where `key` denotes the social user name, `cno` refers to the
//! sub-community id of the key, and `nextptr` is the pointer to the next
//! element having the same hash code. … The triad of the user is then
//! inserted at the head of this appropriate bucket."
//!
//! Generic over the stored value so it can also back other string → id maps;
//! the system instantiates `ChainedHashTable<usize>` for user name →
//! sub-community id.

use crate::hasher::ShiftAddXor;

/// One `<key, cno, nextptr>` triad; `next` is an index into the node arena
/// (the Rust rendering of the figure's pointer).
#[derive(Debug, Clone)]
struct Triad<V> {
    key: String,
    cno: V,
    next: Option<usize>,
}

/// Chained hash table with head insertion and shift-add-xor bucket hashing.
#[derive(Debug, Clone)]
pub struct ChainedHashTable<V> {
    hasher: ShiftAddXor,
    buckets: Vec<Option<usize>>,
    arena: Vec<Triad<V>>,
    len: usize,
}

impl<V: Clone> ChainedHashTable<V> {
    /// Table with `num_buckets` buckets and the default family member.
    pub fn new(num_buckets: usize) -> Self {
        Self::with_hasher(num_buckets, ShiftAddXor::default())
    }

    /// Table with an explicit hash family member.
    ///
    /// # Panics
    /// Panics if `num_buckets` is zero.
    pub fn with_hasher(num_buckets: usize, hasher: ShiftAddXor) -> Self {
        assert!(num_buckets > 0, "need at least one bucket");
        Self {
            hasher,
            buckets: vec![None; num_buckets],
            arena: Vec::new(),
            len: 0,
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Inserts or updates `key → cno`. New keys go to the head of their
    /// bucket, per Fig. 4. Returns the previous value if the key existed.
    pub fn insert(&mut self, key: &str, cno: V) -> Option<V> {
        let b = self.hasher.hash(key, self.buckets.len());
        // Update in place if present.
        let mut cursor = self.buckets[b];
        while let Some(i) = cursor {
            if self.arena[i].key == key {
                return Some(std::mem::replace(&mut self.arena[i].cno, cno));
            }
            cursor = self.arena[i].next;
        }
        // Head insertion.
        let node = Triad {
            key: key.to_owned(),
            cno,
            next: self.buckets[b],
        };
        self.arena.push(node);
        self.buckets[b] = Some(self.arena.len() - 1);
        self.len += 1;
        None
    }

    /// Looks up the value for `key`: hash to a bucket, then compare names
    /// along the chain (the probe the paper's complexity analysis prices as
    /// `η` string comparisons).
    pub fn get(&self, key: &str) -> Option<&V> {
        let b = self.hasher.hash(key, self.buckets.len());
        let mut cursor = self.buckets[b];
        while let Some(i) = cursor {
            if self.arena[i].key == key {
                return Some(&self.arena[i].cno);
            }
            cursor = self.arena[i].next;
        }
        None
    }

    /// Like [`Self::get`] but also reports how many string comparisons the
    /// probe made — the `η` of the §4.2.3 complexity analysis.
    pub fn get_counted(&self, key: &str) -> (Option<&V>, usize) {
        let b = self.hasher.hash(key, self.buckets.len());
        let mut cursor = self.buckets[b];
        let mut probes = 0;
        while let Some(i) = cursor {
            probes += 1;
            if self.arena[i].key == key {
                return (Some(&self.arena[i].cno), probes);
            }
            cursor = self.arena[i].next;
        }
        (None, probes)
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<V> {
        let b = self.hasher.hash(key, self.buckets.len());
        let mut prev: Option<usize> = None;
        let mut cursor = self.buckets[b];
        while let Some(i) = cursor {
            if self.arena[i].key == key {
                let next = self.arena[i].next;
                match prev {
                    None => self.buckets[b] = next,
                    Some(p) => self.arena[p].next = next,
                }
                self.len -= 1;
                // The arena slot is leaked until rebuild — acceptable for a
                // structure the maintenance algorithm rebuilds periodically.
                return Some(self.arena[i].cno.clone());
            }
            prev = Some(i);
            cursor = self.arena[i].next;
        }
        None
    }

    /// Mean chain length over non-empty buckets — the collision statistic
    /// (`η`) of the complexity analysis.
    pub fn mean_chain_length(&self) -> f64 {
        let mut chains = 0usize;
        let mut nodes = 0usize;
        for &head in &self.buckets {
            let mut cursor = head;
            let mut here = 0;
            while let Some(i) = cursor {
                here += 1;
                cursor = self.arena[i].next;
            }
            if here > 0 {
                chains += 1;
                nodes += here;
            }
        }
        if chains == 0 {
            0.0
        } else {
            nodes as f64 / chains as f64
        }
    }

    /// Iterates `(key, value)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.buckets.iter().flat_map(move |&head| {
            std::iter::successors(head, move |&i| self.arena[i].next)
                .map(move |i| (self.arena[i].key.as_str(), &self.arena[i].cno))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t: ChainedHashTable<usize> = ChainedHashTable::new(8);
        assert!(t.insert("alice", 3).is_none());
        assert!(t.insert("bob", 5).is_none());
        assert_eq!(t.get("alice"), Some(&3));
        assert_eq!(t.get("bob"), Some(&5));
        assert_eq!(t.get("carol"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn insert_updates_existing_key() {
        let mut t: ChainedHashTable<usize> = ChainedHashTable::new(4);
        t.insert("alice", 1);
        assert_eq!(t.insert("alice", 9), Some(1));
        assert_eq!(t.get("alice"), Some(&9));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn collisions_resolve_via_chains() {
        // One bucket forces every key onto one chain.
        let mut t: ChainedHashTable<u32> = ChainedHashTable::new(1);
        for i in 0..20u32 {
            t.insert(&format!("user{i}"), i);
        }
        for i in 0..20u32 {
            assert_eq!(t.get(&format!("user{i}")), Some(&i));
        }
        assert_eq!(t.mean_chain_length(), 20.0);
    }

    #[test]
    fn head_insertion_probes_recent_first() {
        let mut t: ChainedHashTable<u32> = ChainedHashTable::new(1);
        t.insert("old", 1);
        t.insert("new", 2);
        let (v, probes) = t.get_counted("new");
        assert_eq!(v, Some(&2));
        assert_eq!(probes, 1, "head-inserted key must be first in chain");
        let (_, probes_old) = t.get_counted("old");
        assert_eq!(probes_old, 2);
    }

    #[test]
    fn remove_from_head_middle_tail() {
        let mut t: ChainedHashTable<u32> = ChainedHashTable::new(1);
        for (k, v) in [("a", 1u32), ("b", 2), ("c", 3)] {
            t.insert(k, v);
        }
        assert_eq!(t.remove("b"), Some(2)); // middle
        assert_eq!(t.get("b"), None);
        assert_eq!(t.remove("c"), Some(3)); // head (inserted last)
        assert_eq!(t.remove("a"), Some(1)); // tail
        assert!(t.is_empty());
        assert_eq!(t.remove("a"), None);
    }

    #[test]
    fn mean_chain_length_tracks_deletions() {
        // One bucket: the chain statistic must follow removals exactly and
        // unlink nodes from the probe path (the arena slot may leak, the
        // chain must not).
        let mut t: ChainedHashTable<u32> = ChainedHashTable::new(1);
        for i in 0..10u32 {
            t.insert(&format!("user{i}"), i);
        }
        assert_eq!(t.mean_chain_length(), 10.0);
        for i in 0..5u32 {
            assert_eq!(t.remove(&format!("user{i}")), Some(i));
        }
        assert_eq!(t.mean_chain_length(), 5.0);
        let (_, probes) = t.get_counted("user9");
        assert!(
            probes <= 5,
            "removed nodes still on the chain: {probes} probes"
        );
        for i in 5..10u32 {
            t.remove(&format!("user{i}"));
        }
        assert_eq!(t.mean_chain_length(), 0.0, "empty table has no chains");

        // Many buckets: η shrinks as entries leave.
        let mut t: ChainedHashTable<usize> = ChainedHashTable::new(32);
        for i in 0..128 {
            t.insert(&format!("k{i}"), i);
        }
        let full = t.mean_chain_length();
        for i in 0..96 {
            t.remove(&format!("k{i}"));
        }
        assert!(t.mean_chain_length() < full);
        assert_eq!(t.len(), 32);
    }

    #[test]
    fn iter_visits_every_entry() {
        let mut t: ChainedHashTable<usize> = ChainedHashTable::new(16);
        for i in 0..50 {
            t.insert(&format!("u{i}"), i);
        }
        let mut seen: Vec<usize> = t.iter().map(|(_, &v)| v).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chains_stay_short_with_enough_buckets() {
        let mut t: ChainedHashTable<usize> = ChainedHashTable::new(256);
        for i in 0..256 {
            t.insert(&format!("user_{i}"), i);
        }
        assert!(t.mean_chain_length() < 2.5, "η = {}", t.mean_chain_length());
        assert_eq!(t.num_buckets(), 256);
    }

    #[test]
    fn model_comparison_against_std_hashmap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        let mut ours: ChainedHashTable<u64> = ChainedHashTable::new(64);
        let mut model = std::collections::HashMap::new();
        for _ in 0..500 {
            let key = format!("k{}", rng.gen_range(0..80));
            match rng.gen_range(0..3) {
                0 => {
                    let v = rng.gen();
                    assert_eq!(ours.insert(&key, v), model.insert(key, v));
                }
                1 => assert_eq!(ours.get(&key), model.get(&key)),
                _ => assert_eq!(ours.remove(&key), model.remove(&key)),
            }
            assert_eq!(ours.len(), model.len());
        }
    }
}
