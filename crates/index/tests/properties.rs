//! Property tests for the index substrates: B⁺-tree model equivalence,
//! Z-order roundtrips, chained-hash model equivalence, LSB sanity.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use viderec_index::zorder::zorder_decode;
use viderec_index::{common_prefix_len, zorder_encode, BPlusTree, ChainedHashTable};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The B⁺-tree matches a map-of-sets model under random inserts, for
    /// each insert's verdict, the counts and full ordered iteration, and
    /// keeps its invariants.
    #[test]
    fn btree_matches_model(entries in prop::collection::vec((0..500u128, 0..100u32), 0..300)) {
        let mut ours = BPlusTree::new();
        let mut model: BTreeMap<u128, BTreeSet<u32>> = Default::default();
        for &(k, v) in &entries {
            prop_assert_eq!(ours.insert(k, v), model.entry(k).or_default().insert(v));
        }
        ours.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(ours.len(), model.values().map(BTreeSet::len).sum::<usize>());
        prop_assert_eq!(ours.distinct_keys(), model.len());
        let flat: Vec<(u128, Vec<u32>)> = ours.iter().map(|(k, vs)| (k, vs.to_vec())).collect();
        let expect: Vec<(u128, Vec<u32>)> = model
            .iter()
            .map(|(&k, vs)| (k, vs.iter().copied().collect()))
            .collect();
        prop_assert_eq!(flat, expect);
    }

    /// Forward and backward cursors from a random key agree with the model's
    /// range views.
    #[test]
    fn btree_cursors_match_model(
        keys in prop::collection::vec(0..200u128, 1..120),
        probe in 0..200u128,
    ) {
        let mut ours = BPlusTree::new();
        let mut model: BTreeMap<u128, BTreeSet<()>> = Default::default();
        for &k in &keys {
            prop_assert_eq!(ours.insert(k, ()), model.entry(k).or_default().insert(()));
        }
        let model: BTreeSet<u128> = model.into_keys().collect();
        let mut fwd = ours.cursor_forward(probe);
        let expected_fwd: Vec<u128> = model.range(probe..).copied().collect();
        let got_fwd: Vec<u128> =
            std::iter::from_fn(|| fwd.next().map(|(k, _)| k)).collect();
        prop_assert_eq!(got_fwd, expected_fwd);

        let mut bwd = ours.cursor_backward(probe);
        let expected_bwd: Vec<u128> = model.range(..probe).rev().copied().collect();
        let got_bwd: Vec<u128> =
            std::iter::from_fn(|| bwd.next().map(|(k, _)| k)).collect();
        prop_assert_eq!(got_bwd, expected_bwd);
    }

    /// Z-order encoding roundtrips and its prefix length is monotone under
    /// coordinate agreement.
    #[test]
    fn zorder_roundtrip(dims in 1..8usize, seed in 0..u64::MAX) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = rng.gen_range(1..=(128 / dims as u32).min(16));
        let coords: Vec<u64> = (0..dims).map(|_| rng.gen_range(0..(1u64 << bits))).collect();
        let z = zorder_encode(&coords, bits);
        prop_assert_eq!(zorder_decode(z, dims, bits), coords.clone());
        // Identical coords → full prefix.
        let total = dims as u32 * bits;
        prop_assert_eq!(common_prefix_len(z, z, total), total);
    }

    /// Chained hash table matches a HashMap model under a random op script.
    #[test]
    fn chained_matches_model(ops in prop::collection::vec((0..3u8, 0..40u32, 0..100u32), 0..200)) {
        let mut ours: ChainedHashTable<u32> = ChainedHashTable::new(16);
        let mut model: std::collections::HashMap<String, u32> = Default::default();
        for &(op, key, val) in &ops {
            let key = format!("user{key}");
            match op {
                0 => {
                    prop_assert_eq!(ours.insert(&key, val), model.insert(key, val));
                }
                1 => {
                    prop_assert_eq!(ours.get(&key), model.get(&key));
                }
                _ => {
                    prop_assert_eq!(ours.remove(&key), model.remove(&key));
                }
            }
            prop_assert_eq!(ours.len(), model.len());
        }
        // Final full-content agreement.
        let mut got: Vec<(String, u32)> =
            ours.iter().map(|(k, &v)| (k.to_owned(), v)).collect();
        let mut expect: Vec<(String, u32)> = model.into_iter().collect();
        got.sort();
        expect.sort();
        prop_assert_eq!(got, expect);
    }
}
