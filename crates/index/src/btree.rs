//! A from-scratch B⁺-tree keyed by `u128` Z-order values.
//!
//! The LSB-index of Tao et al. [28] — which §4.4 adopts verbatim — stores
//! hashed points in a B⁺-tree by Z-order key and answers KNN queries by
//! walking outward from the query position in both directions. This tree
//! therefore provides exactly that access pattern: keyed insertion, ordered
//! iteration, and bidirectional cursors from any key position via doubly
//! linked leaves.
//!
//! Duplicate Z-values are common (collisions of the LSH grid), so each key
//! maps to a *set* of values, kept ascending: inserting a pair already
//! present is a no-op, found by binary search, and a value above everything
//! in its bag — every corpus index `build` and ingest hand the forest — is a
//! push. Deletion is not needed: the content index is append-only and
//! rebuilt offline, like the paper's. So no leaf of a non-empty tree is ever
//! empty, and the cursors step between leaves without looking for one.
//!
//! Internal nodes and leaves live in separate arenas. The tree's height says
//! at which level a child index names a leaf, so no node has to be asked
//! what kind it is.

/// Maximum entries per node before splitting.
const MAX_ENTRIES: usize = 16;

#[derive(Debug, Clone)]
struct Inner {
    /// Separator keys; `children[i]` holds keys `< keys[i]`,
    /// `children[i+1]` holds keys `>= keys[i]`.
    keys: Vec<u128>,
    /// Indices one level down: into the internal arena above the lowest
    /// internal level, into the leaf arena at it.
    children: Vec<usize>,
}

#[derive(Debug, Clone)]
struct Leaf<V> {
    /// Sorted by key; keys are unique within and across leaves, and each
    /// bag is ascending without repeats.
    entries: Vec<(u128, Vec<V>)>,
    prev: Option<usize>,
    next: Option<usize>,
}

/// B⁺-tree mapping `u128` keys to ascending sets of values.
#[derive(Debug, Clone)]
pub struct BPlusTree<V> {
    inner: Vec<Inner>,
    leaves: Vec<Leaf<V>>,
    root: usize,
    /// Internal levels above the leaves: 0 while the root is a leaf.
    height: usize,
    /// Total number of stored `(key, value)` pairs (not distinct keys).
    len: usize,
    /// Number of distinct keys.
    distinct: usize,
}

impl<V> Default for BPlusTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> BPlusTree<V> {
    /// Empty tree.
    pub fn new() -> Self {
        Self {
            inner: Vec::new(),
            leaves: vec![Leaf {
                entries: Vec::new(),
                prev: None,
                next: None,
            }],
            root: 0,
            height: 0,
            len: 0,
            distinct: 0,
        }
    }

    /// Total stored `(key, value)` pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.distinct
    }

    /// Tree height (1 = root is a leaf).
    pub fn depth(&self) -> usize {
        self.height + 1
    }

    /// Descends to the leaf that would contain `key`.
    fn find_leaf(&self, key: u128) -> usize {
        let mut n = self.root;
        for _ in 0..self.height {
            let Inner { keys, children } = &self.inner[n];
            n = children[keys.partition_point(|&k| k <= key)];
        }
        n
    }

    /// Adds `value` to `key`'s set in one descent; `false`, with nothing
    /// changed, when the pair is already stored.
    pub fn insert(&mut self, key: u128, value: V) -> bool
    where
        V: Ord,
    {
        let (added, split) = self.insert_rec(self.root, self.height, key, value);
        if let Some((sep, right)) = split {
            // Root split: grow the tree by one level.
            self.inner.push(Inner {
                keys: vec![sep],
                children: vec![self.root, right],
            });
            self.root = self.inner.len() - 1;
            self.height += 1;
        }
        added
    }

    /// Recursive insert below `node`, which sits `level` internal levels
    /// above the leaves; returns whether the pair was new and, when `node`
    /// split, `(separator, new_right_node)`.
    fn insert_rec(
        &mut self,
        node: usize,
        level: usize,
        key: u128,
        value: V,
    ) -> (bool, Option<(u128, usize)>)
    where
        V: Ord,
    {
        if level == 0 {
            return self.insert_into_leaf(node, key, value);
        }
        let Inner { keys, children } = &self.inner[node];
        let idx = keys.partition_point(|&k| k <= key);
        let child = children[idx];
        let (added, split) = self.insert_rec(child, level - 1, key, value);
        let Some((sep, right)) = split else {
            return (added, None);
        };
        let Inner { keys, children } = &mut self.inner[node];
        keys.insert(idx, sep);
        children.insert(idx + 1, right);
        let full = keys.len() > MAX_ENTRIES;
        (added, full.then(|| self.split_inner(node)))
    }

    fn insert_into_leaf(
        &mut self,
        leaf: usize,
        key: u128,
        value: V,
    ) -> (bool, Option<(u128, usize)>)
    where
        V: Ord,
    {
        let entries = &mut self.leaves[leaf].entries;
        match entries.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => {
                let added = insert_into_set(&mut entries[i].1, value);
                self.len += usize::from(added);
                (added, None)
            }
            Err(i) => {
                entries.insert(i, (key, vec![value]));
                let full = entries.len() > MAX_ENTRIES;
                self.len += 1;
                self.distinct += 1;
                (true, full.then(|| self.split_leaf(leaf)))
            }
        }
    }

    fn split_leaf(&mut self, leaf: usize) -> (u128, usize) {
        let new_idx = self.leaves.len();
        let Leaf { entries, next, .. } = &mut self.leaves[leaf];
        let right_entries = entries.split_off(entries.len() / 2);
        let sep = right_entries[0].0;
        let old_next = next.replace(new_idx);
        self.leaves.push(Leaf {
            entries: right_entries,
            prev: Some(leaf),
            next: old_next,
        });
        if let Some(on) = old_next {
            self.leaves[on].prev = Some(new_idx);
        }
        (sep, new_idx)
    }

    fn split_inner(&mut self, node: usize) -> (u128, usize) {
        let new_idx = self.inner.len();
        let Inner { keys, children } = &mut self.inner[node];
        let mid = keys.len() / 2;
        let sep = keys[mid];
        let right_keys = keys.split_off(mid + 1);
        keys.pop(); // the separator moves up
        let right_children = children.split_off(mid + 1);
        self.inner.push(Inner {
            keys: right_keys,
            children: right_children,
        });
        (sep, new_idx)
    }

    /// Position of the first entry with key `>= key`; `None` past the end.
    fn lower_bound_pos(&self, key: u128) -> Option<(usize, usize)> {
        let leaf = self.find_leaf(key);
        let Leaf { entries, next, .. } = &self.leaves[leaf];
        let idx = entries.partition_point(|e| e.0 < key);
        if idx < entries.len() {
            Some((leaf, idx))
        } else {
            next.map(|n| (n, 0))
        }
    }

    /// Forward cursor from the first key `>= key`.
    pub fn cursor_forward(&self, key: u128) -> ForwardCursor<'_, V> {
        ForwardCursor {
            tree: self,
            pos: self.lower_bound_pos(key),
        }
    }

    /// Backward cursor from the last key `< key`.
    pub fn cursor_backward(&self, key: u128) -> BackwardCursor<'_, V> {
        // Start from lower bound and step left once.
        let pos = match self.lower_bound_pos(key) {
            Some(p) => self.step_left(p),
            None => self.last_pos(),
        };
        BackwardCursor { tree: self, pos }
    }

    fn step_left(&self, (leaf, idx): (usize, usize)) -> Option<(usize, usize)> {
        if idx > 0 {
            return Some((leaf, idx - 1));
        }
        let p = self.leaves[leaf].prev?;
        Some((p, self.leaves[p].entries.len() - 1))
    }

    fn step_right(&self, (leaf, idx): (usize, usize)) -> Option<(usize, usize)> {
        let Leaf { entries, next, .. } = &self.leaves[leaf];
        if idx + 1 < entries.len() {
            Some((leaf, idx + 1))
        } else {
            next.map(|n| (n, 0))
        }
    }

    /// Position of the last entry; `None` for the empty tree.
    fn last_pos(&self) -> Option<(usize, usize)> {
        let mut n = self.root;
        for _ in 0..self.height {
            n = *self.inner[n].children.last()?;
        }
        let last = self.leaves[n].entries.len().checked_sub(1)?;
        Some((n, last))
    }

    fn entry_at(&self, (leaf, idx): (usize, usize)) -> (u128, &[V]) {
        let (key, values) = &self.leaves[leaf].entries[idx];
        (*key, values.as_slice())
    }

    /// Iterates all `(key, values)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u128, &[V])> {
        let mut cursor = self.cursor_forward(0);
        std::iter::from_fn(move || cursor.next())
    }

    /// Checks structural invariants (test support): keys sorted globally,
    /// every bag ascending without repeats, no empty leaf in a non-empty
    /// tree, uniform leaf depth, separator arity.
    pub fn check_invariants(&self) -> Result<(), String>
    where
        V: Ord,
    {
        // Global ordering via iteration.
        let mut prev: Option<u128> = None;
        let mut count = 0usize;
        let mut distinct = 0usize;
        for (k, vs) in self.iter() {
            if prev.is_some_and(|p| k <= p) {
                return Err(format!("keys out of order: {prev:?} then {k}"));
            }
            if vs.is_empty() {
                return Err(format!("empty value bag at {k}"));
            }
            if vs.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("bag at {k} is not an ascending set"));
            }
            prev = Some(k);
            distinct += 1;
            count += vs.len();
        }
        if count != self.len {
            return Err(format!("len {} but iterated {count}", self.len));
        }
        if distinct != self.distinct {
            return Err(format!(
                "distinct {} but iterated {distinct}",
                self.distinct
            ));
        }
        if self.len > 0 && self.leaves.iter().any(|l| l.entries.is_empty()) {
            return Err("empty leaf in a non-empty tree".into());
        }
        // Uniform depth: every leaf is reached exactly once, at level 0.
        fn leaves_below(t: &[Inner], n: usize, level: usize) -> Result<usize, String> {
            if level == 0 {
                return Ok(1);
            }
            let Inner { keys, children } = &t[n];
            if children.len() != keys.len() + 1 {
                return Err("child/key arity mismatch".into());
            }
            children
                .iter()
                .map(|&c| leaves_below(t, c, level - 1))
                .sum()
        }
        let reached = leaves_below(&self.inner, self.root, self.height)?;
        if reached != self.leaves.len() {
            return Err(format!(
                "{reached} leaves at depth {} of {}",
                self.depth(),
                self.leaves.len()
            ));
        }
        Ok(())
    }
}

/// Inserts `value` into an ascending set; `false` when already present.
fn insert_into_set<V: Ord>(bag: &mut Vec<V>, value: V) -> bool {
    if bag.last().is_none_or(|last| *last < value) {
        bag.push(value);
        return true;
    }
    match bag.binary_search(&value) {
        Ok(_) => false,
        Err(i) => {
            bag.insert(i, value);
            true
        }
    }
}

/// Ascending cursor over `(key, values)` entries.
pub struct ForwardCursor<'a, V> {
    tree: &'a BPlusTree<V>,
    pos: Option<(usize, usize)>,
}

impl<'a, V> ForwardCursor<'a, V> {
    /// The next entry in ascending key order.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(u128, &'a [V])> {
        let pos = self.pos?;
        let entry = self.tree.entry_at(pos);
        self.pos = self.tree.step_right(pos);
        Some(entry)
    }

    /// Peeks the next key without advancing.
    pub fn peek_key(&self) -> Option<u128> {
        self.pos.map(|p| self.tree.entry_at(p).0)
    }
}

/// Descending cursor over `(key, values)` entries.
pub struct BackwardCursor<'a, V> {
    tree: &'a BPlusTree<V>,
    pos: Option<(usize, usize)>,
}

impl<'a, V> BackwardCursor<'a, V> {
    /// The next entry in descending key order.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(u128, &'a [V])> {
        let pos = self.pos?;
        let entry = self.tree.entry_at(pos);
        self.pos = self.tree.step_left(pos);
        Some(entry)
    }

    /// Peeks the next key without advancing.
    pub fn peek_key(&self) -> Option<u128> {
        self.pos.map(|p| self.tree.entry_at(p).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    fn flat<V: Clone>(t: &BPlusTree<V>) -> Vec<(u128, Vec<V>)> {
        t.iter().map(|(k, vs)| (k, vs.to_vec())).collect()
    }

    fn flat_model<V: Clone>(model: &BTreeMap<u128, BTreeSet<V>>) -> Vec<(u128, Vec<V>)> {
        model
            .iter()
            .map(|(&k, vs)| (k, vs.iter().cloned().collect()))
            .collect()
    }

    #[test]
    fn empty_tree_behaviour() {
        let t: BPlusTree<u32> = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.cursor_forward(5).peek_key(), None);
        assert_eq!(t.cursor_backward(5).peek_key(), None);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.depth(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_keeps_each_bag_a_set() {
        let mut t = BPlusTree::new();
        assert!(t.insert(10, "c"));
        assert!(t.insert(5, "b"));
        assert!(t.insert(10, "a"));
        assert!(!t.insert(10, "c"), "already stored");
        assert_eq!(t.len(), 3);
        assert_eq!(t.distinct_keys(), 2);
        assert_eq!(flat(&t), vec![(5, vec!["b"]), (10, vec!["a", "c"])]);
        assert_eq!(t.cursor_forward(7).peek_key(), Some(10));
        t.check_invariants().unwrap();
    }

    #[test]
    fn ascending_values_append_and_out_of_order_ones_slot_in() {
        let mut t = BPlusTree::new();
        for v in [1u32, 2, 3, 7, 9] {
            assert!(t.insert(42, v));
        }
        for v in [0u32, 5, 8, 3, 9] {
            t.insert(42, v);
        }
        assert_eq!(flat(&t), vec![(42, vec![0, 1, 2, 3, 5, 7, 8, 9])]);
        assert_eq!(t.len(), 8);
        t.check_invariants().unwrap();
    }

    #[test]
    fn grows_beyond_one_node_and_stays_sorted() {
        let mut t = BPlusTree::new();
        for i in (0..500u128).rev() {
            t.insert(i * 7 % 501, i as u32);
        }
        assert!(t.depth() > 1);
        t.check_invariants().unwrap();
        let keys: Vec<u128> = t.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn matches_std_btreemap_model() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut ours = BPlusTree::new();
        let mut model: BTreeMap<u128, BTreeSet<u32>> = Default::default();
        for _ in 0..2000 {
            let k = rng.gen_range(0..300u128);
            let v: u32 = rng.gen_range(0..20);
            assert_eq!(ours.insert(k, v), model.entry(k).or_default().insert(v));
        }
        ours.check_invariants().unwrap();
        assert_eq!(ours.len(), model.values().map(BTreeSet::len).sum::<usize>());
        assert_eq!(ours.distinct_keys(), model.len());
        assert_eq!(flat(&ours), flat_model(&model));
    }

    #[test]
    fn forward_cursor_from_lower_bound() {
        let mut t = BPlusTree::new();
        for k in [10u128, 20, 30, 40] {
            t.insert(k, k as u32);
        }
        let mut c = t.cursor_forward(25);
        assert_eq!(c.peek_key(), Some(30));
        assert_eq!(c.next().map(|(k, _)| k), Some(30));
        assert_eq!(c.next().map(|(k, _)| k), Some(40));
        assert!(c.next().is_none());
    }

    #[test]
    fn backward_cursor_from_position() {
        let mut t = BPlusTree::new();
        for k in [10u128, 20, 30, 40] {
            t.insert(k, ());
        }
        let mut c = t.cursor_backward(25);
        assert_eq!(c.next().map(|(k, _)| k), Some(20));
        assert_eq!(c.next().map(|(k, _)| k), Some(10));
        assert!(c.next().is_none());
        // Backward from past the end sees everything reversed.
        let mut c = t.cursor_backward(u128::MAX);
        let keys: Vec<u128> = std::iter::from_fn(|| c.next().map(|(k, _)| k)).collect();
        assert_eq!(keys, vec![40, 30, 20, 10]);
    }

    #[test]
    fn cursors_meet_in_the_middle() {
        let mut t = BPlusTree::new();
        for k in 0..100u128 {
            t.insert(k, ());
        }
        let mut f = t.cursor_forward(50);
        let mut b = t.cursor_backward(50);
        assert_eq!(f.next().map(|(k, _)| k), Some(50));
        assert_eq!(b.next().map(|(k, _)| k), Some(49));
    }

    #[test]
    fn cursors_cross_every_leaf_boundary() {
        let mut t = BPlusTree::new();
        for k in (0..400u128).rev() {
            t.insert(2 * k, ());
        }
        assert!(t.depth() > 2);
        for probe in 0..801u128 {
            let up = probe.next_multiple_of(2);
            assert_eq!(t.cursor_forward(probe).peek_key(), (up < 800).then_some(up));
            let down = probe.checked_sub(1).map(|p| p - p % 2);
            assert_eq!(t.cursor_backward(probe).peek_key(), down);
        }
    }

    #[test]
    fn cursor_on_boundary_key() {
        let mut t = BPlusTree::new();
        for k in [10u128, 20] {
            t.insert(k, ());
        }
        // Forward from an existing key includes it; backward excludes it.
        assert_eq!(t.cursor_forward(10).peek_key(), Some(10));
        assert_eq!(t.cursor_backward(10).peek_key(), None);
    }

    #[test]
    fn large_sequential_and_reverse_inserts_keep_depth_log() {
        let mut t = BPlusTree::new();
        for k in 0..5000u128 {
            t.insert(k, ());
        }
        t.check_invariants().unwrap();
        // MAX_ENTRIES=16 → depth about log_8(5000/16)+1; generous cap:
        assert!(t.depth() <= 6, "depth {}", t.depth());
    }
}
