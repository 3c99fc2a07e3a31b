//! The `k` inverted files of §4.4.
//!
//! "To quickly identify the social relevance, we use k inverted files, each
//! of which stores a sub-community id and a list of its corresponding
//! videos." A video belongs to a sub-community's list when at least one of
//! its engaged users maps to that sub-community (its descriptor vector has a
//! non-zero count there).

use viderec_video::VideoId;

/// `k` sorted posting lists: sub-community → videos.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    lists: Vec<Vec<VideoId>>,
}

impl InvertedIndex {
    /// Empty index over `k` sub-communities.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one sub-community");
        Self {
            lists: vec![Vec::new(); k],
        }
    }

    /// Number of sub-communities.
    pub fn k(&self) -> usize {
        self.lists.len()
    }

    /// Indexes a video under every sub-community with a non-zero histogram
    /// count.
    ///
    /// # Panics
    /// Panics if the vector's dimensionality differs from `k`.
    pub fn add_video(&mut self, video: VideoId, descriptor_vector: &[u32]) {
        assert_eq!(
            descriptor_vector.len(),
            self.k(),
            "vector dimensionality mismatch"
        );
        for (c, &count) in descriptor_vector.iter().enumerate() {
            if count > 0 {
                self.add_posting(c, video);
            }
        }
    }

    /// Adds one posting (idempotent).
    pub fn add_posting(&mut self, community: usize, video: VideoId) {
        let list = &mut self.lists[community];
        if let Err(pos) = list.binary_search(&video) {
            list.insert(pos, video);
        }
    }

    /// Removes one posting. Returns whether it was present.
    pub fn remove_posting(&mut self, community: usize, video: VideoId) -> bool {
        let list = &mut self.lists[community];
        if let Ok(pos) = list.binary_search(&video) {
            list.remove(pos);
            true
        } else {
            false
        }
    }

    /// The posting list of one sub-community.
    pub fn postings(&self, community: usize) -> &[VideoId] {
        &self.lists[community]
    }

    /// Social candidates for a query histogram: videos sharing at least one
    /// non-zero sub-community, ranked by the number of shared communities
    /// weighted by the query's counts (descending), ties by id. This is the
    /// `GetSocialRelevanceCandidates` + `RankRelevanceCandidates` step of
    /// Fig. 6.
    pub fn candidates(&self, query_vector: &[u32]) -> Vec<VideoId> {
        assert_eq!(
            query_vector.len(),
            self.k(),
            "vector dimensionality mismatch"
        );
        let sparse: Vec<(u32, u32)> = query_vector
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(slot, &c)| (slot as u32, c))
            .collect();
        self.candidates_topn(&sparse, usize::MAX)
    }

    /// The top-`limit` prefix of [`Self::candidates`] for a *sparse* query
    /// histogram (sorted `(slot, count)` pairs, zero slots omitted), selected
    /// with a bounded worst-first heap instead of a full sort — the
    /// `candidate_limit` truncation happens inside the index, so ranking cost
    /// is `O(P log limit)` in the touched postings `P` rather than
    /// `O(U log U)` in the number of distinct matching videos `U`.
    ///
    /// The ranking order (weighted overlap descending, then id ascending) is
    /// total, so the returned prefix is exactly `candidates(..)[..limit]`.
    ///
    /// # Panics
    /// Panics if any slot is out of range.
    pub fn candidates_topn(&self, query: &[(u32, u32)], limit: usize) -> Vec<VideoId> {
        use std::cmp::Reverse;
        if limit == 0 {
            return Vec::new();
        }
        // Gather the touched postings, then aggregate per video by sorting on
        // id — posting lists are already id-sorted, so this is a merge-style
        // pass over contiguous memory, with no hashing.
        let mut hits: Vec<(VideoId, u64)> = Vec::new();
        for &(slot, count) in query {
            assert!((slot as usize) < self.k(), "vector dimensionality mismatch");
            if count == 0 {
                continue;
            }
            hits.extend(self.lists[slot as usize].iter().map(|&v| (v, count as u64)));
        }
        hits.sort_unstable_by_key(|&(v, _)| v);
        // Worst-first bounded heap: the max element of `(Reverse(score), id)`
        // is the lowest-scored (then highest-id) entry — the one to evict.
        let mut heap: std::collections::BinaryHeap<(Reverse<u64>, VideoId)> =
            std::collections::BinaryHeap::with_capacity(limit.min(hits.len()) + 1);
        let mut i = 0;
        while i < hits.len() {
            let video = hits[i].0;
            let mut weight = 0u64;
            while i < hits.len() && hits[i].0 == video {
                weight += hits[i].1;
                i += 1;
            }
            let entry = (Reverse(weight), video);
            if heap.len() < limit {
                heap.push(entry);
            // viderec-lint: allow(serve-no-panic) — `heap.len() < limit` just
            // failed with `limit >= 1` (the zero case returned above), so the
            // heap is non-empty.
            } else if entry < *heap.peek().expect("heap is full") {
                heap.pop();
                heap.push(entry);
            }
        }
        // Ascending `(Reverse(score), id)` is exactly the ranking order.
        heap.into_sorted_vec().into_iter().map(|(_, v)| v).collect()
    }

    /// The *untruncated* union of the posting lists touched by a sparse query
    /// histogram (sorted `(slot, count)` pairs, zero slots omitted): every
    /// video sharing at least one non-zero sub-community with the query,
    /// sorted ascending by id. This is the complete sub-community membership
    /// the index-gated retrieval path gathers — unlike
    /// [`Self::candidates_topn`] nothing is ranked away, which is what makes
    /// the exactness certificate's "no shared sub-community" argument sound
    /// for every non-candidate.
    ///
    /// # Panics
    /// Panics if any slot is out of range.
    pub fn posting_union(&self, query: &[(u32, u32)]) -> Vec<VideoId> {
        let mut union: Vec<VideoId> = Vec::new();
        for &(slot, count) in query {
            assert!((slot as usize) < self.k(), "vector dimensionality mismatch");
            if count == 0 {
                continue;
            }
            union.extend_from_slice(&self.lists[slot as usize]);
        }
        union.sort_unstable();
        union.dedup();
        union
    }

    /// Moves every posting of `from` into `to` (a community merge) and
    /// clears `from`. Returns the number of postings moved.
    ///
    /// Both lists are sorted, so this is a single two-pointer merge with
    /// dedup — `O(n + m)` — rather than a binary-search insert per moved
    /// posting (`O(n·m)` worst case when the lists interleave).
    pub fn merge_communities(&mut self, from: usize, to: usize) -> usize {
        assert_ne!(from, to, "cannot merge a community into itself");
        let moving = std::mem::take(&mut self.lists[from]);
        let n = moving.len();
        if moving.is_empty() {
            return 0;
        }
        let existing = std::mem::take(&mut self.lists[to]);
        let mut merged = Vec::with_capacity(existing.len() + moving.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < existing.len() && j < moving.len() {
            match existing[i].cmp(&moving[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(existing[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(moving[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(existing[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&existing[i..]);
        merged.extend_from_slice(&moving[j..]);
        self.lists[to] = merged;
        n
    }

    /// Appends a fresh empty sub-community list (a community split) and
    /// returns its index.
    pub fn push_community(&mut self) -> usize {
        self.lists.push(Vec::new());
        self.lists.len() - 1
    }

    /// Total postings across all lists.
    pub fn total_postings(&self) -> usize {
        self.lists.iter().map(|l| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u64) -> VideoId {
        VideoId(i)
    }

    #[test]
    fn add_video_indexes_nonzero_dims() {
        let mut idx = InvertedIndex::new(3);
        idx.add_video(v(1), &[2, 0, 1]);
        idx.add_video(v(2), &[0, 3, 0]);
        assert_eq!(idx.postings(0), &[v(1)]);
        assert_eq!(idx.postings(1), &[v(2)]);
        assert_eq!(idx.postings(2), &[v(1)]);
        assert_eq!(idx.total_postings(), 3);
    }

    #[test]
    fn postings_are_sorted_and_deduped() {
        let mut idx = InvertedIndex::new(1);
        idx.add_posting(0, v(5));
        idx.add_posting(0, v(1));
        idx.add_posting(0, v(5));
        assert_eq!(idx.postings(0), &[v(1), v(5)]);
    }

    #[test]
    fn candidates_ranked_by_weighted_overlap() {
        let mut idx = InvertedIndex::new(3);
        idx.add_video(v(1), &[1, 1, 0]); // overlaps communities 0 and 1
        idx.add_video(v(2), &[1, 0, 0]); // only community 0
        idx.add_video(v(3), &[0, 0, 5]); // no overlap with the query
        let c = idx.candidates(&[2, 1, 0]);
        assert_eq!(c, vec![v(1), v(2)]);
    }

    #[test]
    fn empty_query_yields_nothing() {
        let mut idx = InvertedIndex::new(2);
        idx.add_video(v(1), &[1, 0]);
        assert!(idx.candidates(&[0, 0]).is_empty());
    }

    #[test]
    fn remove_posting_works() {
        let mut idx = InvertedIndex::new(1);
        idx.add_posting(0, v(3));
        assert!(idx.remove_posting(0, v(3)));
        assert!(!idx.remove_posting(0, v(3)));
        assert!(idx.postings(0).is_empty());
    }

    #[test]
    fn merge_and_split_communities() {
        let mut idx = InvertedIndex::new(2);
        idx.add_posting(0, v(1));
        idx.add_posting(0, v(2));
        idx.add_posting(1, v(2));
        let moved = idx.merge_communities(0, 1);
        assert_eq!(moved, 2);
        assert!(idx.postings(0).is_empty());
        assert_eq!(idx.postings(1), &[v(1), v(2)]);
        let fresh = idx.push_community();
        assert_eq!(fresh, 2);
        assert_eq!(idx.k(), 3);
    }

    #[test]
    fn merge_of_overlapping_interleaved_lists_stays_sorted_and_deduped() {
        let mut idx = InvertedIndex::new(2);
        // Interleaved ids with overlap: the worst case for per-posting
        // binary-search insertion, the easy case for the two-pointer merge.
        for i in [1u64, 3, 5, 7, 9, 11] {
            idx.add_posting(0, v(i));
        }
        for i in [2u64, 3, 4, 7, 10, 11, 12] {
            idx.add_posting(1, v(i));
        }
        let moved = idx.merge_communities(0, 1);
        assert_eq!(moved, 6);
        assert!(idx.postings(0).is_empty());
        let want: Vec<VideoId> = [1u64, 2, 3, 4, 5, 7, 9, 10, 11, 12]
            .into_iter()
            .map(v)
            .collect();
        assert_eq!(idx.postings(1), want.as_slice());
        // Merging an empty list is a no-op.
        assert_eq!(idx.merge_communities(0, 1), 0);
        assert_eq!(idx.postings(1), want.as_slice());
    }

    #[test]
    fn topn_is_the_prefix_of_the_full_ranking() {
        let mut idx = InvertedIndex::new(4);
        for i in 0..40u64 {
            let vec = [
                (i % 3 == 0) as u32 * 2,
                (i % 4 == 0) as u32,
                (i % 5 == 0) as u32 * 3,
                (i % 2 == 0) as u32,
            ];
            if vec.iter().any(|&c| c > 0) {
                idx.add_video(v(i), &vec);
            }
        }
        let query = [3u32, 0, 1, 2];
        let sparse = [(0u32, 3u32), (2, 1), (3, 2)];
        let full = idx.candidates(&query);
        for limit in [0usize, 1, 3, 7, full.len(), full.len() + 5] {
            let topn = idx.candidates_topn(&sparse, limit);
            assert_eq!(topn, full[..limit.min(full.len())], "limit={limit}");
        }
    }

    #[test]
    fn posting_union_is_the_full_membership() {
        let mut idx = InvertedIndex::new(3);
        idx.add_video(v(5), &[1, 1, 0]);
        idx.add_video(v(2), &[1, 0, 0]);
        idx.add_video(v(9), &[0, 0, 4]);
        // Query touching slots 0 and 2: everything except nothing — ids
        // sorted ascending, deduped across lists.
        assert_eq!(idx.posting_union(&[(0, 2), (2, 1)]), vec![v(2), v(5), v(9)]);
        // Zero counts and empty queries contribute nothing.
        assert_eq!(idx.posting_union(&[(1, 0)]), Vec::<VideoId>::new());
        assert!(idx.posting_union(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn posting_union_rejects_out_of_range_slots() {
        InvertedIndex::new(2).posting_union(&[(2, 1)]);
    }

    #[test]
    fn topn_ignores_explicit_zero_counts() {
        let mut idx = InvertedIndex::new(2);
        idx.add_video(v(1), &[1, 0]);
        idx.add_video(v(2), &[0, 1]);
        assert_eq!(idx.candidates_topn(&[(0, 0), (1, 1)], 10), vec![v(2)]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn topn_rejects_out_of_range_slots() {
        InvertedIndex::new(2).candidates_topn(&[(2, 1)], 5);
    }

    #[test]
    fn ties_break_by_video_id() {
        let mut idx = InvertedIndex::new(1);
        idx.add_video(v(9), &[1]);
        idx.add_video(v(2), &[1]);
        assert_eq!(idx.candidates(&[1]), vec![v(2), v(9)]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_rejected() {
        InvertedIndex::new(2).add_video(v(1), &[1]);
    }
}
