//! Bounded top-k selection under the recommender's ranking order
//! (score descending, then `VideoId` ascending).

use crate::recommender::Scored;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Max-heap entry ordered worst-first (lowest score, then largest id), so the
/// heap root is always the eviction candidate.
pub(crate) struct WorstFirst(pub(crate) Scored);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then(self.0.video.cmp(&other.0.video))
    }
}

/// Inserts into a `k`-bounded worst-first heap: grow while short of `k`, then
/// replace the root only for a *strictly* better entry under the ranking
/// order (WorstFirst inverts it).
// viderec-lint: allow(serve-no-panic) — callers guard `top_k == 0`
// at every entry point, so `k >= 1` and the peek branch implies a
// non-empty heap.
pub(crate) fn push_top_k(heap: &mut BinaryHeap<WorstFirst>, entry: WorstFirst, k: usize) {
    if heap.len() < k {
        heap.push(entry);
    } else if entry < *heap.peek().expect("heap is full") {
        heap.pop();
        heap.push(entry);
    }
}

/// An empty `top_k`-bounded heap for a scan over `candidates` videos: it
/// never holds more than either, and `top_k` is whatever the caller asked
/// for — `usize::MAX` must not become an allocation.
pub(crate) fn top_k_heap(top_k: usize, candidates: usize) -> BinaryHeap<WorstFirst> {
    BinaryHeap::with_capacity(top_k.min(candidates).saturating_add(1))
}

/// The pruning floor of a `k`-bounded heap: its k-th best score once it holds
/// `k` entries, `None` while it is short (nothing can be pruned yet).
pub(crate) fn floor_of(heap: &BinaryHeap<WorstFirst>, k: usize) -> Option<f64> {
    heap.peek().filter(|_| heap.len() == k).map(|w| w.0.score)
}

/// Sorts a result list into the ranking order the recommender returns.
pub(crate) fn sort_ranked(scored: &mut [Scored]) {
    scored.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.video.cmp(&b.video)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use viderec_video::VideoId;

    #[test]
    fn worst_first_orders_by_score_then_id() {
        let better = WorstFirst(Scored {
            video: VideoId(9),
            score: 0.8,
        });
        let worse = WorstFirst(Scored {
            video: VideoId(1),
            score: 0.2,
        });
        assert!(better < worse);
        let tie_low_id = WorstFirst(Scored {
            video: VideoId(1),
            score: 0.5,
        });
        let tie_high_id = WorstFirst(Scored {
            video: VideoId(2),
            score: 0.5,
        });
        assert!(tie_low_id < tie_high_id);
    }

    #[test]
    fn bounded_heap_keeps_the_k_best() {
        let mut heap = BinaryHeap::new();
        for (id, score) in [(0u64, 0.3), (1, 0.9), (2, 0.1), (3, 0.9), (4, 0.5)] {
            push_top_k(
                &mut heap,
                WorstFirst(Scored {
                    video: VideoId(id),
                    score,
                }),
                3,
            );
        }
        let mut out: Vec<Scored> = heap.into_iter().map(|e| e.0).collect();
        sort_ranked(&mut out);
        let ids: Vec<u64> = out.iter().map(|s| s.video.0).collect();
        assert_eq!(ids, vec![1, 3, 4], "ties break by ascending id");
    }
}
