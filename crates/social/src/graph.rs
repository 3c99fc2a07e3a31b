//! The user interest graph (UIG).
//!
//! §4.2.2: nodes are the social users of a collection; "the weight of an edge
//! linking two users denotes the number of common interested videos shared by
//! them". A build counts the (video → engaged users) records in one pass
//! ([`UserInterestGraph::from_videos`]); the maintenance algorithm of Fig. 5
//! then keeps extending the graph edge by edge with new comment connections.
//!
//! Each user owns its neighbour list, ascending by id, and every edge is
//! stored at both ends: a lookup or an update is a binary search of one list,
//! and the maintenance algorithm reads a community's intra edges off its
//! members' lists — their degrees, not |E|.

use crate::user::UserId;

/// Weighted undirected user interest graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserInterestGraph {
    /// `adj[u]`: `u`'s neighbours ascending by id, each with the edge weight
    /// (always ≥ 1). Ids `0..adj.len()` are the valid nodes; isolated users
    /// are legitimate singleton components.
    adj: Vec<Vec<(UserId, u32)>>,
    /// Number of edges (each is stored twice in `adj`).
    num_edges: usize,
}

/// Adds `w` to `v`'s entry in the ascending list, inserting it if absent.
/// Returns the entry's new weight and whether the entry is new.
fn bump(list: &mut Vec<(UserId, u32)>, v: UserId, w: u32) -> (u32, bool) {
    match list.binary_search_by_key(&v, |&(n, _)| n) {
        Ok(i) => {
            list[i].1 += w;
            (list[i].1, false)
        }
        Err(i) => {
            list.insert(i, (v, w));
            (w, true)
        }
    }
}

impl UserInterestGraph {
    /// Empty graph over `num_users` user slots.
    pub fn new(num_users: usize) -> Self {
        Self {
            adj: vec![Vec::new(); num_users],
            num_edges: 0,
        }
    }

    /// The graph over `num_users` user slots of every video in `lists`, each
    /// list a video's engaged users, distinct: what [`Self::new`] followed by
    /// one [`Self::add_video`] per list makes, built in one counting pass.
    /// Each user's `n − 1` co-engaged ends of every list of `n` are counted,
    /// laid out by prefix offsets in one flat buffer, then each user's slice
    /// is sorted and run-length encoded into an exactly sized neighbour list.
    ///
    /// # Panics
    /// Panics if a user is outside `0..num_users`.
    pub fn from_videos(num_users: usize, lists: &[impl AsRef<[UserId]>]) -> Self {
        let mut offsets = vec![0usize; num_users + 1];
        for users in lists {
            let users = users.as_ref();
            for user in users {
                offsets[user.index() + 1] += users.len() - 1;
            }
        }
        for u in 0..num_users {
            offsets[u + 1] += offsets[u];
        }
        let mut ends = vec![UserId(0); offsets[num_users]];
        let mut next = offsets.clone();
        for users in lists {
            let users = users.as_ref();
            for &a in users {
                for &b in users {
                    if a != b {
                        ends[next[a.index()]] = b;
                        next[a.index()] += 1;
                    }
                }
            }
        }
        // A repeated user fills fewer ends than it was counted for.
        debug_assert!(
            next[..num_users] == offsets[1..],
            "a video's users must be distinct"
        );
        let mut num_ends = 0;
        let adj = offsets
            .windows(2)
            .map(|span| {
                let slice = &mut ends[span[0]..span[1]];
                slice.sort_unstable();
                let distinct = 1 + slice.windows(2).filter(|w| w[0] != w[1]).count();
                let mut list = Vec::with_capacity(if slice.is_empty() { 0 } else { distinct });
                for &b in slice.iter() {
                    match list.last_mut() {
                        Some((n, w)) if *n == b => *w += 1,
                        _ => list.push((b, 1)),
                    }
                }
                num_ends += list.len();
                list
            })
            .collect();
        Self {
            adj,
            num_edges: num_ends / 2,
        }
    }

    /// Registers one video's engaged users: all pairs gain +1.
    pub fn add_video(&mut self, users: &[UserId]) {
        for (i, &a) in users.iter().enumerate() {
            debug_assert!(a.index() < self.num_users(), "user {a} out of range");
            for &b in &users[i + 1..] {
                if a != b {
                    self.add_edge_weight(a, b, 1);
                }
            }
        }
    }

    /// Adds `w` to the weight of edge `(a, b)` (creating it if absent) and
    /// returns the edge's new weight.
    ///
    /// # Panics
    /// On a self-loop, an endpoint out of range, or `w == 0`: a stored
    /// weight is never 0, which is what lets a search for the lightest edge
    /// stop at the first weight 1.
    pub fn add_edge_weight(&mut self, a: UserId, b: UserId, w: u32) -> u32 {
        assert!(a != b, "self-loops are not part of the UIG");
        assert!(w > 0, "zero-weight edges are not part of the UIG");
        assert!(
            a.index() < self.num_users() && b.index() < self.num_users(),
            "edge endpoint out of range"
        );
        let (weight, new) = bump(&mut self.adj[a.index()], b, w);
        self.num_edges += usize::from(new);
        bump(&mut self.adj[b.index()], a, w);
        weight
    }

    /// Ages every connection by `amount`: weights decrease, edges reaching
    /// zero disappear (§4.2.4: "as the interests of people may change over
    /// time … existing user connections may become invalid"). Returns the
    /// number of edges removed.
    pub fn decay_all(&mut self, amount: u32) -> usize {
        let before = self.num_edges;
        let mut ends = 0;
        for list in &mut self.adj {
            list.retain_mut(|(_, w)| {
                *w = w.saturating_sub(amount);
                *w > 0
            });
            ends += list.len();
        }
        self.num_edges = ends / 2;
        before - self.num_edges
    }

    /// Grows the node slot count (new users joined the community).
    pub fn grow_users(&mut self, num_users: usize) {
        assert!(
            num_users >= self.num_users(),
            "cannot shrink the user space"
        );
        self.adj.resize_with(num_users, Vec::new);
    }

    /// Number of user slots.
    pub fn num_users(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Weight of edge `(a, b)`, 0 if absent.
    pub fn weight(&self, a: UserId, b: UserId) -> u32 {
        let Some(list) = self.adj.get(a.index()) else {
            return 0;
        };
        list.binary_search_by_key(&b, |&(n, _)| n)
            .map_or(0, |i| list[i].1)
    }

    /// `u`'s neighbours ascending by id, each with the edge weight.
    ///
    /// # Panics
    /// Panics if `u` is outside the user space.
    pub fn neighbours(&self, u: UserId) -> &[(UserId, u32)] {
        &self.adj[u.index()]
    }

    /// Iterates `(a, b, weight)` over all edges, each once with `a < b`,
    /// ascending by `(a, b)`.
    pub fn edges(&self) -> impl Iterator<Item = (UserId, UserId, u32)> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, list)| {
            let a = UserId(a as u32);
            let above = list.partition_point(|&(b, _)| b < a);
            list[above..].iter().map(move |&(b, w)| (a, b, w))
        })
    }

    /// All edges sorted by `(weight, a, b)` ascending — the deterministic
    /// removal order of the extraction algorithms.
    pub fn edges_sorted_ascending(&self) -> Vec<(UserId, UserId, u32)> {
        let mut v: Vec<_> = self.edges().collect();
        v.sort_by_key(|&(a, b, w)| (w, a, b));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId(i)
    }

    /// The engaged users of Fig. 2's 8 videos.
    fn paper_videos() -> Vec<Vec<UserId>> {
        // (u1,<V1,V3,V8>) (u2,<V3,V8>) (u3,<V2,V4,V5>) (u4,<V1,V4,V5>)
        // (u5,<V4,V5,V6,V7>)  — users 0-indexed here.
        vec![
            vec![u(0), u(3)],       // V1: u1, u4
            vec![u(2)],             // V2: u3
            vec![u(0), u(1)],       // V3: u1, u2
            vec![u(2), u(3), u(4)], // V4: u3, u4, u5
            vec![u(2), u(3), u(4)], // V5
            vec![u(4)],             // V6
            vec![u(4)],             // V7
            vec![u(0), u(1)],       // V8: u1, u2
        ]
    }

    /// The running example of Fig. 2: 8 videos, 5 users.
    pub(crate) fn paper_example() -> UserInterestGraph {
        let mut g = UserInterestGraph::new(5);
        for users in &paper_videos() {
            g.add_video(users);
        }
        g
    }

    #[test]
    fn paper_example_weights_match_figure_2() {
        let g = paper_example();
        assert_eq!(g.weight(u(0), u(1)), 2); // u1–u2 share V3, V8
        assert_eq!(g.weight(u(0), u(3)), 1); // u1–u4 share V1
        assert_eq!(g.weight(u(2), u(3)), 2); // u3–u4 share V4, V5
        assert_eq!(g.weight(u(2), u(4)), 2); // u3–u5 share V4, V5
        assert_eq!(g.weight(u(3), u(4)), 2); // u4–u5 share V4, V5
        assert_eq!(g.weight(u(1), u(4)), 0);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn the_counting_build_is_the_pairwise_one() {
        let lists = [vec![u(0), u(3)], vec![], vec![u(4), u(2), u(3)], vec![u(1)]];
        let mut pairwise = UserInterestGraph::new(6);
        for users in &lists {
            pairwise.add_video(users);
        }
        let counted = UserInterestGraph::from_videos(6, &lists);
        assert_eq!(counted, pairwise);
        assert_eq!(counted.num_edges(), 4);
        assert!(counted.neighbours(u(5)).is_empty(), "isolated user");
        assert_eq!(
            UserInterestGraph::from_videos(5, &paper_videos()),
            paper_example()
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "distinct")]
    fn the_counting_build_refuses_a_repeated_user() {
        UserInterestGraph::from_videos(3, &[[u(0), u(1), u(0)]]);
    }

    #[test]
    fn add_video_is_pairwise() {
        let mut g = UserInterestGraph::new(3);
        g.add_video(&[u(0), u(1), u(2)]);
        assert_eq!(g.num_edges(), 3);
        g.add_video(&[u(0), u(1)]);
        assert_eq!(g.weight(u(0), u(1)), 2);
        assert_eq!(g.weight(u(0), u(2)), 1);
    }

    #[test]
    fn edges_are_listed_once_ascending_and_stored_at_both_ends() {
        let g = paper_example();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(
            e,
            vec![
                (u(0), u(1), 2),
                (u(0), u(3), 1),
                (u(2), u(3), 2),
                (u(2), u(4), 2),
                (u(3), u(4), 2),
            ]
        );
        for &(a, b, w) in &e {
            assert_eq!(g.weight(b, a), w);
        }
        assert_eq!(g.neighbours(u(3)), &[(u(0), 1), (u(2), 2), (u(4), 2)]);
    }

    #[test]
    fn sorted_edges_ascend() {
        let g = paper_example();
        let e = g.edges_sorted_ascending();
        for w in e.windows(2) {
            assert!(w[0].2 <= w[1].2);
        }
        assert_eq!(e[0].2, 1);
    }

    #[test]
    fn decay_all_ages_and_prunes() {
        let mut g = paper_example();
        let removed = g.decay_all(1);
        // The single weight-1 edge (u1–u4) disappears; weight-2 edges drop
        // to 1.
        assert_eq!(removed, 1);
        assert_eq!(g.weight(u(0), u(3)), 0);
        assert_eq!(g.weight(u(3), u(0)), 0);
        assert_eq!(g.weight(u(0), u(1)), 1);
        assert_eq!(g.decay_all(5), 4, "everything else dies");
        assert_eq!(g.num_edges(), 0);
        assert!(g.neighbours(u(4)).is_empty());
    }

    #[test]
    fn grow_users_extends_slots() {
        let mut g = UserInterestGraph::new(2);
        g.grow_users(5);
        assert_eq!(g.num_users(), 5);
        g.add_edge_weight(u(3), u(4), 2);
        assert_eq!(g.weight(u(3), u(4)), 2);
        assert!(g.neighbours(u(2)).is_empty());
        assert_eq!(g.weight(u(9), u(3)), 0, "outside the user space");
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        UserInterestGraph::new(2).add_edge_weight(u(1), u(1), 1);
    }

    #[test]
    #[should_panic(expected = "zero-weight")]
    fn zero_weight_rejected() {
        UserInterestGraph::new(2).add_edge_weight(u(0), u(1), 0);
    }
}
