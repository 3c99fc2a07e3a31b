//! `SubgraphExtraction` (Fig. 3): sub-community discovery by repeated
//! lightest-edge deletion.
//!
//! The paper's algorithm removes the globally lightest edge until the UIG
//! falls apart into `k` connected components, allowing communities of
//! different sizes. Two implementations are provided:
//!
//! * [`extract_subcommunities_literal`] — the algorithm exactly as printed:
//!   delete the lightest edge, re-check connectivity of its endpoints,
//!   repeat. `O(E·(V+E))`; kept as the executable specification.
//! * [`extract_subcommunities`] — the fast path via the maximum-spanning-
//!   forest duality: a removal changes the component count iff the edge
//!   belongs to the maximum spanning forest built in reverse removal order,
//!   so the final partition equals the MSF with its `k − p₀` lightest edges
//!   cut. `O(E log E)`.
//!
//! Both use the same deterministic `(weight, a, b)` ascending removal order,
//! so they agree *exactly*, ties included — pinned by tests here and by the
//! property suite in `tests/`.

use crate::graph::UserInterestGraph;
use crate::user::UserId;

/// A partition of the user space into sub-communities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `assignment[user.index()]` = community index.
    assignment: Vec<usize>,
    /// Members per community, each sorted; communities ordered by smallest
    /// member id.
    communities: Vec<Vec<UserId>>,
}

impl Partition {
    /// Builds a partition from per-user community indices.
    ///
    /// # Panics
    /// Panics if `assignment` is empty or indices are not dense `0..k`.
    pub fn from_assignment(assignment: Vec<usize>) -> Self {
        assert!(!assignment.is_empty(), "empty partition");
        let k = assignment.iter().max().unwrap() + 1;
        let mut communities = vec![Vec::new(); k];
        for (i, &c) in assignment.iter().enumerate() {
            communities[c].push(UserId(i as u32));
        }
        assert!(
            communities.iter().all(|c| !c.is_empty()),
            "community indices must be dense"
        );
        // Canonical order: by smallest member; remap assignment accordingly.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&c| communities[c][0]);
        let mut remap = vec![0usize; k];
        for (new, &old) in order.iter().enumerate() {
            remap[old] = new;
        }
        let mut sorted_comms = vec![Vec::new(); k];
        for (new, &old) in order.iter().enumerate() {
            sorted_comms[new] = communities[old].clone();
        }
        let assignment = assignment.into_iter().map(|c| remap[c]).collect();
        Self {
            assignment,
            communities: sorted_comms,
        }
    }

    /// Number of communities.
    pub fn k(&self) -> usize {
        self.communities.len()
    }

    /// Number of users covered.
    pub fn num_users(&self) -> usize {
        self.assignment.len()
    }

    /// Community index of a user.
    ///
    /// # Panics
    /// Panics if the user is outside the partition's user space.
    pub fn community_of(&self, user: UserId) -> usize {
        self.assignment[user.index()]
    }

    /// Members of each community.
    pub fn communities(&self) -> &[Vec<UserId>] {
        &self.communities
    }

    /// The raw assignment vector.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Checks the partition invariant: every user in exactly one community.
    pub fn is_valid(&self) -> bool {
        let mut seen = vec![false; self.assignment.len()];
        for (c, members) in self.communities.iter().enumerate() {
            for &u in members {
                if u.index() >= seen.len() || seen[u.index()] || self.assignment[u.index()] != c {
                    return false;
                }
                seen[u.index()] = true;
            }
        }
        seen.iter().all(|&s| s)
    }
}

/// Union-find over dense indices — the one the extraction, its literal
/// oracle and the maintenance algorithm's splits all use.
#[derive(Debug, Clone)]
pub(crate) struct Dsu {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Dsu {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    pub(crate) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    pub(crate) fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        true
    }

    /// Dense set labels `0..sets`, numbered in order of each set's lowest
    /// element.
    pub(crate) fn labels(&mut self) -> Vec<usize> {
        let n = self.parent.len();
        let mut label_of_root = vec![usize::MAX; n];
        let mut next = 0;
        (0..n)
            .map(|i| {
                let r = self.find(i);
                if label_of_root[r] == usize::MAX {
                    label_of_root[r] = next;
                    next += 1;
                }
                label_of_root[r]
            })
            .collect()
    }
}

/// The maximum spanning forest of `edges` over nodes `0..n`, cut at its
/// lightest edges. Edges are `(w, a, b)` with `a < b`; Kruskal takes them in
/// `(w, a, b)` descending order — the exact reverse of Fig. 3's removal
/// order, so ties fall as in the literal algorithm — and `cuts(forest_len)`
/// of the forest's lightest edges are then left out. Returns the union-find
/// over what remains.
pub(crate) fn cut_spanning_forest(
    n: usize,
    mut edges: Vec<(u32, u32, u32)>,
    cuts: impl FnOnce(usize) -> usize,
) -> Dsu {
    edges.sort_unstable();
    let mut dsu = Dsu::new(n);
    // Built heaviest first, so the lightest forest edges are its tail.
    let mut forest = Vec::new();
    for &(_, a, b) in edges.iter().rev() {
        if dsu.union(a as usize, b as usize) {
            forest.push((a, b));
        }
    }
    let keep = forest.len().saturating_sub(cuts(forest.len()));
    let mut dsu = Dsu::new(n);
    for &(a, b) in &forest[..keep] {
        dsu.union(a as usize, b as usize);
    }
    dsu
}

/// Fast `SubgraphExtraction`: maximum-spanning-forest duality.
///
/// Returns a partition with `max(k, p₀)` communities capped at the user
/// count, where `p₀` is the graph's initial component count (the algorithm
/// never merges pre-existing components).
pub fn extract_subcommunities(graph: &UserInterestGraph, k: usize) -> Partition {
    assert!(k >= 1, "need at least one sub-community");
    let n = graph.num_users();
    assert!(n > 0, "empty user space");
    let target = k.min(n);

    let edges = graph.edges().map(|(a, b, w)| (w, a.0, b.0)).collect();
    // Components = nodes − forest edges; cut until `target` remain.
    let mut dsu = cut_spanning_forest(n, edges, |forest| target.saturating_sub(n - forest));
    Partition::from_assignment(dsu.labels())
}

/// The literal Fig. 3 algorithm: repeatedly delete the globally lightest
/// remaining edge; the component count grows when the deleted edge was a
/// bridge. Quadratic; use [`extract_subcommunities`] at scale.
pub fn extract_subcommunities_literal(graph: &UserInterestGraph, k: usize) -> Partition {
    assert!(k >= 1, "need at least one sub-community");
    let n = graph.num_users();
    assert!(n > 0, "empty user space");
    let target = k.min(n);

    let edges = graph.edges_sorted_ascending();
    // Line 1–2: current component count of the intact graph.
    let mut p = count_components(n, &edges);
    let mut next = 0usize;
    // Lines 3–8: remove lightest edges until p(G) reaches k.
    while p < target && next < edges.len() {
        let (a, b, _) = edges[next];
        next += 1; // edge `next-1` is now removed
        if !connected_without(n, &edges[next..], a, b) {
            p += 1;
        }
    }
    let mut dsu = Dsu::new(n);
    for &(a, b, _) in &edges[next..] {
        dsu.union(a.index(), b.index());
    }
    Partition::from_assignment(dsu.labels())
}

fn count_components(n: usize, edges: &[(UserId, UserId, u32)]) -> usize {
    let mut dsu = Dsu::new(n);
    let mut comps = n;
    for &(a, b, _) in edges {
        if dsu.union(a.index(), b.index()) {
            comps -= 1;
        }
    }
    comps
}

fn connected_without(n: usize, remaining: &[(UserId, UserId, u32)], a: UserId, b: UserId) -> bool {
    let mut dsu = Dsu::new(n);
    for &(x, y, _) in remaining {
        dsu.union(x.index(), y.index());
    }
    dsu.find(a.index()) == dsu.find(b.index())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn u(i: u32) -> UserId {
        UserId(i)
    }

    /// Fig. 2's example graph.
    fn paper_graph() -> UserInterestGraph {
        let mut g = UserInterestGraph::new(5);
        g.add_edge_weight(u(0), u(1), 2);
        g.add_edge_weight(u(0), u(3), 1);
        g.add_edge_weight(u(2), u(3), 2);
        g.add_edge_weight(u(2), u(4), 2);
        g.add_edge_weight(u(3), u(4), 2);
        g
    }

    #[test]
    fn paper_graph_splits_at_lightest_bridge() {
        // k = 2 must cut the weight-1 bridge u1–u4, giving {u1,u2} and
        // {u3,u4,u5}.
        let p = extract_subcommunities(&paper_graph(), 2);
        assert_eq!(p.k(), 2);
        assert_eq!(p.communities()[0], vec![u(0), u(1)]);
        assert_eq!(p.communities()[1], vec![u(2), u(3), u(4)]);
        assert!(p.is_valid());
    }

    #[test]
    fn k_one_keeps_connected_graph_whole() {
        let p = extract_subcommunities(&paper_graph(), 1);
        assert_eq!(p.k(), 1);
        assert_eq!(p.communities()[0].len(), 5);
    }

    #[test]
    fn k_equal_users_gives_singletons() {
        let p = extract_subcommunities(&paper_graph(), 5);
        assert_eq!(p.k(), 5);
        assert!(p.communities().iter().all(|c| c.len() == 1));
    }

    #[test]
    fn oversized_k_caps_at_user_count() {
        let p = extract_subcommunities(&paper_graph(), 50);
        assert_eq!(p.k(), 5);
    }

    #[test]
    fn preexisting_components_are_respected() {
        // Two disconnected pairs: asking for k=2 requires no edge removal.
        let mut g = UserInterestGraph::new(4);
        g.add_edge_weight(u(0), u(1), 5);
        g.add_edge_weight(u(2), u(3), 5);
        let p = extract_subcommunities(&g, 2);
        assert_eq!(p.k(), 2);
        assert_eq!(p.communities()[0], vec![u(0), u(1)]);
        // k=1 cannot merge disconnected components: still 2.
        let p1 = extract_subcommunities(&g, 1);
        assert_eq!(p1.k(), 2);
    }

    #[test]
    fn literal_and_fast_agree_on_paper_graph() {
        for k in 1..=5 {
            let fast = extract_subcommunities(&paper_graph(), k);
            let lit = extract_subcommunities_literal(&paper_graph(), k);
            assert_eq!(fast, lit, "k = {k}");
        }
    }

    #[test]
    fn literal_and_fast_agree_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(42);
        for round in 0..30 {
            let n = rng.gen_range(2..20);
            let mut g = UserInterestGraph::new(n);
            for _ in 0..rng.gen_range(0..40) {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a != b {
                    // Small weight range to force plenty of ties.
                    g.add_edge_weight(u(a), u(b), rng.gen_range(1..4));
                }
            }
            for k in [1, 2, n / 2 + 1, n] {
                let fast = extract_subcommunities(&g, k.max(1));
                let lit = extract_subcommunities_literal(&g, k.max(1));
                assert_eq!(fast, lit, "round {round}, k {k}");
                assert!(fast.is_valid());
            }
        }
    }

    #[test]
    fn partition_accessors() {
        let p = extract_subcommunities(&paper_graph(), 2);
        assert_eq!(p.num_users(), 5);
        assert_eq!(p.community_of(u(0)), p.community_of(u(1)));
        assert_ne!(p.community_of(u(0)), p.community_of(u(4)));
        assert_eq!(p.assignment().len(), 5);
    }

    #[test]
    fn isolated_users_form_singletons() {
        let mut g = UserInterestGraph::new(3);
        g.add_edge_weight(u(0), u(1), 1);
        let p = extract_subcommunities(&g, 2);
        assert_eq!(p.k(), 2);
        assert_eq!(p.communities()[1], vec![u(2)]);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_assignment_rejected() {
        Partition::from_assignment(vec![0, 2]);
    }
}
