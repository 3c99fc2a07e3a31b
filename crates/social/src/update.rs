//! `SocialUpdatesMaintenance` (Fig. 5): incremental sub-community upkeep
//! under new comment connections.
//!
//! Given the connections of a recent time period, the algorithm:
//!
//! 1. strengthens the UIG with the new edges; when a connection's weight
//!    exceeds `w` — the lightest intra-community edge weight of the current
//!    partition — and it crosses two sub-communities, the two are **merged**
//!    (lines 6–10) and the merged community is flagged as a later split
//!    candidate (line 11);
//! 2. while fewer than `k` sub-communities remain, the flagged (or, failing
//!    that, any splittable) community with the lightest internal edge is
//!    **split** at its weakest link (lines 14–18);
//! 3. every operation is counted so the Eq. 8 cost model can price the
//!    maintenance run, and all touched communities are reported so the owner
//!    of the inverted index and descriptor vectors can update exactly the
//!    affected dimensions (lines 9–10, 19–20).

use crate::extract::{cut_spanning_forest, extract_subcommunities, Dsu, Partition};
use crate::graph::UserInterestGraph;
use crate::user::UserId;

/// Operation counters feeding the Eq. 8 cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateCounters {
    /// User → sub-community mappings performed (`|E| · c_h` term).
    pub hash_mappings: usize,
    /// Index entries rewritten (`|g| · t₁` terms).
    pub index_updates: usize,
    /// Element checks during community partitioning (`|g| · t₃` term).
    pub partition_checks: usize,
    /// Communities whose descriptor dimensions changed (`N · t₂` pricing is
    /// completed by the caller, who knows the per-community video counts).
    pub communities_touched: usize,
}

/// What a maintenance run did.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    /// Community index pairs that merged (pre-renumbering indices).
    pub merges: Vec<(usize, usize)>,
    /// Number of split operations performed.
    pub splits: usize,
    /// Users whose community assignment changed.
    pub reassigned_users: Vec<UserId>,
    /// Operation counters for the cost model.
    pub counters: UpdateCounters,
}

/// Incrementally maintained sub-community state.
#[derive(Debug, Clone)]
pub struct SocialUpdatesMaintenance {
    graph: UserInterestGraph,
    /// Dense user → community assignment.
    assignment: Vec<usize>,
    /// Members per community, each list ascending by id (parallel to live
    /// community indices; merged-away communities become empty and are
    /// compacted on [`Self::partition`]). Ascending is what makes a member's
    /// position — its dense index inside the community — a binary search.
    members: Vec<Vec<UserId>>,
    /// Target community count `k`.
    k: usize,
}

/// The smallest of `weights`. It stops at the first 1: a stored UIG weight
/// is never 0 ([`UserInterestGraph::add_edge_weight`] rejects it and
/// [`UserInterestGraph::decay_all`] drops edges that reach it), so nothing
/// lighter can follow.
fn lightest(weights: impl Iterator<Item = u32>) -> Option<u32> {
    let mut min = None;
    for w in weights {
        if w == 1 {
            return Some(1);
        }
        min = Some(min.map_or(w, |m: u32| m.min(w)));
    }
    min
}

impl SocialUpdatesMaintenance {
    /// Bootstraps maintenance state with a fresh extraction at `k`
    /// sub-communities. A graph with no user yet gets one empty community
    /// slot, which the first admitted users join.
    pub fn new(graph: UserInterestGraph, k: usize) -> Self {
        if graph.num_users() == 0 {
            return Self {
                graph,
                assignment: Vec::new(),
                members: vec![Vec::new()],
                k,
            };
        }
        let partition = extract_subcommunities(&graph, k);
        let assignment = partition.assignment().to_vec();
        let members = partition.communities().to_vec();
        Self {
            graph,
            assignment,
            members,
            k,
        }
    }

    /// The target community count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of live (non-empty) communities.
    pub fn live_communities(&self) -> usize {
        self.members.iter().filter(|m| !m.is_empty()).count()
    }

    /// The current partition, densely renumbered.
    pub fn partition(&self) -> Partition {
        let mut remap = vec![usize::MAX; self.members.len()];
        let mut next = 0;
        for (i, m) in self.members.iter().enumerate() {
            if !m.is_empty() {
                remap[i] = next;
                next += 1;
            }
        }
        Partition::from_assignment(self.assignment.iter().map(|&c| remap[c]).collect())
    }

    /// The maintained graph.
    pub fn graph(&self) -> &UserInterestGraph {
        &self.graph
    }

    /// The *raw* user → community-slot assignment. Slot indices are stable
    /// across maintenance runs (merged-away slots go empty, splits append new
    /// slots), which is what lets descriptor vectors be updated on only their
    /// affected dimensions instead of being renumbered wholesale.
    pub fn assignment_raw(&self) -> &[usize] {
        &self.assignment
    }

    /// Number of community slots, live or empty. Descriptor vectors are
    /// dimensioned by this.
    pub fn num_slots(&self) -> usize {
        self.members.len()
    }

    /// `w` — the lightest edge weight that is *internal* to some current
    /// sub-community (Fig. 5's merge/split threshold). `None` when no
    /// community has an internal edge.
    pub fn lightest_intra_edge_weight(&self) -> Option<u32> {
        lightest(
            self.graph
                .edges()
                .filter(|&(a, b, _)| self.assignment[a.index()] == self.assignment[b.index()])
                .map(|(_, _, w)| w),
        )
    }

    /// Community `c`'s intra edges as `(w, i, j)` over member positions
    /// `i < j`, read off the members' neighbour lists: the cost is their
    /// degrees. Positions order like ids, so `(w, i, j)` order is
    /// `(w, a, b)` order.
    fn intra_edges(&self, c: usize) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        let members = &self.members[c];
        members.iter().enumerate().flat_map(move |(i, &a)| {
            self.graph
                .neighbours(a)
                .iter()
                .filter(move |&&(b, _)| a < b && self.assignment[b.index()] == c)
                // Assigned to `c` is a member of `c`: the search finds it.
                .filter_map(move |&(b, w)| {
                    let j = members.binary_search(&b).ok()?;
                    Some((w, i as u32, j as u32))
                })
        })
    }

    /// Applies one period's new connections (Fig. 5).
    ///
    /// Each `(a, b, weight)` adds `weight` to the UIG edge `a–b`. Users with
    /// ids beyond the current space are admitted first and join the community
    /// of their connection partner (a fresh registered user has no community
    /// until their first interaction).
    pub fn apply_connections(
        &mut self,
        connections: &[(UserId, UserId, u32)],
    ) -> MaintenanceReport {
        let mut report = MaintenanceReport::default();
        let w = self.lightest_intra_edge_weight().unwrap_or(u32::MAX);
        let mut split_flags: Vec<bool> = vec![false; self.members.len()];
        let mut touched: Vec<bool> = vec![false; self.members.len()];

        for &(a, b, weight) in connections {
            if a == b || weight == 0 {
                continue;
            }
            self.admit(a, b, &mut report);
            self.admit(b, a, &mut report);
            let edge_weight = self.graph.add_edge_weight(a, b, weight);
            // Lines 4–5: map both endpoints to their sub-communities.
            report.counters.hash_mappings += 2;
            let (ca, cb) = (self.assignment[a.index()], self.assignment[b.index()]);
            if edge_weight > w {
                if ca != cb {
                    // Lines 7–11: union, update index/descriptors, flag.
                    self.merge(ca, cb, &mut report, &mut touched);
                    split_flags[self.assignment[a.index()]] = true;
                } else {
                    // Lines 12–13: strong internal edge — split candidate.
                    split_flags[ca] = true;
                }
            }
        }

        // Lines 14–20: restore the community count to k by splitting.
        while self.live_communities() < self.k {
            let candidate = self
                .splittable_community(&split_flags)
                .or_else(|| self.splittable_community(&vec![true; self.members.len()]));
            let Some(c) = candidate else { break };
            self.split(c, &mut report, &mut touched);
            if c < split_flags.len() {
                split_flags[c] = false;
            }
        }

        report.counters.communities_touched = touched.iter().filter(|&&t| t).count();
        debug_assert!(self.members.iter().all(|m| m.is_sorted()));
        report
    }

    /// Ages every UIG connection by `amount` (§4.2.4: stale connections
    /// "become invalid" as interests drift) and splits any community whose
    /// induced subgraph fell apart, so communities always remain internally
    /// connected. Counterpart of [`Self::apply_connections`] for the decay
    /// direction of community dynamics.
    pub fn age_connections(&mut self, amount: u32) -> MaintenanceReport {
        let mut report = MaintenanceReport::default();
        self.graph.decay_all(amount);
        // Fragmented communities split into their connected components: the
        // component holding the first member keeps the slot, the rest move
        // to fresh slots (already connected, so not revisited).
        for c in 0..self.members.len() {
            if self.members[c].len() < 2 {
                continue;
            }
            report.counters.partition_checks += self.members[c].len();
            let mut components = self.components_of(c);
            if components.len() <= 1 {
                continue;
            }
            for comp in components.drain(1..) {
                let fresh = self.members.len();
                report.counters.index_updates += comp.len();
                for &u in &comp {
                    self.assignment[u.index()] = fresh;
                    report.reassigned_users.push(u);
                }
                self.members.push(comp);
                report.splits += 1;
            }
            self.members[c] = components.swap_remove(0);
        }
        report.counters.communities_touched = report.splits + usize::from(report.splits > 0);
        debug_assert!(self.members.iter().all(|m| m.is_sorted()));
        report
    }

    /// The connected components of community `c`'s intra-edge subgraph,
    /// each ascending, ordered by their smallest member.
    fn components_of(&self, c: usize) -> Vec<Vec<UserId>> {
        let members = &self.members[c];
        let mut dsu = Dsu::new(members.len());
        for (_, i, j) in self.intra_edges(c) {
            dsu.union(i as usize, j as usize);
        }
        let mut out: Vec<Vec<UserId>> = Vec::new();
        for (&u, label) in members.iter().zip(dsu.labels()) {
            if label == out.len() {
                out.push(Vec::new());
            }
            out[label].push(u);
        }
        out
    }

    /// Admits `user` into the community of `partner` if it is new to the
    /// system. New ids exceed every existing one, so member lists stay
    /// ascending.
    fn admit(&mut self, user: UserId, partner: UserId, report: &mut MaintenanceReport) {
        if user.index() < self.assignment.len() {
            return;
        }
        let home = if partner.index() < self.assignment.len() {
            self.assignment[partner.index()]
        } else {
            0
        };
        // Dense ids: fill any gap conservatively into community `home`.
        while self.assignment.len() <= user.index() {
            let id = UserId(self.assignment.len() as u32);
            self.assignment.push(home);
            self.members[home].push(id);
            report.reassigned_users.push(id);
            report.counters.index_updates += 1;
        }
        self.graph.grow_users(self.assignment.len());
    }

    fn merge(
        &mut self,
        ca: usize,
        cb: usize,
        report: &mut MaintenanceReport,
        touched: &mut [bool],
    ) {
        debug_assert_ne!(ca, cb);
        // Move the smaller community into the larger (fewer index updates).
        let (dst, src) = if self.members[ca].len() >= self.members[cb].len() {
            (ca, cb)
        } else {
            (cb, ca)
        };
        let moving = std::mem::take(&mut self.members[src]);
        report.counters.index_updates += moving.len();
        for &u in &moving {
            self.assignment[u.index()] = dst;
            report.reassigned_users.push(u);
        }
        self.members[dst].extend(moving);
        self.members[dst].sort_unstable();
        touched[dst] = true;
        touched[src] = true;
        report.merges.push((src, dst));
    }

    /// The split-flagged community with the lightest internal edge, if any
    /// flagged community has more than one member and at least one internal
    /// edge.
    fn splittable_community(&self, flags: &[bool]) -> Option<usize> {
        let mut best: Option<(u32, usize)> = None;
        for (c, members) in self.members.iter().enumerate() {
            if !flags.get(c).copied().unwrap_or(false) || members.len() < 2 {
                continue;
            }
            let lightest = lightest(self.intra_edges(c).map(|(w, _, _)| w));
            match (lightest, best) {
                (Some(w), None) => best = Some((w, c)),
                (Some(w), Some((bw, _))) if w < bw => best = Some((w, c)),
                _ => {}
            }
        }
        // Communities of ≥2 members with no internal edge split trivially.
        if best.is_none() {
            for (c, members) in self.members.iter().enumerate() {
                if flags.get(c).copied().unwrap_or(false) && members.len() >= 2 {
                    return Some(c);
                }
            }
        }
        best.map(|(_, c)| c)
    }

    /// Splits community `c` at its weakest link: cut the lightest edge of its
    /// maximum spanning forest — in the extraction's `(w, a, b)` order, so
    /// ties fall alike; the side holding the first member keeps index `c`,
    /// the other becomes a fresh community.
    fn split(&mut self, c: usize, report: &mut MaintenanceReport, touched: &mut Vec<bool>) {
        let members = &self.members[c];
        debug_assert!(members.len() >= 2);
        report.counters.partition_checks += members.len();
        let mut dsu = cut_spanning_forest(members.len(), self.intra_edges(c).collect(), |_| 1);
        let anchor = dsu.find(0);
        let mut keep = Vec::new();
        let mut moved = Vec::new();
        for (i, &u) in members.iter().enumerate() {
            if dsu.find(i) == anchor {
                keep.push(u);
            } else {
                moved.push(u);
            }
        }
        debug_assert!(!moved.is_empty(), "split produced no second component");
        let fresh = self.members.len();
        report.counters.index_updates += moved.len();
        for &u in &moved {
            self.assignment[u.index()] = fresh;
            report.reassigned_users.push(u);
        }
        self.members[c] = keep;
        self.members.push(moved);
        touched.push(true);
        touched[c] = true;
        report.splits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId(i)
    }

    /// Two triangles (weights 5) joined by nothing; k = 2.
    fn two_triangles() -> SocialUpdatesMaintenance {
        let mut g = UserInterestGraph::new(6);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge_weight(u(a), u(b), 5);
        }
        SocialUpdatesMaintenance::new(g, 2)
    }

    #[test]
    fn bootstrap_matches_extraction() {
        let m = two_triangles();
        let p = m.partition();
        assert_eq!(p.k(), 2);
        assert_eq!(p.communities()[0], vec![u(0), u(1), u(2)]);
        assert_eq!(m.lightest_intra_edge_weight(), Some(5));
    }

    /// No user yet: one empty slot, and the first connection admits both
    /// its users — id 0 too, which no placeholder holds — reporting each
    /// as reassigned; `k = 2` then splits them at their one edge.
    #[test]
    fn an_empty_graph_admits_its_first_users_like_any_others() {
        let mut m = SocialUpdatesMaintenance::new(UserInterestGraph::new(0), 2);
        assert_eq!((m.num_slots(), m.live_communities()), (1, 0));
        assert!(m.assignment_raw().is_empty());
        let r = m.apply_connections(&[(u(0), u(1), 1)]);
        assert_eq!(r.reassigned_users[..2], [u(0), u(1)]);
        assert_eq!(r.splits, 1);
        assert_eq!(m.graph().num_users(), 2);
        let p = m.partition();
        assert_eq!(p.k(), 2);
        assert_ne!(p.community_of(u(0)), p.community_of(u(1)));
    }

    #[test]
    fn weak_new_connection_changes_nothing() {
        let mut m = two_triangles();
        // Weight 1 ≤ w = 5: no merge.
        let r = m.apply_connections(&[(u(0), u(3), 1)]);
        assert!(r.merges.is_empty());
        assert_eq!(r.splits, 0);
        assert_eq!(m.partition().k(), 2);
        assert_eq!(r.counters.hash_mappings, 2);
    }

    #[test]
    fn strong_cross_connection_merges_then_splits_to_restore_k() {
        let mut m = two_triangles();
        // Weight 9 > w = 5 across communities: merge, then a split restores
        // k = 2.
        let r = m.apply_connections(&[(u(2), u(3), 9)]);
        assert_eq!(r.merges.len(), 1);
        assert_eq!(r.splits, 1);
        let p = m.partition();
        assert_eq!(p.k(), 2);
        assert!(p.is_valid());
        // The split cuts at the weakest link. The strong 9-edge must survive:
        // u2 and u3 stay together.
        assert_eq!(p.community_of(u(2)), p.community_of(u(3)));
    }

    #[test]
    fn new_user_is_admitted_to_partner_community() {
        let mut m = two_triangles();
        let r = m.apply_connections(&[(u(0), u(6), 1)]);
        let p = m.partition();
        assert_eq!(p.num_users(), 7);
        assert_eq!(p.community_of(u(6)), p.community_of(u(0)));
        assert!(r.reassigned_users.contains(&u(6)));
    }

    #[test]
    fn repeated_weak_connections_accumulate_into_merge() {
        let mut m = two_triangles();
        // Six +1 updates on the same cross edge: total weight 6 > 5 on the
        // sixth application.
        for _ in 0..5 {
            let r = m.apply_connections(&[(u(1), u(4), 1)]);
            assert!(r.merges.is_empty());
        }
        let r = m.apply_connections(&[(u(1), u(4), 1)]);
        assert_eq!(r.merges.len(), 1);
        assert_eq!(m.partition().k(), 2);
    }

    #[test]
    fn partition_invariant_after_many_random_updates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut m = two_triangles();
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..40 {
            let batch: Vec<(UserId, UserId, u32)> = (0..rng.gen_range(1..6))
                .map(|_| {
                    let a = rng.gen_range(0..8u32);
                    let mut b = rng.gen_range(0..8u32);
                    if a == b {
                        b = (b + 1) % 8;
                    }
                    (u(a), u(b), rng.gen_range(1..8))
                })
                .collect();
            m.apply_connections(&batch);
            let p = m.partition();
            assert!(p.is_valid());
            assert!(p.k() >= 1);
        }
    }

    #[test]
    fn counters_track_operations() {
        let mut m = two_triangles();
        let r = m.apply_connections(&[(u(2), u(3), 9)]);
        assert_eq!(r.counters.hash_mappings, 2);
        assert!(r.counters.index_updates > 0);
        assert!(r.counters.partition_checks > 0);
        assert!(r.counters.communities_touched >= 2);
    }

    #[test]
    fn aging_splits_fragmented_communities() {
        // Two triangles joined by a weight-1 bridge form ONE community at
        // k=1; aging by 1 kills the bridge, so the community must split.
        let mut g = UserInterestGraph::new(6);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge_weight(u(a), u(b), 5);
        }
        g.add_edge_weight(u(2), u(3), 1);
        let mut m = SocialUpdatesMaintenance::new(g, 1);
        assert_eq!(m.partition().k(), 1);
        let r = m.age_connections(1);
        assert_eq!(r.splits, 1);
        let p = m.partition();
        assert_eq!(p.k(), 2);
        assert!(p.is_valid());
        assert_ne!(p.community_of(u(0)), p.community_of(u(5)));
    }

    #[test]
    fn aging_below_edge_weights_is_a_noop() {
        let mut m = two_triangles();
        let r = m.age_connections(2); // all intra edges weigh 5
        assert_eq!(r.splits, 0);
        assert!(r.reassigned_users.is_empty());
        assert_eq!(m.partition().k(), 2);
        // Weights actually decayed.
        assert_eq!(m.lightest_intra_edge_weight(), Some(3));
    }

    #[test]
    fn aging_everything_away_leaves_singletons() {
        let mut m = two_triangles();
        let r = m.age_connections(10);
        assert_eq!(m.graph().num_edges(), 0);
        let p = m.partition();
        assert_eq!(p.k(), 6, "every user isolated");
        assert!(p.is_valid());
        assert!(r.splits >= 4);
    }

    #[test]
    fn two_replays_of_one_stream_number_slots_alike() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut g = UserInterestGraph::new(24);
        let mut rng = StdRng::seed_from_u64(26);
        for _ in 0..60 {
            let (a, b) = (rng.gen_range(0..24u32), rng.gen_range(0..24u32));
            if a != b {
                g.add_edge_weight(u(a), u(b), rng.gen_range(1..4));
            }
        }
        let mut one = SocialUpdatesMaintenance::new(g.clone(), 6);
        let mut two = SocialUpdatesMaintenance::new(g, 6);
        for round in 0..30 {
            let batch: Vec<(UserId, UserId, u32)> = (0..rng.gen_range(1..8))
                .map(|_| {
                    (
                        u(rng.gen_range(0..30)),
                        u(rng.gen_range(0..30)),
                        rng.gen_range(1..5),
                    )
                })
                .collect();
            one.apply_connections(&batch);
            two.apply_connections(&batch);
            if round % 3 == 2 {
                let amount = rng.gen_range(1..3);
                one.age_connections(amount);
                two.age_connections(amount);
            }
            assert_eq!(one.assignment_raw(), two.assignment_raw(), "round {round}");
            assert_eq!(one.members, two.members, "round {round}");
            assert!(one.members.iter().all(|m| m.is_sorted()), "round {round}");
        }
    }

    #[test]
    fn internal_strong_edge_flags_split_but_k_holds() {
        let mut m = two_triangles();
        // Strengthen an internal edge well above w; community count is
        // already k so no split is needed.
        let r = m.apply_connections(&[(u(0), u(1), 10)]);
        assert_eq!(r.splits, 0);
        assert_eq!(m.partition().k(), 2);
    }
}
