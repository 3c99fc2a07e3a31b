//! Property tests for the social substrate: extraction equivalence, SAR
//! soundness, maintenance invariants, and the UIG's bulk build.

use proptest::prelude::*;
use viderec_social::{
    extract_subcommunities, extract_subcommunities_literal, sar_similarity, social_jaccard,
    SocialDescriptor, SocialUpdatesMaintenance, UserDictionary, UserId, UserInterestGraph,
};

/// A random weighted graph as an edge list over `n` users.
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32, u32)>)> {
    (2..16usize).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32, 1..5u32), 0..40);
        (Just(n), edges)
    })
}

fn build_graph(n: usize, edges: &[(u32, u32, u32)]) -> UserInterestGraph {
    let mut g = UserInterestGraph::new(n);
    for &(a, b, w) in edges {
        if a != b {
            g.add_edge_weight(UserId(a), UserId(b), w);
        }
    }
    g
}

/// Videos' engaged users over `drawn` users plus up to 3 that no video
/// engages: distinct lists in draw order, with empty and one-user lists
/// common, and — when `hub` — user 0 in every list.
fn engagement_strategy() -> impl Strategy<Value = (usize, Vec<Vec<UserId>>)> {
    (1..24u32, 0..4usize, 0..2u32).prop_flat_map(|(drawn, isolated, hub)| {
        let lists = prop::collection::vec(prop::collection::vec(0..drawn, 0..7), 0..30);
        lists.prop_map(move |lists| {
            let lists = lists.into_iter().map(|draws| {
                let mut list: Vec<UserId> = Vec::new();
                let ids = (hub == 1).then_some(0).into_iter().chain(draws);
                for id in ids.map(UserId) {
                    if !list.contains(&id) {
                        list.push(id);
                    }
                }
                list
            });
            (drawn as usize + isolated, lists.collect())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The counting build equals the pair-by-pair one: the same neighbour
    /// lists and weights, the same edge count.
    #[test]
    fn the_counting_uig_build_is_the_pairwise_one((users, lists) in engagement_strategy()) {
        let mut pairwise = UserInterestGraph::new(users);
        for list in &lists {
            pairwise.add_video(list);
        }
        let counted = UserInterestGraph::from_videos(users, &lists);
        prop_assert_eq!(counted.num_edges(), pairwise.num_edges());
        prop_assert_eq!(&counted, &pairwise);
    }

    /// The fast MSF-duality extraction equals the literal Fig. 3 algorithm,
    /// ties and all.
    #[test]
    fn extraction_fast_equals_literal((n, edges) in graph_strategy(), k in 1..10usize) {
        let g = build_graph(n, &edges);
        let fast = extract_subcommunities(&g, k);
        let literal = extract_subcommunities_literal(&g, k);
        prop_assert_eq!(&fast, &literal);
        prop_assert!(fast.is_valid());
    }

    /// Requesting more communities never yields fewer, and community count
    /// never exceeds the user count.
    #[test]
    fn extraction_monotone_in_k((n, edges) in graph_strategy()) {
        let g = build_graph(n, &edges);
        let mut prev = 0;
        for k in 1..=n {
            let p = extract_subcommunities(&g, k);
            prop_assert!(p.k() >= prev);
            prop_assert!(p.k() <= n);
            prev = p.k();
        }
    }

    /// Exact Jaccard is bounded and symmetric; SAR under any dictionary
    /// upper-bounds it and coincides for singleton communities.
    #[test]
    fn sar_soundness(
        users_a in prop::collection::vec(0..30u32, 1..20),
        users_b in prop::collection::vec(0..30u32, 1..20),
        k in 1..6usize,
    ) {
        let a: SocialDescriptor = users_a.iter().map(|&u| UserId(u)).collect();
        let b: SocialDescriptor = users_b.iter().map(|&u| UserId(u)).collect();
        let exact = social_jaccard(&a, &b);
        prop_assert!((0.0..=1.0).contains(&exact));
        prop_assert!((exact - social_jaccard(&b, &a)).abs() < 1e-12);

        // Coarse dictionary: user u → community u % k.
        let assignment: Vec<usize> = {
            let mut v: Vec<usize> = (0..30).map(|u| u % k).collect();
            v.sort_unstable();
            v
        };
        let dict = UserDictionary::from_partition(
            &viderec_social::Partition::from_assignment(assignment),
        );
        // Sorting destroyed the u → u % k mapping; rebuild an order-true one:
        let dict2 = {
            let mut d = dict;
            for u in 0..30u32 {
                d.reassign(UserId(u), (u as usize) % k);
            }
            d
        };
        let approx = sar_similarity(&dict2.vectorize(&a), &dict2.vectorize(&b));
        prop_assert!(approx >= exact - 1e-12, "SAR {} < exact {}", approx, exact);

        // Singleton communities: SAR is exact.
        let singleton = UserDictionary::from_partition(
            &viderec_social::Partition::from_assignment((0..30).collect()),
        );
        let s = sar_similarity(&singleton.vectorize(&a), &singleton.vectorize(&b));
        prop_assert!((s - exact).abs() < 1e-12);
    }

    /// Maintenance keeps a valid partition under arbitrary connection
    /// batches interleaved with aging, never loses users, and after every
    /// event agrees with a brute-force reading of `edges()` and
    /// `partition()`. (That every member list stays ascending is a
    /// `debug_assert!` at the end of each event, so it runs here too.)
    #[test]
    fn maintenance_invariants(
        (n, edges) in graph_strategy(),
        steps in prop::collection::vec(
            (prop::collection::vec((0..20u32, 0..20u32, 1..6u32), 1..8), 0..3u32),
            1..6,
        ),
        k in 1..6usize,
    ) {
        let g = build_graph(n, &edges);
        let mut m = SocialUpdatesMaintenance::new(g, k);
        let users_before = m.partition().num_users();
        prop_assert!(users_before == n);
        check_against_brute_force(&m, false)?;
        for (batch, age) in &steps {
            let conns: Vec<(UserId, UserId, u32)> = batch
                .iter()
                .filter(|&&(a, b, _)| a != b)
                .map(|&(a, b, w)| (UserId(a), UserId(b), w))
                .collect();
            m.apply_connections(&conns);
            check_against_brute_force(&m, false)?;
            if *age > 0 {
                m.age_connections(*age);
                check_against_brute_force(&m, true)?;
            }
            let p = m.partition();
            prop_assert!(p.num_users() >= users_before);
            prop_assert!(p.k() >= 1);
        }
    }
}

/// The maintenance state read the slow way: the graph's edge listing, the
/// lightest intra-community edge and (after an age) each community's
/// connectivity, all from `edges()` and `partition()` alone.
fn check_against_brute_force(
    m: &SocialUpdatesMaintenance,
    after_age: bool,
) -> Result<(), TestCaseError> {
    let g = m.graph();
    let p = m.partition();
    prop_assert!(p.is_valid());
    let edges: Vec<(UserId, UserId, u32)> = g.edges().collect();
    prop_assert_eq!(edges.len(), g.num_edges());
    for pair in edges.windows(2) {
        prop_assert!(
            (pair[0].0, pair[0].1) < (pair[1].0, pair[1].1),
            "{:?}",
            pair
        );
    }
    for &(a, b, w) in &edges {
        prop_assert!(a < b && w >= 1);
        prop_assert_eq!(g.weight(a, b), w);
        prop_assert_eq!(g.weight(b, a), w);
    }
    let intra = |&&(a, b, _): &&(UserId, UserId, u32)| p.community_of(a) == p.community_of(b);
    let lightest = edges.iter().filter(intra).map(|&(_, _, w)| w).min();
    prop_assert_eq!(m.lightest_intra_edge_weight(), lightest);
    if after_age {
        // DESIGN §5: communities always remain internally connected.
        let mut root: Vec<usize> = (0..p.num_users()).collect();
        fn find(root: &[usize], mut x: usize) -> usize {
            while root[x] != x {
                x = root[x];
            }
            x
        }
        for &(a, b, _) in edges.iter().filter(intra) {
            let (ra, rb) = (find(&root, a.index()), find(&root, b.index()));
            root[ra] = rb;
        }
        for members in p.communities() {
            let r = find(&root, members[0].index());
            for &u in members {
                prop_assert_eq!(find(&root, u.index()), r, "community {:?}", members);
            }
        }
    }
    Ok(())
}
