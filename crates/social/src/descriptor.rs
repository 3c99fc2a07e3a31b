//! Social descriptors and exact social relevance (Eq. 5).
//!
//! §4.2.1: "Given a video V, its social descriptor is constructed by
//! obtaining a set including its owner user and those users commenting it."
//! The social relevance of two videos is the Jaccard coefficient of their
//! descriptors.

use crate::user::UserId;
use std::collections::BTreeSet;

/// The set of users (owner + commenters) attached to one video.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SocialDescriptor {
    users: BTreeSet<UserId>,
}

impl SocialDescriptor {
    /// Empty descriptor (a video nobody has engaged with yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Descriptor from a user collection; duplicates collapse.
    pub fn from_users(users: impl IntoIterator<Item = UserId>) -> Self {
        Self {
            users: users.into_iter().collect(),
        }
    }

    /// Adds a user (a new comment or the owner). Returns true if the user
    /// was not present before.
    pub fn insert(&mut self, user: UserId) -> bool {
        self.users.insert(user)
    }

    /// Whether `user` engaged with the video.
    pub fn contains(&self, user: UserId) -> bool {
        self.users.contains(&user)
    }

    /// Number of distinct users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the descriptor is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Iterates users in id order.
    pub fn iter(&self) -> impl Iterator<Item = UserId> + '_ {
        self.users.iter().copied()
    }

    /// Exact Jaccard relevance `sJ` to another descriptor (Eq. 5).
    pub fn jaccard(&self, other: &SocialDescriptor) -> f64 {
        social_jaccard(self, other)
    }
}

impl FromIterator<UserId> for SocialDescriptor {
    fn from_iter<T: IntoIterator<Item = UserId>>(iter: T) -> Self {
        Self::from_users(iter)
    }
}

/// `sJ(D_V, D_Q) = |D_V ∩ D_Q| / |D_V ∪ D_Q|` — Eq. 5. Two empty descriptors
/// score 0 (no shared evidence).
pub fn social_jaccard(a: &SocialDescriptor, b: &SocialDescriptor) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    // Sorted-merge intersection count over the BTreeSet iterators.
    let mut ia = a.iter();
    let mut ib = b.iter();
    let (mut xa, mut xb) = (ia.next(), ib.next());
    let mut inter = 0usize;
    while let (Some(u), Some(v)) = (xa, xb) {
        match u.cmp(&v) {
            std::cmp::Ordering::Less => xa = ia.next(),
            std::cmp::Ordering::Greater => xb = ib.next(),
            std::cmp::Ordering::Equal => {
                inter += 1;
                xa = ia.next();
                xb = ib.next();
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(ids: &[u32]) -> SocialDescriptor {
        ids.iter().map(|&i| UserId(i)).collect()
    }

    #[test]
    fn jaccard_identical_is_one() {
        let a = d(&[1, 2, 3]);
        assert_eq!(social_jaccard(&a, &a), 1.0);
    }

    #[test]
    fn jaccard_disjoint_is_zero() {
        assert_eq!(social_jaccard(&d(&[1, 2]), &d(&[3, 4])), 0.0);
    }

    #[test]
    fn jaccard_partial_overlap() {
        // {1,2,3} ∩ {2,3,4,5} = 2; union = 5.
        let s = social_jaccard(&d(&[1, 2, 3]), &d(&[2, 3, 4, 5]));
        assert!((s - 0.4).abs() < 1e-12);
    }

    #[test]
    fn jaccard_symmetric() {
        let (a, b) = (d(&[1, 5, 9]), d(&[5, 7]));
        assert_eq!(social_jaccard(&a, &b), social_jaccard(&b, &a));
    }

    #[test]
    fn empty_descriptors() {
        let e = SocialDescriptor::new();
        assert!(e.is_empty());
        assert_eq!(social_jaccard(&e, &e), 0.0);
        assert_eq!(social_jaccard(&e, &d(&[1])), 0.0);
    }

    #[test]
    fn insert_and_duplicates() {
        let mut s = SocialDescriptor::new();
        assert!(s.insert(UserId(7)));
        assert!(!s.insert(UserId(7)));
        assert_eq!(s.len(), 1);
        assert!(s.contains(UserId(7)));
        assert!(!s.contains(UserId(8)));
    }

    #[test]
    fn from_users_collapses_duplicates() {
        let s = SocialDescriptor::from_users([UserId(1), UserId(1), UserId(2)]);
        assert_eq!(s.len(), 2);
        let ids: Vec<UserId> = s.iter().collect();
        assert_eq!(ids, vec![UserId(1), UserId(2)]);
    }

    #[test]
    fn jaccard_bounds_random() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            let a: SocialDescriptor = (0..rng.gen_range(1..30))
                .map(|_| UserId(rng.gen_range(0..40)))
                .collect();
            let b: SocialDescriptor = (0..rng.gen_range(1..30))
                .map(|_| UserId(rng.gen_range(0..40)))
                .collect();
            let s = social_jaccard(&a, &b);
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
