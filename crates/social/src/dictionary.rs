//! The user dictionary and social descriptor vectorisation (§4.2.2).
//!
//! "After extracting k sub-communities by graph partition, we map the whole
//! user space into a k-dimensional sub-community space. Users in different
//! sub-communities are stored in a dictionary … a social descriptor of n
//! users can be converted into a k-dimensional vector by simply counting the
//! number of users in each sub-community."

use crate::descriptor::SocialDescriptor;
use crate::extract::Partition;
use crate::user::UserId;

/// Maps users to sub-community ids and vectorises social descriptors.
#[derive(Debug, Clone)]
pub struct UserDictionary {
    /// `community[user.index()]` — the user's sub-community.
    community: Vec<usize>,
    /// Number of sub-communities `k`.
    k: usize,
}

impl UserDictionary {
    /// Builds the dictionary from an extracted partition.
    pub fn from_partition(partition: &Partition) -> Self {
        Self {
            community: partition.assignment().to_vec(),
            k: partition.k(),
        }
    }

    /// The sub-community of a user, or `None` for users outside the
    /// dictionary (joined after the last rebuild).
    pub fn community_of(&self, user: UserId) -> Option<usize> {
        self.community.get(user.index()).copied()
    }

    /// Reassigns a user's community (maintenance merge/split updates).
    ///
    /// # Panics
    /// Panics if the user is unknown or the community out of range.
    pub fn reassign(&mut self, user: UserId, community: usize) {
        assert!(community < self.k, "community {community} out of range");
        self.community[user.index()] = community;
    }

    /// Registers a new user directly into a community.
    pub fn push_user(&mut self, community: usize) -> UserId {
        assert!(community < self.k, "community {community} out of range");
        let id = UserId(self.community.len() as u32);
        self.community.push(community);
        id
    }

    /// Grows the number of communities (splits allocate fresh ids).
    pub fn grow_k(&mut self, k: usize) {
        assert!(k >= self.k, "cannot shrink k");
        self.k = k;
    }

    /// Number of sub-communities.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of users in the dictionary.
    pub fn num_users(&self) -> usize {
        self.community.len()
    }

    /// Vectorises a social descriptor into the k-dimensional user histogram.
    /// Users unknown to the dictionary are skipped (they joined after the
    /// last rebuild and have no community yet).
    pub fn vectorize(&self, descriptor: &SocialDescriptor) -> Vec<u32> {
        let mut v = vec![0u32; self.k];
        for user in descriptor.iter() {
            if let Some(c) = self.community_of(user) {
                v[c] += 1;
            }
        }
        v
    }

    /// Increment a vector for one newly engaged user — the O(1) descriptor
    /// update path of the maintenance algorithm.
    pub fn vector_add_user(&self, vector: &mut [u32], user: UserId) {
        assert_eq!(vector.len(), self.k, "vector dimensionality mismatch");
        if let Some(c) = self.community_of(user) {
            vector[c] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_subcommunities;
    use crate::graph::UserInterestGraph;

    fn u(i: u32) -> UserId {
        UserId(i)
    }

    fn dict() -> UserDictionary {
        // Paper-example graph: communities {u0,u1} and {u2,u3,u4}.
        let mut g = UserInterestGraph::new(5);
        g.add_edge_weight(u(0), u(1), 2);
        g.add_edge_weight(u(0), u(3), 1);
        g.add_edge_weight(u(2), u(3), 2);
        g.add_edge_weight(u(2), u(4), 2);
        g.add_edge_weight(u(3), u(4), 2);
        UserDictionary::from_partition(&extract_subcommunities(&g, 2))
    }

    #[test]
    fn vectorize_counts_per_community() {
        let d = dict();
        assert_eq!(d.k(), 2);
        let desc = SocialDescriptor::from_users([u(0), u(1), u(4)]);
        assert_eq!(d.vectorize(&desc), vec![2, 1]);
    }

    #[test]
    fn unknown_users_are_skipped() {
        let d = dict();
        let desc = SocialDescriptor::from_users([u(0), u(99)]);
        assert_eq!(d.vectorize(&desc), vec![1, 0]);
        assert_eq!(d.community_of(u(99)), None);
    }

    #[test]
    fn incremental_add_matches_revectorize() {
        let d = dict();
        let mut desc = SocialDescriptor::from_users([u(2)]);
        let mut vec = d.vectorize(&desc);
        desc.insert(u(0));
        d.vector_add_user(&mut vec, u(0));
        assert_eq!(vec, d.vectorize(&desc));
    }

    #[test]
    fn reassign_and_grow() {
        let mut d = dict();
        d.grow_k(3);
        assert_eq!(d.k(), 3);
        d.reassign(u(4), 2);
        let desc = SocialDescriptor::from_users([u(3), u(4)]);
        assert_eq!(d.vectorize(&desc), vec![0, 1, 1]);
        let fresh = d.push_user(2);
        assert_eq!(d.community_of(fresh), Some(2));
        assert_eq!(d.num_users(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reassign_to_missing_community_rejected() {
        dict().reassign(u(0), 9);
    }
}
