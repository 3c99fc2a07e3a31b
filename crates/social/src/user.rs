//! Interned social user identities.
//!
//! Users appear in the system under their registered names (§4.2.3 hashes
//! user *names* with the shift-add-xor family), but every hot path works on
//! dense integer ids. [`UserRegistry`] interns names to dense [`UserId`]s and
//! keeps the reverse mapping. Each name is stored once, as an `Arc<str>`
//! both directions share.

use std::collections::HashMap;
use std::sync::Arc;

/// Dense identifier of a registered social user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UserId(pub u32);

impl UserId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Bidirectional interner between user names and dense [`UserId`]s.
#[derive(Debug, Clone, Default)]
pub struct UserRegistry {
    by_name: HashMap<Arc<str>, UserId>,
    names: Vec<Arc<str>>,
}

impl UserRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, name: &str) -> UserId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = UserId(self.names.len() as u32);
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.by_name.insert(name, id);
        id
    }

    /// Looks up an existing user by name.
    pub fn get(&self, name: &str) -> Option<UserId> {
        self.by_name.get(name).copied()
    }

    /// The name of a user.
    ///
    /// # Panics
    /// Panics if the id was not issued by this registry.
    pub fn name(&self, id: UserId) -> &str {
        &self.names[id.index()]
    }

    /// Number of registered users.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no users are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (UserId(i as u32), &**n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut r = UserRegistry::new();
        let a = r.intern("alice");
        let b = r.intern("bob");
        let a2 = r.intern("alice");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn lookup_and_reverse() {
        let mut r = UserRegistry::new();
        let id = r.intern("carol");
        assert_eq!(r.get("carol"), Some(id));
        assert_eq!(r.get("dave"), None);
        assert_eq!(r.name(id), "carol");
        assert_eq!(id.to_string(), "u0");
    }

    #[test]
    fn iter_in_id_order() {
        let mut r = UserRegistry::new();
        for n in ["x", "y", "z"] {
            r.intern(n);
        }
        let names: Vec<&str> = r.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
        assert!(!r.is_empty());
    }
}
