//! Epoch-swapped corpus snapshots.
//!
//! The serving layer's consistency contract is simple: every query runs
//! against *some* complete corpus state — never a half-applied update. The
//! single writer applies a maintenance batch to its private master copy and
//! then publishes the next state as a fresh `Arc<T>` into a [`SnapshotCell`],
//! bumping the epoch counter.
//!
//! Readers go through a per-thread [`CachedSnapshot`]: the hot path is one
//! atomic epoch load — if the epoch matches the cached one (the common case
//! between publishes), the reader keeps using its pinned `Arc` without
//! touching any lock. Only on an epoch change does the reader take the slot
//! mutex for the few nanoseconds needed to clone the new `Arc`. The corpus
//! itself is therefore never locked: publication swaps a pointer, old
//! snapshots stay alive exactly as long as some reader still pins them, and
//! reclamation is plain `Arc` reference counting.

use super::sync::{Arc, AtomicU64, Instant, Mutex, Ordering};
use std::sync::PoisonError;

/// A published, epoch-versioned `Arc<T>` slot (single writer, many readers).
#[derive(Debug)]
pub struct SnapshotCell<T> {
    /// Epoch of the currently published snapshot. Written only while the
    /// slot mutex is held, so `epoch` and `slot` can never disagree for
    /// longer than one publication.
    epoch: AtomicU64,
    /// Construction instant; publication times are stored as offsets from
    /// it so the age gauge needs only one `AtomicU64`.
    born: Instant,
    /// Microseconds from `born` to the latest publication.
    published_at_micros: AtomicU64,
    slot: Mutex<(Arc<T>, u64)>,
}

impl<T> SnapshotCell<T> {
    /// Publishes `initial` as epoch 1.
    pub fn new(initial: Arc<T>) -> Self {
        Self {
            epoch: AtomicU64::new(1),
            born: Instant::now(),
            published_at_micros: AtomicU64::new(0),
            slot: Mutex::new((initial, 1)),
        }
    }

    /// Atomically publishes the next snapshot and returns its epoch.
    /// Single-writer by convention; concurrent publishers would still be
    /// safe (the mutex serialises them), just unordered.
    pub fn publish(&self, next: Arc<T>) -> u64 {
        // Poison recovery instead of panicking on the request path: the pair
        // is always internally consistent (a poisoned lock can only mean a
        // panic *between* publishes, never a half-swapped pair).
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        slot.1 += 1;
        let previous = std::mem::replace(&mut slot.0, next);
        let epoch = slot.1;
        self.published_at_micros
            .store(self.born.elapsed().as_micros() as u64, Ordering::Relaxed);
        // Released while the lock is held: a reader that observes the new
        // epoch and then locks the slot is guaranteed to find a snapshot at
        // least this new.
        self.epoch.store(epoch, Ordering::Release);
        drop(slot);
        // With no reader pinning it this frees the previous snapshot, which
        // can take milliseconds: never under the lock re-pinning readers take.
        drop(previous);
        epoch
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Microseconds since the latest publication (since construction while
    /// the initial snapshot is still current) — the staleness gauge
    /// `/metrics` exposes as `serve_snapshot_age_micros`.
    pub fn age_micros(&self) -> u64 {
        (self.born.elapsed().as_micros() as u64)
            .saturating_sub(self.published_at_micros.load(Ordering::Relaxed))
    }

    /// Clones out the current `(snapshot, epoch)` pair (slow path; readers
    /// normally go through [`CachedSnapshot::get`]).
    pub fn load(&self) -> (Arc<T>, u64) {
        let slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        (Arc::clone(&slot.0), slot.1)
    }
}

/// A reader's pinned snapshot: refreshed only when the cell's epoch moves.
#[derive(Debug)]
pub struct CachedSnapshot<T> {
    arc: Arc<T>,
    epoch: u64,
}

impl<T> CachedSnapshot<T> {
    /// Pins the cell's current snapshot.
    pub fn new(cell: &SnapshotCell<T>) -> Self {
        let (arc, epoch) = cell.load();
        Self { arc, epoch }
    }

    /// The freshest snapshot, pinned for this request (an `Arc` clone — one
    /// reference-count bump): one atomic epoch load when unchanged, a brief
    /// slot lock to re-pin otherwise.
    pub fn get(&mut self, cell: &SnapshotCell<T>) -> Arc<T> {
        if cell.epoch() != self.epoch {
            let (arc, epoch) = cell.load();
            self.arc = arc;
            self.epoch = epoch;
        }
        Arc::clone(&self.arc)
    }

    /// Epoch of the pinned snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

// The unit tests live in `tests/snapshot.rs` (they only exercise the
// public API) so that this file stays includable, test-free, into
// `viderec-check`'s instrumented build; the interleaving-exhaustive versions
// of the race tests live in `crates/check/tests/model_snapshot.rs`.
