//! Thread-local allocation accounting.
//!
//! The counters here are plain `Cell<u64>` thread-locals that the process's
//! global allocator (when `viderec-prof`'s `CountingAlloc` is installed)
//! bumps on every allocation made by the current thread. This crate stays
//! dependency-free and never installs an allocator itself: binaries opt in,
//! and without the wrapper the counters simply stay at zero, so every
//! consumer below (span deltas, `QueryTrace` stage cells) degrades to
//! recording zeros rather than growing a feature flag.
//!
//! Why thread-locals and not atomics: the counters are bumped from *inside*
//! `GlobalAlloc::alloc`, the single hottest synchronisation-sensitive spot in
//! the process. A const-initialised `Cell` thread-local compiles to a couple
//! of TLS-relative adds — no contention, no cache-line ping-pong between
//! worker threads, and crucially no allocation (a lazily-initialised
//! thread-local would recurse into the allocator it is instrumenting).
//!
//! Scoping is snapshot/delta: a scope takes an [`AllocSnapshot`] at entry and
//! subtracts it at exit. Because the underlying counters are monotone,
//! scopes nest exactly — an inner scope's allocations are contained in every
//! enclosing scope's delta, which is the semantics `QueryTrace` wants (the
//! per-stage cells tile the query the same way the stage time cells do).

use std::cell::Cell;

thread_local! {
    /// Allocations performed by this thread since it started.
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by this thread's allocations since it started.
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Records one allocation of `bytes` bytes against the current thread.
///
/// Called by the global-allocator wrapper on every `alloc`/`alloc_zeroed`
/// and on the grown size of every `realloc`. Must not allocate: it only
/// touches const-initialised thread-locals. During thread teardown (after
/// TLS destructors have run) the access fails and the allocation goes
/// uncounted, which is the correct degradation for a profiler.
#[inline]
pub fn note_alloc(bytes: usize) {
    let _ = ALLOC_COUNT.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes as u64)));
}

/// One scope's accumulated allocation count and bytes (the allocation
/// analogue of [`crate::StageCell`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCell {
    /// Number of allocations.
    pub count: u64,
    /// Sum of requested allocation sizes in bytes.
    pub bytes: u64,
}

impl AllocCell {
    /// Accumulates another delta into this cell.
    #[inline]
    pub fn add(&mut self, delta: AllocCell) {
        self.count = self.count.saturating_add(delta.count);
        self.bytes = self.bytes.saturating_add(delta.bytes);
    }
}

/// A point-in-time reading of the current thread's allocation counters,
/// used as the start marker of a scope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    count: u64,
    bytes: u64,
}

impl AllocSnapshot {
    /// The zero snapshot, for inert spans that will never compute a delta.
    pub const ZERO: AllocSnapshot = AllocSnapshot { count: 0, bytes: 0 };

    /// Reads the current thread's counters.
    #[inline]
    pub fn take() -> Self {
        AllocSnapshot {
            count: ALLOC_COUNT.try_with(Cell::get).unwrap_or(0),
            bytes: ALLOC_BYTES.try_with(Cell::get).unwrap_or(0),
        }
    }

    /// Allocations between `self` (earlier) and `later` on the same thread.
    ///
    /// Wrapping subtraction: the thread-locals themselves wrap (a profiler
    /// counter, not a ledger), so a delta across a wrap still comes out
    /// right.
    #[inline]
    pub fn delta_to(self, later: AllocSnapshot) -> AllocCell {
        AllocCell {
            count: later.count.wrapping_sub(self.count),
            bytes: later.bytes.wrapping_sub(self.bytes),
        }
    }

    /// Allocations on this thread since the snapshot was taken.
    #[inline]
    pub fn delta(self) -> AllocCell {
        self.delta_to(AllocSnapshot::take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_alloc_moves_the_counters() {
        let before = AllocSnapshot::take();
        note_alloc(128);
        note_alloc(64);
        let d = before.delta();
        assert_eq!(d.count, 2);
        assert_eq!(d.bytes, 192);
    }

    #[test]
    fn scopes_nest_exactly() {
        let outer = AllocSnapshot::take();
        note_alloc(10);
        let inner = AllocSnapshot::take();
        note_alloc(100);
        let inner_d = inner.delta();
        note_alloc(1);
        let outer_d = outer.delta();
        assert_eq!(
            inner_d,
            AllocCell {
                count: 1,
                bytes: 100
            }
        );
        assert_eq!(
            outer_d,
            AllocCell {
                count: 3,
                bytes: 111
            }
        );
    }

    #[test]
    fn counters_are_per_thread() {
        let before = AllocSnapshot::take();
        std::thread::spawn(|| note_alloc(1 << 20)).join().unwrap();
        assert_eq!(before.delta(), AllocCell::default());
    }

    #[test]
    fn cells_accumulate_saturating() {
        let mut c = AllocCell {
            count: 1,
            bytes: u64::MAX - 1,
        };
        c.add(AllocCell {
            count: 2,
            bytes: 100,
        });
        assert_eq!(c.count, 3);
        assert_eq!(c.bytes, u64::MAX);
    }

    #[test]
    fn delta_survives_counter_wrap() {
        let early = AllocSnapshot {
            count: u64::MAX,
            bytes: u64::MAX - 5,
        };
        let late = AllocSnapshot { count: 1, bytes: 5 };
        assert_eq!(
            early.delta_to(late),
            AllocCell {
                count: 2,
                bytes: 11
            }
        );
    }
}
