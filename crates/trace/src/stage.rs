//! Fixed-width per-stage `{ns, count}` accumulators.

use std::sync::atomic::{AtomicU64, Ordering};

/// One stage's accumulated nanoseconds and item count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCell {
    /// Accumulated nanoseconds.
    pub ns: u64,
    /// Number of items the accumulated spans were credited with — one per
    /// span from [`Self::add`], as many as the span covered from
    /// [`Self::add_many`]. Not the number of clock reads.
    pub count: u64,
}

impl StageCell {
    /// Accumulates one span of `ns` nanoseconds covering one item.
    #[inline]
    pub fn add(&mut self, ns: u64) {
        self.add_many(ns, 1);
    }

    /// Accumulates one span of `ns` nanoseconds that covered `n` items, so
    /// `ns / count` stays the per-item cost when one clock read closes a
    /// whole run of them.
    #[inline]
    pub fn add_many(&mut self, ns: u64, n: u64) {
        self.ns = self.ns.saturating_add(ns);
        self.count += n;
    }
}

/// `N` stage cells owned by a single recorder (one query). Not thread-safe
/// by design — a finished set is folded into an [`AtomicStageSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSet<const N: usize> {
    cells: [StageCell; N],
}

impl<const N: usize> Default for StageSet<N> {
    fn default() -> Self {
        Self {
            cells: [StageCell::default(); N],
        }
    }
}

impl<const N: usize> StageSet<N> {
    /// The cell of stage `i`, for [`crate::Span::stop`] / [`crate::Span::lap`].
    ///
    /// # Panics
    /// Panics if `i >= N`.
    #[inline]
    pub fn cell_mut(&mut self, i: usize) -> &mut StageCell {
        &mut self.cells[i]
    }

    /// The cell of stage `i`.
    ///
    /// # Panics
    /// Panics if `i >= N`.
    pub fn get(&self, i: usize) -> StageCell {
        self.cells[i]
    }

    /// Sum of all stage times.
    pub fn total_ns(&self) -> u64 {
        self.cells
            .iter()
            .fold(0u64, |acc, c| acc.saturating_add(c.ns))
    }

    /// Iterates `(stage_index, cell)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, StageCell)> + '_ {
        self.cells.iter().copied().enumerate()
    }
}

/// `N` stage cells shared across threads: relaxed atomic accumulation,
/// coherent-enough snapshots for metric scrapers (each `{ns, count}` pair is
/// read independently; monotone counters make small skew harmless).
#[derive(Debug)]
pub struct AtomicStageSet<const N: usize> {
    ns: [AtomicU64; N],
    count: [AtomicU64; N],
}

impl<const N: usize> Default for AtomicStageSet<N> {
    fn default() -> Self {
        Self {
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            count: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl<const N: usize> AtomicStageSet<N> {
    /// Accumulates one span of `ns` nanoseconds into stage `i`.
    ///
    /// # Panics
    /// Panics if `i >= N`.
    #[inline]
    pub fn add(&self, i: usize, ns: u64) {
        self.ns[i].fetch_add(ns, Ordering::Relaxed);
        self.count[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a single-owner set in, cell by cell (one atomic add per stage
    /// that saw work).
    pub fn merge(&self, set: &StageSet<N>) {
        for (i, cell) in set.iter() {
            if cell.count > 0 || cell.ns > 0 {
                self.ns[i].fetch_add(cell.ns, Ordering::Relaxed);
                self.count[i].fetch_add(cell.count, Ordering::Relaxed);
            }
        }
    }

    /// Copies the current values out.
    pub fn snapshot(&self) -> StageSet<N> {
        let mut out = StageSet::default();
        for i in 0..N {
            *out.cell_mut(i) = StageCell {
                ns: self.ns[i].load(Ordering::Relaxed),
                count: self.count[i].load(Ordering::Relaxed),
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_accumulate_and_sets_total_them() {
        let mut a: StageSet<3> = StageSet::default();
        a.cell_mut(0).add(7);
        a.cell_mut(0).add(3);
        a.cell_mut(2).add(1);
        assert_eq!(a.get(0), StageCell { ns: 10, count: 2 });
        assert_eq!(a.get(1), StageCell::default());
        assert_eq!(a.get(2), StageCell { ns: 1, count: 1 });
        assert_eq!(a.total_ns(), 11);
        a.cell_mut(1).add_many(20, 5);
        a.cell_mut(1).add_many(4, 0);
        assert_eq!(a.get(1), StageCell { ns: 24, count: 5 });
    }

    #[test]
    fn saturating_time_never_wraps() {
        let mut c = StageCell {
            ns: u64::MAX - 1,
            count: 0,
        };
        c.add(100);
        assert_eq!(c.ns, u64::MAX);
        assert_eq!(c.count, 1);
    }

    #[test]
    fn atomic_set_accumulates_across_threads() {
        let set: AtomicStageSet<2> = AtomicStageSet::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        set.add(0, 3);
                        set.add(1, 1);
                    }
                });
            }
        });
        let snap = set.snapshot();
        assert_eq!(
            snap.get(0),
            StageCell {
                ns: 12_000,
                count: 4000
            }
        );
        assert_eq!(
            snap.get(1),
            StageCell {
                ns: 4_000,
                count: 4000
            }
        );
    }

    #[test]
    fn atomic_merge_folds_owned_sets() {
        let set: AtomicStageSet<2> = AtomicStageSet::default();
        let mut local: StageSet<2> = StageSet::default();
        local.cell_mut(1).add(42);
        set.merge(&local);
        set.merge(&local);
        assert_eq!(set.snapshot().get(1), StageCell { ns: 84, count: 2 });
        assert_eq!(set.snapshot().get(0), StageCell::default());
    }
}
