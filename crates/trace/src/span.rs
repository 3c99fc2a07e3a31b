//! Monotonic-clock spans behind an enable flag.

use crate::alloc::{AllocCell, AllocSnapshot};
use crate::stage::StageCell;
use std::time::Instant;

/// A copyable on/off switch for span timing. All span state lives in the
/// [`Span`] values it hands out, so one tracer can be shared freely.
///
/// The contract the recommender relies on: with the tracer off, starting and
/// stopping a span costs exactly one predictable branch — no clock read, no
/// store — so tracing can stay compiled into the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tracer {
    enabled: bool,
}

impl Tracer {
    /// A tracer that records nothing (the zero-cost path).
    pub const OFF: Tracer = Tracer { enabled: false };
    /// A tracer that records everything.
    pub const ON: Tracer = Tracer { enabled: true };

    /// `ON` when `enabled`, `OFF` otherwise.
    pub fn new(enabled: bool) -> Self {
        Self { enabled }
    }

    /// Whether spans started from this tracer record anything.
    pub fn enabled(self) -> bool {
        self.enabled
    }

    /// Starts a span: reads the monotonic clock and the thread's allocation
    /// counters when enabled, returns an inert span otherwise.
    #[inline]
    pub fn start(self) -> Span {
        if self.enabled {
            Span {
                t: Some(Instant::now()),
                alloc: AllocSnapshot::take(),
            }
        } else {
            Span::off()
        }
    }
}

/// An in-flight span. Inert (all methods are one branch) when started from a
/// disabled tracer.
///
/// An enabled span carries two baselines taken together at (re)start: the
/// monotonic clock and the thread's allocation counters, so a single span
/// attributes both wall time and allocations to a stage. The allocation
/// snapshot is two TLS reads — it does not touch the clock and cannot fail.
#[derive(Debug)]
pub struct Span {
    t: Option<Instant>,
    alloc: AllocSnapshot,
}

impl Span {
    /// An inert span (as if started from [`Tracer::OFF`]).
    pub const fn off() -> Self {
        Span {
            t: None,
            alloc: AllocSnapshot::ZERO,
        }
    }

    /// Nanoseconds since the span started; `None` when inert.
    #[inline]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.t.map(|t| t.elapsed().as_nanos() as u64)
    }

    /// Ends the span, accumulating its duration (and one count) into `cell`.
    #[inline]
    pub fn stop(self, cell: &mut StageCell) {
        if let Some(t) = self.t {
            cell.add(t.elapsed().as_nanos() as u64);
        }
    }

    /// Ends the span, accumulating its duration into `cell` and the thread's
    /// allocations since (re)start into `alloc`.
    #[inline]
    pub fn stop_with_alloc(self, cell: &mut StageCell, alloc: &mut AllocCell) {
        if let Some(t) = self.t {
            cell.add(t.elapsed().as_nanos() as u64);
            alloc.add(self.alloc.delta());
        }
    }

    /// Accumulates the time since the (re)start into `cell` and restarts the
    /// span at the same clock read, so consecutive laps tile an interval with
    /// no gap and no double count — the `bound → EMD → top-k` split of a
    /// scoring event costs one clock read per lap.
    #[inline]
    pub fn lap(&mut self, cell: &mut StageCell) {
        if let Some(t) = self.t {
            let now = Instant::now();
            cell.add(now.duration_since(t).as_nanos() as u64);
            self.t = Some(now);
        }
    }

    /// [`Span::lap`], additionally tiling the thread's allocation counters
    /// into `alloc` the same way: the allocation baseline restarts at the
    /// same reading that closed the lap, so consecutive laps neither drop
    /// nor double-count an allocation.
    #[inline]
    pub fn lap_with_alloc(&mut self, cell: &mut StageCell, alloc: &mut AllocCell) {
        self.lap_n(cell, alloc, 1);
    }

    /// [`Span::lap_with_alloc`] for a lap that covered `n` items (a run of
    /// candidates closed by one clock read): time and allocations tile
    /// exactly as there, and `cell` is credited `n` ([`StageCell::add_many`]).
    #[inline]
    pub fn lap_n(&mut self, cell: &mut StageCell, alloc: &mut AllocCell, n: u64) {
        if let Some(t) = self.t {
            let now = Instant::now();
            let snap = AllocSnapshot::take();
            cell.add_many(now.duration_since(t).as_nanos() as u64, n);
            alloc.add(self.alloc.delta_to(snap));
            self.t = Some(now);
            self.alloc = snap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        let mut cell = StageCell::default();
        let mut acell = AllocCell::default();
        let mut span = Tracer::OFF.start();
        assert_eq!(span.elapsed_ns(), None);
        span.lap(&mut cell);
        span.lap_with_alloc(&mut cell, &mut acell);
        span.lap_n(&mut cell, &mut acell, 9);
        span.stop_with_alloc(&mut cell, &mut acell);
        assert_eq!(cell, StageCell::default());
        assert_eq!(acell, AllocCell::default());
    }

    #[test]
    fn alloc_laps_tile_the_counters() {
        let mut a = AllocCell::default();
        let mut b = AllocCell::default();
        let mut t_a = StageCell::default();
        let mut t_b = StageCell::default();
        let whole = Tracer::ON.start();
        let mut span = Tracer::ON.start();
        crate::alloc::note_alloc(100);
        span.lap_with_alloc(&mut t_a, &mut a);
        crate::alloc::note_alloc(7);
        crate::alloc::note_alloc(3);
        span.lap_with_alloc(&mut t_b, &mut b);
        let mut total = AllocCell::default();
        let mut t_total = StageCell::default();
        whole.stop_with_alloc(&mut t_total, &mut total);
        assert_eq!(
            a,
            AllocCell {
                count: 1,
                bytes: 100
            }
        );
        assert_eq!(
            b,
            AllocCell {
                count: 2,
                bytes: 10
            }
        );
        // Laps neither drop nor double-count: their sum is the whole span's
        // delta (no other allocations happen on this thread in between).
        assert_eq!(total.count, a.count + b.count);
        assert_eq!(total.bytes, a.bytes + b.bytes);
    }

    #[test]
    fn run_laps_tile_like_single_laps_and_credit_their_items() {
        let (mut run, mut run_allocs) = (StageCell::default(), AllocCell::default());
        let (mut one, mut one_allocs) = (StageCell::default(), AllocCell::default());
        let whole = Tracer::ON.start();
        let mut span = Tracer::ON.start();
        crate::alloc::note_alloc(64);
        crate::alloc::note_alloc(32);
        span.lap_n(&mut run, &mut run_allocs, 7);
        crate::alloc::note_alloc(5);
        span.lap_with_alloc(&mut one, &mut one_allocs);
        span.lap_n(&mut run, &mut run_allocs, 0);
        let (mut total, mut total_allocs) = (StageCell::default(), AllocCell::default());
        whole.stop_with_alloc(&mut total, &mut total_allocs);
        // One clock read per lap whatever it is credited with.
        assert_eq!((run.count, one.count), (7, 1));
        let run_want = AllocCell {
            count: 2,
            bytes: 96,
        };
        assert_eq!((run_allocs, one_allocs.bytes), (run_want, 5));
        // The laps tile: nothing dropped, nothing counted twice.
        assert_eq!(total_allocs.count, run_allocs.count + one_allocs.count);
        assert_eq!(total_allocs.bytes, run_allocs.bytes + one_allocs.bytes);
        assert!(run.ns + one.ns <= total.ns, "{run:?} {one:?} {total:?}");
    }

    #[test]
    fn enabled_span_accumulates() {
        let mut cell = StageCell::default();
        let span = Tracer::ON.start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(span.elapsed_ns().unwrap() >= 1_000_000);
        span.stop(&mut cell);
        assert_eq!(cell.count, 1);
        assert!(cell.ns >= 1_000_000, "{}", cell.ns);
    }

    #[test]
    fn laps_tile_the_interval() {
        let mut emd = StageCell::default();
        let mut topk = StageCell::default();
        let total = Tracer::ON.start();
        let mut span = Tracer::ON.start();
        for _ in 0..10 {
            span.lap(&mut emd);
            span.lap(&mut topk);
        }
        let total_ns = total.elapsed_ns().unwrap();
        span.stop(&mut StageCell::default());
        assert_eq!(emd.count, 10);
        assert_eq!(topk.count, 10);
        // Laps never double-count: their sum is bounded by the enclosing span.
        assert!(emd.ns + topk.ns <= total_ns + 1_000_000);
    }

    #[test]
    fn tracer_construction() {
        assert!(Tracer::new(true).enabled());
        assert!(!Tracer::new(false).enabled());
        assert_eq!(Tracer::default(), Tracer::OFF);
    }
}
