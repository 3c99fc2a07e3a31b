//! A counting `#[global_allocator]` wrapper.
//!
//! Wraps any inner allocator (in practice [`std::alloc::System`]) and, on
//! every successful allocation, bumps two sinks:
//!
//! * the **thread-local** counters in `viderec_trace::alloc`, which spans
//!   read to attribute allocations to `QueryTrace` stages — exact, on every
//!   event;
//! * **process-global** atomics, which `/debug/heap` and the `/metrics`
//!   gauges read — batched per thread.
//!
//! Installation is per-binary and opt-in:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: viderec_prof::CountingAlloc = viderec_prof::CountingAlloc::system();
//! ```
//!
//! Binaries that skip this still work — every counter just reads zero.
//! The accounting counts *requests* (`alloc`/`alloc_zeroed`, and `realloc`
//! as a fresh request of the new size, matching what the underlying
//! allocator really does for a move); live-byte tracking additionally
//! subtracts on `dealloc` and on the old size of a `realloc`.
//!
//! # Batching
//!
//! Read-modify-writes on shared cache lines at every allocation would
//! serialise every allocating thread in the process, so each thread keeps
//! its pending counts in a const-initialised thread-local cell — no
//! destructor, no allocation, so the allocator cannot re-enter itself — and
//! adds them to the global atomics every 64 events (`FLUSH_EVENTS`;
//! allocations, frees and reallocations alike), at once on any block of
//! 64 KiB or more (`FLUSH_BYTES`), and whenever the thread itself asks
//! ([`heap_stats`], [`counting_installed`]). So:
//!
//! * a thread's own reading is exact;
//! * another thread's counts lag by fewer than 64 events, each of a block
//!   under 64 KiB;
//! * a thread that exits loses its unflushed remainder (there is no
//!   destructor to flush it): fewer than 64 events, never a big block.
//!   The totals then read low by that much for good, and the live gauges
//!   drift by the remainder's net;
//! * a block one thread allocated and has not flushed can be freed, and the
//!   free flushed, by another, so the global live counters can dip below
//!   zero for a moment. They are signed and read clamped at 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Events a thread batches before adding them to the global counters.
const FLUSH_EVENTS: u32 = 64;

/// A block at least this large, allocated or freed, flushes its thread's
/// batch at once, so the live gauges never miss a big buffer.
const FLUSH_BYTES: usize = 64 << 10;

static GLOBAL: Counters = Counters::new();
static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// This thread's counts not yet added to [`GLOBAL`].
    static PENDING: Cell<Pending> = const { Cell::new(Pending::ZERO) };
}

/// Process-global heap counters (relaxed; they are independent counters, not
/// a consistent snapshot).
struct Counters {
    total_allocs: AtomicU64,
    total_bytes: AtomicU64,
    live_allocs: AtomicI64,
    live_bytes: AtomicI64,
}

impl Counters {
    const fn new() -> Self {
        Self {
            total_allocs: AtomicU64::new(0),
            total_bytes: AtomicU64::new(0),
            live_allocs: AtomicI64::new(0),
            live_bytes: AtomicI64::new(0),
        }
    }

    fn add(&self, p: Pending) {
        self.total_allocs.fetch_add(p.allocs, Ordering::Relaxed);
        self.total_bytes.fetch_add(p.bytes, Ordering::Relaxed);
        self.live_allocs.fetch_add(p.live_allocs, Ordering::Relaxed);
        self.live_bytes.fetch_add(p.live_bytes, Ordering::Relaxed);
    }

    fn read(&self) -> HeapStats {
        let live = |c: &AtomicI64| c.load(Ordering::Relaxed).max(0) as u64;
        HeapStats {
            total_allocs: self.total_allocs.load(Ordering::Relaxed),
            total_bytes: self.total_bytes.load(Ordering::Relaxed),
            live_allocs: live(&self.live_allocs),
            live_bytes: live(&self.live_bytes),
        }
    }
}

/// One thread's batch: the counter deltas of its last `events` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    events: u32,
    allocs: u64,
    bytes: u64,
    live_allocs: i64,
    live_bytes: i64,
}

impl Pending {
    const ZERO: Pending = Pending {
        events: 0,
        allocs: 0,
        bytes: 0,
        live_allocs: 0,
        live_bytes: 0,
    };
}

/// Adds one event's deltas to this thread's batch, flushing the batch when
/// it is full or the event's `block` is a big one. During thread teardown the
/// thread-local may be gone; the event then goes uncounted, as in
/// `viderec_trace::alloc`.
#[inline]
fn record(allocs: u64, bytes: u64, live_allocs: i64, live_bytes: i64, block: usize) {
    let _ = PENDING.try_with(|cell| {
        let mut p = cell.get();
        p.events += 1;
        p.allocs += allocs;
        p.bytes += bytes;
        p.live_allocs += live_allocs;
        p.live_bytes += live_bytes;
        if p.events >= FLUSH_EVENTS || block >= FLUSH_BYTES {
            flush(p);
            p = Pending::ZERO;
        }
        cell.set(p);
    });
}

fn flush(p: Pending) {
    if p.events > 0 {
        INSTALLED.store(true, Ordering::Relaxed);
        GLOBAL.add(p);
    }
}

/// Adds the calling thread's batch to the global counters.
fn flush_this_thread() {
    let _ = PENDING.try_with(|cell| flush(cell.replace(Pending::ZERO)));
}

/// Point-in-time heap accounting (from the process-global counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Allocations since process start.
    pub total_allocs: u64,
    /// Bytes requested since process start.
    pub total_bytes: u64,
    /// Currently live allocations.
    pub live_allocs: u64,
    /// Currently live requested bytes.
    pub live_bytes: u64,
}

/// Reads the current heap counters: exact for the calling thread's own
/// events, which it flushes first; other threads' lag by fewer than 64
/// events. All zeros when no [`CountingAlloc`] is installed in this binary
/// (see [`counting_installed`]).
pub fn heap_stats() -> HeapStats {
    flush_this_thread();
    GLOBAL.read()
}

/// Whether a [`CountingAlloc`] has counted at least one event in this
/// process — distinguishes "no allocator installed" from "zero allocations"
/// for `/debug/heap` consumers. Flushes the calling thread's batch first, so
/// a thread that has allocated always sees `true`.
pub fn counting_installed() -> bool {
    flush_this_thread();
    INSTALLED.load(Ordering::Relaxed)
}

/// The counting allocator wrapper. Generic so tests can wrap an
/// instrumented inner allocator; binaries use [`CountingAlloc::system`].
pub struct CountingAlloc<A = System>(A);

impl CountingAlloc<System> {
    /// Wraps the system allocator (the only configuration binaries need).
    pub const fn system() -> Self {
        CountingAlloc(System)
    }
}

impl<A> CountingAlloc<A> {
    /// Wraps an arbitrary inner allocator.
    pub const fn new(inner: A) -> Self {
        CountingAlloc(inner)
    }
}

#[inline]
fn note(bytes: usize) {
    record(1, bytes as u64, 1, bytes as i64, bytes);
    viderec_trace::alloc::note_alloc(bytes);
}

// SAFETY: defers every allocation verbatim to the inner allocator; the
// wrapper only updates atomic/thread-local counters, which themselves never
// allocate (const-initialised TLS cells), so there is no reentrancy.
unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAlloc<A> {
    // SAFETY: caller upholds GlobalAlloc's contract (valid layout); the
    // layout is forwarded unchanged to the inner allocator.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = self.0.alloc(layout);
        if !p.is_null() {
            note(layout.size());
        }
        p
    }

    // SAFETY: as `alloc` — the contract is forwarded verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = self.0.alloc_zeroed(layout);
        if !p.is_null() {
            note(layout.size());
        }
        p
    }

    // SAFETY: caller guarantees `ptr` was returned by this allocator with
    // this layout; both are forwarded unchanged to the inner dealloc.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.0.dealloc(ptr, layout);
        let size = layout.size();
        record(0, 0, -1, -(size as i64), size);
    }

    // SAFETY: caller guarantees `ptr`/`layout` per GlobalAlloc::realloc;
    // forwarded unchanged, counters updated only on success.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = self.0.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A free of the old size and a fresh request of the new one.
            let old = layout.size();
            let grown = new_size as i64 - old as i64;
            record(1, new_size as u64, 0, grown, old.max(new_size));
            viderec_trace::alloc::note_alloc(new_size);
        }
        p
    }
}

/// Renders the heap counters as a small JSON object for `/debug/heap`.
pub fn heap_json() -> String {
    let h = heap_stats();
    format!(
        "{{\"counting_allocator_installed\":{},\"live_bytes\":{},\"live_allocs\":{},\"total_bytes\":{},\"total_allocs\":{}}}",
        counting_installed(),
        h.live_bytes,
        h.live_allocs,
        h.total_bytes,
        h.total_allocs
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Held by the tests that move [`GLOBAL`], so none reads another's
    /// deltas.
    static GLOBAL_COUNTERS: Mutex<()> = Mutex::new(());

    // Not installed as the global allocator here (the dedicated
    // integration test does that); exercised directly instead.
    #[test]
    fn counts_alloc_dealloc_realloc() {
        let _serial = GLOBAL_COUNTERS.lock().unwrap();
        let a = CountingAlloc::system();
        let before = heap_stats();
        let layout = Layout::from_size_align(256, 8).unwrap();
        // SAFETY: every pointer passed to realloc/dealloc below came from
        // this same allocator with the stated layout, per the alloc
        // contract; sizes are updated in lockstep with the calls.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let mid = heap_stats();
            assert_eq!(mid.total_allocs - before.total_allocs, 1);
            assert_eq!(mid.total_bytes - before.total_bytes, 256);
            assert_eq!(mid.live_bytes - before.live_bytes, 256);

            let p2 = a.realloc(p, layout, 512);
            assert!(!p2.is_null());
            let grown = heap_stats();
            assert_eq!(grown.total_allocs - before.total_allocs, 2);
            assert_eq!(grown.live_bytes - before.live_bytes, 512);

            a.dealloc(p2, Layout::from_size_align(512, 8).unwrap());
        }
        let after = heap_stats();
        assert_eq!(after.live_bytes, before.live_bytes);
        assert_eq!(after.live_allocs, before.live_allocs);
        assert!(counting_installed());
    }

    #[test]
    fn live_counters_below_zero_read_as_zero() {
        let c = Counters::new();
        c.add(Pending {
            events: 3,
            allocs: 1,
            bytes: 10,
            live_allocs: -2,
            live_bytes: -300,
        });
        let s = c.read();
        assert_eq!((s.total_allocs, s.total_bytes), (1, 10));
        assert_eq!(
            (s.live_allocs, s.live_bytes),
            (0, 0),
            "clamped, not wrapped"
        );
        // The signed counters keep the deficit: a later flush of the
        // allocations makes them whole again.
        c.add(Pending {
            events: 2,
            allocs: 2,
            bytes: 400,
            live_allocs: 2,
            live_bytes: 400,
        });
        assert_eq!((c.read().live_allocs, c.read().live_bytes), (0, 100));
    }

    #[test]
    fn a_batch_flushes_on_the_last_event_or_a_big_block() {
        let _serial = GLOBAL_COUNTERS.lock().unwrap();
        let pending = || PENDING.with(Cell::get);
        flush_this_thread();
        // Allocations and frees of 8 bytes, alternating, so the counters
        // other tests read end where they started.
        let event = |i: u32| match i % 2 {
            1 => record(1, 8, 1, 8, 8),
            _ => record(0, 0, -1, -8, 8),
        };
        for i in 1..FLUSH_EVENTS {
            event(i);
            assert_eq!(pending().events, i);
        }
        event(FLUSH_EVENTS);
        assert_eq!(pending(), Pending::ZERO, "the 64th event flushed");
        let big = FLUSH_BYTES as u64;
        record(1, big, 1, big as i64, FLUSH_BYTES);
        assert_eq!(pending(), Pending::ZERO, "a big allocation flushed");
        event(1);
        record(0, 0, -1, -(big as i64), FLUSH_BYTES);
        assert_eq!(pending(), Pending::ZERO, "a big free flushed");
        event(2);
        flush_this_thread();
    }

    #[test]
    fn heap_json_shape() {
        let j = heap_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "counting_allocator_installed",
            "live_bytes",
            "live_allocs",
            "total_bytes",
            "total_allocs",
        ] {
            assert!(j.contains(key), "{j} missing {key}");
        }
    }
}
