//! Allocation-accounting integration test with the counting allocator
//! actually installed as `#[global_allocator]` — the configuration serve
//! and bench binaries run with.

use viderec_prof::CountingAlloc;
use viderec_trace::alloc::{AllocCell, AllocSnapshot};
use viderec_trace::{StageCell, Tracer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// A heap allocation of exactly `n` bytes the optimizer cannot elide.
fn alloc_exactly(n: usize) -> Vec<u8> {
    let v = Vec::with_capacity(n);
    std::hint::black_box(v)
}

#[test]
fn scoped_counts_are_exact() {
    let scope = AllocSnapshot::take();
    let a = alloc_exactly(1000);
    let b = alloc_exactly(24);
    let d = scope.delta();
    assert_eq!(d.count, 2, "exactly the two Vecs: {d:?}");
    assert_eq!(d.bytes, 1024, "exactly the requested capacities: {d:?}");
    drop((a, b));
    // Deallocation does not move the (monotone) allocation counters.
    assert_eq!(scope.delta().count, 2);
}

#[test]
fn scopes_nest_with_the_allocator_live() {
    let outer = AllocSnapshot::take();
    let x = alloc_exactly(100);
    let inner = AllocSnapshot::take();
    let y = alloc_exactly(50);
    let inner_d = inner.delta();
    let z = alloc_exactly(7);
    let outer_d = outer.delta();
    assert_eq!(
        inner_d,
        AllocCell {
            count: 1,
            bytes: 50
        }
    );
    assert_eq!(
        outer_d,
        AllocCell {
            count: 3,
            bytes: 157
        }
    );
    drop((x, y, z));
}

#[test]
fn spans_attribute_allocations_to_cells() {
    let mut time_cell = StageCell::default();
    let mut alloc_cell = AllocCell::default();
    let span = Tracer::ON.start();
    let v = alloc_exactly(4096);
    span.stop_with_alloc(&mut time_cell, &mut alloc_cell);
    assert_eq!(time_cell.count, 1);
    assert_eq!(alloc_cell.count, 1);
    assert_eq!(alloc_cell.bytes, 4096);
    drop(v);
}

#[test]
fn counts_are_exact_under_threads() {
    // Each thread allocates a known pattern; per-thread deltas must see
    // exactly their own allocations regardless of what siblings do.
    let handles: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let scope = AllocSnapshot::take();
                let mut keep = Vec::with_capacity(50); // counted too (1 alloc)
                for i in 0..50 {
                    keep.push(alloc_exactly(100 + t * 10 + (i & 1)));
                }
                let d = scope.delta();
                drop(keep);
                d
            })
        })
        .collect();
    for (t, h) in handles.into_iter().enumerate() {
        let d = h.join().unwrap();
        assert_eq!(d.count, 51, "thread {t}: {d:?}");
        // 50 allocations of (100 + t*10) or one byte more (25 odd sizes),
        // plus the keep-vec: 50 elements of 24-byte `Vec<u8>` headers.
        let expected = 50 * (100 + t as u64 * 10) + 25 + 50 * 24;
        assert_eq!(d.bytes, expected, "thread {t}: {d:?}");
    }
}

#[test]
fn heap_stats_track_live_bytes() {
    assert!(viderec_prof::counting_installed());
    let before = viderec_prof::heap_stats();
    let v = alloc_exactly(1 << 20);
    let mid = viderec_prof::heap_stats();
    assert!(
        mid.live_bytes >= before.live_bytes + (1 << 20),
        "live bytes did not grow: {before:?} -> {mid:?}"
    );
    assert!(mid.total_allocs > before.total_allocs);
    drop(v);
    let after = viderec_prof::heap_stats();
    assert!(
        after.live_bytes < mid.live_bytes,
        "live bytes did not shrink after drop: {mid:?} -> {after:?}"
    );
}

#[test]
fn heap_json_is_live() {
    let j = viderec_prof::heap_json();
    assert!(j.contains("\"counting_allocator_installed\":true"), "{j}");
}

#[test]
fn capture_works_with_the_counting_allocator_installed() {
    use std::sync::atomic::{AtomicBool, Ordering};
    static STOP: AtomicBool = AtomicBool::new(false);
    let spinner = std::thread::spawn(|| {
        let mut x = 1u64;
        while !STOP.load(Ordering::Relaxed) {
            for i in 0..4096u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
    });
    let profile = viderec_prof::capture(std::time::Duration::from_millis(500), 199);
    STOP.store(true, Ordering::SeqCst);
    spinner.join().unwrap();
    let profile = profile.expect("capture with counting allocator installed");
    assert!(profile.samples > 0);
}

/// Held by the tests below that read deltas of the process-global counters,
/// so they do not read each other's events. (The tests above may still run
/// beside them; their events can only add to a delta.)
static GLOBAL_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn heap_stats_is_exact_for_the_calling_thread() {
    let _serial = GLOBAL_COUNTERS.lock().unwrap();
    // A sibling test's flush can land inside a window and add to it, but
    // never take from it: every window holds at least this thread's three
    // blocks, and some window holds exactly them.
    let exact = (0..200).any(|_| {
        let before = viderec_prof::heap_stats();
        let blocks = [alloc_exactly(40), alloc_exactly(24), alloc_exactly(100)];
        let mid = viderec_prof::heap_stats();
        drop(blocks);
        let after = viderec_prof::heap_stats();
        let allocs = mid.total_allocs - before.total_allocs;
        let bytes = mid.total_bytes - before.total_bytes;
        assert!(
            allocs >= 3 && bytes >= 164,
            "this thread's own blocks are missing: {before:?} -> {mid:?}"
        );
        let live = |h: viderec_prof::HeapStats| (h.live_allocs as i64, h.live_bytes as i64);
        let grew = (live(mid).0 - live(before).0, live(mid).1 - live(before).1);
        let shrank = (live(mid).0 - live(after).0, live(mid).1 - live(after).1);
        (allocs, bytes, grew, shrank) == (3, 164, (3, 164), (3, 164))
    });
    assert!(exact, "no window read exactly this thread's three blocks");
}

#[test]
fn other_threads_lag_by_fewer_than_one_batch() {
    use std::sync::mpsc;
    let _serial = GLOBAL_COUNTERS.lock().unwrap();
    const N: u64 = 1000;
    let (filled_tx, filled_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let before = viderec_prof::heap_stats();
    let worker = std::thread::spawn(move || {
        // N blocks and the vector holding them: N + 1 allocations.
        let blocks: Vec<Vec<u8>> = (0..N).map(|_| alloc_exactly(32)).collect();
        filled_tx.send(()).unwrap();
        release_rx.recv().unwrap();
        let own = viderec_prof::heap_stats();
        drop(blocks);
        own
    });
    filled_rx.recv().unwrap();
    // The worker is parked with its last batch unflushed: fewer than 64
    // events.
    let seen = viderec_prof::heap_stats();
    assert!(
        seen.total_allocs - before.total_allocs + 63 > N,
        "more than 63 of the worker's {} allocations unseen: {before:?} -> {seen:?}",
        N + 1
    );
    release_tx.send(()).unwrap();
    let own = worker.join().unwrap();
    assert!(
        own.total_allocs - before.total_allocs > N,
        "the worker's own reading misses its batch: {before:?} -> {own:?}"
    );
}

#[test]
fn freeing_another_threads_unflushed_blocks_never_wraps_the_live_gauges() {
    let _serial = GLOBAL_COUNTERS.lock().unwrap();
    let sane = |h: viderec_prof::HeapStats| {
        assert!(
            h.live_allocs < 1 << 40 && h.live_bytes < 1 << 50,
            "a live gauge wrapped: {h:?}"
        );
    };
    viderec_prof::heap_stats();
    // Forty small blocks: far fewer events than a batch, so this thread has
    // flushed none of them when the other frees them all and flushes.
    let blocks: [Vec<u8>; 40] = std::array::from_fn(|i| alloc_exactly(16 + i));
    let freed = std::thread::spawn(move || {
        drop(blocks);
        viderec_prof::heap_stats()
    })
    .join()
    .unwrap();
    sane(freed);
    sane(viderec_prof::heap_stats());
}
