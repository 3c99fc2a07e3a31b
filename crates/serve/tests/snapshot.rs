//! `SnapshotCell` / `CachedSnapshot` unit tests (moved out of
//! `src/snapshot.rs` so the source file can be compiled verbatim into
//! `viderec-check`'s instrumented model build). The stress variant here
//! relies on real OS scheduling; the *exhaustive* interleaving versions live
//! in `crates/check/tests/model_snapshot.rs`.

use std::sync::Arc;
use viderec_serve::{CachedSnapshot, SnapshotCell};

#[test]
fn publish_bumps_epoch_and_swaps() {
    let cell = SnapshotCell::new(Arc::new(10u32));
    assert_eq!(cell.epoch(), 1);
    let mut cached = CachedSnapshot::new(&cell);
    assert_eq!(*cached.get(&cell), 10);
    assert_eq!(cell.publish(Arc::new(20)), 2);
    assert_eq!(cell.epoch(), 2);
    assert_eq!(*cached.get(&cell), 20);
    assert_eq!(cached.epoch(), 2);
}

#[test]
fn age_resets_on_publish() {
    let cell = SnapshotCell::new(Arc::new(0u32));
    std::thread::sleep(std::time::Duration::from_millis(5));
    let before = cell.age_micros();
    assert!(before >= 5_000, "age never advanced: {before}");
    cell.publish(Arc::new(1));
    let after = cell.age_micros();
    assert!(after < before, "publish did not reset the age: {after}");
}

#[test]
fn cached_reader_pins_across_publishes_until_refreshed() {
    let cell = SnapshotCell::new(Arc::new(1u32));
    let (pinned, e) = cell.load();
    assert_eq!(e, 1);
    cell.publish(Arc::new(2));
    // The old snapshot survives as long as the reader pins it.
    assert_eq!(*pinned, 1);
    assert_eq!(*cell.load().0, 2);
}

#[test]
fn concurrent_readers_always_see_a_complete_state() {
    let cell = Arc::new(SnapshotCell::new(Arc::new(vec![0u64; 8])));
    std::thread::scope(|s| {
        let writer = {
            let cell = Arc::clone(&cell);
            s.spawn(move || {
                for v in 1..=50u64 {
                    cell.publish(Arc::new(vec![v; 8]));
                }
            })
        };
        for _ in 0..2 {
            let cell = Arc::clone(&cell);
            s.spawn(move || {
                let mut cached = CachedSnapshot::new(&cell);
                for _ in 0..200 {
                    let snap = cached.get(&cell);
                    // Every published vector is uniform: a torn state
                    // would mix values.
                    assert!(snap.windows(2).all(|w| w[0] == w[1]));
                }
            });
        }
        writer.join().unwrap();
    });
    assert_eq!(cell.epoch(), 51);
}
