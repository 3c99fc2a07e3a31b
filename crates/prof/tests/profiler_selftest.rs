//! Profiler end-to-end self-test: profile a known CPU-burning function and
//! find it at the top of the folded output.
//!
//! Lives in its own integration-test binary so no test of another file
//! burns CPU during the capture window — ITIMER_PROF charges ticks
//! process-wide. The two tests here would still run in parallel and race for
//! the one process-wide capture (the loser gets `CaptureError::Busy`), so
//! each holds [`CAPTURE`] throughout.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Serialises the tests of this file: one capture at a time.
static CAPTURE: Mutex<()> = Mutex::new(());

/// `#[no_mangle]` pins the symbol name the folded stacks must show;
/// `#[inline(never)]` guarantees the function owns a physical frame.
#[no_mangle]
#[inline(never)]
extern "C" fn prof_selftest_spin(stop: &AtomicBool) -> u64 {
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        for i in 0..4096u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        n += 1;
    }
    std::hint::black_box(x);
    n
}

#[test]
fn spin_function_dominates_the_profile() {
    let _serial = CAPTURE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    static STOP: AtomicBool = AtomicBool::new(false);
    let spinner = std::thread::spawn(|| prof_selftest_spin(&STOP));

    let profile = viderec_prof::capture(Duration::from_millis(800), 199)
        .expect("capture over a spinning thread must yield samples");

    STOP.store(true, Ordering::SeqCst);
    let iters = spinner.join().unwrap();
    assert!(iters > 0);

    assert!(profile.samples > 20, "only {} samples", profile.samples);
    let share = profile.share_containing("prof_selftest_spin");
    assert!(
        share > 0.5,
        "spin function owns {:.0}% of samples; top stacks:\n{}",
        share * 100.0,
        profile
            .top(10)
            .iter()
            .map(|f| format!("{} {}\n", f.stack, f.count))
            .collect::<String>()
    );
    // The spin function is a leaf: it must appear in the most-sampled stack
    // itself, not merely somewhere in the long tail.
    assert!(
        profile.folded[0].stack.contains("prof_selftest_spin"),
        "hottest stack is {:?}",
        profile.folded[0].stack
    );
}

#[test]
fn concurrent_captures_are_refused() {
    let _serial = CAPTURE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    static STOP: AtomicBool = AtomicBool::new(false);
    let spinner = std::thread::spawn(|| prof_selftest_spin(&STOP));

    let racer = std::thread::spawn(|| {
        // Give the main capture a head start, then collide with it.
        std::thread::sleep(Duration::from_millis(100));
        viderec_prof::capture(Duration::from_millis(100), 99)
    });
    let main = viderec_prof::capture(Duration::from_millis(500), 99);
    let raced = racer.join().unwrap();

    STOP.store(true, Ordering::SeqCst);
    spinner.join().unwrap();

    assert!(main.is_ok(), "primary capture failed: {:?}", main.err());
    assert_eq!(raced.err(), Some(viderec_prof::CaptureError::Busy));

    // The guard released: a fresh capture works again.
    static STOP2: AtomicBool = AtomicBool::new(false);
    let spinner = std::thread::spawn(|| prof_selftest_spin(&STOP2));
    let again = viderec_prof::capture(Duration::from_millis(200), 99);
    STOP2.store(true, Ordering::SeqCst);
    spinner.join().unwrap();
    assert!(again.is_ok(), "post-race capture failed: {:?}", again.err());
}
