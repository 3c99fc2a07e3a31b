//! What the hypervisor took: the `steal` column of `/proc/stat`, sampled
//! while the run measures, and the rule that keeps a phase's undisturbed
//! windows.
//!
//! The benchmark runs on a shared two-vCPU VM whose host takes anything from
//! nothing to two thirds of the CPU time for minutes at a stretch. Stolen
//! time is not the program's, so a phase is cut into equal windows and only
//! the windows the host left alone feed the metrics; how much was stolen and
//! how many windows were kept is reported with them.

use crate::stats::median;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `/proc/stat` counts in ticks of 1/100 s (`USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;
/// A window is quiet when at most this share of its CPU time was stolen.
pub const QUIET_SHARE: f64 = 0.02;
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Steal ticks summed over all CPUs; `None` where `/proc/stat` lacks them.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .nth(7)?
        .parse()
        .ok()
}

/// Samples the steal counter every 50 ms on a thread of its own until
/// stopped.
pub struct StealSampler {
    stop: Sender<()>,
    thread: JoinHandle<Vec<(Instant, u64)>>,
}

impl StealSampler {
    pub fn start() -> Self {
        let (stop, stopped) = channel();
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                if let Some(ticks) = steal_ticks() {
                    samples.push((Instant::now(), ticks));
                }
                match stopped.recv_timeout(SAMPLE_EVERY) {
                    Err(RecvTimeoutError::Timeout) => {}
                    _ => return samples,
                }
            }
        });
        Self { stop, thread }
    }

    pub fn finish(self) -> StealLog {
        let _ = self.stop.send(());
        StealLog {
            samples: self.thread.join().expect("steal sampler thread"),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        }
    }
}

/// The sampled counter of one run.
pub struct StealLog {
    samples: Vec<(Instant, u64)>,
    cpus: f64,
}

impl StealLog {
    /// Share of the CPU time between `from` and `to` that was stolen, read
    /// between the last sample at or before `from` and the first at or after
    /// `to`. 0 without samples (no `/proc/stat`, or no steal column).
    pub fn stolen_share(&self, from: Instant, to: Instant) -> f64 {
        let first = self.samples.iter().rev().find(|s| s.0 <= from);
        let last = self.samples.iter().find(|s| s.0 >= to);
        let (Some(a), Some(b)) = (first.or(self.samples.first()), last.or(self.samples.last()))
        else {
            return 0.0;
        };
        let span_s = b.0.duration_since(a.0).as_secs_f64();
        if span_s <= 0.0 {
            return 0.0;
        }
        b.1.saturating_sub(a.1) as f64 / TICKS_PER_SECOND / (span_s * self.cpus)
    }

    /// The equal windows of a phase that started at `started` and ran for
    /// `seconds`, with the undisturbed ones marked.
    pub fn windows(&self, started: Instant, seconds: f64, window_s: f64) -> Windows {
        // A phase ends a little before or after its nominal length; the last
        // window may hang over the end by up to half its length.
        let count = ((seconds / window_s).round() as usize).max(1);
        let shares: Vec<f64> = (0..count)
            .map(|i| {
                let from = started + Duration::from_secs_f64(i as f64 * window_s);
                self.stolen_share(from, from + Duration::from_secs_f64(window_s))
            })
            .collect();
        let (kept, degraded) = keep_quiet(&shares);
        Windows {
            window_ns: (window_s * 1e9) as u64,
            stolen: self.stolen_share(started, started + Duration::from_secs_f64(seconds)),
            kept,
            degraded,
        }
    }
}

/// Which of some repeated measurements to keep, given the share of CPU time
/// stolen during each: all with at most [`QUIET_SHARE`]; if those are fewer
/// than a third (or than two), the least-stolen third instead — the second
/// value says so, and the numbers that come out are then the host's as much
/// as the program's.
pub fn keep_quiet(stolen: &[f64]) -> (Vec<bool>, bool) {
    let need = stolen.len().div_ceil(3).max(2).min(stolen.len());
    let quiet: Vec<bool> = stolen.iter().map(|&s| s <= QUIET_SHARE).collect();
    if quiet.iter().filter(|&&q| q).count() >= need {
        return (quiet, false);
    }
    let mut order: Vec<usize> = (0..stolen.len()).collect();
    order.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]));
    let mut kept = vec![false; stolen.len()];
    for &i in &order[..need] {
        kept[i] = true;
    }
    (kept, true)
}

/// Whether a repeated timing needs another sample: always up to `min`, then
/// up to `max` until four seconds have been measured in total — a 20 ms
/// set-up needs more repeats for a steady median than a 2 s one can afford.
pub fn wants_another(timed: &[(Instant, f64)], (min, max): (usize, usize)) -> bool {
    timed.len() < min || (timed.len() < max && timed.iter().map(|t| t.1).sum::<f64>() < 4.0)
}

/// Median of the repeats `(started, seconds)` the host left alone, and a
/// line saying which those were.
pub fn median_quiet(label: &str, timed: &[(Instant, f64)], steal: &StealLog) -> (f64, String) {
    let stolen: Vec<f64> = timed
        .iter()
        .map(|&(at, s)| steal.stolen_share(at, at + Duration::from_secs_f64(s)))
        .collect();
    let (kept, degraded) = keep_quiet(&stolen);
    let quiet: Vec<f64> = timed
        .iter()
        .zip(&kept)
        .filter(|(_, &k)| k)
        .map(|(t, _)| t.1)
        .collect();
    let list: Vec<String> = timed
        .iter()
        .zip(&stolen)
        .map(|(t, s)| format!("{:.3} ({:.0}%)", t.1, 100.0 * s))
        .collect();
    (
        median(&quiet),
        format!(
            "{label} samples in s (stolen): {}; {} kept{}",
            list.join(", "),
            quiet.len(),
            if degraded { " (HOST BUSY)" } else { "" }
        ),
    )
}

/// A phase's windows.
pub struct Windows {
    window_ns: u64,
    /// Share of the whole phase's CPU time that was stolen.
    pub stolen: f64,
    kept: Vec<bool>,
    /// Too few windows were quiet; the least-stolen third was kept.
    pub degraded: bool,
}

impl Windows {
    /// Whether the instant `at_ns` after the phase's start lies in a kept
    /// window. What lies past the last window is never kept.
    pub fn keeps(&self, at_ns: u64) -> bool {
        self.kept
            .get((at_ns / self.window_ns) as usize)
            .copied()
            .unwrap_or(false)
    }

    pub fn len(&self) -> usize {
        self.kept.len()
    }

    pub fn kept_count(&self) -> usize {
        self.kept.iter().filter(|&&k| k).count()
    }

    #[cfg(test)]
    pub fn of(window_s: f64, kept: Vec<bool>) -> Self {
        Self {
            window_ns: (window_s * 1e9) as u64,
            stolen: 0.0,
            kept,
            degraded: false,
        }
    }

    pub fn window_s(&self) -> f64 {
        self.window_ns as f64 / 1e9
    }

    /// `stolen 0.4%, 9 of 9 windows kept`, for the run's report.
    pub fn describe(&self) -> String {
        format!(
            "stolen {:.1}%, {} of {} windows kept{}",
            100.0 * self.stolen,
            self.kept_count(),
            self.len(),
            if self.degraded {
                " (HOST BUSY: least-stolen windows, not quiet ones)"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_measurements_are_kept_and_disturbed_ones_dropped() {
        let (kept, degraded) = keep_quiet(&[0.0, 0.01, 0.30, 0.02, 0.05, 0.0]);
        assert_eq!(kept, [true, true, false, true, false, true]);
        assert!(!degraded);
    }

    #[test]
    fn a_busy_host_leaves_the_least_stolen_third() {
        let (kept, degraded) = keep_quiet(&[0.40, 0.10, 0.55, 0.0, 0.30, 0.25, 0.60, 0.35, 0.45]);
        assert_eq!(
            kept,
            [false, true, false, true, false, true, false, false, false]
        );
        assert!(degraded);
        // Never fewer than two, never more than there are.
        assert_eq!(
            keep_quiet(&[0.5, 0.4, 0.6]),
            (vec![true, true, false], true)
        );
        assert_eq!(keep_quiet(&[0.5]), (vec![true], true));
        assert_eq!(keep_quiet(&[0.0]), (vec![true], false));
        assert_eq!(keep_quiet(&[]), (Vec::new(), false));
    }

    fn log(ticks: &[u64]) -> (Instant, StealLog) {
        let origin = Instant::now();
        let samples = ticks
            .iter()
            .enumerate()
            .map(|(i, &t)| (origin + Duration::from_millis(100 * i as u64), t))
            .collect();
        (origin, StealLog { samples, cpus: 2.0 })
    }

    #[test]
    fn stolen_share_reads_the_counter_around_the_interval() {
        // One sample per 100 ms; 10 ticks = 0.1 s stolen between 200 and 300 ms.
        let (origin, log) = log(&[0, 0, 0, 10, 10, 10, 10]);
        let at = |ms: u64| origin + Duration::from_millis(ms);
        // 0.1 s of the 0.2 s × 2 CPUs between the samples at 200 and 400 ms.
        assert!((log.stolen_share(at(250), at(350)) - 0.25).abs() < 1e-9);
        assert_eq!(log.stolen_share(at(0), at(200)), 0.0);
        assert_eq!(log.stolen_share(at(300), at(600)), 0.0);
        // Beyond the samples: the nearest ones stand in.
        assert!((log.stolen_share(at(200), at(900)) - 0.125).abs() < 1e-9);
    }

    #[test]
    fn windows_keep_what_the_host_left_alone() {
        let (origin, log) = log(&[0, 0, 0, 10, 10, 10, 10, 10, 10]);
        let w = log.windows(origin, 0.8, 0.2);
        assert_eq!(w.len(), 4);
        assert_eq!(w.kept_count(), 3);
        assert!(w.keeps(0) && w.keeps(199_999_999));
        assert!(!w.keeps(200_000_000) && !w.keeps(399_999_999));
        assert!(w.keeps(450_000_000));
        assert!(!w.keeps(800_000_000), "past the last whole window");
        assert!(!w.degraded);
        assert!(w.describe().starts_with("stolen 6."), "{}", w.describe());
    }
}
