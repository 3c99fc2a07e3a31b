//! The load generators: a closed loop for capacity and an open loop that
//! times every request from the instant it was *due*, so a stall anywhere
//! (server or generator) is charged to every request it delayed.
//!
//! State is shared through a `Mutex` and join handles only; every sender
//! takes its clock and its `send` as parameters, which is what lets the unit
//! tests drive the open loop against a fake clock.

use crate::steal::Windows;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it was due (open loop) or sent (closed loop), from phase start.
    pub due_ns: u64,
    /// Due time → response fully read.
    pub latency_ns: u64,
    /// How long after its due time the sender got to it.
    pub late_ns: u64,
    /// Requests due but not yet picked up when this one was.
    pub backlog: u64,
    /// 2xx and the answer checked out.
    pub ok: bool,
}

/// Time source of a phase, in nanoseconds from phase start.
pub trait Clock: Sync {
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= ns`.
    fn wait_until(&self, ns: u64);
}

/// The monotonic clock. Sleeps to within 200 µs of the target, then polls,
/// yielding between reads: a sender that slept until its due time would
/// report the scheduler's wake-up jitter as lateness, and one that spun
/// without yielding would take a core from the server it is timing. (Polling
/// from a full millisecond out was tried: `serve_light`'s percentiles turned
/// bimodal.)
pub struct RealClock(Instant);

impl RealClock {
    pub fn start() -> Self {
        Self(Instant::now())
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, ns: u64) {
        const SPIN_BELOW_NS: u64 = 200_000;
        loop {
            let now = self.now_ns();
            if now >= ns {
                return;
            }
            if ns - now > SPIN_BELOW_NS {
                std::thread::sleep(Duration::from_nanos(ns - now - SPIN_BELOW_NS));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// A fixed-rate arrival schedule: request `i` is due at `i · interval`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub interval_ns: u64,
    /// Requests in the schedule (`usize::MAX`: until `stop` says so).
    pub count: usize,
}

impl Schedule {
    pub fn at_rate(rps: f64, seconds: f64) -> Self {
        Self {
            interval_ns: (1e9 / rps) as u64,
            count: (rps * seconds) as usize,
        }
    }

    pub fn until_stopped(rps: f64) -> Self {
        Self {
            interval_ns: (1e9 / rps) as u64,
            count: usize::MAX,
        }
    }
}

/// One open-loop sender: pulls the next sequence number from the shared
/// schedule, waits for its due time, sends, and records latency from the due
/// time. Run one per connection.
pub fn open_loop_sender(
    clock: &dyn Clock,
    schedule: Schedule,
    next: &Mutex<usize>,
    stop: &dyn Fn() -> bool,
    send: &dyn Fn(usize) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    loop {
        let seq = {
            let mut n = next.lock().expect("a sender panicked");
            if *n >= schedule.count || stop() {
                break;
            }
            *n += 1;
            *n - 1
        };
        let due_ns = seq as u64 * schedule.interval_ns;
        clock.wait_until(due_ns);
        let started = clock.now_ns();
        let ok = send(seq);
        samples.push(Sample {
            due_ns,
            latency_ns: clock.now_ns() - due_ns,
            late_ns: started - due_ns,
            backlog: (started / schedule.interval_ns).saturating_sub(seq as u64),
            ok,
        });
    }
    samples
}

/// What a load phase produced: when it started, its samples (times are from
/// that start), and how long it ran.
pub struct Phase {
    pub started: Instant,
    pub samples: Vec<Sample>,
    pub wall_s: f64,
}

/// Runs `connections` open-loop senders over one schedule; samples come back
/// ordered by due time.
pub fn open_loop(
    connections: usize,
    schedule: Schedule,
    stop: &(dyn Fn() -> bool + Sync),
    send: &(dyn Fn(usize) -> bool + Sync),
) -> Phase {
    let clock = RealClock::start();
    let next = Mutex::new(0usize);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let senders: Vec<_> = (0..connections)
            .map(|_| s.spawn(|| open_loop_sender(&clock, schedule, &next, stop, send)))
            .collect();
        senders
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread"))
            .collect()
    });
    samples.sort_by_key(|s| s.due_ns);
    Phase {
        started: clock.0,
        samples,
        wall_s: clock.now_ns() as f64 / 1e9,
    }
}

/// Runs `connections` closed-loop clients for `seconds`: each sends its next
/// request the moment the previous answer is read. Client `c` walks sequence
/// numbers `c, c + connections, …`; samples come back ordered per client.
pub fn closed_loop(
    connections: usize,
    seconds: f64,
    send: &(dyn Fn(usize) -> bool + Sync),
) -> Phase {
    let clock = RealClock::start();
    let deadline_ns = (seconds * 1e9) as u64;
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..connections)
            .map(|c| {
                let clock = &clock;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut seq = c;
                    loop {
                        let sent = clock.now_ns();
                        if sent >= deadline_ns {
                            return samples;
                        }
                        let ok = send(seq);
                        samples.push(Sample {
                            due_ns: sent,
                            latency_ns: clock.now_ns() - sent,
                            late_ns: 0,
                            backlog: 0,
                            ok,
                        });
                        seq += connections;
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    Phase {
        started: clock.0,
        samples,
        wall_s: clock.now_ns() as f64 / 1e9,
    }
}

/// p95 of how late the senders got to their requests, in milliseconds.
pub fn late_p95_ms(samples: &[Sample]) -> f64 {
    let mut late: Vec<u64> = samples.iter().map(|s| s.late_ns).collect();
    late.sort_unstable();
    let rank = (late.len() as f64 * 0.95).ceil() as usize;
    late.get(rank.saturating_sub(1))
        .map_or(0.0, |&ns| ns as f64 / 1e6)
}

/// Correct answers per second of a closed-loop phase over its kept windows
/// (a request belongs to the window it completed in): all of them counted,
/// over all of their time.
pub fn kept_rate(samples: &[Sample], windows: &Windows) -> f64 {
    // A request sent before the deadline may finish after it, in no window.
    let done = samples
        .iter()
        .filter(|s| s.ok && windows.keeps(s.due_ns + s.latency_ns))
        .count();
    done as f64 / (windows.kept_count() as f64 * windows.window_s())
}

/// Whether an open-loop step's send backlog kept growing: larger over the
/// last tenth of the step than over the tenth around its middle (means, so
/// one slow answer is not a trend), by more than the in-flight allowance — a
/// backlog of `connections` is every sender mid-request, not a queue.
pub fn backlog_growing(samples: &[Sample], connections: usize) -> bool {
    let n = samples.len();
    let tenth = (n / 10).max(1);
    let mean = |part: &[Sample]| {
        part.iter().map(|s| s.backlog as f64).sum::<f64>() / part.len().max(1) as f64
    };
    n > 0
        && mean(&samples[n - tenth.min(n)..])
            > mean(&samples[n / 2..(n / 2 + tenth).min(n)]) + connections as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to: waiting jumps to the target,
    /// `send` advances it by the service time.
    struct FakeClock(Mutex<u64>);

    impl FakeClock {
        fn advance(&self, ns: u64) {
            *self.0.lock().unwrap() += ns;
        }
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            *self.0.lock().unwrap()
        }

        fn wait_until(&self, ns: u64) {
            let mut t = self.0.lock().unwrap();
            *t = (*t).max(ns);
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn a_stall_inflates_the_requests_behind_it() {
        // 500 rps, 1 ms service time, request 5 stalls for 50 ms.
        let clock = FakeClock(Mutex::new(0));
        let schedule = Schedule {
            interval_ns: 2 * MS,
            count: 80,
        };
        let next = Mutex::new(0);
        let samples = open_loop_sender(&clock, schedule, &next, &|| false, &|seq| {
            clock.advance(if seq == 5 { 50 * MS } else { MS });
            true
        });
        assert_eq!(samples.len(), 80);
        assert!(samples[..5]
            .iter()
            .all(|s| s.latency_ns == MS && s.late_ns == 0));
        assert_eq!(samples[5].latency_ns, 50 * MS);
        // Request 6 was due at 12 ms but could only start at 60 ms: a
        // closed-loop timer would report 1 ms here.
        assert_eq!(samples[6].late_ns, 48 * MS);
        assert_eq!(samples[6].latency_ns, 49 * MS);
        assert_eq!(samples[6].backlog, 24);
        // The backlog drains at 1 ms per request against 2 ms arrivals.
        assert!(samples[7].latency_ns < samples[6].latency_ns);
        let caught_up = samples.iter().skip(6).position(|s| s.late_ns == 0);
        assert!(matches!(caught_up, Some(n) if n > 20), "{caught_up:?}");
    }

    #[test]
    fn senders_stop_when_told() {
        let clock = FakeClock(Mutex::new(0));
        let next = Mutex::new(0);
        let sent = Mutex::new(0usize);
        let samples = open_loop_sender(
            &clock,
            Schedule {
                interval_ns: MS,
                count: usize::MAX,
            },
            &next,
            &|| *sent.lock().unwrap() >= 7,
            &|_| {
                *sent.lock().unwrap() += 1;
                true
            },
        );
        assert_eq!(samples.len(), 7);
    }

    fn step(backlogs: &[u64]) -> Vec<Sample> {
        backlogs
            .iter()
            .enumerate()
            .map(|(i, &backlog)| Sample {
                due_ns: i as u64 * MS,
                latency_ns: MS,
                late_ns: 0,
                backlog,
                ok: true,
            })
            .collect()
    }

    #[test]
    fn growing_backlog_is_detected() {
        // Overload: the queue keeps getting longer.
        assert!(backlog_growing(&step(&[0, 1, 3, 5, 8, 11, 15, 19, 24]), 2));
        let ramp: Vec<u64> = (0..200).map(|i| i / 4).collect();
        assert!(backlog_growing(&step(&ramp), 2));
        // One slow answer at the very end is not a trend.
        let mut blip = vec![0u64; 200];
        blip[199] = 9;
        assert!(!backlog_growing(&step(&blip), 2));
        // A burst that drains is not growth.
        assert!(!backlog_growing(&step(&[0, 9, 9, 8, 6, 4, 2, 1, 0]), 2));
        // Two senders mid-request are not a queue.
        assert!(!backlog_growing(&step(&[0, 1, 0, 2, 1, 0, 2, 1, 2]), 2));
        // Steady but saturated: long, not growing.
        assert!(!backlog_growing(
            &step(&[30, 31, 30, 29, 31, 30, 31, 30, 31]),
            2
        ));
        assert!(!backlog_growing(&[], 2));
    }

    #[test]
    fn kept_rate_counts_kept_windows_only() {
        // 1000 rps for 5 s, except that nothing completes during second 2.
        let samples: Vec<Sample> = (0..5000u64)
            .filter(|i| !(2000..3000).contains(i))
            .map(|i| Sample {
                due_ns: i * MS,
                latency_ns: MS / 2,
                late_ns: 0,
                backlog: 0,
                ok: true,
            })
            .collect();
        let all = Windows::of(1.0, vec![true; 5]);
        assert_eq!(kept_rate(&samples, &all), 800.0);
        // The host took second 2: neither its time nor its requests count.
        let quiet = Windows::of(1.0, vec![true, true, false, true, true]);
        assert_eq!(kept_rate(&samples, &quiet), 1000.0);
        // Wrong answers do not count as capacity.
        let wrong: Vec<Sample> = samples.iter().map(|s| Sample { ok: false, ..*s }).collect();
        assert_eq!(kept_rate(&wrong, &all), 0.0);
    }

    #[test]
    fn schedule_counts_follow_rate_and_duration() {
        let s = Schedule::at_rate(250.0, 4.0);
        assert_eq!(s.count, 1000);
        assert_eq!(s.interval_ns, 4 * MS);
    }
}
