//! One benchmark for the whole request path.
//!
//! ```sh
//! cargo run --release --manifest-path reqbench/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>] \
//!     [--repeat <n>] [--smoke] [--out <file>] [--trace-out <file>]
//! ```
//!
//! With `--workload` (and no `--repeat`) this process *is* the run: it boots
//! the real server in-process (`viderec_serve::{start, start_durable}`, two
//! workers),
//! drives it over loopback TCP from at most two generator threads, checks
//! every answer, prints each metric by name and unit, and ends its standard
//! output with the one-line JSON result `BENCHMARK.json`'s contract asks
//! for. Without `--workload`, or with `--repeat`, it runs each workload in a
//! fresh child process of this binary, so `peak_rss_mb` is per workload, and
//! `--out` collects every child's result line in one file.
//! `README.md` beside this crate has the metric glossary and the limits.

mod endtoend;
mod host;
mod inputs;
mod layers;
mod live;
mod loadgen;
mod oracle;
mod spans;
mod spec;
mod stats;
mod steal;
mod write;

use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The server runs in-process, so installing the counting allocator here
/// keeps the per-stage `alloc_bytes` counters and `/debug/heap` live — the
/// configuration the shipped serve binaries run in.
#[global_allocator]
static ALLOC: viderec_prof::CountingAlloc = viderec_prof::CountingAlloc::system();

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Adds checked operations to the run's tally.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// A line for the human reading the run.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: Option<usize>,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: None,
        repeat: None,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if args.seconds.is_nan() || args.seconds < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|_| "--repeat takes a count")?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs to have a spread".into());
                }
                args.repeat = Some(n);
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.smoke {
        args.seconds = spec::SMOKE_SECONDS;
    }
    if args.trace_out.is_some() && (args.workload.is_none() || args.repeat.is_some()) {
        return Err("--trace-out names one run's span dump: give --workload, not --repeat".into());
    }
    if let Some(name) = &args.workload {
        if spec::workload(name).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name} (one of {})",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// Unit of a metric from the frozen tables.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, values with all their digits.
fn result_line(outcome: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, value)) in outcome.metrics.iter().enumerate() {
        let unit = unit_of(name);
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a metric that could not be computed
        // reads 0.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

/// Runs one workload in this process and prints its report; the result line
/// goes last.
fn run_here(w: &Workload, args: &Args) -> ExitCode {
    let trace = args.trace.unwrap_or(false);
    let trace_out = args
        .trace_out
        .clone()
        .unwrap_or_else(|| live::out_dir().join(format!("trace-{}.json", w.name)));
    let outcome = if trace {
        layers::run(w, args.seed, args.seconds, &trace_out)
    } else {
        endtoend::run(w, args.seed, args.seconds)
    };
    let expected: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut reported: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    reported.sort_unstable();
    let mut wanted = expected.clone();
    wanted.sort_unstable();
    assert_eq!(
        reported, wanted,
        "a run reports exactly its table's metrics"
    );

    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(trace)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for name in expected {
        let value = outcome
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1);
        println!("  {name} = {value:.4} {}", unit_of(name));
    }
    println!(
        "  fail_share = {} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let line = result_line(&outcome);
    if let Some(path) = &args.out {
        write_results(path, &[run_json(w, args.seed, args.seconds, trace, &line)]);
    }
    println!("{line}");
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The results file: one host block, then the result line of every run.
fn write_results(path: &Path, runs: &[String]) {
    let file = format!(
        "{{\"host\": {}, \"runs\": [\n  {}\n]}}\n",
        host::host_json(),
        runs.join(",\n  ")
    );
    // viderec-lint: allow(durable-writes) — benchmark report artifact, not
    // serving state; losing it means re-running the benchmark.
    if let Err(e) = std::fs::write(path, file) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// One run's entry in the results file.
fn run_json(w: &Workload, seed: u64, seconds: f64, trace: bool, line: &str) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"result\": {line}}}",
        w.name,
        u8::from(trace)
    )
}

/// One child run: its result line (also appended to `runs`) and, when it
/// exited 0, the metrics in it.
fn run_child(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: &mut Vec<String>,
) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().expect("own path");
    let output = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("child starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    if result.starts_with('{') {
        runs.push(run_json(w, seed, seconds, trace, result));
    }
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        println!("{result}");
        return None;
    }
    // `"name": {"value": v, "unit": "u"}` items of the flat result line.
    let (_, metrics) = result.split_once("\"metrics\": {")?;
    Some(
        metrics
            .split("}, ")
            .filter_map(|item| {
                let (name, rest) = item.split_once("\": {\"value\": ")?;
                let value = rest.split(',').next()?.parse().ok()?;
                Some((name.trim_start_matches('"').to_string(), value))
            })
            .collect(),
    )
}

/// Parent mode: every selected workload in fresh child processes — once
/// measured and once traced, or `--repeat` times measured with the spread of
/// each end-to-end metric held against its bound (printed only, on a
/// workload `BENCHMARK.json` does not list).
fn run_children(args: &Args) -> ExitCode {
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    let mut ok = true;
    let mut summary = String::new();
    let mut results = Vec::new();
    for w in selected {
        let Some(repeat) = args.repeat else {
            for trace in [false, true] {
                if args.trace.is_none_or(|t| t == trace) {
                    ok &= run_child(w, args.seed, args.seconds, trace, &mut results).is_some();
                }
            }
            continue;
        };
        // Like the acceptance check: a different seed per run.
        let runs: Vec<_> = (0..repeat as u64)
            .filter_map(|i| run_child(w, args.seed + i, args.seconds, false, &mut results))
            .collect();
        ok &= runs.len() == repeat;
        if runs.len() < 2 {
            continue;
        }
        let _ = writeln!(summary, "{} over {} runs:", w.name, runs.len());
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                .collect();
            let sorted = stats::sorted(values.clone());
            let spread = stats::relative_spread(&values);
            let within = spread <= m.bound || args.smoke || !w.bounded;
            ok &= within;
            let _ = writeln!(
                summary,
                "  {:<24} min {:>10.4}  median {:>10.4}  max {:>10.4} {:<4} spread {:>5.1}% (bound {:>4.1}%){}",
                m.name,
                sorted[0],
                stats::median(&values),
                sorted[sorted.len() - 1],
                m.unit,
                100.0 * spread,
                100.0 * m.bound,
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    print!("{summary}");
    println!("host {}", host::host_json());
    if let Some(path) = &args.out {
        write_results(path, &results);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--print-benchmark-json") {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("reqbench: {msg}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.repeat) {
        (Some(name), None) => run_here(spec::workload(name).expect("checked"), &args),
        _ => run_children(&args),
    }
}
