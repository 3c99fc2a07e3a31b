//! Bench-regression diffing: compare a freshly generated `BENCH_*.json`
//! artifact against the committed baseline with per-metric tolerances.
//!
//! The engine is three layers, each testable on synthetic input:
//!
//! 1. a dependency-free JSON reader ([`Json::parse`]) — the bench artifacts
//!    are machine-written, so the reader accepts exactly standard JSON and
//!    nothing more;
//! 2. a flattener ([`flatten`]) turning a document into `path → f64` pairs.
//!    Array elements carrying a discriminator field (`strategy`, `stage`,
//!    `mode`, `videos`) are keyed by it (`results[strategy=CSF].speedup`),
//!    so reordering a results array never mispairs metrics;
//! 3. the differ ([`diff`]) — every flattened metric whose *leaf* name has a
//!    [`Spec`] is compared directionally against the baseline. Worsening
//!    past the spec's relative tolerance is a regression; a baseline metric
//!    absent from the fresh artifact is a failure too (a silently dropped
//!    metric is how a gate rots).
//!
//! Quick mode keeps only machine-independent specs — counters, rates and
//! recall that are deterministic given the seed — so the CI gate holds on
//! any runner, while a full diff on a calibrated host also gates the timing
//! metrics. [`trajectory_append`] records each fresh artifact's gated
//! metrics into `BENCH_TRAJECTORY.json`, the append-only history the perf
//! dashboards (and the next regression hunt) read.

use std::fmt::Write as _;

/// A parsed JSON value. Numbers are `f64` — bench metrics, not ids.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            at: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.at != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.at));
        }
        Ok(v)
    }

    /// Member lookup on an object (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`: numbers as-is, bools as 0/1.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Bool(b) => Some(f64::from(u8::from(*b))),
            _ => None,
        }
    }

    /// Renders back to compact JSON (stable member order; numbers in
    /// shortest-roundtrip form). Used to rewrite the trajectory file.
    pub fn render(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    b: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of document".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while matches!(
            self.b.get(self.at),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.at += 1;
        }
        std::str::from_utf8(&self.b[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.at) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = *self.b.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(format!("bad \\u escape at byte {}", self.at))?;
                            self.at += 4;
                            // Surrogate pairs don't occur in bench output;
                            // map a lone surrogate to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at - 1)),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar verbatim.
                    let rest = std::str::from_utf8(&self.b[self.at..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.b.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.b.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            members.push((key, self.value()?));
            self.ws();
            match self.b.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }
}

/// Fields that name an array element better than its index.
const DISCRIMINATORS: [&str; 4] = ["strategy", "stage", "mode", "videos"];

/// Flattens a document into `path → f64` pairs: numbers as-is, bools as
/// 0/1, strings and nulls skipped. See the module doc for array keying.
pub fn flatten(j: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk("", j, &mut out);
    out
}

fn walk(prefix: &str, j: &Json, out: &mut Vec<(String, f64)>) {
    match j {
        Json::Num(_) | Json::Bool(_) => {
            if let Some(v) = j.as_f64() {
                out.push((prefix.to_string(), v));
            }
        }
        Json::Obj(members) => {
            for (k, v) in members {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                walk(&path, v, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                let key = DISCRIMINATORS
                    .iter()
                    .find_map(|d| {
                        v.get(d).and_then(|val| match val {
                            Json::Str(s) => Some(format!("{d}={s}")),
                            Json::Num(n) => Some(format!("{d}={n}")),
                            _ => None,
                        })
                    })
                    .unwrap_or_else(|| i.to_string());
                walk(&format!("{prefix}[{key}]"), v, out);
            }
        }
        Json::Str(_) | Json::Null => {}
    }
}

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (speedup, recall, prune rate).
    HigherIsBetter,
    /// Smaller is better (latency, scanned ratio, error counts).
    LowerIsBetter,
}

/// Tolerance policy for one metric leaf name.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The flattened path's final segment this spec gates.
    pub leaf: &'static str,
    /// Which direction is an improvement.
    pub dir: Direction,
    /// Allowed relative worsening before the diff fails (0.05 = 5%).
    pub rel_tol: f64,
    /// Deterministic given the seed — safe to gate on any CI runner.
    pub machine_independent: bool,
}

const fn spec(leaf: &'static str, dir: Direction, rel_tol: f64, mi: bool) -> Spec {
    Spec {
        leaf,
        dir,
        rel_tol,
        machine_independent: mi,
    }
}

use Direction::{HigherIsBetter as HI, LowerIsBetter as LO};

/// The gated metrics. Leaf names not listed here are informational only.
///
/// Tolerances: machine-independent counters get tight bounds (they only
/// move when the algorithm changes); wall-clock metrics get slack for
/// scheduler noise and are excluded from quick mode entirely.
pub const SPECS: &[Spec] = &[
    // -- machine-independent: counters, rates, exactness --
    spec("prune_rate", HI, 0.05, true),
    spec("exact_evals", LO, 0.05, true),
    spec("full_exact_sweeps", LO, 0.05, true),
    spec("recall_at_20", HI, 0.0, true),
    spec("min_recall_at_20", HI, 0.0, true),
    spec("scanned_ratio", LO, 0.10, true),
    spec("max_scanned_ratio", LO, 0.10, true),
    spec("naive_identical", HI, 0.0, true),
    // Fig. 5's decisions on the `scale` bin's write path.
    spec("merges", LO, 0.0, true),
    spec("splits", LO, 0.0, true),
    spec("videos_rewritten", LO, 0.0, true),
    // The `scale` bin's seed snapshot: the on-disk format, to the byte.
    spec("snapshot_bytes", LO, 0.0, true),
    // -- wall-clock: same-host comparisons only --
    spec("speedup", HI, 0.25, false),
    spec("pruned_ms_per_query", LO, 0.30, false),
    spec("ms_per_query", LO, 0.40, false),
    spec("mean_ms_per_query", LO, 0.40, false),
    spec("apply_ms", LO, 0.40, false),
    spec("durable_boot_ms", LO, 0.40, false),
    spec("recover_ms", LO, 0.40, false),
    spec("throughput_rps", HI, 0.30, false),
    spec("p50_micros", LO, 0.50, false),
    spec("p99_micros", LO, 0.75, false),
];

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Row {
    /// Flattened metric path.
    pub key: String,
    /// Baseline value.
    pub base: f64,
    /// Fresh value (`None`: the metric vanished).
    pub cur: Option<f64>,
    /// Relative worsening (positive = worse, per the spec's direction).
    pub worsened: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Outcome per metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance.
    Ok,
    /// Better than baseline by more than the tolerance.
    Improved,
    /// Worse than baseline by more than the tolerance — fails the gate.
    Regressed,
    /// Present in the baseline, absent from the fresh artifact — fails.
    Missing,
}

/// The result of diffing one artifact pair.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Every gated metric, baseline order.
    pub rows: Vec<Row>,
    /// Whether timing specs were skipped (quick mode).
    pub quick: bool,
}

impl DiffReport {
    /// Whether the gate fails (any regression or vanished metric).
    pub fn failed(&self) -> bool {
        self.rows
            .iter()
            .any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
    }

    /// Human-readable table, worst first.
    pub fn render(&self, label: &str) -> String {
        let mut out = String::new();
        let (mut reg, mut miss, mut imp, mut ok) = (0, 0, 0, 0);
        for r in &self.rows {
            match r.verdict {
                Verdict::Regressed => reg += 1,
                Verdict::Missing => miss += 1,
                Verdict::Improved => imp += 1,
                Verdict::Ok => ok += 1,
            }
        }
        let _ = writeln!(
            out,
            "== bench-diff {label} ({} mode): {} gated, {ok} ok, {imp} improved, \
             {reg} regressed, {miss} missing ==",
            if self.quick { "quick" } else { "full" },
            self.rows.len(),
        );
        let mut sorted: Vec<&Row> = self.rows.iter().collect();
        sorted.sort_by(|a, b| {
            let rank = |v: Verdict| match v {
                Verdict::Missing => 0,
                Verdict::Regressed => 1,
                Verdict::Improved => 2,
                Verdict::Ok => 3,
            };
            rank(a.verdict)
                .cmp(&rank(b.verdict))
                .then(b.worsened.total_cmp(&a.worsened))
        });
        for r in sorted {
            let tag = match r.verdict {
                Verdict::Ok => "ok       ",
                Verdict::Improved => "improved ",
                Verdict::Regressed => "REGRESSED",
                Verdict::Missing => "MISSING  ",
            };
            match r.cur {
                Some(cur) => {
                    let _ = writeln!(
                        out,
                        "{tag} {:<60} {:>12.4} -> {:>12.4} ({:+.1}%)",
                        r.key,
                        r.base,
                        cur,
                        100.0 * r.worsened
                    );
                }
                None => {
                    let _ = writeln!(out, "{tag} {:<60} {:>12.4} -> (absent)", r.key, r.base);
                }
            }
        }
        out
    }
}

fn leaf_of(key: &str) -> &str {
    key.rsplit('.').next().unwrap_or(key)
}

fn spec_for(key: &str, quick: bool) -> Option<&'static Spec> {
    let leaf = leaf_of(key);
    SPECS
        .iter()
        .find(|s| s.leaf == leaf && (!quick || s.machine_independent))
}

/// Diffs two parsed artifacts. Every baseline metric with an (active) spec
/// is compared; quick mode gates only the machine-independent specs.
pub fn diff(base: &Json, cur: &Json, quick: bool) -> DiffReport {
    let base_flat = flatten(base);
    let cur_flat = flatten(cur);
    let mut rows = Vec::new();
    for (key, base_v) in &base_flat {
        let Some(s) = spec_for(key, quick) else {
            continue;
        };
        let cur_v = cur_flat.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        let row = match cur_v {
            None => Row {
                key: key.clone(),
                base: *base_v,
                cur: None,
                worsened: f64::INFINITY,
                verdict: Verdict::Missing,
            },
            Some(cur_v) => {
                let denom = base_v.abs().max(1e-9);
                let worsened = match s.dir {
                    Direction::HigherIsBetter => (base_v - cur_v) / denom,
                    Direction::LowerIsBetter => (cur_v - base_v) / denom,
                };
                let verdict = if worsened > s.rel_tol + 1e-12 {
                    Verdict::Regressed
                } else if worsened < -(s.rel_tol + 1e-12) {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                Row {
                    key: key.clone(),
                    base: *base_v,
                    cur: Some(cur_v),
                    worsened,
                    verdict,
                }
            }
        };
        rows.push(row);
    }
    DiffReport { rows, quick }
}

/// Appends one dated entry to the trajectory file (creating it on first
/// use): the gated metrics of a fresh artifact, keyed by flattened path.
/// The file is `{"entries": [...]}` — append-only history, newest last.
pub fn trajectory_append(path: &str, date: &str, label: &str, fresh: &Json) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(s) => Json::parse(&s).map_err(|e| format!("{path}: {e}"))?,
        Err(_) => Json::Obj(vec![("entries".to_string(), Json::Arr(Vec::new()))]),
    };
    let mut metrics = Vec::new();
    for (key, v) in flatten(fresh) {
        if spec_for(&key, false).is_some() {
            metrics.push((key, Json::Num(v)));
        }
    }
    let entry = Json::Obj(vec![
        ("date".to_string(), Json::Str(date.to_string())),
        ("bench".to_string(), Json::Str(label.to_string())),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    let Json::Obj(members) = &mut doc else {
        return Err(format!("{path}: not an object"));
    };
    match members.iter_mut().find(|(k, _)| k == "entries") {
        Some((_, Json::Arr(entries))) => entries.push(entry),
        _ => members.push(("entries".to_string(), Json::Arr(vec![entry]))),
    }
    // Pretty enough to diff in review: one entry per line.
    let mut out = String::from("{\"entries\": [\n");
    let Json::Obj(members) = &doc else {
        unreachable!()
    };
    if let Some((_, Json::Arr(entries))) = members.iter().find(|(k, _)| k == "entries") {
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            e.render(&mut out);
        }
    }
    out.push_str("\n]}\n");
    // viderec-lint: allow(durable-writes) — bench-history artifact, not
    // durable serving state; loss on crash only means re-running bench_diff.
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days; no date dependency).
pub fn today_utc() -> String {
    let days = (std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
        .as_secs()
        / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
        "bench": "synthetic",
        "results": [
            {"strategy": "CSF", "speedup": 2.5, "prune_rate": 0.20,
             "pruned_ms_per_query": 7.6, "recall_at_20": 1.0},
            {"strategy": "CSF-SAR-H", "speedup": 3.7, "prune_rate": 0.21,
             "pruned_ms_per_query": 4.7, "recall_at_20": 1.0}
        ],
        "points": [
            {"videos": 1000, "max_scanned_ratio": 0.30, "naive_identical": true}
        ]
    }"#;

    fn base() -> Json {
        Json::parse(BASE).unwrap()
    }

    #[test]
    fn parser_roundtrips_the_committed_shapes() {
        let j = base();
        assert_eq!(j.get("bench"), Some(&Json::Str("synthetic".to_string())));
        let mut out = String::new();
        j.render(&mut out);
        assert_eq!(Json::parse(&out).unwrap(), j);
        // Escapes and exponents survive.
        let tricky = r#"{"s": "a\"b\\c\ndA", "n": -1.5e3, "z": [true, null]}"#;
        let t = Json::parse(tricky).unwrap();
        assert_eq!(t.get("s"), Some(&Json::Str("a\"b\\c\ndA".to_string())));
        assert_eq!(t.get("n").and_then(Json::as_f64), Some(-1500.0));
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn flatten_keys_arrays_by_discriminator() {
        let flat = flatten(&base());
        let get = |k: &str| {
            flat.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("no {k} in {flat:?}"))
        };
        assert_eq!(get("results[strategy=CSF].speedup"), 2.5);
        assert_eq!(get("results[strategy=CSF-SAR-H].prune_rate"), 0.21);
        assert_eq!(get("points[videos=1000].max_scanned_ratio"), 0.30);
        assert_eq!(get("points[videos=1000].naive_identical"), 1.0);
        // Reordering the array does not change the keys.
        let swapped = BASE.replacen("CSF\"", "XX\"", 1); // rename, keep shape
        let flat2 = flatten(&Json::parse(&swapped).unwrap());
        assert!(flat2.iter().any(|(k, _)| k.contains("strategy=XX")));
    }

    #[test]
    fn identical_artifacts_pass() {
        let report = diff(&base(), &base(), false);
        assert!(!report.failed());
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::Ok));
        // Every spec'd leaf was gated: 2x(speedup, prune_rate, ms, recall)
        // + max_scanned_ratio + naive_identical.
        assert_eq!(report.rows.len(), 10);
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        // prune_rate 0.21 -> 0.15 is a 28% drop; tolerance is 5%.
        let cur = BASE.replace("\"prune_rate\": 0.21", "\"prune_rate\": 0.15");
        let report = diff(&base(), &Json::parse(&cur).unwrap(), true);
        assert!(report.failed());
        let bad: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].key, "results[strategy=CSF-SAR-H].prune_rate");
        assert!(report.render("synthetic").contains("REGRESSED"));
    }

    #[test]
    fn improvement_is_reported_not_failed() {
        let cur = BASE.replace("\"speedup\": 3.7", "\"speedup\": 9.9");
        let report = diff(&base(), &Json::parse(&cur).unwrap(), false);
        assert!(!report.failed());
        assert!(report
            .rows
            .iter()
            .any(|r| r.verdict == Verdict::Improved
                && r.key == "results[strategy=CSF-SAR-H].speedup"));
    }

    #[test]
    fn missing_metric_fails() {
        let cur = BASE.replace("\"prune_rate\": 0.21,", "");
        let report = diff(&base(), &Json::parse(&cur).unwrap(), true);
        assert!(report.failed());
        assert!(report
            .rows
            .iter()
            .any(|r| r.verdict == Verdict::Missing
                && r.key == "results[strategy=CSF-SAR-H].prune_rate"));
        assert!(report.render("synthetic").contains("(absent)"));
    }

    #[test]
    fn quick_mode_ignores_timing_regressions() {
        // 10x slower + slight speedup loss: catastrophic on a calibrated
        // host, invisible to the machine-independent gate.
        let cur = BASE
            .replace(
                "\"pruned_ms_per_query\": 4.7",
                "\"pruned_ms_per_query\": 47.0",
            )
            .replace("\"speedup\": 3.7", "\"speedup\": 1.9");
        let quick = diff(&base(), &Json::parse(&cur).unwrap(), true);
        assert!(!quick.failed(), "{}", quick.render("synthetic"));
        let full = diff(&base(), &Json::parse(&cur).unwrap(), false);
        assert!(full.failed());
    }

    #[test]
    fn exact_specs_fail_on_any_drop() {
        let cur = BASE.replacen("\"recall_at_20\": 1.0", "\"recall_at_20\": 0.999", 1);
        let report = diff(&base(), &Json::parse(&cur).unwrap(), true);
        assert!(report.failed());
        let cur = BASE.replace("\"naive_identical\": true", "\"naive_identical\": false");
        assert!(diff(&base(), &Json::parse(&cur).unwrap(), true).failed());
    }

    #[test]
    fn trajectory_appends_and_reparses() {
        let dir = std::env::temp_dir().join(format!("viderec_bench_diff_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_TRAJECTORY.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        trajectory_append(path, "2026-08-07", "synthetic", &base()).unwrap();
        trajectory_append(path, "2026-08-08", "synthetic", &base()).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::Arr(entries)) = doc.get("entries") else {
            panic!("no entries array");
        };
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0].get("date"),
            Some(&Json::Str("2026-08-07".to_string()))
        );
        let metrics = entries[1].get("metrics").expect("metrics object");
        assert_eq!(
            metrics
                .get("results[strategy=CSF-SAR-H].speedup")
                .and_then(Json::as_f64),
            Some(3.7)
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn today_utc_is_iso_shaped() {
        let d = today_utc();
        assert_eq!(d.len(), 10);
        assert_eq!(&d[4..5], "-");
        assert_eq!(&d[7..8], "-");
        assert!(d[..4].parse::<u32>().unwrap() >= 2024);
    }
}
