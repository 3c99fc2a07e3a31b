//! The repo-invariant rule engine behind the `viderec-lint` binary.
//!
//! Pure: it takes `(path, contents)` pairs plus the text of `ATOMICS.md` and
//! returns findings — no filesystem, no process exit — so every rule is unit
//! testable against synthetic workspaces. All matching runs on the token
//! stream from [`crate::lex`], never on raw text: `Ordering::Acquire` inside
//! a string or a comment is one `Str`/comment token and cannot trip a rule.
//!
//! # Rules
//!
//! * **`atomics-audit`** — every `Ordering::{Relaxed,Acquire,Release,AcqRel,
//!   SeqCst}` site in shipped code must have a row in `ATOMICS.md` matching
//!   its `path::enclosing_item` key (`#n` for the n-th identical site in an
//!   item) and ordering, with a non-empty justification. Stale rows (no
//!   matching site anymore) fail too, so the table cannot rot. Importing
//!   `atomic::Ordering` under another name (`Ordering as X`) is itself a
//!   finding: `X::Relaxed` is not a token run the audit can see.
//! * **`serve-no-panic`** — no `.unwrap(` / `.expect(` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` on the serve request path
//!   (`crates/serve/src`), excluding `#[cfg(test)]` regions.
//! * **`wallclock`** — no `Instant::now` in deterministic crates; timing
//!   belongs to the tracer (and `eval`'s experiment harness, under waiver).
//! * **`reader-locks`** — no `Mutex`/`RwLock` identifiers in reader-side
//!   crates; readers stay lock-free (atomics and epoch snapshots).
//! * **`corpus-enumeration`** — the recommend path
//!   (`crates/core/src/recommender.rs`) must
//!   not enumerate the corpus: `all_video_indices` may appear only at its
//!   definition or under a waiver, and `<x>.videos.len()` is flagged as an
//!   enumeration seed. The sanctioned sites — the naive reference scan, the
//!   bound-only certificate sweep, the zero-fill tail, corpus-size metadata —
//!   carry waivers stating why they are allowed.
//! * **`emd-direct-call`** — the hot paths (`crates/core/src`,
//!   `crates/serve/src`) must not call the sorting `emd_1d(` entry point:
//!   scoring goes through the arena's presorted SoA lanes
//!   (`emd_1d_soa_capped` via `kappa_exact_cached`), which skip the
//!   per-call sort and allocation. `#[cfg(test)]` regions are exempt —
//!   tests may use `emd_1d` as a reference oracle.
//! * **`durable-writes`** — mutating `std::fs` calls (`fs::write`,
//!   `fs::rename`, `File::create`, `OpenOptions::new`, …) are banned in
//!   shipped code outside `crates/wal/src`: durable state goes through the
//!   WAL/snapshot subsystem so crash-safety reasoning stays in one crate.
//!   `#[cfg(test)]` regions are exempt; benchmark report writers and other
//!   non-durability outputs carry waivers saying so.
//! * **`signal-safe`** — `crates/prof/src/signal.rs` (everything in it may
//!   run inside the SIGPROF handler) must stay async-signal-safe: no
//!   allocating/formatting/panicking macros (`format!`, `vec!`, `panic!`,
//!   `assert!`, …), no allocating or blocking method calls (`.unwrap()`,
//!   `.to_string()`, `.clone()`, `.lock()`, …), and no heap or lock types
//!   (`Vec`, `String`, `Box`, `Arc`, `Mutex`, …). `#[cfg(test)]` regions
//!   are exempt; a site that provably cannot run in the handler carries a
//!   waiver saying why. **Transitive:** the same tokens are additionally
//!   banned in every function the call graph (see [`crate::callgraph`])
//!   reaches from the SIGPROF `handler`, whatever file it lives in; the
//!   finding carries the call chain. A waiver on the violating line — or on
//!   the function's `fn` line, waiving the whole body — suppresses it.
//! * **`serve-no-panic` (transitive)** — beyond the `crates/serve/src` file
//!   scan above, every function reachable from `handle_connection` (the
//!   request-path entry point) is checked for the same panic tokens, with
//!   the call chain in the finding and the same waiver-at-any-node rule.
//! * **`unsafe-audit`** — every `unsafe` block/fn/impl in shipped crates
//!   *and their integration tests* needs (a) a `// SAFETY:` comment run
//!   directly above it (for `unsafe fn`/`unsafe impl` items a doc comment
//!   with a `# Safety` section also qualifies), and (b) a justified
//!   `path::enclosing_item` row in the checked-in `SAFETY.md` table. Stale rows fail
//!   too. Like `atomics-audit` it cannot be waived — the table *is* the
//!   escape hatch, and `viderec-lint --print-safety-rows` regenerates its
//!   skeleton.
//!
//! # Waivers
//!
//! `// viderec-lint: allow(<rule>) — <reason>` waives `<rule>` on the
//! comment's own lines, any directly following comment lines, and the first
//! line after the comment run (so a multi-line explanation still covers the
//! code right below it; a blank line ends the run). The marker must open the
//! comment (mentioning the syntax mid-sentence, as this paragraph does, is
//! inert). The reason is mandatory; a waiver without one is itself a finding.
//! `atomics-audit` cannot be waived — its escape hatch is the audit table.

use std::collections::{HashMap, HashSet};

use crate::callgraph::CallGraph;
use crate::lex::{lex, significant, Token, TokenKind};
use crate::parse::{parse_file, ParsedFile};

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line the finding anchors to.
    pub line: u32,
    /// Rule identifier (also the name accepted by `allow(...)` waivers).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Read-hot crates whose lookups run inside the serve loop: no blocking
/// primitives allowed anywhere in their `src/` trees.
const READER_CRATES: [&str; 6] = ["core", "emd", "index", "signature", "social", "video"];

/// Crates that must stay wall-clock free so replays and model runs are
/// deterministic (trace/serve/bench own the clock; check shims it away).
const WALLCLOCK_CRATES: [&str; 7] = [
    "core",
    "emd",
    "eval",
    "index",
    "signature",
    "social",
    "video",
];

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

/// Rules a `// viderec-lint: allow(...)` comment may waive.
const WAIVABLE: [&str; 7] = [
    "serve-no-panic",
    "wallclock",
    "reader-locks",
    "corpus-enumeration",
    "emd-direct-call",
    "durable-writes",
    "signal-safe",
];

/// The one module whose every function may execute inside the SIGPROF
/// handler, and therefore must be async-signal-safe throughout.
const SIGNAL_SAFE_SCOPE: &str = "crates/prof/src/signal.rs";

/// The SIGPROF handler entry point: the root of the transitive
/// `signal-safe` walk.
const SIGNAL_ROOT: (&str, &str) = (SIGNAL_SAFE_SCOPE, "handler");

/// The request-path entry point: the root of the transitive
/// `serve-no-panic` walk.
const SERVE_ROOT: (&str, &str) = ("crates/serve/src/server.rs", "handle_connection");

/// How many call-chain hops a transitive finding prints before eliding the
/// middle (chains through deep index code can be a dozen frames).
const CHAIN_DISPLAY: usize = 5;

/// Macros whose expansion allocates, formats, or reaches the panic
/// machinery — all fatal inside a signal handler.
const SIGNAL_UNSAFE_MACROS: [&str; 19] = [
    "format",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
    "vec",
    "dbg",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Method calls that allocate, panic, or block — none reentrant.
const SIGNAL_UNSAFE_METHODS: [&str; 8] = [
    "unwrap",
    "expect",
    "to_string",
    "to_owned",
    "to_vec",
    "clone",
    "lock",
    "wait",
];

/// Types whose very mention means heap allocation or blocking primitives.
const SIGNAL_UNSAFE_TYPES: [&str; 9] = [
    "Vec", "String", "Box", "Rc", "Arc", "Mutex", "RwLock", "Condvar", "Once",
];

/// Mutating `std::fs` free functions flagged by `durable-writes` (reads like
/// `fs::read` stay legal everywhere).
const FS_WRITE_OPS: [&str; 10] = [
    "write",
    "rename",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "create_dir",
    "create_dir_all",
    "copy",
    "hard_link",
    "set_permissions",
];

/// The recommend-path file, where full-corpus enumeration is banned outside
/// the waived, sanctioned sites.
const ENUMERATION_SCOPE: &str = "crates/core/src/recommender.rs";

/// Hot-path trees where the sorting `emd_1d(` entry point is banned in
/// shipped code (the arena's presorted SoA lanes are the sanctioned route).
const EMD_HOT_SCOPE: [&str; 2] = ["crates/core/src/", "crates/serve/src/"];

/// `crates/<name>/src/...` → `<name>`.
fn crate_src(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// `vendor/<name>/src/...` → `<name>`.
fn vendor_src(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("vendor/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// `crates/<name>/tests/...` → `<name>`.
fn crate_tests(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("tests/").then_some(name)
}

fn is_punct(toks: &[&Token], i: usize, ch: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == ch)
}

fn ident_at<'a>(toks: &[&'a Token], i: usize) -> Option<&'a str> {
    toks.get(i)
        .and_then(|t| (t.kind == TokenKind::Ident).then_some(t.text.as_str()))
}

struct Waiver {
    rule: String,
    /// First covered line (the marker comment's own line).
    start: u32,
    /// Last covered line: the end of the directly following comment run,
    /// plus one line of code.
    end: u32,
}

fn waived(waivers: &[Waiver], rule: &str, line: u32) -> bool {
    waivers
        .iter()
        .any(|w| w.rule == rule && w.start <= line && line <= w.end)
}

fn parse_waivers(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) -> Vec<Waiver> {
    let mut out = Vec::new();
    // Every line occupied by a comment token, so a waiver's reach can extend
    // through the whole (possibly multi-line) comment run it opens.
    let mut comment_lines: HashSet<u32> = HashSet::new();
    for t in tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
    {
        let span = t.text.matches('\n').count() as u32;
        for l in t.line..=t.line + span {
            comment_lines.insert(l);
        }
    }
    for t in tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
    {
        // The marker must open the comment (only comment sigils and
        // whitespace before it); prose that merely mentions the syntax in
        // backticks, like this module's docs, is not a waiver.
        let stripped = t.text.trim_start_matches(['/', '*', '!', ' ', '\t']);
        let Some(rest) = stripped.strip_prefix("viderec-lint:") else {
            continue;
        };
        let mut bad = |message: String| {
            findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                rule: "waiver",
                message,
            });
        };
        let Some(a) = rest.find("allow(") else {
            bad("malformed waiver: expected `viderec-lint: allow(<rule>) — <reason>`".into());
            continue;
        };
        let after = &rest[a + "allow(".len()..];
        let Some(close) = after.find(')') else {
            bad("malformed waiver: unclosed `allow(`".into());
            continue;
        };
        let rule = after[..close].trim().to_string();
        if !WAIVABLE.contains(&rule.as_str()) {
            bad(format!(
                "waiver names unknown or unwaivable rule `{rule}` (waivable: {})",
                WAIVABLE.join(", ")
            ));
            continue;
        }
        let reason = after[close + 1..]
            .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-'))
            .trim_end_matches("*/")
            .trim();
        if reason.is_empty() {
            bad(format!(
                "waiver for `{rule}` has no reason; write `— <why>`"
            ));
            continue;
        }
        let mut end = t.line;
        while comment_lines.contains(&(end + 1)) {
            end += 1;
        }
        out.push(Waiver {
            rule,
            start: t.line,
            end: end + 1,
        });
    }
    out
}

/// All `Ordering::<variant>` sites in `toks` as `(line, variant)`.
fn ordering_sites(toks: &[&Token]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if ident_at(toks, i) == Some("Ordering")
            && is_punct(toks, i + 1, ":")
            && is_punct(toks, i + 2, ":")
            && ident_at(toks, i + 3).is_some_and(|v| ATOMIC_ORDERINGS.contains(&v))
        {
            out.push((toks[i].line, toks[i + 3].text.clone()));
        }
    }
    out
}

/// Every `Ordering as <alias>` import of `atomic::Ordering` in `toks` — as
/// `atomic::Ordering as X` or inside an `atomic::{…}` group — as
/// `(line, alias)`. (`cmp::Ordering as X` is the rename that keeps the
/// atomic one visible, and does not match.)
fn ordering_aliases(toks: &[&Token]) -> Vec<(u32, String)> {
    // `atomic ::` ending right before `toks[end]`.
    let atomic_path = |end: usize| {
        end >= 3
            && ident_at(toks, end - 3) == Some("atomic")
            && is_punct(toks, end - 2, ":")
            && is_punct(toks, end - 1, ":")
    };
    let mut out = Vec::new();
    // One entry per open `{`: whether `atomic::` introduced it.
    let mut groups = Vec::new();
    for i in 0..toks.len() {
        if is_punct(toks, i, "{") {
            groups.push(atomic_path(i));
        } else if is_punct(toks, i, "}") {
            groups.pop();
        } else if ident_at(toks, i) == Some("Ordering")
            && ident_at(toks, i + 1) == Some("as")
            && (atomic_path(i) || groups.last() == Some(&true))
        {
            if let Some(alias) = ident_at(toks, i + 2) {
                out.push((toks[i].line, alias.to_string()));
            }
        }
    }
    out
}

/// True when `path` is in scope for the atomics audit.
fn atomics_scope(path: &str) -> bool {
    (crate_src(path).is_some_and(|c| c != "check"))
        || vendor_src(path).is_some()
        || path.starts_with("src/")
}

/// One audited site: where it is, and the key its audit-table row carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditSite {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line — where findings point; rows do not carry it, so edits
    /// that only shift lines leave the tables alone.
    pub line: u32,
    /// The row key: `path::item` (the innermost enclosing fn), with `#n`
    /// appended for the n-th (n ≥ 2) site of the same class in that item.
    pub key: String,
    /// The `Ordering` variant, or the `unsafe` construct's kind label.
    pub class: String,
    /// `unsafe` sites: a qualifying safety comment covers the site.
    pub commented: bool,
}

/// Keys one file's `(line, item, class, commented)` sites, in source order.
fn keyed(path: &str, sites: Vec<(u32, String, String, bool)>, out: &mut Vec<AuditSite>) {
    let mut seen: HashMap<(String, String), u32> = HashMap::new();
    for (line, item, class, commented) in sites {
        let nth = seen.entry((item.clone(), class.clone())).or_insert(0);
        *nth += 1;
        let key = match *nth {
            1 => format!("{path}::{item}"),
            n => format!("{path}::{item}#{n}"),
        };
        out.push(AuditSite {
            path: path.to_string(),
            line,
            key,
            class,
            commented,
        });
    }
}

/// Every in-scope `Ordering::<variant>` site across `files` (one per line and
/// variant) — the raw material for `ATOMICS.md` rows.
pub fn atomics_sites(files: &[(String, String)]) -> Vec<AuditSite> {
    let mut out = Vec::new();
    for (path, src) in files {
        if !atomics_scope(path) {
            continue;
        }
        let tokens = lex(src);
        let mut sites = ordering_sites(&significant(&tokens));
        let mut seen = HashSet::new();
        sites.retain(|site| seen.insert(site.clone()));
        if sites.is_empty() {
            continue;
        }
        let parsed = parse_file(src);
        let sites = sites
            .into_iter()
            .map(|(line, variant)| (line, parsed.item_at(line), variant, true))
            .collect();
        keyed(path, sites, &mut out);
    }
    out
}

/// One row of an audit table.
struct AuditRow {
    key: String,
    class: String,
    justified: bool,
    row_line: u32,
    used: bool,
}

/// The `| site | class | justification |` rows of the audit table `table`.
fn parse_audit(
    md: &str,
    table: &str,
    rule: &'static str,
    findings: &mut Vec<Finding>,
) -> Vec<AuditRow> {
    let mut rows = Vec::new();
    for (idx, raw) in md.lines().enumerate() {
        let row_line = (idx + 1) as u32;
        let t = raw.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().trim_matches('`'))
            .collect();
        if cells.len() < 3
            || cells[0] == "site"
            || cells[0].chars().all(|c| matches!(c, '-' | ':' | ' '))
        {
            continue;
        }
        if !cells[0].contains(".rs::") {
            findings.push(Finding {
                path: table.into(),
                line: row_line,
                rule,
                message: format!("malformed site cell `{}` (expected `path::item`)", cells[0]),
            });
            continue;
        }
        rows.push(AuditRow {
            key: cells[0].to_string(),
            class: cells[1].to_string(),
            justified: !cells[2].is_empty() && cells[2] != "TODO",
            row_line,
            used: false,
        });
    }
    rows
}

/// Checks `sites` against the rows of `table` in both directions: a site
/// needs a justified row with its key and class, and a row needs a site.
/// `noun` names a site of a given class in the messages.
fn audit(
    sites: &[AuditSite],
    md: Option<&str>,
    (table, rule, flag): (&str, &'static str, &str),
    noun: impl Fn(&str) -> String,
    findings: &mut Vec<Finding>,
) {
    let mut rows = md
        .map(|md| parse_audit(md, table, rule, findings))
        .unwrap_or_default();
    for site in sites {
        let row = rows
            .iter_mut()
            .find(|r| r.key == site.key && r.class == site.class);
        let message = match row {
            Some(row) => {
                row.used = true;
                if row.justified {
                    continue;
                }
                format!(
                    "{} is listed in {table} but has no justification",
                    noun(&site.class)
                )
            }
            None => format!(
                "{} is not in the {table} audit table as `{}` (regenerate rows with \
                 `viderec-lint {flag}`)",
                noun(&site.class),
                site.key
            ),
        };
        findings.push(Finding {
            path: site.path.clone(),
            line: site.line,
            rule,
            message,
        });
    }
    for row in rows.iter().filter(|r| !r.used) {
        findings.push(Finding {
            path: table.into(),
            line: row.row_line,
            rule,
            message: format!(
                "stale row: no {} at `{}` anymore",
                noun(&row.class),
                row.key
            ),
        });
    }
}

/// A panic token at `toks[i]`: `.unwrap(`/`.expect(` or a panic macro.
fn panic_token(toks: &[&Token], i: usize) -> Option<String> {
    if is_punct(toks, i, ".")
        && ident_at(toks, i + 1).is_some_and(|m| PANIC_METHODS.contains(&m))
        && is_punct(toks, i + 2, "(")
    {
        Some(format!(".{}()", toks[i + 1].text))
    } else if ident_at(toks, i).is_some_and(|m| PANIC_MACROS.contains(&m))
        && is_punct(toks, i + 1, "!")
    {
        Some(format!("{}!", toks[i].text))
    } else {
        None
    }
}

/// A signal-unsafe token at `toks[i]`: allocating/formatting/panicking
/// macro, allocating/blocking method call, or heap/lock type mention.
fn signal_unsafe_token(toks: &[&Token], i: usize) -> Option<String> {
    if ident_at(toks, i).is_some_and(|m| SIGNAL_UNSAFE_MACROS.contains(&m))
        && is_punct(toks, i + 1, "!")
    {
        Some(format!("{}!", toks[i].text))
    } else if is_punct(toks, i, ".")
        && ident_at(toks, i + 1).is_some_and(|m| SIGNAL_UNSAFE_METHODS.contains(&m))
        && is_punct(toks, i + 2, "(")
    {
        Some(format!(".{}()", toks[i + 1].text))
    } else if ident_at(toks, i).is_some_and(|t| SIGNAL_UNSAFE_TYPES.contains(&t)) {
        Some(toks[i].text.clone())
    } else {
        None
    }
}

/// True when `path` is in scope for the unsafe audit: shipped sources plus
/// crate integration tests (test `unsafe` needs the same justification
/// discipline — a miscontracted test allocator corrupts the whole test).
fn unsafe_audit_scope(path: &str) -> bool {
    (crate_src(path).is_some_and(|c| c != "check"))
        || (crate_tests(path).is_some_and(|c| c != "check"))
        || vendor_src(path).is_some()
        || path.starts_with("src/")
}

/// Every in-scope `unsafe` site across `files` — the raw material for
/// `SAFETY.md` rows.
pub fn unsafe_sites(files: &[(String, String)]) -> Vec<AuditSite> {
    let mut out = Vec::new();
    for (path, src) in files {
        if !unsafe_audit_scope(path) {
            continue;
        }
        let sites = parse_file(src).unsafe_sites.into_iter();
        let sites = sites.map(|s| (s.line, s.item, s.kind.label().into(), s.has_safety_comment));
        keyed(path, sites.collect(), &mut out);
    }
    out
}

/// `root → … → offender`, middle-elided past [`CHAIN_DISPLAY`] frames.
fn format_chain(chain: &[String]) -> String {
    if chain.len() <= CHAIN_DISPLAY {
        chain.join(" → ")
    } else {
        format!(
            "{} → … ({} frames) … → {}",
            chain[..2].join(" → "),
            chain.len() - 4,
            chain[chain.len() - 2..].join(" → ")
        )
    }
}

/// `#[cfg(test)]`-guarded regions of `toks` as inclusive `(start, end)`
/// line ranges (attribute line through the item's closing brace).
fn cfg_test_regions(toks: &[&Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let attr = is_punct(toks, i, "#")
            && is_punct(toks, i + 1, "[")
            && ident_at(toks, i + 2) == Some("cfg")
            && is_punct(toks, i + 3, "(")
            && ident_at(toks, i + 4) == Some("test")
            && is_punct(toks, i + 5, ")")
            && is_punct(toks, i + 6, "]");
        if !attr {
            i += 1;
            continue;
        }
        let start = toks[i].line;
        let mut end = start;
        let mut j = i + 7;
        while j < toks.len() {
            if is_punct(toks, j, ";") {
                end = toks[j].line;
                break;
            }
            if is_punct(toks, j, "{") {
                let mut depth = 1usize;
                j += 1;
                while j < toks.len() && depth > 0 {
                    if is_punct(toks, j, "{") {
                        depth += 1;
                    } else if is_punct(toks, j, "}") {
                        depth -= 1;
                    }
                    j += 1;
                }
                end = toks[j.saturating_sub(1)].line;
                break;
            }
            j += 1;
        }
        out.push((start, end.max(start)));
        i = j.max(i + 7);
    }
    out
}

/// Run every rule over `files` (workspace-relative `(path, contents)` pairs)
/// against the `ATOMICS.md` and `SAFETY.md` texts, returning findings
/// sorted by path/line.
pub fn lint_workspace(
    files: &[(String, String)],
    atomics_md: Option<&str>,
    safety_md: Option<&str>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lexed: Vec<(&str, Vec<Token>)> = files.iter().map(|(p, s)| (p.as_str(), lex(s))).collect();
    let waivers: HashMap<&str, Vec<Waiver>> = lexed
        .iter()
        .map(|(p, tokens)| (*p, parse_waivers(p, tokens, &mut findings)))
        .collect();
    let allow = |waivers: &HashMap<&str, Vec<Waiver>>, path: &str, rule: &str, line: u32| {
        waivers.get(path).is_some_and(|ws| waived(ws, rule, line))
    };

    // atomics-audit: no renamed `atomic::Ordering`, then sites vs the
    // checked-in table, both directions.
    for (path, tokens) in lexed.iter().filter(|(p, _)| atomics_scope(p)) {
        for (line, alias) in ordering_aliases(&significant(tokens)) {
            findings.push(Finding {
                path: path.to_string(),
                line,
                rule: "atomics-audit",
                message: format!(
                    "`atomic::Ordering` imported as `{alias}`: the audit matches \
                     `Ordering::<variant>`, so every `{alias}::<variant>` site is hidden from \
                     ATOMICS.md; import it under its own name (rename `cmp::Ordering` instead)"
                ),
            });
        }
    }
    audit(
        &atomics_sites(files),
        atomics_md,
        ("ATOMICS.md", "atomics-audit", "--print-atomics-rows"),
        |ordering| format!("`Ordering::{ordering}` site"),
        &mut findings,
    );

    // unsafe-audit: every site needs a SAFETY comment and a justified
    // SAFETY.md row; stale rows fail. Not waivable — the table is the
    // escape hatch.
    let usites = unsafe_sites(files);
    for site in usites.iter().filter(|s| !s.commented) {
        findings.push(Finding {
            path: site.path.clone(),
            line: site.line,
            rule: "unsafe-audit",
            message: format!(
                "`unsafe` {} without a `// SAFETY:` comment directly above it \
                 (an `unsafe fn`/`unsafe impl` may use a `# Safety` doc section instead)",
                site.class
            ),
        });
    }
    audit(
        &usites,
        safety_md,
        ("SAFETY.md", "unsafe-audit", "--print-safety-rows"),
        |kind| format!("`unsafe` {kind}"),
        &mut findings,
    );

    for (path, tokens) in &lexed {
        let toks = significant(tokens);

        // serve-no-panic
        if path.starts_with("crates/serve/src/") {
            let regions = cfg_test_regions(&toks);
            let in_tests = |line: u32| regions.iter().any(|&(a, b)| a <= line && line <= b);
            for i in 0..toks.len() {
                let line = toks[i].line;
                if let Some(what) = panic_token(&toks, i) {
                    if !in_tests(line) && !allow(&waivers, path, "serve-no-panic", line) {
                        findings.push(Finding {
                            path: path.to_string(),
                            line,
                            rule: "serve-no-panic",
                            message: format!(
                                "`{what}` on the serve request path; degrade gracefully \
                                 (recover poison, return an error) instead of panicking"
                            ),
                        });
                    }
                }
            }
        }

        // wallclock
        if crate_src(path).is_some_and(|c| WALLCLOCK_CRATES.contains(&c))
            || path.starts_with("src/")
        {
            for i in 0..toks.len() {
                if ident_at(&toks, i) == Some("Instant")
                    && is_punct(&toks, i + 1, ":")
                    && is_punct(&toks, i + 2, ":")
                    && ident_at(&toks, i + 3) == Some("now")
                {
                    let line = toks[i].line;
                    if !allow(&waivers, path, "wallclock", line) {
                        findings.push(Finding {
                            path: path.to_string(),
                            line,
                            rule: "wallclock",
                            message: "`Instant::now()` in a deterministic crate; timing \
                                      belongs behind the tracer"
                                .into(),
                        });
                    }
                }
            }
        }

        // corpus-enumeration
        if *path == ENUMERATION_SCOPE {
            for i in 0..toks.len() {
                let line = toks[i].line;
                if ident_at(&toks, i) == Some("all_video_indices")
                    && (i == 0 || ident_at(&toks, i - 1) != Some("fn"))
                    && !allow(&waivers, path, "corpus-enumeration", line)
                {
                    findings.push(Finding {
                        path: path.to_string(),
                        line,
                        rule: "corpus-enumeration",
                        message: "`all_video_indices()` call on a recommend path; gather \
                                  candidates through the inverted files and the LSB forest, \
                                  or waive the site with the reason it is sanctioned"
                            .into(),
                    });
                }
                if ident_at(&toks, i).is_some()
                    && is_punct(&toks, i + 1, ".")
                    && ident_at(&toks, i + 2) == Some("videos")
                    && is_punct(&toks, i + 3, ".")
                    && ident_at(&toks, i + 4) == Some("len")
                    && !allow(&waivers, path, "corpus-enumeration", line)
                {
                    findings.push(Finding {
                        path: path.to_string(),
                        line,
                        rule: "corpus-enumeration",
                        message: "`.videos.len()` on a recommend path seeds a full-corpus \
                                  loop; go through the indexes, or waive the site with the \
                                  reason it is sanctioned"
                            .into(),
                    });
                }
            }
        }

        // emd-direct-call
        if EMD_HOT_SCOPE.iter().any(|p| path.starts_with(p)) {
            let regions = cfg_test_regions(&toks);
            let in_tests = |line: u32| regions.iter().any(|&(a, b)| a <= line && line <= b);
            for i in 0..toks.len() {
                let line = toks[i].line;
                if ident_at(&toks, i) == Some("emd_1d")
                    && is_punct(&toks, i + 1, "(")
                    && !in_tests(line)
                    && !allow(&waivers, path, "emd-direct-call", line)
                {
                    findings.push(Finding {
                        path: path.to_string(),
                        line,
                        rule: "emd-direct-call",
                        message: "direct `emd_1d(` call on a hot path; it sorts and \
                                  allocates per call — score through the arena's presorted \
                                  SoA lanes (`emd_1d_soa_capped` via `kappa_exact_cached`), \
                                  or waive the site with the reason it is sanctioned"
                            .into(),
                    });
                }
            }
        }

        // durable-writes: every shipped tree except the durability crate
        // itself, which is the one place fsync discipline is reviewed.
        if (crate_src(path).is_some() || vendor_src(path).is_some() || path.starts_with("src/"))
            && !path.starts_with("crates/wal/src/")
        {
            let regions = cfg_test_regions(&toks);
            let in_tests = |line: u32| regions.iter().any(|&(a, b)| a <= line && line <= b);
            for i in 0..toks.len() {
                let line = toks[i].line;
                let hit = if ident_at(&toks, i) == Some("fs")
                    && is_punct(&toks, i + 1, ":")
                    && is_punct(&toks, i + 2, ":")
                    && ident_at(&toks, i + 3).is_some_and(|m| FS_WRITE_OPS.contains(&m))
                {
                    Some(format!("fs::{}", toks[i + 3].text))
                } else if ident_at(&toks, i) == Some("File")
                    && is_punct(&toks, i + 1, ":")
                    && is_punct(&toks, i + 2, ":")
                    && ident_at(&toks, i + 3)
                        .is_some_and(|m| matches!(m, "create" | "create_new" | "options"))
                {
                    Some(format!("File::{}", toks[i + 3].text))
                } else if ident_at(&toks, i) == Some("OpenOptions")
                    && is_punct(&toks, i + 1, ":")
                    && is_punct(&toks, i + 2, ":")
                    && ident_at(&toks, i + 3) == Some("new")
                {
                    Some("OpenOptions::new".to_string())
                } else {
                    None
                };
                if let Some(what) = hit {
                    if !in_tests(line) && !allow(&waivers, path, "durable-writes", line) {
                        findings.push(Finding {
                            path: path.to_string(),
                            line,
                            rule: "durable-writes",
                            message: format!(
                                "`{what}` outside `crates/wal`; durable state goes through \
                                 the WAL/snapshot subsystem — waive the site with the reason \
                                 this write is not durability-relevant"
                            ),
                        });
                    }
                }
            }
        }

        // signal-safe: the SIGPROF handler module stays async-signal-safe.
        if *path == SIGNAL_SAFE_SCOPE {
            let regions = cfg_test_regions(&toks);
            let in_tests = |line: u32| regions.iter().any(|&(a, b)| a <= line && line <= b);
            for i in 0..toks.len() {
                let line = toks[i].line;
                if let Some(what) = signal_unsafe_token(&toks, i) {
                    if !in_tests(line) && !allow(&waivers, path, "signal-safe", line) {
                        findings.push(Finding {
                            path: path.to_string(),
                            line,
                            rule: "signal-safe",
                            message: format!(
                                "`{what}` in the SIGPROF handler module; signal context \
                                 allows no allocation, formatting, locking, or panicking — \
                                 restructure, or waive the site with the reason it cannot \
                                 run inside the handler"
                            ),
                        });
                    }
                }
            }
        }

        // reader-locks
        if crate_src(path).is_some_and(|c| READER_CRATES.contains(&c)) {
            for t in &toks {
                if t.kind == TokenKind::Ident
                    && (t.text == "Mutex" || t.text == "RwLock")
                    && !allow(&waivers, path, "reader-locks", t.line)
                {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: t.line,
                        rule: "reader-locks",
                        message: format!(
                            "blocking `{}` in a reader-side crate; readers stay \
                             lock-free (atomics and epoch snapshots)",
                            t.text
                        ),
                    });
                }
            }
        }
    }

    // Transitive call-graph rules: parse every shipped file once, build the
    // workspace call graph, walk from the SIGPROF handler and the serve
    // request-path entry point. Files already covered by a whole-file scan
    // of the same rule are skipped so nothing is reported twice.
    let parsed: Vec<crate::callgraph::ParsedSource> = files
        .iter()
        .filter(|(p, _)| {
            crate::callgraph::file_module_path(p).is_some()
                && !p.starts_with("crates/check/")
                && !p.contains("/src/bin/")
        })
        .map(|(p, s)| {
            let pf = parse_file(s);
            let regions = cfg_test_regions(&pf.tokens.iter().collect::<Vec<_>>());
            (p.clone(), pf, regions)
        })
        .collect();
    let graph = CallGraph::build(&parsed);
    let parsed_of: HashMap<&str, &ParsedFile> =
        parsed.iter().map(|(p, pf, _)| (p.as_str(), pf)).collect();
    transitive_rule(
        &graph,
        &parsed_of,
        &waivers,
        &mut findings,
        "signal-safe",
        SIGNAL_ROOT,
        &|p| p == SIGNAL_SAFE_SCOPE,
        &signal_unsafe_token,
        "reachable from the SIGPROF handler",
        "signal context allows no allocation, formatting, locking, or panicking — \
         restructure, or waive the line (or the `fn` line for the whole body) with \
         the reason this cannot run inside the handler",
    );
    transitive_rule(
        &graph,
        &parsed_of,
        &waivers,
        &mut findings,
        "serve-no-panic",
        SERVE_ROOT,
        &|p| p.starts_with("crates/serve/src/"),
        &panic_token,
        "reachable from the serve request path",
        "degrade gracefully instead of panicking, or waive the site (or the `fn` \
         line for the whole body) with the reason the panic is a checked invariant, \
         not an input-reachable state",
    );

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

/// One transitive rule walk: BFS from `root`, scan each reachable function
/// body with `hit`, honoring waivers on the violating line or on the `fn`
/// line (which waives the whole body).
#[allow(clippy::too_many_arguments)]
fn transitive_rule(
    graph: &CallGraph,
    parsed_of: &HashMap<&str, &ParsedFile>,
    waivers: &HashMap<&str, Vec<Waiver>>,
    findings: &mut Vec<Finding>,
    rule: &'static str,
    root: (&str, &str),
    skip_file: &dyn Fn(&str) -> bool,
    hit: &dyn Fn(&[&Token], usize) -> Option<String>,
    reach_desc: &str,
    advice: &str,
) {
    let roots = graph.find(root.0, root.1);
    if roots.is_empty() {
        return;
    }
    let pred = graph.reachable(&roots);
    let mut nodes: Vec<usize> = pred.keys().copied().collect();
    nodes.sort_unstable();
    // Nested fns make body spans overlap; report each (line, token) once.
    let mut reported: HashSet<(String, u32, String)> = HashSet::new();
    for n in nodes {
        let node = &graph.nodes[n];
        if skip_file(&node.path) {
            continue;
        }
        let Some(pf) = parsed_of.get(node.path.as_str()) else {
            continue;
        };
        let f = &pf.fns[node.fn_index];
        let Some((b0, b1)) = f.body else {
            continue;
        };
        let allow_line = |line: u32| {
            waivers
                .get(node.path.as_str())
                .is_some_and(|ws| waived(ws, rule, line))
        };
        if allow_line(f.line) {
            continue;
        }
        let toks: Vec<&Token> = pf.tokens.iter().collect();
        for i in b0..b1.min(toks.len()) {
            let Some(what) = hit(&toks, i) else {
                continue;
            };
            let line = toks[i].line;
            if allow_line(line) || !reported.insert((node.path.clone(), line, what.clone())) {
                continue;
            }
            let chain = format_chain(&graph.chain(&pred, n));
            findings.push(Finding {
                path: node.path.clone(),
                line,
                rule,
                message: format!(
                    "`{what}` in `{}` is {reach_desc} (call chain: {chain}); {advice}",
                    node.display()
                ),
            });
        }
    }
}
