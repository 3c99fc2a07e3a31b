//! Rule tests for the `viderec-lint` engine: every rule fires on a seeded
//! violation, stays quiet on clean code, and respects waivers.

use viderec_check::lint::{atomics_sites, lint_workspace, AuditSite, Finding};

fn files(entries: &[(&str, &str)]) -> Vec<(String, String)> {
    entries
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

// --- atomics-audit ---

const RING_SNIPPET: &str = "pub fn bump(x: &AtomicU64) { x.fetch_add(1, Ordering::Relaxed); }\n";

#[test]
fn unlisted_ordering_site_is_a_finding() {
    let fs = files(&[("crates/trace/src/ring.rs", RING_SNIPPET)]);
    let findings = lint_workspace(&fs, Some("| site | ordering | justification |\n"), None);
    assert_eq!(rules_of(&findings), vec!["atomics-audit"]);
    assert_eq!(findings[0].path, "crates/trace/src/ring.rs");
    assert_eq!(findings[0].line, 1);
}

#[test]
fn listed_and_justified_site_is_clean() {
    let fs = files(&[("crates/trace/src/ring.rs", RING_SNIPPET)]);
    let md = "| site | ordering | justification |\n\
              |---|---|---|\n\
              | `crates/trace/src/ring.rs::bump` | `Relaxed` | pure counter, no payload |\n";
    assert!(lint_workspace(&fs, Some(md), None).is_empty());
}

#[test]
fn stale_row_and_empty_justification_are_findings() {
    let fs = files(&[("crates/trace/src/ring.rs", RING_SNIPPET)]);
    // Row 3 matches but has a TODO justification; row 4 points at a site
    // that no longer exists.
    let md = "| site | ordering | justification |\n\
              |---|---|---|\n\
              | `crates/trace/src/ring.rs::bump` | `Relaxed` | TODO |\n\
              | `crates/trace/src/ring.rs::gone` | `Release` | was real once |\n";
    let findings = lint_workspace(&fs, Some(md), None);
    assert_eq!(rules_of(&findings), vec!["atomics-audit", "atomics-audit"]);
    assert!(findings
        .iter()
        .any(|f| f.message.contains("no justification")));
    assert!(findings
        .iter()
        .any(|f| f.path == "ATOMICS.md" && f.line == 4 && f.message.contains("stale")));
}

#[test]
fn wrong_ordering_in_row_counts_as_unlisted_plus_stale() {
    let fs = files(&[("crates/trace/src/ring.rs", RING_SNIPPET)]);
    let md = "| `crates/trace/src/ring.rs::bump` | `Release` | wrong variant |\n";
    let findings = lint_workspace(&fs, Some(md), None);
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn orderings_in_comments_strings_and_check_crate_are_out_of_scope() {
    let fs = files(&[
        (
            "crates/trace/src/ring.rs",
            "// Ordering::Relaxed\nconst HELP: &str = \"Ordering::SeqCst\";\n",
        ),
        ("crates/check/src/shim.rs", RING_SNIPPET),
        ("crates/trace/tests/ring.rs", RING_SNIPPET),
    ]);
    assert!(atomics_sites(&fs).is_empty());
    assert!(lint_workspace(&fs, None, None).is_empty());
}

#[test]
fn cmp_ordering_variants_do_not_match() {
    let fs = files(&[(
        "crates/core/src/sort.rs",
        "fn f(a: u32, b: u32) -> Ordering { Ordering::Less }\n",
    )]);
    assert!(atomics_sites(&fs).is_empty());
}

#[test]
fn renamed_atomic_ordering_is_a_finding() {
    // `AtomicOrdering::Relaxed` is not an `Ordering::<variant>` token run:
    // before the alias itself was flagged, this file audited clean.
    let hidden = "use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};\n\
                  fn f(x: &AtomicU64) -> u64 { x.load(AtomicOrdering::Relaxed) }\n";
    let findings = lint_workspace(&files(&[("crates/core/src/prune.rs", hidden)]), None, None);
    assert_eq!(rules_of(&findings), vec!["atomics-audit"]);
    assert_eq!(findings[0].line, 1);
    assert!(findings[0].message.contains("`AtomicOrdering`"));

    let ungrouped = "use std::sync::atomic::Ordering as O;\n";
    let findings = lint_workspace(
        &files(&[("vendor/bytes/src/lib.rs", ungrouped)]),
        None,
        None,
    );
    assert_eq!(rules_of(&findings), vec!["atomics-audit"]);

    // Renaming the *other* `Ordering` keeps every atomic site visible.
    let visible = "use std::cmp::Ordering as CmpOrdering;\n\
                   use std::{cmp::{Ordering as C}, sync::atomic::{AtomicU64, Ordering}};\n";
    assert!(
        lint_workspace(&files(&[("crates/core/src/prune.rs", visible)]), None, None).is_empty()
    );
}

#[test]
fn atomics_sites_are_keyed_by_item_and_ordinal_not_by_line() {
    let src = "impl Ring {\n\
               \x20   fn push(&self) {\n\
               \x20       self.head.load(Ordering::Relaxed);\n\
               \x20       self.tail.store(1, Ordering::Release);\n\
               \x20       self.drops.fetch_add(1, Ordering::Relaxed);\n\
               \x20   }\n\
               }\n\
               static SEED: u64 = pick(Ordering::SeqCst);\n";
    let site = |line, key: &str, class: &str| AuditSite {
        path: "vendor/bytes/src/lib.rs".into(),
        line,
        key: format!("vendor/bytes/src/lib.rs::{key}"),
        class: class.into(),
        commented: true,
    };
    let want = vec![
        site(3, "Ring::push", "Relaxed"),
        site(4, "Ring::push", "Release"),
        site(5, "Ring::push#2", "Relaxed"),
        site(8, "(top level)", "SeqCst"),
    ];
    assert_eq!(
        atomics_sites(&files(&[("vendor/bytes/src/lib.rs", src)])),
        want
    );
    // Shifting every line moves no key: the same rows still match.
    let shifted = format!("\n\n// a new comment\n{src}");
    let keys = |sites: Vec<AuditSite>| sites.into_iter().map(|s| s.key).collect::<Vec<_>>();
    assert_eq!(
        keys(atomics_sites(&files(&[(
            "vendor/bytes/src/lib.rs",
            &shifted
        )]))),
        keys(want)
    );
}

// --- serve-no-panic ---

#[test]
fn panic_sites_on_the_serve_path_are_findings() {
    let fs = files(&[(
        "crates/serve/src/engine.rs",
        "fn f(x: Option<u32>) -> u32 {\n\
         \x20   let a = x.unwrap();\n\
         \x20   let b = x.expect(\"present\");\n\
         \x20   if a > b { panic!(\"boom\") }\n\
         \x20   unreachable!()\n\
         }\n",
    )]);
    let findings = lint_workspace(&fs, None, None);
    assert_eq!(
        rules_of(&findings),
        vec!["serve-no-panic"; 4],
        "{findings:?}"
    );
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![2, 3, 4, 5]
    );
}

#[test]
fn cfg_test_regions_and_waivers_are_exempt() {
    let fs = files(&[(
        "crates/serve/src/engine.rs",
        "fn ok(x: Option<u32>) -> Option<u32> { x }\n\
         // viderec-lint: allow(serve-no-panic) — startup-only config parse, not request path\n\
         fn startup(x: Option<u32>) -> u32 { x.unwrap() }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   fn check(x: Option<u32>) { x.unwrap(); }\n\
         }\n",
    )]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

#[test]
fn unwrap_or_else_is_not_unwrap() {
    let fs = files(&[(
        "crates/serve/src/engine.rs",
        "fn f(m: std::sync::Mutex<u32>) -> u32 {\n\
         \x20   *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n\
         }\n",
    )]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

// --- wallclock ---

#[test]
fn instant_now_in_a_deterministic_crate_is_a_finding() {
    let fs = files(&[(
        "crates/emd/src/flow.rs",
        "fn t() -> std::time::Instant { Instant::now() }\n",
    )]);
    assert_eq!(
        rules_of(&lint_workspace(&fs, None, None)),
        vec!["wallclock"]
    );
}

#[test]
fn instant_now_in_trace_serve_or_check_is_fine() {
    let fs = files(&[
        ("crates/trace/src/tracer.rs", "fn t() { Instant::now(); }\n"),
        ("crates/serve/src/engine.rs", "fn t() { Instant::now(); }\n"),
        ("crates/check/src/shim.rs", "fn t() { Instant::now(); }\n"),
    ]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

#[test]
fn wallclock_waiver_on_previous_line_suppresses() {
    let fs = files(&[(
        "crates/eval/src/experiment.rs",
        "// viderec-lint: allow(wallclock) — experiment harness measures real elapsed time\n\
         fn t() { Instant::now(); }\n",
    )]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

// --- reader-locks ---

#[test]
fn mutex_in_a_reader_crate_is_a_finding() {
    let fs = files(&[(
        "crates/index/src/table.rs",
        "use std::sync::Mutex;\nuse std::sync::RwLock;\n",
    )]);
    let findings = lint_workspace(&fs, None, None);
    assert_eq!(
        rules_of(&findings),
        vec!["reader-locks", "reader-locks"],
        "one per identifier occurrence: {findings:?}"
    );
}

#[test]
fn mutex_in_serve_or_trace_is_allowed() {
    let fs = files(&[
        ("crates/serve/src/snapshot.rs", "use std::sync::Mutex;\n"),
        ("crates/trace/src/export.rs", "use std::sync::Mutex;\n"),
    ]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

// --- corpus-enumeration ---

#[test]
fn enumeration_call_site_on_a_recommend_path_is_a_finding() {
    let fs = files(&[(
        "crates/core/src/recommender.rs",
        "fn f(&self) { for _ in self.all_video_indices() {} }\n",
    )]);
    let findings = lint_workspace(&fs, None, None);
    assert_eq!(rules_of(&findings), vec!["corpus-enumeration"]);
    assert!(findings[0].message.contains("all_video_indices"));
}

#[test]
fn enumeration_definition_is_not_a_call_site() {
    let fs = files(&[(
        "crates/core/src/recommender.rs",
        "pub(crate) fn all_video_indices(&self) -> std::ops::Range<u32> {\n\
         \x20   0..self.num_videos() as u32\n\
         }\n",
    )]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

#[test]
fn videos_len_on_a_recommend_path_is_a_finding() {
    let fs = files(&[(
        "crates/core/src/recommender.rs",
        "fn f(&self) -> usize { self.videos.len() }\n",
    )]);
    assert_eq!(
        rules_of(&lint_workspace(&fs, None, None)),
        vec!["corpus-enumeration"]
    );
}

#[test]
fn enumeration_outside_the_recommend_paths_is_out_of_scope() {
    let fs = files(&[(
        "crates/core/src/maintenance.rs",
        "fn f(&self) -> usize { self.videos.len() }\n",
    )]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

#[test]
fn multi_line_waiver_comment_covers_the_line_after_the_run() {
    // The marker opens a two-line comment; its reach extends through the
    // comment run to the code right below.
    let fs = files(&[(
        "crates/core/src/recommender.rs",
        "// viderec-lint: allow(corpus-enumeration) — the certificate sweep\n\
         // is bound-only and never scores a video.\n\
         fn f(&self) { for _ in self.all_video_indices() {} }\n",
    )]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

// --- emd-direct-call ---

#[test]
fn direct_emd_1d_call_on_a_hot_path_is_a_finding() {
    let fs = files(&[(
        "crates/core/src/prune.rs",
        "fn f(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 { emd_1d(a, b) }\n",
    )]);
    let findings = lint_workspace(&fs, None, None);
    assert_eq!(rules_of(&findings), vec!["emd-direct-call"]);
    assert!(findings[0].message.contains("emd_1d_soa_capped"));
}

#[test]
fn soa_kernel_calls_are_not_direct_emd_1d_calls() {
    let fs = files(&[(
        "crates/serve/src/server.rs",
        "fn f(av: &[f64], aw: &[f64]) -> f64 { emd_1d_soa_capped(av, aw, av, aw, 1.0) }\n",
    )]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

#[test]
fn emd_1d_in_a_test_region_is_exempt() {
    let fs = files(&[(
        "crates/core/src/prune.rs",
        "#[cfg(test)]\n\
         mod tests {\n\
         \x20   fn oracle(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 { emd_1d(a, b) }\n\
         }\n",
    )]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

#[test]
fn emd_1d_outside_the_hot_paths_is_out_of_scope() {
    let fs = files(&[(
        "crates/eval/src/experiments.rs",
        "fn f(a: &[(f64, f64)]) -> f64 { emd_1d(a, a) }\n",
    )]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

#[test]
fn waived_emd_1d_call_is_allowed() {
    let fs = files(&[(
        "crates/core/src/prune.rs",
        "// viderec-lint: allow(emd-direct-call) — one-shot diagnostic, not a\n\
         // scoring loop.\n\
         fn f(a: &[(f64, f64)]) -> f64 { emd_1d(a, a) }\n",
    )]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

// --- waiver syntax ---

#[test]
fn waiver_without_reason_is_itself_a_finding() {
    let fs = files(&[(
        "crates/index/src/table.rs",
        "// viderec-lint: allow(reader-locks)\nuse std::sync::Mutex;\n",
    )]);
    let findings = lint_workspace(&fs, None, None);
    // The reasonless waiver does not suppress, and is flagged on its own.
    assert_eq!(rules_of(&findings), vec!["waiver", "reader-locks"]);
    assert!(findings[0].message.contains("no reason"));
}

#[test]
fn waiver_for_an_unknown_rule_is_a_finding() {
    let fs = files(&[(
        "crates/core/src/lib.rs",
        "// viderec-lint: allow(made-up-rule) — because\n",
    )]);
    let findings = lint_workspace(&fs, None, None);
    assert_eq!(rules_of(&findings), vec!["waiver"]);
    assert!(findings[0].message.contains("made-up-rule"));
}

#[test]
fn quoting_waiver_syntax_mid_comment_is_not_a_waiver() {
    // Docs that mention the syntax in prose (like lint.rs's own module docs)
    // must neither waive anything nor be flagged as malformed.
    let fs = files(&[(
        "crates/index/src/table.rs",
        "//! Use `viderec-lint: allow(reader-locks) — why` to waive.\n\
         use std::sync::Mutex;\n",
    )]);
    assert_eq!(
        rules_of(&lint_workspace(&fs, None, None)),
        vec!["reader-locks"]
    );
}

#[test]
fn waiver_only_covers_its_own_rule_and_adjacent_lines() {
    let fs = files(&[(
        "crates/index/src/table.rs",
        "// viderec-lint: allow(wallclock) — wrong rule for the line below\n\
         use std::sync::Mutex;\n\
         \n\
         use std::sync::RwLock;\n",
    )]);
    let findings = lint_workspace(&fs, None, None);
    // Both lock idents still fire: the waiver names a different rule, and
    // line 4 is out of the waiver's two-line reach anyway.
    assert_eq!(rules_of(&findings), vec!["reader-locks", "reader-locks"]);
}

// --- durable-writes ---

#[test]
fn fs_write_outside_the_wal_crate_is_a_finding() {
    let fs = files(&[(
        "crates/serve/src/server.rs",
        "fn f(p: &std::path::Path) { std::fs::write(p, b\"x\").ok(); }\n",
    )]);
    let findings = lint_workspace(&fs, None, None);
    assert_eq!(rules_of(&findings), vec!["durable-writes"]);
    assert!(findings[0].message.contains("fs::write"));
}

#[test]
fn file_create_and_open_options_are_findings_too() {
    let fs = files(&[(
        "crates/eval/src/report.rs",
        "use std::fs::{File, OpenOptions};\n\
         fn f(p: &std::path::Path) {\n\
         \x20   let _ = File::create(p);\n\
         \x20   let _ = OpenOptions::new().append(true).open(p);\n\
         }\n",
    )]);
    let findings = lint_workspace(&fs, None, None);
    assert_eq!(
        rules_of(&findings),
        vec!["durable-writes", "durable-writes"]
    );
    assert_eq!(findings[0].line, 3);
    assert_eq!(findings[1].line, 4);
}

#[test]
fn wal_crate_and_reads_and_tests_are_exempt() {
    let fs = files(&[
        (
            "crates/wal/src/log.rs",
            "fn f(p: &std::path::Path) { std::fs::rename(p, p).ok(); }\n",
        ),
        (
            "crates/serve/src/config.rs",
            "fn f(p: &std::path::Path) -> Vec<u8> { std::fs::read(p).unwrap_or_default() }\n",
        ),
        (
            "crates/bench/src/bin/tool.rs",
            "#[cfg(test)]\n\
             mod tests {\n\
             \x20   fn scratch(p: &std::path::Path) { std::fs::create_dir_all(p).ok(); }\n\
             }\n",
        ),
    ]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

// --- signal-safe ---

#[test]
fn allocation_formatting_and_panics_in_the_handler_module_are_findings() {
    let fs = files(&[(
        "crates/prof/src/signal.rs",
        "fn handler() {\n\
         \x20   let msg = format!(\"tick\");\n\
         \x20   let mut frames: Vec<u64> = Vec::new();\n\
         \x20   frames.first().unwrap();\n\
         \x20   panic!(\"{msg}\");\n\
         }\n",
    )]);
    let findings = lint_workspace(&fs, None, None);
    assert_eq!(rules_of(&findings), vec!["signal-safe"; 5], "{findings:?}");
    assert!(findings[0].message.contains("format!"));
    assert!(findings.iter().any(|f| f.message.contains("Vec")));
    assert!(findings.iter().any(|f| f.message.contains(".unwrap()")));
    assert!(findings.iter().any(|f| f.message.contains("panic!")));
}

#[test]
fn lock_types_and_blocking_calls_in_the_handler_module_are_findings() {
    let fs = files(&[(
        "crates/prof/src/signal.rs",
        "use std::sync::Mutex;\n\
         fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }\n",
    )]);
    let findings = lint_workspace(&fs, None, None);
    // Line 1: the Mutex ident in the use. Line 2: Mutex in the signature,
    // the .lock() call, and the .unwrap() on its result.
    assert_eq!(rules_of(&findings), vec!["signal-safe"; 4], "{findings:?}");
}

#[test]
fn the_handler_modules_real_vocabulary_is_clean() {
    // Atomics, raw pointer work, and hand-declared syscalls — what the
    // module actually uses — must not trip the rule.
    let fs = files(&[(
        "crates/prof/src/signal.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};\n\
         static DROPPED: AtomicU64 = AtomicU64::new(0);\n\
         fn record(pc: u64, arena: &[AtomicU64]) {\n\
         \x20   match arena.first() {\n\
         \x20       Some(slot) => slot.store(pc, Ordering::Relaxed),\n\
         \x20       None => { DROPPED.fetch_add(1, Ordering::Relaxed); }\n\
         \x20   }\n\
         }\n",
    )]);
    let md = "| site | ordering | justification |\n\
              |---|---|---|\n\
              | `crates/prof/src/signal.rs::record` | `Relaxed` | sample word, published later |\n\
              | `crates/prof/src/signal.rs::record#2` | `Relaxed` | drop counter, no payload |\n";
    assert!(lint_workspace(&fs, Some(md), None).is_empty());
}

#[test]
fn signal_safety_applies_only_to_the_handler_module() {
    // The profiler's reader side allocates freely — out of scope.
    let fs = files(&[(
        "crates/prof/src/profiler.rs",
        "fn fold() -> String { format!(\"{:?}\", Vec::<u64>::new()) }\n",
    )]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

#[test]
fn waived_and_test_region_signal_sites_are_exempt() {
    let fs = files(&[(
        "crates/prof/src/signal.rs",
        "// viderec-lint: allow(signal-safe) — install-time only; runs before\n\
         // the handler is armed, never inside it.\n\
         fn install() -> String { String::new() }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   fn check(x: Option<u32>) { assert_eq!(x.unwrap(), 1); }\n\
         }\n",
    )]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

#[test]
fn waived_report_writer_is_allowed() {
    let fs = files(&[(
        "crates/bench/src/bin/report.rs",
        "// viderec-lint: allow(durable-writes) — bench report, not durable state\n\
         fn f(p: &std::path::Path, s: &str) { std::fs::write(p, s).ok(); }\n",
    )]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

// --- unsafe-audit ---

const UNSAFE_SNIPPET: &str = "\
fn f() {
    // SAFETY: the slice is non-empty by the caller's contract.
    unsafe { poke() }
}
";

#[test]
fn unsafe_block_without_safety_comment_is_a_finding() {
    let fs = files(&[(
        "crates/prof/src/raw.rs",
        "fn f() {\n    unsafe { poke() }\n}\n",
    )]);
    let md = "| `crates/prof/src/raw.rs::f` | `block` | justified elsewhere |\n";
    let findings = lint_workspace(&fs, None, Some(md));
    assert_eq!(rules_of(&findings), vec!["unsafe-audit"]);
    assert!(findings[0].message.contains("SAFETY"), "{findings:?}");
    assert_eq!(findings[0].line, 2);
}

#[test]
fn unsafe_site_missing_from_the_table_is_a_finding() {
    let fs = files(&[("crates/prof/src/raw.rs", UNSAFE_SNIPPET)]);
    let findings = lint_workspace(&fs, None, Some("| site | kind | justification |\n"));
    assert_eq!(rules_of(&findings), vec!["unsafe-audit"]);
    assert!(
        findings[0].message.contains("--print-safety-rows"),
        "{findings:?}"
    );
}

#[test]
fn commented_and_tabled_unsafe_site_is_clean() {
    let fs = files(&[("crates/prof/src/raw.rs", UNSAFE_SNIPPET)]);
    let md = "| site | kind | justification |\n\
              |---|---|---|\n\
              | `crates/prof/src/raw.rs::f` | `block` | caller-contract slice access |\n";
    assert!(lint_workspace(&fs, None, Some(md)).is_empty());
}

#[test]
fn stale_and_todo_safety_rows_are_findings() {
    let fs = files(&[("crates/prof/src/raw.rs", UNSAFE_SNIPPET)]);
    let md = "| `crates/prof/src/raw.rs::f` | `block` | TODO |\n\
              | `crates/prof/src/raw.rs::gone` | `fn` | moved away |\n";
    let findings = lint_workspace(&fs, None, Some(md));
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("no justification")));
    assert!(findings
        .iter()
        .any(|f| f.path == "SAFETY.md" && f.message.contains("stale")));
}

#[test]
fn unsafe_audit_cannot_be_waived() {
    // A waiver naming unsafe-audit is itself a finding (unwaivable rule),
    // and the unsafe-audit finding still fires: the table is the only
    // escape hatch.
    let fs = files(&[(
        "crates/prof/src/raw.rs",
        "// viderec-lint: allow(unsafe-audit) — trust me\n\
         fn f() {\n    unsafe { poke() }\n}\n",
    )]);
    let findings = lint_workspace(&fs, None, None);
    assert!(rules_of(&findings).contains(&"waiver"), "{findings:?}");
    assert!(
        rules_of(&findings).contains(&"unsafe-audit"),
        "{findings:?}"
    );
}

// --- transitive serve-no-panic over the call graph ---

const SERVE_ROOT_SNIPPET: &str = "\
pub fn handle_connection() {
    viderec_core::topk::rank();
}
";

#[test]
fn panic_reachable_from_the_request_path_is_a_finding_with_a_chain() {
    let fs = files(&[
        ("crates/serve/src/server.rs", SERVE_ROOT_SNIPPET),
        (
            "crates/core/src/topk.rs",
            "pub fn rank() { helper(); }\nfn helper(x: Option<u32>) -> u32 { x.unwrap() }\n",
        ),
    ]);
    let findings = lint_workspace(&fs, None, None);
    assert_eq!(rules_of(&findings), vec!["serve-no-panic"], "{findings:?}");
    assert_eq!(findings[0].path, "crates/core/src/topk.rs");
    assert_eq!(findings[0].line, 2);
    assert!(
        findings[0]
            .message
            .contains("viderec_serve::server::handle_connection → viderec_core::topk::rank"),
        "{findings:?}"
    );
}

#[test]
fn unreachable_panic_in_the_same_crate_is_not_flagged() {
    let fs = files(&[
        ("crates/serve/src/server.rs", SERVE_ROOT_SNIPPET),
        (
            "crates/core/src/topk.rs",
            "pub fn rank() {}\nfn cold(x: Option<u32>) -> u32 { x.unwrap() }\n",
        ),
    ]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

#[test]
fn waiver_at_the_reachable_site_silences_the_transitive_finding() {
    let fs = files(&[
        ("crates/serve/src/server.rs", SERVE_ROOT_SNIPPET),
        (
            "crates/core/src/topk.rs",
            "pub fn rank(x: Option<u32>) -> u32 {\n\
             \x20   // viderec-lint: allow(serve-no-panic) — x is Some by the\n\
             \x20   // caller's length check.\n\
             \x20   x.unwrap()\n\
             }\n",
        ),
    ]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

#[test]
fn fn_line_waiver_covers_the_whole_reachable_body() {
    let fs = files(&[
        ("crates/serve/src/server.rs", SERVE_ROOT_SNIPPET),
        (
            "crates/core/src/topk.rs",
            "// viderec-lint: allow(serve-no-panic) — every expect below is a\n\
             // checked heap invariant.\n\
             pub fn rank(x: Option<u32>, y: Option<u32>) -> u32 {\n\
             \x20   x.unwrap() + y.unwrap()\n\
             }\n",
        ),
    ]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}

// --- transitive signal-safe over the call graph ---

const HANDLER_ROOT_SNIPPET: &str = "\
pub fn handler() {
    viderec_trace::stage::note();
}
";

#[test]
fn allocation_reachable_from_the_signal_handler_is_a_finding() {
    let fs = files(&[
        ("crates/prof/src/signal.rs", HANDLER_ROOT_SNIPPET),
        (
            "crates/trace/src/stage.rs",
            "pub fn note() -> String { format!(\"tick\") }\n",
        ),
    ]);
    let findings = lint_workspace(&fs, None, None);
    assert_eq!(rules_of(&findings), vec!["signal-safe"], "{findings:?}");
    assert_eq!(findings[0].path, "crates/trace/src/stage.rs");
    assert!(
        findings[0].message.contains("SIGPROF handler"),
        "{findings:?}"
    );
}

#[test]
fn clean_transitive_handler_vocabulary_stays_quiet() {
    let fs = files(&[
        ("crates/prof/src/signal.rs", HANDLER_ROOT_SNIPPET),
        (
            "crates/trace/src/stage.rs",
            "pub fn note() { COUNT.fetch_add(1, Ordering::Relaxed); }\n",
        ),
    ]);
    // The Ordering site needs a table row; keep the fixture focused on
    // signal-safety by supplying one.
    let md = "| `crates/trace/src/stage.rs::note` | `Relaxed` | pure counter |\n";
    assert!(lint_workspace(&fs, Some(md), None).is_empty());
}

#[test]
fn signal_unsafe_call_outside_the_reachable_set_is_not_flagged() {
    let fs = files(&[
        ("crates/prof/src/signal.rs", HANDLER_ROOT_SNIPPET),
        (
            "crates/trace/src/stage.rs",
            "pub fn note() {}\npub fn report() -> String { format!(\"cold path\") }\n",
        ),
    ]);
    assert!(lint_workspace(&fs, None, None).is_empty());
}
