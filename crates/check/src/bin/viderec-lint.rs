//! `viderec-lint`: the repo-invariant linter.
//!
//! Walks `crates/*/src`, `crates/*/tests`, `vendor/*/src`, and `src/` under
//! the workspace root, runs every rule in [`viderec_check::lint`], prints
//! findings as `path:line: [rule] message`, and exits non-zero if any
//! survive.
//!
//! `--print-atomics-rows` instead emits one `ATOMICS.md` table row skeleton
//! per `Ordering::` site found, for authoring or refreshing the audit
//! table; `--print-safety-rows` does the same for `SAFETY.md` and the
//! workspace's `unsafe` sites.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use viderec_check::lint;

fn workspace_root() -> PathBuf {
    // crates/check/ → two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels below the workspace root")
        .to_path_buf()
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

fn source_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    for group in ["crates", "vendor"] {
        if let Ok(entries) = std::fs::read_dir(root.join(group)) {
            for entry in entries.flatten() {
                collect(root, &entry.path().join("src"), &mut files);
                if group == "crates" {
                    collect(root, &entry.path().join("tests"), &mut files);
                }
            }
        }
    }
    collect(root, &root.join("src"), &mut files);
    files.sort();
    files
}

fn main() -> ExitCode {
    let root = workspace_root();
    let loaded: Vec<(String, String)> = source_files(&root)
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(root.join(&p)).unwrap_or_default();
            (p, text)
        })
        .collect();

    if std::env::args().any(|a| a == "--print-atomics-rows") {
        for site in lint::atomics_sites(&loaded) {
            println!("| `{}` | `{}` | TODO |", site.key, site.class);
        }
        return ExitCode::SUCCESS;
    }
    if std::env::args().any(|a| a == "--print-safety-rows") {
        for site in lint::unsafe_sites(&loaded) {
            println!("| `{}` | `{}` | TODO |", site.key, site.class);
        }
        return ExitCode::SUCCESS;
    }

    let atomics_md = std::fs::read_to_string(root.join("ATOMICS.md")).ok();
    if atomics_md.is_none() {
        eprintln!("viderec-lint: warning: no ATOMICS.md at the workspace root");
    }
    let safety_md = std::fs::read_to_string(root.join("SAFETY.md")).ok();
    if safety_md.is_none() {
        eprintln!("viderec-lint: warning: no SAFETY.md at the workspace root");
    }
    let findings = lint::lint_workspace(&loaded, atomics_md.as_deref(), safety_md.as_deref());
    for f in &findings {
        println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
    }
    if findings.is_empty() {
        println!("viderec-lint: {} files clean", loaded.len());
        ExitCode::SUCCESS
    } else {
        println!("viderec-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
