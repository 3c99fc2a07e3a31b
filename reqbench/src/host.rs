//! The host block every results file carries, and the process's own peak
//! resident set.

use std::process::Command;

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn target_features() -> Vec<&'static str> {
    let mut found = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($feature:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($feature) {
                    found.push($feature);
                }
            )*};
        }
        probe!("sse4.2", "avx", "avx2", "fma", "bmi2", "avx512f", "avx512bw", "avx512vl");
    }
    found
}

/// `{"nproc":…,"arch":…,"target_features":[…],"rustc":…,"kernel":…,"git_commit":…}`.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let features: Vec<String> = target_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    format!(
        "{{\"nproc\":{nproc},\"arch\":\"{}\",\"target_features\":[{}],\"rustc\":\"{}\",\
         \"kernel\":\"{kernel}\",\"git_commit\":\"{}\"}}",
        std::env::consts::ARCH,
        features.join(","),
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "HEAD"]),
    )
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` lacks
/// it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
