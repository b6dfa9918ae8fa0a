//! What the result document says about the machine, and this process's
//! memory as the kernel reports it.

use crate::json::Json;
use std::process::Command;

/// A `/proc/self/status` field in MB (`VmRSS`, `VmHWM`); 0 where the
/// file or field does not exist (non-Linux hosts).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident set size now, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Peak resident set size of this process, MB: since its start, or since
/// the last [`reset_peak_rss`] that took effect.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Resets the kernel's peak-RSS mark to the current RSS, so that what the
/// process held and freed earlier (the input generator's transients) is
/// not counted later. Linux only; where the write fails the mark simply
/// stays, and [`peak_rss_mb`] keeps covering the whole process lifetime.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn first_line_of(mut cmd: Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

fn cache_size(index: u32) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// The host descriptor every result document carries. Unknown fields
/// read `"unknown"` (the driver's checkout, for one, is not a git
/// repository).
pub fn descriptor() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut rustc = Command::new("rustc");
    rustc.arg("-V");
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    let unknown = || "unknown".to_string();
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        ("l2", Json::Str(cache_size(2))),
        ("l3", Json::Str(cache_size(3))),
        (
            "rustc",
            Json::Str(first_line_of(rustc).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::Str(first_line_of(git).unwrap_or_else(unknown)),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}
