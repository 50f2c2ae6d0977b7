//! What the run can say about the machine it ran on: core count, compiler,
//! commit, a noise probe, peak memory and CPU time.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The compiler that built this binary (captured by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("TURNBENCH_RUSTC")
}

/// The directory `Cargo.toml` of this package lives in. `cargo run` names
/// it at run time; a binary run by hand falls back to where it was built.
pub fn package_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|| env!("CARGO_MANIFEST_DIR").into())
        .into()
}

/// The commit of the checkout, or `unknown` outside a git repository (the
/// driver's checkouts are not repositories).
pub fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Time a fixed integer spin loop, in ms. Run before and after the
/// workload: the loop does the same work every time, so a ratio far from
/// 1 — or either value far from the baseline's — marks a noisy sitting.
pub fn noise_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..40_000_000u64 {
        x = (x ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// A field of `/proc/self/status`, in kB.
fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").expect("/proc/self/status has VmHWM on Linux") / 1024.0
}

/// User + system CPU time of this process, all threads, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat on Linux");
    // The command name (field 2) may hold spaces; fields are counted from
    // its closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|t| t.parse::<f64>().expect("tick counts are numbers"))
        .sum();
    // USER_HZ is 100 on every Linux ABI Rust supports.
    ticks / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_facts_are_sane() {
        assert!(nproc() >= 1);
        assert!(rustc_version().starts_with("rustc") || rustc_version() == "unknown");
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        assert!(noise_probe_ms() > 0.0);
        assert!(cpu_seconds() >= before);
    }
}
