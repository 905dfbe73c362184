//! Host facts recorded with every result: core count, toolchain, build
//! profile, and the process's resident memory.

/// Worker threads the host offers (the benchmark's shard and client count).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Reads a `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`) in KiB.
pub fn status_kb(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// (steal, total) CPU ticks of the whole host from `/proc/stat`: time a
/// hypervisor ran someone else on this machine's CPUs shows as steal, and
/// every timing of a run with much of it reads slow.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

use std::sync::atomic::{AtomicU64, Ordering};

/// Steal and total CPU ticks summed over the timed parts of each phase:
/// fan-out send rounds, churn slices, reference-rate notary slices.
pub static PHASE_TICKS: [[AtomicU64; 2]; 3] = [
    [AtomicU64::new(0), AtomicU64::new(0)],
    [AtomicU64::new(0), AtomicU64::new(0)],
    [AtomicU64::new(0), AtomicU64::new(0)],
];

/// Times `f` into phase `phase` of [`PHASE_TICKS`].
pub fn ticked<T>(phase: usize, f: impl FnOnce() -> T) -> T {
    let t0 = cpu_ticks();
    let out = f();
    if let (Some((s0, t0)), Some((s1, t1))) = (t0, cpu_ticks()) {
        PHASE_TICKS[phase][0].fetch_add(s1 - s0, Ordering::Relaxed);
        PHASE_TICKS[phase][1].fetch_add(t1 - t0, Ordering::Relaxed);
    }
    out
}

/// Steal share of phase `phase` so far.
pub fn phase_steal(phase: usize) -> f64 {
    let s = PHASE_TICKS[phase][0].load(Ordering::Relaxed) as f64;
    let t = PHASE_TICKS[phase][1].load(Ordering::Relaxed) as f64;
    s / t.max(1.0)
}

/// Seed held out from tuning, for checking later claims on.
pub const HELD_OUT_SEED: u64 = 104_729;

/// One-line JSON host fingerprint.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    format!(
        "{{\"nproc\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \"workload\": \"{workload}\", \
         \"seed\": {seed}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {seconds}, \"trace\": {trace}}}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}
