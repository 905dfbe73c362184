//! Benchmark harnesses for the paper's evaluation (§8).
//!
//! One regenerating target per table/figure:
//!
//! | Paper artifact | Harness |
//! |---|---|
//! | Table 2 (line counts) | `cargo run -p komodo-bench --bin table2_linecount` |
//! | Table 3 (microbenchmarks) | `cargo run -p komodo-bench --bin table3` |
//! | Figure 5 (notary) | `cargo run --release -p komodo-bench --bin fig5_notary` |
//! | §8.1 SGX comparison | `cargo run -p komodo-bench --bin sgx_compare` |
//! | §7.3 evolution claim + the gated bench run | `cargo run --release -p komodo-bench --bin evolution` |
//!
//! plus Criterion wall-time benches (`cargo bench -p komodo-bench`) and
//! the optimisation-ablation bench for the §8.1 discussion.
//!
//! The host-side measurements (not paper numbers) form one gated run:
//!
//! | Module | Role |
//! |---|---|
//! | [`report`] | `Measurement`, `Report` and its JSON/markdown writers, `repeat`, the `GATES` table |
//! | [`suite`] | the run's sections, each recording one family into the report |
//! | [`throughput`] | simulator host speed at the four rungs; trace overhead |
//! | [`fleet`] | shard scaling of raw fleet jobs |
//! | [`service`] | the same work as typed requests through the service node |
//! | [`ingest`] | per-request vs batched parallel submission |
//! | [`chaos`] | the seeded fault-injection campaign |
//! | [`attested`] | full remote-attestation handshakes at 1 and 4 shards |
//!
//! Cycle numbers are *simulated* cycles from the machine model's cost
//! schedule; the harness prints the paper's measured numbers alongside so
//! the shape (ordering, rough ratios) can be compared directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attested;
pub mod chaos;
pub mod fleet;
pub mod ingest;
pub mod micro;
pub mod notary;
pub mod report;
pub mod service;
pub mod suite;
pub mod throughput;

/// Clock frequency of the paper's evaluation platform (Raspberry Pi 2,
/// 900 MHz Cortex-A7) — used to convert simulated cycles to time.
pub const PI2_HZ: f64 = 900.0e6;

/// Converts simulated cycles to milliseconds at the Pi 2 clock.
pub fn cycles_to_ms(cycles: u64) -> f64 {
    cycles as f64 / PI2_HZ * 1e3
}

/// Prints a two-column (paper vs measured) comparison row.
pub fn print_row(name: &str, paper: &str, measured: u64, note: &str) {
    println!("{name:<28} {paper:>12} {measured:>14} {note}");
}
