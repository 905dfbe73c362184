//! Cycle-stamped event tracing for the Komodo reproduction.
//!
//! The paper's argument lives at the monitor boundary: SMC/SVC/IRQ/FIQ
//! entry and exit, enclave lifecycle transitions, and page-DB state
//! changes are exactly where a secure-enclave monitor is interesting —
//! and exactly where a reproduction needs visibility when a bisimulation
//! or differential test diverges. This crate provides that visibility as
//! one small, dependency-free subsystem:
//!
//! - [`Event`] — a compact taxonomy of boundary events (world switches,
//!   exception entry/exit with vector and mode, SMC dispatch with call
//!   number and result, enclave lifecycle, page-DB transitions, TLB /
//!   data-TLB invalidations, superblock build/invalidate), each stamped
//!   with the simulated cycle counter ([`Stamped`]).
//! - [`FlightRecorder`] — a fixed-capacity ring buffer owned by the
//!   machine. Capacity 0 (the default) is the disabled path: `record` is
//!   a single branch, so the instrumented hot paths stay within the 2%
//!   overhead contract gated by the bench run. Reads never mutate
//!   (lock-free-to-read in the single-threaded simulator sense: any
//!   `&self` observer — a panic hook, a divergence report — can format
//!   the tail without stopping the writer).
//! - Exporters — [`chrome_trace`] renders a capture as Chrome
//!   `trace_event` JSON for `chrome://tracing` / Perfetto, and
//!   [`MetricsSnapshot`] aggregates the simulator's counter surfaces
//!   (TLB, data-TLB, superblocks, memory, trace) under one hand-rolled
//!   JSON schema (serde-free: the build is hermetic). [`FleetMetrics`]
//!   folds many machines' snapshots across scheduler shards: per-shard
//!   attribution, a summed total, and min/max load skew.
//!
//! **Neutrality contract.** Recording must never perturb simulated
//! state: no cycle charges, no counted memory traffic, no change to any
//! field that participates in machine equality. The recorder itself is
//! excluded from machine equality exactly like the fetch accelerator and
//! data-TLB, and the bench differential test proves traced-on vs
//! traced-off runs end bit-for-bit identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod fleet;
mod metrics;
mod ring;

pub use chrome::chrome_trace;
pub use event::{mode_name, page_type_name, Event, ExnVector, InvalCause, Stamped};
pub use fleet::{FleetMetrics, Skew};
pub use metrics::MetricsSnapshot;
pub use ring::FlightRecorder;
