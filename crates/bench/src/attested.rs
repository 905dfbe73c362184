//! Attested-session throughput: the full remote-attestation handshake
//! (challenge → in-enclave quote → verifier check → confirmation →
//! MAC'd traffic → close) driven closed-loop through the service node
//! at 1 and 4 shards.
//!
//! The protocol work lives in [`komodo_service::drive_attested`]; this
//! harness wraps it at the bench's standard knobs (fixed challenge
//! seed, session/message counts), reports handshake latency
//! percentiles and session rates, and asserts the determinism contract
//! in the large: the identical challenge schedule produces a
//! bit-identical [`AttestedOutcome`] — session-key digest included —
//! at every shard count. The gates are *100% handshake success* (every
//! attempted handshake establishes and every traffic tag verifies) and
//! a 4-shard CPU-normalized speedup between 2.5x and the shard count,
//! the basis the fleet sweep uses.

use komodo_service::{
    drive_attested, nearest_rank, AttestedClient, AttestedOutcome, Service, ServiceConfig,
};

use crate::report::{busy_s, Row};

/// Seed for the challenge schedule (client nonces, DH secrets, message
/// payloads) — fixed so every row, and every run, replays the
/// identical handshakes.
pub const ATTESTED_SEED: u64 = 0xa77e_57ed;

/// One shard count's attested-session measurement over the fixed
/// challenge schedule.
#[derive(Clone, Debug)]
pub struct AttestedThroughput {
    /// Fleet shards behind the service node.
    pub shards: usize,
    /// The timing-independent drive outcome (phase counts plus the
    /// order-independent fold of every established session key).
    pub outcome: AttestedOutcome,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Summed per-shard busy CPU seconds ([`busy_s`]).
    pub busy_s: f64,
    /// Median handshake latency (begin submitted → session
    /// established), ns.
    pub p50_ns: u64,
    /// 99th-percentile handshake latency, ns.
    pub p99_ns: u64,
}

impl AttestedThroughput {
    /// Fraction of attempted handshakes that established. The gate
    /// requires exactly 1.0 — a genuine quote refused anywhere is a
    /// protocol bug, not noise.
    pub fn success(&self) -> f64 {
        self.outcome.established as f64 / (self.outcome.sessions as f64).max(1.0)
    }
}

impl Row for AttestedThroughput {
    fn shards(&self) -> usize {
        self.shards
    }

    /// Established sessions per wall second.
    fn wall_rate(&self) -> f64 {
        self.outcome.established as f64 / self.wall_s
    }

    fn agg_rate(&self) -> f64 {
        self.shards as f64 * self.outcome.established as f64 / self.busy_s
    }
}

/// Measures one shard count: the full handshake schedule driven
/// closed-loop through a service node, handshake latency percentiles
/// from the per-session latency surface.
pub fn measure_attested(shards: usize, sessions: usize, messages: usize) -> AttestedThroughput {
    let config = ServiceConfig::default().with_shards(shards);
    let client = AttestedClient::new(config.platform.seed);
    let run = Service::run(config, |h| {
        drive_attested(h, &client, ATTESTED_SEED, sessions, messages)
    });
    let busy_s = busy_s(run.busy_ns(), run.wall);
    let report = run.value;
    let (p50_ns, p99_ns) = (
        nearest_rank(report.handshake_ns.clone(), 50.0),
        nearest_rank(report.handshake_ns, 99.0),
    );
    assert!(
        0 < p50_ns && p50_ns <= p99_ns,
        "{shards} shards: implausible handshake percentiles {p50_ns} / {p99_ns} ns"
    );
    AttestedThroughput {
        shards,
        outcome: report.outcome,
        wall_s: run.wall.as_secs_f64(),
        busy_s,
        p50_ns,
        p99_ns,
    }
}

/// The attested scaling sweep over `shard_counts`, asserting the
/// protocol contract in the large: every handshake establishes, every
/// traffic tag verifies, and the [`AttestedOutcome`] — key digest
/// included — is bit-identical at every shard count (the identical
/// challenge schedule derives the identical per-session keys no matter
/// how the fleet is sharded).
pub fn attested_throughput(
    sessions: usize,
    messages: usize,
    shard_counts: &[usize],
) -> Vec<AttestedThroughput> {
    let rows: Vec<AttestedThroughput> = shard_counts
        .iter()
        .map(|&s| measure_attested(s, sessions, messages))
        .collect();
    for r in &rows {
        assert_eq!(
            r.outcome.established, sessions as u64,
            "{} shards: {} of {sessions} handshakes established",
            r.shards, r.outcome.established
        );
        assert_eq!(
            (r.outcome.failed, r.outcome.rejected),
            (0, 0),
            "{} shards: attested drive shed or failed work",
            r.shards
        );
        assert_ne!(r.outcome.key_digest, 0, "empty session-key digest");
    }
    for r in rows.iter().skip(1) {
        assert_eq!(
            r.outcome, rows[0].outcome,
            "shard count changed the attested outcome ({} vs {} shards)",
            r.shards, rows[0].shards
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_establishes_every_session() {
        let s = attested_throughput(6, 1, &[1, 2]);
        assert_eq!(s.len(), 2);
        for r in &s {
            assert_eq!(r.success(), 1.0);
            assert_eq!(r.outcome.messages, 6);
            assert!(r.wall_s > 0.0);
            assert!(r.busy_s > 0.0);
            assert!(r.p99_ns >= r.p50_ns);
            assert!(r.p50_ns > 0);
            assert_ne!(r.outcome.key_digest, 0);
        }
        let r = AttestedThroughput {
            shards: 4,
            wall_s: 0.5,
            busy_s: 2.0,
            ..s[0].clone()
        };
        assert_eq!(r.wall_rate(), 12.0);
        assert_eq!(r.agg_rate(), 12.0);
    }
}
