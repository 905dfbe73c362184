//! Service-node throughput and latency: the fleet workload mix driven
//! through the `komodo-service` request front end at 1/2/4/8 shards.
//!
//! The fleet sweep ([`crate::fleet`]) measures the raw scheduler; this
//! harness measures the same simulated work arriving as typed requests
//! through the service node — admission, per-request accounting and the
//! response path included. The gated head-to-head: at 4 shards the
//! service's CPU-normalized rate, measured back to back with the raw
//! fleet's in every repeat, must stay within 10% of it (ratio ≥ 0.9),
//! i.e. the request layer is bookkeeping, not a throughput tax.
//!
//! Load is open-loop: a seeded arrival schedule over the guest
//! workloads as [`Request::Invoke`] prototypes, submitted as one burst
//! (mean gap 0 — the maximum-pressure profile) against an unbounded
//! queue, then joined. Latency percentiles (p50/p99 end-to-end,
//! enqueue→complete) come exactly from the per-request records.

use komodo_service::{drive, percentile_ns, schedule, Mix, Request, Service, ServiceConfig};
use std::sync::Arc;

use crate::report::{busy_s, Row};
use crate::throughput::workloads;

/// Seed for the arrival schedule — fixed so every row (and every run)
/// replays the identical request sequence.
const SERVICE_SEED: u64 = 0x5e41_11ce;

/// One shard count's measurement over the fixed request schedule.
#[derive(Clone, Debug)]
pub struct ServiceThroughput {
    /// Fleet shards behind the service node.
    pub shards: usize,
    /// Requests submitted (the schedule length).
    pub requests: u64,
    /// Requests that completed with a response.
    pub completed: u64,
    /// Requests rejected at the door (0 with an unbounded queue).
    pub rejected: u64,
    /// Total simulated instructions across completed requests.
    pub insns: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Summed per-shard busy CPU seconds.
    pub busy_s: f64,
    /// Median end-to-end request latency (enqueue→complete), ns.
    pub p50_ns: u64,
    /// 99th-percentile end-to-end request latency, ns.
    pub p99_ns: u64,
}

impl Row for ServiceThroughput {
    fn shards(&self) -> usize {
        self.shards
    }

    /// Simulated instructions per wall second — the fleet's basis, so
    /// the two compare directly.
    fn wall_rate(&self) -> f64 {
        self.insns as f64 / self.wall_s
    }

    fn agg_rate(&self) -> f64 {
        self.shards as f64 * self.insns as f64 / self.busy_s
    }
}

/// The service bench's request mix: the guest workloads as
/// equally-weighted [`Request::Invoke`] prototypes of `steps`
/// instructions each.
pub fn invoke_mix(steps: u64) -> Mix {
    let mut mix = Mix::new();
    for (_, code) in workloads() {
        mix = mix.with(
            1,
            Request::Invoke {
                code: Arc::new(code),
                steps,
            },
        );
    }
    mix
}

/// Measures one shard count: replays the seeded burst schedule through
/// a service node and reports throughput plus exact latency
/// percentiles from the request records.
pub fn measure_service(shards: usize, steps: u64, requests: u64) -> ServiceThroughput {
    let arrivals = schedule(SERVICE_SEED, requests as usize, 0, &invoke_mix(steps))
        .expect("invoke mix is never empty");
    assert_eq!(arrivals.len() as u64, requests);
    let run = Service::run(ServiceConfig::default().with_shards(shards), |h| {
        drive(h, &arrivals, false)
    });
    let outcome = run.value;
    assert_eq!(
        outcome.ok + outcome.errors,
        requests,
        "unbounded burst must resolve every request"
    );
    assert_eq!(outcome.errors, 0, "invoke requests must all complete");
    let (p50_ns, p99_ns) = (
        percentile_ns(&run.records, 50.0),
        percentile_ns(&run.records, 99.0),
    );
    assert!(
        0 < p50_ns && p50_ns <= p99_ns,
        "implausible latency percentiles {p50_ns} / {p99_ns} ns"
    );
    ServiceThroughput {
        shards,
        requests,
        completed: outcome.ok,
        rejected: outcome.rejected,
        insns: steps * outcome.ok,
        wall_s: run.wall.as_secs_f64(),
        busy_s: busy_s(run.busy_ns(), run.wall),
        p50_ns,
        p99_ns,
    }
}

/// The service scaling sweep over `shard_counts`, asserting the service
/// conservation/determinism contract in the large: the identical
/// schedule completes identically at every shard count.
pub fn service_throughput(
    steps: u64,
    requests: u64,
    shard_counts: &[usize],
) -> Vec<ServiceThroughput> {
    let rows: Vec<ServiceThroughput> = shard_counts
        .iter()
        .map(|&s| measure_service(s, steps, requests))
        .collect();
    for r in rows.iter().skip(1) {
        assert_eq!(
            (r.completed, r.insns),
            (rows[0].completed, rows[0].insns),
            "shard count changed the completed work ({} vs {} shards)",
            r.shards,
            rows[0].shards
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_measures_and_work_is_shard_independent() {
        let s = service_throughput(2_000, 6, &[1, 2]);
        assert_eq!(s.len(), 2);
        for r in &s {
            assert_eq!(r.completed, 6);
            assert_eq!(r.rejected, 0);
            assert_eq!(r.insns, 12_000);
            assert!(r.wall_s > 0.0);
            assert!(r.busy_s > 0.0);
            assert!(r.p99_ns >= r.p50_ns);
            assert!(r.p50_ns > 0);
        }
    }

    #[test]
    fn rates_use_the_fleet_basis() {
        let r = ServiceThroughput {
            shards: 4,
            requests: 4,
            completed: 4,
            rejected: 0,
            insns: 4000,
            wall_s: 0.5,
            busy_s: 4.0,
            p50_ns: 1_000_000,
            p99_ns: 3_000_000,
        };
        assert_eq!(r.wall_rate(), 8000.0);
        assert_eq!(r.agg_rate(), 4000.0);
    }

    #[test]
    fn invoke_mix_covers_every_workload() {
        let mix = invoke_mix(100);
        // 5 workloads, equal weight: a long schedule draws each kind.
        let arrivals = schedule(1, 200, 0, &mix).unwrap();
        assert_eq!(arrivals.len(), 200);
        assert!(arrivals
            .iter()
            .all(|a| matches!(a.request, Request::Invoke { steps: 100, .. })));
    }
}
