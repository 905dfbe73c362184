//! Ingestion throughput: how fast requests get *into* the node.
//!
//! The fleet and service sweeps measure execution; this harness
//! measures admission. The same seeded attestation-quote schedule is
//! driven through the service front end twice — once submitting one
//! request at a time from a single thread (the pre-sharding ingestion
//! path), once through [`ServiceHandle::submit_batch`] from parallel
//! submitter partitions — and the number that matters is submission
//! throughput: scheduled requests divided by the submit-phase wall
//! (the [`DriveReport::submit_wall`] the driver clocks before joining
//! tickets).
//!
//! The gate is the ratio at 4 shards: batched parallel submission must
//! sustain at least 2x the single-submit request rate. The win is
//! amortization — one timestamp, one capacity reservation pass, one
//! result block and one worker wake per batch instead of per request —
//! so it holds on a single-core host too, where parallelism alone
//! buys nothing.
//!
//! [`ServiceHandle::submit_batch`]: komodo_service::ServiceHandle::submit_batch
//! [`DriveReport::submit_wall`]: komodo_service::DriveReport::submit_wall

use komodo_service::{
    drive_indexed, percentile_ns, schedule_indexed, Mix, Request, Service, ServiceConfig,
};

/// Seed for the ingest arrival schedule — fixed so both sides of the
/// comparison (and every run) replay the identical request sequence.
pub const INGEST_SEED: u64 = 0x1261_e575;

/// The ingest mix: attestation quotes only. Quotes are the cheapest
/// end-to-end request the node serves, so the run is dominated by the
/// ingestion path under test, not by simulated enclave execution.
pub fn ingest_mix() -> Mix {
    Mix::new().with(
        1,
        Request::Attest {
            report: [0x16e5_7000, 1, 2, 3, 4, 5, 6, 7],
        },
    )
}

/// One ingestion measurement: the seeded quote schedule driven through
/// `drive_indexed` at a fixed submitter/batch configuration.
#[derive(Clone, Copy, Debug)]
pub struct IngestMeasurement {
    /// Fleet shards behind the node.
    pub shards: usize,
    /// Scheduled (and, with the unbounded queue, completed) requests.
    pub requests: u64,
    /// Submitter threads partitioning the schedule.
    pub submitters: usize,
    /// Requests per `submit_batch` call (1 = per-request `submit`).
    pub batch: usize,
    /// Submit-phase wall seconds (schedule fully admitted, before the
    /// driver joins its tickets).
    pub submit_wall_s: f64,
    /// Wall seconds for the whole run, joins included.
    pub wall_s: f64,
    /// Median end-to-end latency (enqueue→complete), ns.
    pub p50_ns: u64,
    /// 99th-percentile end-to-end latency, ns.
    pub p99_ns: u64,
    /// Jobs workers claimed from their own lanes.
    pub steal_own: u64,
    /// Jobs workers stole from sibling shards.
    pub steal_stolen: u64,
}

impl IngestMeasurement {
    /// Submission throughput: scheduled requests per submit-phase
    /// second. The gate's numerator and denominator.
    pub fn submit_rps(&self) -> f64 {
        self.requests as f64 / self.submit_wall_s.max(1e-9)
    }
}

/// Measures one ingestion configuration over the fixed quote schedule
/// and asserts its conservation contract: every request completes, and
/// each shard's job count splits exactly into own + stolen claims that
/// sum to the schedule.
pub fn measure_ingest(
    shards: usize,
    requests: u64,
    submitters: usize,
    batch: usize,
) -> IngestMeasurement {
    let mix = ingest_mix();
    let arrivals =
        schedule_indexed(INGEST_SEED, requests as usize, 0, &mix).expect("quote mix has weight");
    let run = Service::run(ServiceConfig::default().with_shards(shards), |h| {
        drive_indexed(h, &mix, &arrivals, false, submitters, batch)
    });
    let report = run.value;
    assert_eq!(
        report.outcome.ok, requests,
        "unbounded quote burst must complete every request"
    );
    assert_eq!(report.outcome.errors + report.outcome.rejected, 0);
    for (i, s) in run.shards.iter().enumerate() {
        assert_eq!(
            s.jobs,
            s.own + s.stolen,
            "shard {i}: claimed jobs must split into own + stolen"
        );
    }
    let steal_own: u64 = run.shards.iter().map(|s| s.own).sum();
    let steal_stolen: u64 = run.shards.iter().map(|s| s.stolen).sum();
    assert_eq!(
        steal_own + steal_stolen,
        requests,
        "steal accounting lost jobs"
    );
    IngestMeasurement {
        shards,
        requests,
        submitters,
        batch,
        submit_wall_s: report.submit_wall.as_secs_f64(),
        wall_s: run.wall.as_secs_f64(),
        p50_ns: percentile_ns(&run.records, 50.0),
        p99_ns: percentile_ns(&run.records, 99.0),
        steal_own,
        steal_stolen,
    }
}

/// Both sides of the ingestion head-to-head, measured back-to-back so
/// they see the same host conditions.
#[derive(Clone, Copy, Debug)]
pub struct IngestComparison {
    /// Single thread, one `submit` per request.
    pub single: IngestMeasurement,
    /// Parallel partitions, `submit_batch` per chunk.
    pub batched: IngestMeasurement,
}

impl IngestComparison {
    /// Batched-over-single submission-rate ratio — the gated number
    /// (≥ 2.0 at 4 shards).
    pub fn batch_over_single(&self) -> f64 {
        self.batched.submit_rps() / self.single.submit_rps().max(1e-9)
    }
}

/// Measures one back-to-back single/batched pair.
pub fn measure_ingest_pair(
    shards: usize,
    requests: u64,
    submitters: usize,
    batch: usize,
) -> IngestComparison {
    IngestComparison {
        single: measure_ingest(shards, requests, 1, 1),
        batched: measure_ingest(shards, requests, submitters, batch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(submitters: usize, batch: usize, submit_wall_s: f64) -> IngestMeasurement {
        IngestMeasurement {
            shards: 4,
            requests: 1000,
            submitters,
            batch,
            submit_wall_s,
            wall_s: submit_wall_s * 2.0,
            p50_ns: 1_000_000,
            p99_ns: 3_000_000,
            steal_own: 900,
            steal_stolen: 100,
        }
    }

    #[test]
    fn submit_rates_and_their_ratio() {
        let c = IngestComparison {
            single: fake(1, 1, 0.5),
            batched: fake(4, 256, 0.125),
        };
        assert_eq!(c.single.submit_rps(), 2000.0);
        assert_eq!(c.batched.submit_rps(), 8000.0);
        assert_eq!(c.batch_over_single(), 4.0);
    }

    #[test]
    fn measures_both_paths_and_conserves_jobs() {
        let c = measure_ingest_pair(2, 64, 2, 16);
        assert_eq!(c.single.requests, 64);
        assert_eq!(c.batched.requests, 64);
        assert_eq!(c.single.submitters, 1);
        assert_eq!(c.single.batch, 1);
        assert!(c.single.submit_wall_s > 0.0);
        assert!(c.batched.submit_wall_s > 0.0);
        assert!(c.single.wall_s >= c.single.submit_wall_s);
        assert_eq!(c.batched.steal_own + c.batched.steal_stolen, 64);
        assert!(c.batched.p99_ns >= c.batched.p50_ns);
        assert!(c.batch_over_single() > 0.0);
    }
}
