//! The gated bench run: every measuring harness at its standard size,
//! each timed comparison repeated through [`repeat`], all recorded into
//! one [`Report`] that [`crate::report::check`] judges against
//! [`crate::report::GATES`].
//!
//! The measuring functions keep their correctness asserts (machine
//! equality across the four rungs, folded totals identical across shard
//! counts, every request resolved, the attested outcome identical at 1
//! and 4 shards); the sections here add the ones that span repeats.

use komodo_chaos::schedule::Fault;
use komodo_trace::MetricsSnapshot;

use crate::attested::{attested_throughput, ATTESTED_SEED};
use crate::chaos::{default_campaign, CHAOS_SEED};
use crate::fleet::{fleet_throughput, FleetThroughput, SHARDS};
use crate::ingest::{measure_ingest_pair, IngestComparison};
use crate::report::{quick, rate_at, repeat, Report, Row, Series};
use crate::service::{service_throughput, ServiceThroughput};
use crate::throughput::{measure_all, trace_overhead, workloads, Throughput};

/// How much work each section does.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Repeats per timed measurement after one warm-up pass (three
    /// times as many for the short sections).
    pub k: usize,
    /// Simulated instructions per throughput-workload run.
    pub steps: u64,
    /// Simulated instructions per trace-overhead run: long enough that
    /// a 2% difference is well above timer and scheduler noise.
    pub overhead_steps: u64,
    /// Simulated instructions per fleet job and per service request.
    pub job_steps: u64,
    /// Jobs per fleet row, requests per service row.
    pub jobs: u64,
    /// Quote requests per ingestion side.
    pub ingest_requests: u64,
    /// Chaos cases (seed-determined; run once).
    pub chaos_cases: u64,
    /// Handshakes per attested row.
    pub attested_sessions: usize,
}

impl Sizes {
    /// The committed run's sizes, or the reduced [`quick`] ones.
    pub fn current() -> Sizes {
        let full = Sizes {
            k: 7,
            steps: 50_000,
            overhead_steps: 4_000_000,
            job_steps: 400_000,
            jobs: 16,
            ingest_requests: 50_000,
            chaos_cases: 2_000,
            attested_sessions: 1_000,
        };
        if quick() {
            Sizes {
                ingest_requests: 20_000,
                chaos_cases: 250,
                attested_sessions: 200,
                ..full
            }
        } else {
            full
        }
    }
}

/// A section of the run: the measurement-name families it records,
/// and the function that measures them.
pub type Section = (&'static [&'static str], fn(&mut Report, &Sizes));

/// Every section, in run order.
pub const SECTIONS: &[Section] = &[
    (&["throughput"], throughput),
    (&["trace"], trace),
    (&["fleet", "service"], fleet_and_service),
    (&["ingest"], ingest),
    (&["chaos"], chaos),
    (&["attested"], attested),
];

/// Repeat multiplier for the sections whose one repeat takes well under
/// a second (throughput, the fleet and service sweeps): the sides of one
/// repeat then see the same host speed, which drifts on a scale of a
/// second, and three times the repeats keep their medians steady at
/// little cost.
const SHORT: usize = 3;

/// The workloads whose micro-op-over-superblock geomean is gated: the
/// hot single-block loops the specialisation tier targets.
const LOOPS: &[&str] = &["tight_loop", "memory_loop", "store_loop"];

/// The per-workload machine counters recorded as facts (deterministic:
/// every repeat retires the identical instructions).
fn counters(m: &MetricsSnapshot) -> [(&'static str, u64); 14] {
    [
        ("uop_promoted", m.uop_promoted),
        ("uop_hits", m.uop_hits),
        ("uop_invalidations", m.uop_invalidations),
        ("blocks_built", m.sb_built),
        ("block_hits", m.sb_hits),
        ("block_chained", m.sb_chained),
        ("block_invalidations", m.sb_invalidations()),
        ("block_inval_code_gen", m.sb_inval_code_gen),
        ("block_inval_tlb", m.sb_inval_tlb),
        ("dtlb_hits", m.dtlb_hits),
        ("dtlb_misses", m.dtlb_misses),
        ("dtlb_invalidations", m.dtlb_invalidations()),
        ("tlb_hits", m.tlb_hits),
        ("tlb_misses", m.tlb_misses),
    ]
}

/// Simulator host throughput at the four rungs, per workload.
fn throughput(r: &mut Report, z: &Sizes) {
    let reps = repeat(SHORT * z.k, || measure_all(z.steps));
    let series: [Series<Throughput>; 7] = [
        ("uop_ips", "insn/s", |t| t.uop_ips),
        ("sb_ips", "insn/s", |t| t.sb_ips),
        ("accel_ips", "insn/s", |t| t.accel_ips),
        ("base_ips", "insn/s", |t| t.base_ips),
        ("uop_over_sb", "x", Throughput::uop_over_sb),
        ("sb_over_accel", "x", Throughput::sb_over_accel),
        ("sb_speedup", "x", Throughput::sb_speedup),
    ];
    for (i, t) in reps[0].iter().enumerate() {
        let prefix = format!("throughput.{}", t.name);
        r.series(&prefix, reps.iter().map(|rep| &rep[i]), &series);
        for (field, v) in counters(&t.metrics) {
            r.fact(format!("throughput.{}.{field}", t.name), v);
        }
    }
    r.fact("throughput.steps", z.steps);
    // measure() asserted machine equality at all four rungs for each.
    r.fact("throughput.workloads", reps[0].len());
    let geomean = |rep: &Vec<Throughput>| {
        let loops: Vec<f64> = rep
            .iter()
            .filter(|t| LOOPS.contains(&t.name))
            .map(|t| t.uop_over_sb().ln())
            .collect();
        (loops.iter().sum::<f64>() / loops.len() as f64).exp()
    };
    r.measure(
        "throughput.loop_uop_over_sb_geomean",
        "x",
        reps.iter().map(geomean).collect(),
    );
}

/// Flight-recorder overhead: armed vs disabled recorder per workload,
/// signed (a negative figure is timing noise).
fn trace(r: &mut Report, z: &Sizes) {
    let wl = workloads();
    let reps = repeat(z.k, || -> Vec<f64> {
        wl.iter()
            .map(|(_, code)| {
                let (off, on) = trace_overhead(code, z.overhead_steps, 9);
                (off / on - 1.0) * 100.0
            })
            .collect()
    });
    for (i, (name, _)) in wl.iter().enumerate() {
        let samples = reps.iter().map(|rep| rep[i]).collect();
        r.measure(format!("trace.overhead_pct.{name}"), "%", samples);
    }
}

/// `shards` rotated left by `turn`: successive repeats start a sweep at
/// a different row, so no row always runs first.
fn rotated(shards: &[usize], turn: usize) -> Vec<usize> {
    let mut order = shards.to_vec();
    order.rotate_left(turn % shards.len());
    order
}

/// The fleet and service sweeps, measured back to back in every repeat
/// so the service-vs-fleet ratio compares like with like.
fn fleet_and_service(r: &mut Report, z: &Sizes) {
    let mut turn = 0;
    let (fleet, service): (Vec<_>, Vec<_>) = repeat(SHORT * z.k, || {
        turn += 1;
        let order = rotated(SHARDS, turn);
        (
            fleet_throughput(z.job_steps, z.jobs, &order),
            service_throughput(z.job_steps, z.jobs, &order),
        )
    })
    .into_iter()
    .unzip();
    r.fact("fleet.jobs", z.jobs);
    r.fact("fleet.steps", z.job_steps);
    r.sweep("fleet", "insn/s", &fleet);
    r.sweep("service", "insn/s", &service);
    let ratio = fleet.iter().zip(&service).filter_map(|(f, s)| {
        Some(
            rate_at(s, 4, ServiceThroughput::agg_rate)? / rate_at(f, 4, FleetThroughput::agg_rate)?,
        )
    });
    r.measure("service.vs_fleet.4", "x", ratio.collect());
    latencies(r, "service.", &service, SHARDS, |t| [t.p50_ns, t.p99_ns]);
}

/// Records the p50 and p99 latency at every shard count, in ms, as
/// `{prefix}p50_ms.{shards}` and `{prefix}p99_ms.{shards}`.
fn latencies<R: Row>(
    r: &mut Report,
    prefix: &str,
    reps: &[Vec<R>],
    shards: &[usize],
    pct: fn(&R) -> [u64; 2],
) {
    for &s in shards {
        for (i, p) in ["p50", "p99"].into_iter().enumerate() {
            let rows = reps
                .iter()
                .filter_map(|rows| rows.iter().find(|t| t.shards() == s));
            let ms = rows.map(|t| pct(t)[i] as f64 / 1e6).collect();
            r.measure(format!("{prefix}{p}_ms.{s}"), "ms", ms);
        }
    }
}

/// Per-request vs batched parallel submission at 4 shards.
fn ingest(r: &mut Report, z: &Sizes) {
    let (shards, submitters, batch) = (4, 4, 1024);
    let reps = repeat(z.k, || {
        measure_ingest_pair(shards, z.ingest_requests, submitters, batch)
    });
    r.fact("ingest.requests", z.ingest_requests);
    r.fact("ingest.shards", shards);
    r.fact("ingest.submitters", submitters);
    r.fact("ingest.batch", batch);
    let series: [Series<IngestComparison>; 6] = [
        ("single_submit_rps", "req/s", |c| c.single.submit_rps()),
        ("batched_submit_rps", "req/s", |c| c.batched.submit_rps()),
        (
            "batch_over_single",
            "x",
            IngestComparison::batch_over_single,
        ),
        ("p50_ms", "ms", |c| c.batched.p50_ns as f64 / 1e6),
        ("p99_ms", "ms", |c| c.batched.p99_ns as f64 / 1e6),
        ("stolen", "jobs", |c| c.batched.steal_stolen as f64),
    ];
    r.series("ingest", reps.iter(), &series);
}

/// The seeded fault-injection campaign on 4 shards: deterministic, so
/// it runs once; only its case rate is timed.
fn chaos(r: &mut Report, z: &Sizes) {
    let c = default_campaign(z.chaos_cases, 4);
    assert!(
        c.all_green(),
        "chaos campaign found oracle violations: {:?}",
        c.failures
    );
    assert_eq!(c.verdict_digest.len(), 64, "verdict digest is SHA-256 hex");
    r.fact("chaos.master_seed", format!("{CHAOS_SEED:#x}"));
    r.fact("chaos.cases", c.cases);
    r.fact("chaos.passed", c.passed);
    r.fact("chaos.failed", c.cases - c.passed);
    r.fact("chaos.shards", c.shards);
    r.fact("chaos.slots", c.slots);
    r.fact("chaos.faults_injected", c.injected.iter().sum::<u64>());
    r.fact(
        "chaos.kinds_injected",
        c.injected.iter().filter(|&&n| n > 0).count(),
    );
    for (kind, &n) in c.injected.iter().enumerate() {
        r.fact(
            format!("chaos.fault_mix.{}", Fault::kind_name(kind as u8)),
            n,
        );
    }
    r.fact("chaos.verdict_digest", c.verdict_digest.clone());
    r.measure("chaos.cases_per_s", "cases/s", vec![c.cases_per_sec()]);
}

/// Full remote-attestation handshakes at 1 and 4 shards.
fn attested(r: &mut Report, z: &Sizes) {
    const SHARDS: &[usize] = &[1, 4];
    let mut turn = 0;
    let reps = repeat(z.k, || {
        turn += 1;
        attested_throughput(z.attested_sessions, 1, &rotated(SHARDS, turn))
    });
    let first = &reps[0][0];
    for t in reps.iter().flatten() {
        assert_eq!(
            t.outcome, first.outcome,
            "the attested outcome changed between repeats"
        );
    }
    r.fact("attested.seed", format!("{ATTESTED_SEED:#x}"));
    r.fact("attested.sessions", first.outcome.sessions);
    r.fact("attested.messages", first.outcome.messages);
    r.fact("attested.established", first.outcome.established);
    let success = reps.iter().flatten().map(|t| t.success());
    r.fact(
        "attested.handshake_success",
        success.fold(f64::INFINITY, f64::min),
    );
    r.fact(
        "attested.key_digest",
        format!("{:#018x}", first.outcome.key_digest),
    );
    r.sweep("attested", "sessions/s", &reps);
    latencies(r, "attested.hs_", &reps, SHARDS, |t| [t.p50_ns, t.p99_ns]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{check, Fact, Host, GATES};

    #[test]
    fn every_gate_reads_a_metric_the_run_records() {
        let z = Sizes {
            k: 2,
            steps: 2_000,
            overhead_steps: 2_000,
            job_steps: 1_000,
            jobs: 4,
            ingest_requests: 32,
            chaos_cases: 4,
            attested_sessions: 3,
        };
        let mut report = Report::new(Host::current());
        for (families, section) in SECTIONS {
            section(&mut report, &z);
            for family in *families {
                let md = report.to_markdown(&format!("{family}."));
                assert!(
                    md.contains(&format!("| {family}.")),
                    "nothing under {family}"
                );
            }
        }
        for v in check(&report, GATES) {
            assert!(v.value.is_some(), "gate on {} reads nothing", v.gate.metric);
        }
        for m in &report.measurements {
            assert!(!m.samples.is_empty(), "{} has no samples", m.name);
            let n = m.samples.len();
            assert!(
                [1, z.k, SHORT * z.k].contains(&n),
                "{}: {n} samples",
                m.name
            );
        }
        for (name, _) in workloads() {
            for (field, _) in counters(&MetricsSnapshot::default()) {
                let key = format!("throughput.{name}.{field}");
                assert!(report.facts.iter().any(|(n, _)| *n == key), "{key}");
            }
        }
        let fact = |n: &str| report.facts.iter().find(|(f, _)| f == n).map(|(_, v)| v);
        assert_eq!(fact("chaos.cases"), Some(&Fact::Num(4.0)));
        assert_eq!(fact("chaos.passed"), Some(&Fact::Num(4.0)));
        assert!(fact("chaos.fault_mix.irq").is_some());
        assert!(matches!(fact("chaos.verdict_digest"), Some(Fact::Text(d)) if d.len() == 64));
        assert_eq!(fact("attested.handshake_success"), Some(&Fact::Num(1.0)));
        let md = report.to_markdown("");
        let rows = md.lines().filter(|l| l.starts_with("| ")).count();
        // One row per measurement and per fact, plus the two headers.
        assert_eq!(rows, report.measurements.len() + report.facts.len() + 2);
        let j = report.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches("\"median\": ").count(), report.measurements.len());
    }

    #[test]
    fn counters_name_the_snapshot_fields() {
        let m = MetricsSnapshot {
            uop_promoted: 1,
            sb_built: 2,
            sb_inval_code_gen: 1,
            sb_inval_tlb: 2,
            dtlb_inval_flush: 2,
            tlb_misses: 11,
            ..Default::default()
        };
        let c = counters(&m);
        let get = |k: &str| c.iter().find(|(n, _)| *n == k).map(|(_, v)| *v);
        assert_eq!(get("uop_promoted"), Some(1));
        assert_eq!(get("blocks_built"), Some(2));
        assert_eq!(get("block_invalidations"), Some(3));
        assert_eq!(get("dtlb_invalidations"), Some(2));
        assert_eq!(get("tlb_misses"), Some(11));
    }
}
