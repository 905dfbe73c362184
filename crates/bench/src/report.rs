//! The gated bench run's one data model: measurements, the report, its
//! two writers, the repeat helper and the gate table.
//!
//! Every timed figure is a [`Measurement`]: the samples of [`repeat`]
//! (one warm-up pass, then `k` interleaved repeats), summarised by
//! median, min and max. Seed-determined outcomes (digests, counts, the
//! chaos fault mix) are facts. A [`Report`] carries both plus the
//! [`Host`] fingerprint, renders as JSON ([`Report::to_json`]) and as
//! markdown ([`Report::to_markdown`]) — both pure — and is judged by
//! [`check`] against [`GATES`] in the same run that writes the JSON.
//! Gates read medians; each row pairs its lower bound with the physical
//! ceiling where one exists.

use std::fmt::Write as _;
use std::time::Duration;

use komodo_chaos::schedule::Fault;

/// Whether `KOMODO_BENCH_QUICK=1` selects the reduced run sizes — the
/// only place the bench crate reads the variable.
pub fn quick() -> bool {
    std::env::var("KOMODO_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Runs `f` once as a warm-up (caches filled, allocator and page tables
/// settled, result discarded), then `k` more times, returning those `k`
/// results in order. Each call of `f` should measure every side of a
/// comparison back to back, so repeats interleave the sides and a slow
/// stretch of the host hits all of them alike.
pub fn repeat<T>(k: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    drop(f());
    (0..k).map(|_| f()).collect()
}

/// Busy CPU seconds of a run: the summed per-shard busy clock, or the
/// run's wall time on a host whose busy fallback rounded to zero.
pub fn busy_s(busy_ns: u64, wall: Duration) -> f64 {
    if busy_ns == 0 {
        wall.as_secs_f64()
    } else {
        busy_ns as f64 / 1e9
    }
}

/// One shard count's row of a scaling sweep.
pub trait Row {
    /// Worker shards the row ran with.
    fn shards(&self) -> usize;
    /// Completed work per wall second.
    fn wall_rate(&self) -> f64;
    /// CPU-normalized projection: `shards ×` work per busy CPU second —
    /// what `shards` dedicated cores would sustain at the measured
    /// efficiency.
    fn agg_rate(&self) -> f64;
}

/// `rate` of the row at `shards`, if the sweep included it.
pub fn rate_at<R: Row>(rows: &[R], shards: usize, rate: fn(&R) -> f64) -> Option<f64> {
    rows.iter().find(|r| r.shards() == shards).map(rate)
}

/// `rate` at `shards` over `rate` at the 1-shard row, whatever order
/// the sweep ran in; `None` when either row is missing.
pub fn speedup<R: Row>(rows: &[R], shards: usize, rate: fn(&R) -> f64) -> Option<f64> {
    Some(rate_at(rows, shards, rate)? / rate_at(rows, 1, rate)?)
}

/// A timed figure read off each repeat's result: name, unit, reader.
pub type Series<T> = (&'static str, &'static str, fn(&T) -> f64);

/// One timed figure: `k` samples under a dotted name.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Dotted name, `family.metric[.qualifier]`.
    pub name: String,
    /// Unit of every sample.
    pub unit: &'static str,
    /// One value per repeat, in repeat order.
    pub samples: Vec<f64>,
}

impl Measurement {
    /// Median sample (mean of the middle two for an even count; NaN
    /// when there are none).
    pub fn median(&self) -> f64 {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        match s.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => s[n / 2],
            n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::NAN, f64::min)
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(f64::NAN, f64::max)
    }
}

/// A seed-determined outcome: a count, a ratio or a digest.
#[derive(Clone, Debug, PartialEq)]
pub enum Fact {
    /// A number.
    Num(f64),
    /// A string (digests).
    Text(String),
}

impl From<u64> for Fact {
    fn from(v: u64) -> Fact {
        Fact::Num(v as f64)
    }
}

impl From<usize> for Fact {
    fn from(v: usize) -> Fact {
        Fact::Num(v as f64)
    }
}

impl From<f64> for Fact {
    fn from(v: f64) -> Fact {
        Fact::Num(v)
    }
}

impl From<String> for Fact {
    fn from(v: String) -> Fact {
        Fact::Text(v)
    }
}

/// The host a report was measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism` — the wall-speedup ceiling.
    pub nproc: usize,
    /// Built with optimizations (`--release`).
    pub release: bool,
    /// Reduced sizes ([`quick`]).
    pub quick: bool,
}

impl Host {
    /// This process's host.
    pub fn current() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            release: !cfg!(debug_assertions),
            quick: quick(),
        }
    }

    fn line(&self) -> String {
        format!(
            "nproc {}, {} build, {} sizes",
            self.nproc,
            if self.release { "release" } else { "debug" },
            if self.quick { "quick" } else { "full" }
        )
    }
}

/// Everything one gated run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Where it was measured.
    pub host: Host,
    /// Timed figures, in the order they were recorded.
    pub measurements: Vec<Measurement>,
    /// Seed-determined outcomes, in the order they were recorded.
    pub facts: Vec<(String, Fact)>,
}

/// A number as JSON: shortest round-trip form, `null` when not finite.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A number for a markdown cell, grouped in thousands: whole numbers
/// exactly, others to three significant figures.
fn cell(v: f64) -> String {
    if !v.is_finite() {
        return "–".into();
    }
    let digits = if v.fract() == 0.0 {
        0
    } else {
        (2 - v.abs().log10().floor() as i32).max(0) as usize
    };
    let s = format!("{v:.digits$}");
    let (int, frac) = s
        .split_once('.')
        .map_or((&s[..], None), |(i, f)| (i, Some(f)));
    let (sign, int) = int.strip_prefix('-').map_or(("", int), |i| ("-", i));
    let mut grouped = String::new();
    for (i, c) in int.chars().enumerate() {
        if i > 0 && (int.len() - i) % 3 == 0 {
            grouped.push(',');
        }
        grouped.push(c);
    }
    match frac {
        Some(f) => format!("{sign}{grouped}.{f}"),
        None => format!("{sign}{grouped}"),
    }
}

impl Report {
    /// An empty report for `host`.
    pub fn new(host: Host) -> Report {
        Report {
            host,
            measurements: Vec::new(),
            facts: Vec::new(),
        }
    }

    /// Records a timed figure.
    pub fn measure(&mut self, name: impl Into<String>, unit: &'static str, samples: Vec<f64>) {
        self.measurements.push(Measurement {
            name: name.into(),
            unit,
            samples,
        });
    }

    /// Records a seed-determined outcome.
    pub fn fact(&mut self, name: impl Into<String>, value: impl Into<Fact>) {
        self.facts.push((name.into(), value.into()));
    }

    /// The value a gate reads under `name`: a measurement's median, or
    /// a numeric fact.
    pub fn value(&self, name: &str) -> Option<f64> {
        if let Some(m) = self.measurements.iter().find(|m| m.name == name) {
            return Some(m.median());
        }
        self.facts
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, f)| match f {
                Fact::Num(v) => Some(*v),
                Fact::Text(_) => None,
            })
    }

    /// Records one measurement per series, named `{prefix}.{name}`, with
    /// one sample per repeat's result.
    pub fn series<'a, T: 'a>(
        &mut self,
        prefix: &str,
        repeats: impl Iterator<Item = &'a T> + Clone,
        series: &[Series<T>],
    ) {
        for (name, unit, read) in series {
            let samples = repeats.clone().map(read).collect();
            self.measure(format!("{prefix}.{name}"), unit, samples);
        }
    }

    /// Records a sweep repeated `k` times (in any row order): per shard
    /// count, the wall and CPU-normalized rates and their speedups over
    /// the 1-shard row.
    pub fn sweep<R: Row>(&mut self, family: &str, unit: &'static str, repeats: &[Vec<R>]) {
        let Some(first) = repeats.first() else {
            return;
        };
        let mut shard_counts: Vec<usize> = first.iter().map(R::shards).collect();
        shard_counts.sort_unstable();
        for s in shard_counts {
            let rates = [
                ("wall", R::wall_rate as fn(&R) -> f64),
                ("agg", R::agg_rate),
            ];
            for (basis, rate) in rates {
                let at = repeats.iter().filter_map(|rows| rate_at(rows, s, rate));
                self.measure(format!("{family}.{basis}.{s}"), unit, at.collect());
                let over_one = repeats.iter().filter_map(|rows| speedup(rows, s, rate));
                self.measure(
                    format!("{family}.{basis}_speedup.{s}"),
                    "x",
                    over_one.collect(),
                );
            }
        }
    }

    /// The JSON document (`BENCH_sim_throughput.json`): host fingerprint,
    /// facts, and every measurement with unit, median, min, max and its
    /// samples. Pure: the same report always renders the same bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let h = &self.host;
        let _ = writeln!(
            out,
            "  \"host\": {{\"nproc\": {}, \"profile\": \"{}\", \"quick\": {}}},",
            h.nproc,
            if h.release { "release" } else { "debug" },
            h.quick
        );
        out.push_str("  \"facts\": {\n");
        for (i, (name, fact)) in self.facts.iter().enumerate() {
            let v = match fact {
                Fact::Num(v) => json_num(*v),
                Fact::Text(t) => format!("\"{t}\""),
            };
            let comma = if i + 1 < self.facts.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{name}\": {v}{comma}");
        }
        out.push_str("  },\n  \"measurements\": [\n");
        for (i, m) in self.measurements.iter().enumerate() {
            let samples: Vec<String> = m.samples.iter().map(|&v| json_num(v)).collect();
            let comma = if i + 1 < self.measurements.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"median\": {}, \"min\": {}, \
                 \"max\": {}, \"samples\": [{}]}}{comma}",
                m.name,
                m.unit,
                json_num(m.median()),
                json_num(m.min()),
                json_num(m.max()),
                samples.join(", ")
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The markdown tables for every measurement and fact whose name
    /// starts with `prefix` (`""` for all): one row per measurement
    /// (median, min–max, repeats), then one row per fact, under a line
    /// naming the host.
    pub fn to_markdown(&self, prefix: &str) -> String {
        let mut out = format!("Host: {}.\n\n", self.host.line());
        out.push_str("| measurement | unit | median | min – max | n |\n|---|---|---:|---:|---:|\n");
        for m in self
            .measurements
            .iter()
            .filter(|m| m.name.starts_with(prefix))
        {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} – {} | {} |",
                m.name,
                m.unit,
                cell(m.median()),
                cell(m.min()),
                cell(m.max()),
                m.samples.len()
            );
        }
        let facts: Vec<_> = self
            .facts
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .collect();
        if !facts.is_empty() {
            out.push_str("\n| fact | value |\n|---|---:|\n");
            for (name, fact) in facts {
                let v = match fact {
                    Fact::Num(v) => cell(*v),
                    Fact::Text(t) => format!("`{t}`"),
                };
                let _ = writeln!(out, "| {name} | {v} |");
            }
        }
        out
    }
}

/// The ceiling of a gate row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Upper {
    /// No physical ceiling.
    None,
    /// A fixed value.
    At(f64),
    /// A CPU-normalized speedup at this many shards: at most the shard
    /// count, since sharding cannot make work cheaper.
    Shards(usize),
    /// A wall speedup at this many shards: at most `min(shards, nproc)`.
    Cores(usize),
}

/// One row of the gate table: the median (or fact) under `metric` must
/// lie in `[lo, hi]`. A metric missing from the report fails.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gate {
    /// Measurement or fact name.
    pub metric: &'static str,
    /// Lower bound (`f64::NEG_INFINITY` for none).
    pub lo: f64,
    /// Upper bound.
    pub hi: Upper,
}

const NONE: f64 = f64::NEG_INFINITY;

const fn gate(metric: &'static str, lo: f64, hi: Upper) -> Gate {
    Gate { metric, lo, hi }
}

/// Every gate of the bench run.
pub const GATES: &[Gate] = &[
    // Machine equality (asserted by `throughput::measure`) ran on all 8
    // workloads at the 4 rungs.
    gate("throughput.workloads", 8.0, Upper::At(8.0)),
    // The data-side fast path keeps memory_loop inside superblocks.
    gate("throughput.memory_loop.sb_over_accel", 1.3, Upper::None),
    // Micro-op traces beat superblock dispatch on the loop workloads.
    gate("throughput.loop_uop_over_sb_geomean", 1.3, Upper::None),
    // The armed flight recorder costs at most 2% on every workload.
    gate("trace.overhead_pct.straight_line", NONE, Upper::At(2.0)),
    gate("trace.overhead_pct.tight_loop", NONE, Upper::At(2.0)),
    gate("trace.overhead_pct.memory_loop", NONE, Upper::At(2.0)),
    gate("trace.overhead_pct.store_loop", NONE, Upper::At(2.0)),
    gate("trace.overhead_pct.strided_copy", NONE, Upper::At(2.0)),
    gate("trace.overhead_pct.hot_mixed", NONE, Upper::At(2.0)),
    gate("trace.overhead_pct.modmul_loop", NONE, Upper::At(2.0)),
    gate("trace.overhead_pct.sha256_loop", NONE, Upper::At(2.0)),
    // Sharding scales: at least 2.5x CPU-normalized at 4 shards, and no
    // more than the shard count (CPU-normalized) or the cores (wall).
    gate("fleet.agg_speedup.4", 2.5, Upper::Shards(4)),
    gate("fleet.wall_speedup.2", NONE, Upper::Cores(2)),
    gate("fleet.wall_speedup.4", NONE, Upper::Cores(4)),
    // The request layer costs at most 10% of the raw fleet.
    gate("service.vs_fleet.4", 0.9, Upper::None),
    // Batched parallel submission at least doubles the submit rate.
    gate("ingest.batch_over_single", 2.0, Upper::None),
    // Every chaos case passes both oracles, with every fault kind injected.
    gate("chaos.failed", 0.0, Upper::At(0.0)),
    gate(
        "chaos.kinds_injected",
        Fault::KINDS as f64,
        Upper::At(Fault::KINDS as f64),
    ),
    // A genuine quote refused anywhere is a protocol bug, not noise.
    gate("attested.handshake_success", 1.0, Upper::At(1.0)),
    gate("attested.agg_speedup.4", 2.5, Upper::Shards(4)),
    gate("attested.wall_speedup.4", NONE, Upper::Cores(4)),
];

/// A gate row judged against a report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verdict {
    /// The row.
    pub gate: Gate,
    /// The value read, `None` when the report lacks the metric.
    pub value: Option<f64>,
    /// The ceiling resolved against the report's host.
    pub hi: f64,
    /// Whether the value is present and inside `[lo, hi]`.
    pub pass: bool,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let value = self.value.map_or("missing".into(), |v| format!("{v:.3}"));
        write!(
            f,
            "{} {} = {value} in [{}, {}]",
            if self.pass { "PASS" } else { "FAIL" },
            self.gate.metric,
            self.gate.lo,
            self.hi
        )
    }
}

/// Judges every row of `gates` against `report`.
pub fn check(report: &Report, gates: &[Gate]) -> Vec<Verdict> {
    gates
        .iter()
        .map(|&gate| {
            let hi = match gate.hi {
                Upper::None => f64::INFINITY,
                Upper::At(v) => v,
                Upper::Shards(s) => s as f64,
                Upper::Cores(s) => s.min(report.host.nproc) as f64,
            };
            let value = report.value(gate.metric);
            let pass = value.is_some_and(|v| gate.lo <= v && v <= hi);
            Verdict {
                gate,
                value,
                hi,
                pass,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct R(usize, f64, f64);

    impl Row for R {
        fn shards(&self) -> usize {
            self.0
        }
        fn wall_rate(&self) -> f64 {
            self.1
        }
        fn agg_rate(&self) -> f64 {
            self.2
        }
    }

    fn host(nproc: usize) -> Host {
        Host {
            nproc,
            release: true,
            quick: false,
        }
    }

    fn judged(report: &Report, metric: &str) -> Verdict {
        check(report, GATES)
            .into_iter()
            .find(|v| v.gate.metric == metric)
            .expect("metric has a gate row")
    }

    fn with(name: &str, samples: &[f64]) -> Report {
        let mut r = Report::new(host(2));
        r.measure(name, "x", samples.to_vec());
        r
    }

    #[test]
    fn summary_statistics() {
        let m = Measurement {
            name: "a".into(),
            unit: "x",
            samples: vec![3.0, 1.0, 2.0, 10.0],
        };
        assert_eq!(m.median(), 2.5);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 10.0);
        let odd = Measurement {
            samples: vec![5.0, 1.0, 3.0],
            ..m
        };
        assert_eq!(odd.median(), 3.0);
    }

    #[test]
    fn repeat_discards_one_warm_up() {
        let mut calls = 0;
        let got = repeat(3, || {
            calls += 1;
            calls
        });
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn speedup_is_over_the_one_shard_row_whatever_the_order() {
        let ordered = [R(1, 10.0, 10.0), R(2, 18.0, 19.0), R(4, 20.0, 36.0)];
        let shuffled = [R(4, 20.0, 36.0), R(2, 18.0, 19.0), R(1, 10.0, 10.0)];
        for rows in [&ordered[..], &shuffled[..]] {
            assert_eq!(speedup(rows, 4, R::agg_rate), Some(3.6));
            assert_eq!(speedup(rows, 2, R::wall_rate), Some(1.8));
            assert_eq!(speedup(rows, 1, R::agg_rate), Some(1.0));
        }
        assert_eq!(speedup(&ordered[1..], 4, R::agg_rate), None);
        let mut report = Report::new(host(2));
        report.sweep("s", "w/s", &[shuffled.to_vec(), ordered.to_vec()]);
        assert_eq!(report.value("s.agg_speedup.4"), Some(3.6));
        assert_eq!(report.value("s.wall.2"), Some(18.0));
    }

    #[test]
    fn gates_judge_hand_built_reports() {
        // The superlinear attested figure the one-sided gate let through.
        assert!(
            !judged(
                &with("attested.agg_speedup.4", &[10.99]),
                "attested.agg_speedup.4"
            )
            .pass
        );
        // More wall speedup than the host has cores.
        let v = judged(
            &with("fleet.wall_speedup.2", &[2.58]),
            "fleet.wall_speedup.2",
        );
        assert_eq!(v.hi, 2.0);
        assert!(!v.pass);
        // A plausible CPU-normalized figure passes; the lower bound holds.
        assert!(judged(&with("fleet.agg_speedup.4", &[3.2]), "fleet.agg_speedup.4").pass);
        assert!(!judged(&with("fleet.agg_speedup.4", &[2.4]), "fleet.agg_speedup.4").pass);
        // Gates read the median, not the best sample.
        assert!(
            !judged(
                &with("fleet.agg_speedup.4", &[2.0, 2.2, 3.0]),
                "fleet.agg_speedup.4"
            )
            .pass
        );
        // A metric the report lacks fails instead of passing silently.
        let v = judged(&Report::new(host(2)), "ingest.batch_over_single");
        assert_eq!(v.value, None);
        assert!(!v.pass);
        // Facts are gated too; text facts are not numbers.
        let mut r = Report::new(host(8));
        r.fact("attested.handshake_success", 1.0);
        r.fact("chaos.failed", "0".to_string());
        assert!(judged(&r, "attested.handshake_success").pass);
        assert!(!judged(&r, "chaos.failed").pass);
        // The wall ceiling follows the host, up to the shard count.
        assert_eq!(judged(&r, "fleet.wall_speedup.4").hi, 4.0);
    }

    fn sample_report() -> Report {
        let mut r = Report::new(host(2));
        r.measure("service.vs_fleet.4", "x", vec![0.97, 1.0123456789, 0.93]);
        r.measure("fleet.wall.1", "insn/s", vec![123_456_789.0, 120_000_001.0]);
        r.fact("chaos.verdict_digest", "ab12".to_string());
        r.fact("attested.sessions", 1000u64);
        r
    }

    #[test]
    fn json_writer_is_pure_balanced_and_carries_the_gated_value() {
        let r = sample_report();
        let j = r.to_json();
        assert_eq!(j, r.to_json(), "writing twice gives identical bytes");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"host\": {\"nproc\": 2, \"profile\": \"release\", \"quick\": false}"));
        assert!(j.contains("\"chaos.verdict_digest\": \"ab12\""));
        assert!(j.contains("\"attested.sessions\": 1000\n"));
        for m in &r.measurements {
            let line = j
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{}\"", m.name)))
                .expect("every measurement is written");
            for key in ["unit", "median", "min", "max", "samples"] {
                assert!(line.contains(&format!("\"{key}\": ")), "{line}");
            }
        }
        // The JSON's service-vs-fleet median is the value the gate reads.
        let line = j
            .lines()
            .find(|l| l.contains("service.vs_fleet.4"))
            .unwrap();
        let median: f64 = line
            .split("\"median\": ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .expect("median is a number");
        assert_eq!(Some(median), r.value("service.vs_fleet.4"));
        assert_eq!(judged(&r, "service.vs_fleet.4").value, Some(median));
    }

    #[test]
    fn markdown_writer_has_one_row_per_measurement() {
        let r = sample_report();
        let md = r.to_markdown("");
        assert!(md.starts_with("Host: nproc 2, release build, full sizes."));
        assert_eq!(
            md.lines().filter(|l| l.starts_with("| service.")).count(),
            1
        );
        assert!(md.contains("| service.vs_fleet.4 | x | 0.970 | 0.930 – 1.01 | 3 |"));
        assert!(
            md.contains("| fleet.wall.1 | insn/s | 121,728,395 | 120,000,001 – 123,456,789 | 2 |")
        );
        assert!(md.contains("| chaos.verdict_digest | `ab12` |"));
        let fleet = r.to_markdown("fleet.");
        assert!(fleet.contains("| fleet.wall.1 |"));
        assert!(!fleet.contains("service.") && !fleet.contains("chaos."));
    }
}
