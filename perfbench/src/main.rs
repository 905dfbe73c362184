//! End-to-end and per-layer benchmark of the Komodo service node.
//!
//! ```text
//! perfbench --workload <attested_churn|notary_open>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run drives a `komodo-service` node at `shards = nproc` from
//! outside, through its public API, in three phases: the attested
//! fan-out, the attested churn loop and the open-loop notary ladder.
//! Each phase has a fixed share of `--seconds` and the named workload's
//! phase gets a fifth of `--seconds` more, so every end-to-end metric is
//! measured in every run while the named workload carries the most load.
//! The fan-out phase is measured in every run but is not a workload of
//! its own: on a host whose speed drifts, two longer workloads steady
//! every metric more than three shorter ones.
//! With `--trace 0` the last stdout line is the JSON result with the
//! end-to-end metrics; with `--trace 1` the same phases run and the
//! per-layer metrics follow from the service's records and from timed
//! direct calls into each layer (see `traced`). Any correctness failure
//! exits 1 without a result.

mod churn;
mod client;
mod fanout;
mod host;
mod node;
mod notary;
mod stats;
mod traced;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use komodo_service::{Request, Service};

use node::{call, Ctx, CycleGate, NodeRun};

const WORKLOADS: [&str; 2] = ["attested_churn", "notary_open"];
/// Every phase's share of `--seconds`; the named workload's phase gets
/// [`NAMED_EXTRA`] more. The notary ladder's share is the largest because
/// it also runs the rates above the reference rate.
const PHASE_SHARE: [(&str, f64); 3] = [
    ("attested_churn", 0.15),
    ("attested_fanout", 0.3),
    ("notary_open", 0.35),
];
const NAMED_EXTRA: f64 = 0.2;
/// Interleaved rounds per run (see `run_phases`): the more there are, the
/// more evenly every metric samples the host's drifting speed.
const ROUNDS: u64 = 10;
/// Share of the notary phase the reference rate gets.
const REFERENCE_SHARE: f64 = 0.6;
/// Churn sessions every run needs, so the handshake p99 has ten samples
/// beyond it.
const MIN_CHURN_SESSIONS: u64 = 1000;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == v)
                        .ok_or_else(|| format!("unknown workload {v}; one of {WORKLOADS:?}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in print order: (name, value, unit).
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Brings a node up to warm: client set-up (expected measurement), node
/// spawn at `nproc` shards, and one begin, attest and notarize per
/// shard answered. Returns the time to ready; teardown is not counted.
fn setup_once(seed: u64) -> Result<Duration, String> {
    let t0 = Instant::now();
    let ctx = Ctx::new(seed);
    let run = Service::run(ctx.cfg.clone(), |h| -> Result<Duration, String> {
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..ctx.shards as u64)
                .map(|i| {
                    let vs = ctx.client.challenge(u64::MAX - i);
                    s.spawn(move || -> Result<(), String> {
                        call(
                            h,
                            Request::HandshakeBegin {
                                nonce: vs.nonce,
                                verifier_share: vs.share,
                            },
                        )?;
                        call(
                            h,
                            Request::Attest {
                                report: [i as u32; 8],
                            },
                        )?;
                        call(
                            h,
                            Request::Notarize {
                                doc_kb: notary::DOC_KB,
                            },
                        )?;
                        Ok(())
                    })
                })
                .collect();
            for t in threads {
                t.join().expect("set-up thread panicked")?;
            }
            Ok::<(), String>(())
        })?;
        Ok(t0.elapsed())
    });
    let (ready, _) = NodeRun::check(run, 3 * ctx.shards as u64)?;
    ready
}

struct Phases {
    fanout: fanout::Fanout,
    churn: Vec<churn::Churn>,
    notary: notary::Notary,
    setup_s: Vec<f64>,
    cycles: CycleGate,
}

impl Phases {
    fn attempted(&self) -> u64 {
        let churn: u64 = self.churn.iter().map(|c| c.attempted()).sum();
        self.fanout.attempted() + churn + self.notary.attempted()
    }

    fn hs_ms(&self) -> Vec<f64> {
        self.churn
            .iter()
            .flat_map(|c| c.hs_ms.iter().copied())
            .collect()
    }
}

/// Runs the phases in [`ROUNDS`] interleaved rounds — a fan-out repeat,
/// a set-up sample, a churn slice and a reference-rate notary slice each
/// — so that every metric samples the host across the whole run, then
/// the rest of the notary ladder.
fn run_phases(args: &Args, ctx: &Ctx) -> Result<Phases, String> {
    let total = Duration::from_secs(args.seconds);
    let share = |w: &str| {
        let base = PHASE_SHARE
            .iter()
            .find(|(n, _)| *n == w)
            .map_or(0.0, |s| s.1);
        let named = if w == args.workload { NAMED_EXTRA } else { 0.0 };
        total.mul_f64(base + named)
    };
    let per_round = |w: &str| share(w) / ROUNDS as u32;
    let reference_slice = per_round("notary_open").mul_f64(REFERENCE_SHARE);
    let rounds = ROUNDS as usize;
    let mut fanout = fanout::Fanout::default();
    let (mut churn, mut setup_s, mut reference) = (Vec::new(), Vec::new(), None);
    for r in 0..ROUNDS {
        // Fan-out first: its first repeat reads the peak of a fresh heap.
        fanout.repeats(ctx, per_round("attested_fanout"), 1)?;
        setup_s.push(setup_once(ctx.stream(0x10 + r))?.as_secs_f64());
        churn.push(host::ticked(1, || {
            churn::run(
                ctx,
                per_round("attested_churn"),
                MIN_CHURN_SESSIONS.div_ceil(ROUNDS),
            )
        })?);
        let slice = host::ticked(2, || {
            notary::level(
                ctx,
                notary::REFERENCE,
                r,
                reference_slice,
                notary::MIN_ATTESTS.div_ceil(rounds),
                notary::MIN_NOTARIZE.div_ceil(rounds),
            )
        })?;
        match &mut reference {
            None => reference = Some(slice),
            Some(l) => l.absorb(slice),
        }
    }
    setup_s.push(setup_once(ctx.stream(0x10 + ROUNDS))?.as_secs_f64());
    let reference = reference.expect("at least one round");
    let rest = share("notary_open").mul_f64(1.0 - REFERENCE_SHARE);
    let notary = notary::ladder(ctx, rest, reference)?;
    fanout::reference_check(ctx)?;

    let mut cycles = CycleGate::default();
    let nodes = fanout.nodes.iter().chain(churn.iter().map(|c| &c.node));
    for n in nodes.chain(notary.levels.iter().flat_map(|l| &l.nodes)) {
        cycles.check(n)?;
    }
    Ok(Phases {
        fanout,
        churn,
        notary,
        setup_s,
        cycles,
    })
}

/// The bounded end-to-end metrics. The host switches between a fast and
/// a slow state as other tenants come and go on its cores, and the mix
/// of the two drifts from run to run. The handshake median lies between
/// the two modes and jumps when the mix tips; its 75th percentile lies
/// inside the slow mode, which the host holds most of the time, and
/// below the tail that CPU steal stretches. The other medians and tails
/// are printed by `describe` with their sample counts.
fn end_to_end(p: &Phases) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&p.setup_s), "s");
    let (sessions, churn_s) = p
        .churn
        .iter()
        .map(|c| c.steady())
        .fold((0.0, 0.0), |(n, t), (dn, dt)| (n + dn, t + dt));
    m.put("hs_per_s", sessions / churn_s, "1/s");
    m.put(
        "hs_p75_ms",
        stats::tail(&p.hs_ms(), 75.0, "hs latency")?,
        "ms",
    );
    let rounds: Vec<f64> = p
        .fanout
        .drives
        .iter()
        .flat_map(|d| d.round_msg_per_s.iter().copied())
        .collect();
    m.put("msg_per_s", stats::median(&rounds), "1/s");
    // The first repeat runs before anything else has grown the heap.
    m.put("rss_peak_mb", p.fanout.drives[0].hwm_mb, "MB");
    m.put(
        "notary_p50_ms",
        stats::median(&p.notary.reference().notary_ms),
        "ms",
    );
    m.put("open_max_rps", p.notary.open_max_rps(), "1/s");
    Ok(m)
}

/// Sample counts and per-rate figures, as `#` lines ahead of the result.
fn describe(p: &Phases) {
    let hs_ms = p.hs_ms();
    let hs_p99 = stats::tail(&hs_ms, 99.0, "hs latency");
    println!(
        "# samples: setup {} | churn {} sessions x {} messages (hs p50 {:.3} ms, mean {:.3} ms, p99 {} ms) | fanout {} repeats x {} sessions x {} rounds",
        p.setup_s.len(),
        hs_ms.len(),
        churn::SENDS,
        stats::median(&hs_ms),
        stats::mean(&hs_ms),
        hs_p99.map_or("n/a".into(), |v| format!("{v:.3}")),
        p.fanout.drives.len(),
        fanout::SESSIONS,
        fanout::ROUNDS
    );
    for l in &p.notary.levels {
        println!(
            "# notary_open rate {:>5}: offered {:.1}/s, {} attest (p50 {:.3} ms, p99 {} ms), {} notarize (p50 {:.2} ms), late p99 {:.3} ms, backlog {:+.2}/s, {}",
            l.rate,
            l.offered_rps(),
            l.attest_ms.len(),
            stats::median(&l.attest_ms),
            l.attest_p99_ms().map_or("n/a".into(), |v| format!("{v:.3}")),
            l.notary_ms.len(),
            stats::median(&l.notary_ms),
            stats::percentile(&stats::sorted(&l.late_ms), 99.0),
            l.backlog_per_s,
            if l.served() { "served" } else { "missed" },
        );
    }
    let rounds: Vec<f64> = p
        .fanout
        .drives
        .iter()
        .flat_map(|d| d.round_msg_per_s.iter().copied())
        .collect();
    let rounds_s = stats::sorted(&rounds);
    let hs_s = stats::sorted(&hs_ms);
    let notary_s = stats::sorted(&p.notary.reference().notary_ms);
    println!(
        "# figures: msg_p25 {:.1} msg_p50 {:.1} msg_mean {:.1} hs_p50 {:.3} hs_p75 {:.3} hs_p90 {:.3} hs_mean {:.3} notary_p50 {:.3} notary_p75 {:.3} notary_mean {:.3}",
        stats::percentile(&rounds_s, 25.0),
        stats::percentile(&rounds_s, 50.0),
        stats::mean(&rounds),
        stats::percentile(&hs_s, 50.0),
        stats::percentile(&hs_s, 75.0),
        stats::percentile(&hs_s, 90.0),
        stats::mean(&hs_ms),
        stats::percentile(&notary_s, 50.0),
        stats::percentile(&notary_s, 75.0),
        stats::mean(&notary_s),
    );
    println!(
        "# steal by phase: fanout sends {:.1}%, churn {:.1}%, notary reference {:.1}%",
        host::phase_steal(0) * 100.0,
        host::phase_steal(1) * 100.0,
        host::phase_steal(2) * 100.0
    );
    println!("# error_rate 0 of {} attempted", p.attempted());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# host {}",
        host::fingerprint(args.workload, args.seed, args.seconds, args.trace)
    );
    let ctx = Ctx::new(args.seed);
    let ticks0 = host::cpu_ticks();
    let result = run_phases(&args, &ctx).and_then(|p| {
        if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, host::cpu_ticks()) {
            let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
            println!("# host CPU steal during the phases: {:.1}%", share * 100.0);
        }
        describe(&p);
        let metrics = if args.trace {
            traced::per_layer(&args, &ctx, &p)?
        } else {
            end_to_end(&p)?
        };
        Ok((p.attempted(), metrics.json()?))
    });
    match result {
        Ok((attempted, metrics)) => {
            println!(
                "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {metrics}}}"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("correctness gate failed: {e}");
            ExitCode::from(1)
        }
    }
}
