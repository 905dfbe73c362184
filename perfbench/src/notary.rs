//! `notary_open`: open loop. One generator thread submits Poisson
//! arrivals of interactive `Attest` and batch `Notarize{doc_kb: 64}` (10%
//! by count) at a ladder of fixed total rates, and checks every typed
//! response once the schedule is out. The reference rate runs in slices
//! spread over the whole run, so its figures average over the host's
//! drifts. Each request's latency runs from its due time: generator
//! lateness plus the node's queue wait and service time, matched by
//! request id.

use std::time::{Duration, Instant};

use komodo_service::{Request, Response, Service};
use komodo_spec::seed::{derive_stream, SplitMix64};

use crate::node::{Ctx, NodeRun};
use crate::stats;

/// Fixed total arrival rates (requests/s), ascending. On a 2-core host
/// at this mix the knee lies near 350/s: the first two rates keep the
/// node roughly 35% and 70% busy, the last overloads it twofold. At the
/// reference rate both shards run notarizations several percent of the
/// time, so the attest p99 sits inside the head-of-line tail while the
/// median stays clear of it.
pub const RATES: [f64; 3] = [120.0, 240.0, 700.0];
/// Index in [`RATES`] of the reference rate the latency metrics read.
pub const REFERENCE: usize = 0;
/// The mix by count: each block of [`BLOCK`] consecutive arrivals holds
/// exactly [`NOTARY_PER_BLOCK`] notarizations (10%) at random positions.
pub const BLOCK: usize = 20;
pub const NOTARY_PER_BLOCK: usize = 2;
/// Notarized document size.
pub const DOC_KB: usize = 64;
/// Latency limit on the attest p99 for a rate to count as served.
pub const ATTEST_P99_LIMIT_MS: f64 = 250.0;
/// A rate's backlog counts as growing when the queue's least-squares
/// trend over the arrival window exceeds this many requests per second.
pub const BACKLOG_LIMIT_PER_S: f64 = 5.0;
/// Attest samples the reference rate needs, so its p99 has ten beyond it.
pub const MIN_ATTESTS: usize = 1000;
/// Notarizations the reference rate needs for a steady median.
pub const MIN_NOTARIZE: usize = 40;

/// One rate's figures, pooled over the slices it ran in.
pub struct Level {
    pub rate: f64,
    arrivals: usize,
    /// Summed span of the slices' due times, seconds.
    span_s: f64,
    pub attest_ms: Vec<f64>,
    pub notary_ms: Vec<f64>,
    /// Submit time minus due time, ms.
    pub late_ms: Vec<f64>,
    /// Least-squares trend of the queued-request count, requests/s:
    /// the span-weighted mean over the slices.
    pub backlog_per_s: f64,
    pub nodes: Vec<NodeRun>,
}

impl Level {
    /// Arrivals over the span of their due times.
    pub fn offered_rps(&self) -> f64 {
        self.arrivals as f64 / self.span_s
    }

    pub fn attest_p99_ms(&self) -> Result<f64, String> {
        stats::tail(&self.attest_ms, 99.0, "attest latency")
    }

    /// Whether at most 1% of attests missed the latency limit (the p99
    /// met it) and the backlog did not grow.
    pub fn served(&self) -> bool {
        let late = self
            .attest_ms
            .iter()
            .filter(|&&ms| ms > ATTEST_P99_LIMIT_MS)
            .count();
        late as f64 <= 0.01 * self.attest_ms.len() as f64
            && self.backlog_per_s <= BACKLOG_LIMIT_PER_S
    }

    /// Pools another slice of the same rate into this one.
    pub fn absorb(&mut self, o: Level) {
        let span_s = self.span_s + o.span_s;
        self.backlog_per_s =
            (self.backlog_per_s * self.span_s + o.backlog_per_s * o.span_s) / span_s;
        self.arrivals += o.arrivals;
        self.span_s = span_s;
        self.attest_ms.extend(o.attest_ms);
        self.notary_ms.extend(o.notary_ms);
        self.late_ms.extend(o.late_ms);
        self.nodes.extend(o.nodes);
    }
}

pub struct Notary {
    /// The ladder's rates that ran, ascending.
    pub levels: Vec<Level>,
}

impl Notary {
    pub fn reference(&self) -> &Level {
        &self.levels[REFERENCE]
    }

    /// Offered rate of the highest rate that kept the attest p99 within
    /// its limit without a growing backlog (0 when none did).
    pub fn open_max_rps(&self) -> f64 {
        self.levels
            .iter()
            .take_while(|l| l.served())
            .last()
            .map_or(0.0, Level::offered_rps)
    }

    pub fn attempted(&self) -> u64 {
        self.levels
            .iter()
            .flat_map(|l| &l.nodes)
            .map(|n| n.records.len() as u64)
            .sum()
    }
}

/// Completes the ladder around the already-run `reference` level: the
/// middle rate gets three quarters of `budget`, the overload rate the
/// rest. Rates above the first one that misses the limit are skipped: a
/// higher rate can only do worse, and its backlog would take long to
/// drain.
pub fn ladder(ctx: &Ctx, budget: Duration, reference: Level) -> Result<Notary, String> {
    let mut levels = vec![reference];
    for i in REFERENCE + 1..RATES.len() {
        if !levels.last().is_some_and(Level::served) {
            break;
        }
        let share = if i + 1 < RATES.len() { 0.75 } else { 0.25 };
        levels.push(level(ctx, i, 0, budget.mul_f64(share), 0, 0)?);
    }
    Ok(Notary { levels })
}

/// Runs slice `slice` of rate `RATES[idx]` on a fresh node: at least
/// `duration` of arrivals, `min_attests` attests and `min_notarize`
/// notarizations.
pub fn level(
    ctx: &Ctx,
    idx: usize,
    slice: u64,
    duration: Duration,
    min_attests: usize,
    min_notarize: usize,
) -> Result<Level, String> {
    let rate = RATES[idx];
    let mut rng = SplitMix64::new(derive_stream(ctx.stream(0x40 + idx as u64), slice));
    let report: [u32; 8] = std::array::from_fn(|_| rng.next_u64() as u32);
    // Enough blocks for the duration and for the sample floors.
    let blocks = ((rate * duration.as_secs_f64()) as usize)
        .div_ceil(BLOCK)
        .max(min_attests.div_ceil(BLOCK - NOTARY_PER_BLOCK))
        .max(min_notarize.div_ceil(NOTARY_PER_BLOCK));
    let arrivals = schedule(&mut rng, blocks, rate);
    let span_s = arrivals.last().map_or(0, |a| a.0) as f64 / 1e9;
    let request = |notarize: bool| {
        if notarize {
            Request::Notarize { doc_kb: DOC_KB }
        } else {
            Request::Attest { report }
        }
    };

    let run = Service::run(ctx.cfg.clone(), |h| {
        let mut submitted = Vec::with_capacity(arrivals.len());
        let mut depth = Vec::with_capacity(arrivals.len());
        let t0 = Instant::now();
        for &(at_ns, notarize) in &arrivals {
            let due = Duration::from_nanos(at_ns);
            let now = t0.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t = h
                .submit(request(notarize))
                .map_err(|r| format!("notary_open submit rejected: {r}"))?;
            let at = t0.elapsed();
            depth.push((at.as_secs_f64(), h.pending() as f64));
            submitted.push((t, notarize, at.saturating_sub(due)));
        }
        // Responses are checked once the schedule is out, so no second
        // load-generating thread competes with the shards for a core.
        submitted
            .into_iter()
            .map(|(t, notarize, late)| {
                let id = t.id();
                match (notarize, t.wait()) {
                    (false, Ok(Response::Quote { .. }))
                    | (true, Ok(Response::Notarized { .. })) => Ok((id, notarize, late)),
                    (_, r) => Err(format!("notary_open request {id} answered {r:?}")),
                }
            })
            .collect::<Result<Vec<_>, String>>()
            .map(|submitted| (submitted, depth))
    });
    let (result, node) = NodeRun::check(run, arrivals.len() as u64)?;
    let (submitted, depth) = result?;
    let mut l = Level {
        rate,
        arrivals: arrivals.len(),
        span_s,
        attest_ms: Vec::new(),
        notary_ms: Vec::new(),
        late_ms: Vec::new(),
        backlog_per_s: slope(&depth),
        nodes: Vec::new(),
    };
    let records = node.by_id();
    for (id, notarize, late) in submitted {
        let r = records
            .get(&id)
            .ok_or_else(|| format!("no record for request {id}"))?;
        let late_ms = late.as_nanos() as f64 / 1e6;
        let ms = late_ms + (r.queued_ns + r.service_ns) as f64 / 1e6;
        l.late_ms.push(late_ms);
        if notarize {
            l.notary_ms.push(ms);
        } else {
            l.attest_ms.push(ms);
        }
    }
    drop(records);
    l.nodes.push(node);
    Ok(l)
}

/// `blocks` × [`BLOCK`] arrivals as (due ns, is a notarization), with
/// exponential gaps of mean `1/rate`: a Poisson stream carrying the mix's
/// exact share in every block, so slices differ in timing, not in load.
fn schedule(rng: &mut SplitMix64, blocks: usize, rate: f64) -> Vec<(u64, bool)> {
    let mean_gap_ns = 1e9 / rate;
    let mut at_ns = 0.0;
    let mut out = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        let mut kinds = [false; BLOCK];
        kinds[..NOTARY_PER_BLOCK].fill(true);
        // Fisher-Yates: the block's notarizations land at random positions.
        for i in (1..BLOCK).rev() {
            kinds.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for notarize in kinds {
            // Inverse transform on a uniform draw in (0, 1].
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            at_ns += -u.ln() * mean_gap_ns;
            out.push((at_ns as u64, notarize));
        }
    }
    out
}

/// Least-squares slope of `y` over `x`.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mx, my) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x / n, b + y / n));
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (x, y) in points {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}
