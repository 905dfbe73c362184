//! The traced run: per-layer metrics.
//!
//! Service and fleet figures come from the untraced phases' request
//! records and shard accounting. Platform, enclave, simulator and crypto
//! figures come from spans this file records around direct calls into
//! each layer's public functions — `Platform::with_config`,
//! `Platform::load`, `Attested::begin`, `Attested::step`,
//! `Verifier::check_quote`, `kdf::verify_app_tag`,
//! `Platform::reset_with_seed`, `Platform::run` — on `nproc` threads, the
//! parallelism the service runs them at. Each span holds host ns and the
//! simulated counters' deltas; spans of one session share its id. Every
//! traced session or operation also runs once untraced with the same
//! seed, and the paired difference is the tracing overhead. Spans stay in
//! memory and are written to `perfbench/out/` when the run ends.
//!
//! The tier ladder runs one `Attested::begin` and one 64 KB notarization
//! at each execution rung (uop, superblock, accelerator, baseline) and
//! fails unless every rung retires the identical cycle count.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use komodo::{Enclave, EnclaveRun, Platform};
use komodo_guest::notary::notary_image;
use komodo_service::protocol::{Attested, AttestedStep, StepCtx};
use komodo_service::{Protocol, Response};
use komodo_spec::seed::splitmix64;
use komodo_trace::MetricsSnapshot;

use crate::churn::SENDS;
use crate::client::check_tag;
use crate::node::{by_kind, kinds, Ctx, NodeRun};
use crate::notary::DOC_KB;
use crate::{host, stats, Args, Metrics, Phases};

/// Direct attested sessions per thread (each also runs untraced).
const SESSIONS_PER_THREAD: u64 = 24;
/// Direct pooled notarizations and attestations per thread.
const NOTARIZE_PER_THREAD: u64 = 4;
const ATTEST_PER_THREAD: u64 = 24;
/// Timed repetitions of each tier-ladder rung.
const LADDER_REPS: usize = 3;

/// One timed call into a layer.
struct Span {
    /// Session or operation id; spans of one session share it.
    id: u64,
    name: &'static str,
    /// The enclosing span (`session`, `notarize`, `attest`).
    parent: &'static str,
    start_ns: u64,
    dur_ns: u64,
    /// Simulated counter deltas over the span (zero for host crypto).
    sim: MetricsSnapshot,
}

/// Records spans when on; when off runs the same calls bare.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn push(
        &mut self,
        id: u64,
        parent: &'static str,
        name: &'static str,
        start: Instant,
        sim: MetricsSnapshot,
    ) {
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns: start.duration_since(self.t0).as_nanos() as u64,
            dur_ns: start.elapsed().as_nanos() as u64,
            sim,
        });
    }

    /// Times `f` over platform `p`, with its counter deltas.
    fn plat<T>(
        &mut self,
        id: u64,
        parent: &'static str,
        name: &'static str,
        p: &mut Platform,
        f: impl FnOnce(&mut Platform) -> T,
    ) -> T {
        if !self.on {
            return f(p);
        }
        let before = p.machine.metrics_snapshot();
        let start = Instant::now();
        let r = f(p);
        let sim = p.machine.metrics_snapshot().delta_since(&before);
        self.push(id, parent, name, start, sim);
        r
    }

    /// Times host-side work `f`.
    fn host<T>(
        &mut self,
        id: u64,
        parent: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.push(id, parent, name, start, MetricsSnapshot::default());
        r
    }

    /// Times a platform boot; its deltas are the fresh machine's counters.
    fn boot(&mut self, id: u64, f: impl FnOnce() -> Platform) -> Platform {
        let start = Instant::now();
        let p = f();
        if self.on {
            self.push(
                id,
                "session",
                "platform.boot",
                start,
                p.machine.metrics_snapshot(),
            );
        }
        p
    }
}

/// One whole attested session through the protocol layer's public calls,
/// mirroring what the node's begin/confirm/send/close handlers run.
fn session(ctx: &Ctx, tr: &mut Tracer, pos: u64) -> Result<(), String> {
    const S: &str = "session";
    let cfg = ctx
        .cfg
        .platform
        .clone()
        .with_seed(ctx.cfg.platform.derive_seed(pos));
    let mut p = tr.boot(pos, || Platform::with_config(cfg));
    let e = tr
        .plat(pos, S, "platform.load", &mut p, |p| {
            p.load(&Attested::image())
        })
        .map_err(|k| format!("ra load: {k:?}"))?;
    let vs = ctx.client.challenge(pos);
    let quote = tr
        .plat(pos, S, "attested.begin", &mut p, |p| {
            Attested::begin(p, &e, pos, &vs.nonce, vs.share)
        })
        .map_err(|e| e.to_string())?;
    let est = tr.host(pos, S, "crypto.quote_check", || {
        ctx.client.check_quote(pos, &vs, &quote)
    })?;
    let mut state = Attested::open(pos);
    let sctx = StepCtx {
        session: pos,
        now_req: pos + 1,
        handshake_ttl: ctx.cfg.handshake_ttl,
    };
    let mut step = |tr: &mut Tracer, p: &mut Platform, name, s| {
        tr.plat(pos, S, name, p, |p| {
            Attested::step(&mut state, p, &e, s, &sctx).0
        })
        .map_err(|e| format!("{name}: {e}"))
    };
    let confirm = AttestedStep::Confirm { tag: est.confirm.0 };
    match step(tr, &mut p, "attested.confirm", confirm)? {
        Response::SessionEstablished => {}
        r => return Err(format!("confirm answered {r:?}")),
    }
    for round in 0..SENDS {
        let payload = ctx.client.payload(pos, round);
        match step(tr, &mut p, "attested.send", AttestedStep::Send { payload })? {
            Response::AttestedTag { seq, tag } if seq == round => {
                tr.host(pos, S, "crypto.tag_check", || {
                    check_tag(&est.key, seq, &payload, tag)
                })?
            }
            r => return Err(format!("send answered {r:?}")),
        }
    }
    tr.plat(pos, S, "platform.destroy", &mut p, |p| p.destroy(&e))
        .map_err(|k| format!("destroy: {k:?}"))
}

/// The document a notarization of `kb` KiB signs, as the node builds it.
fn document(seed: u64, kb: usize) -> Vec<u32> {
    (0..kb * 256)
        .map(|i| (splitmix64(seed.wrapping_add(i as u64)) >> 32) as u32)
        .collect()
}

/// One pooled notary operation, as the node's attest/notarize handlers
/// run it: reset the shard platform, load the notary over the document,
/// run one signing pass.
fn pooled_op(
    tr: &mut Tracer,
    p: &mut Platform,
    id: u64,
    op: &'static str,
    seed: u64,
    doc: &[u32],
) -> Result<(), String> {
    tr.plat(id, op, "platform.reset", p, |p| p.reset_with_seed(seed));
    let doc_pages = (doc.len() * 4).div_ceil(4096);
    let e = tr
        .plat(id, op, "notary.load", p, |p| {
            p.load(&notary_image(doc_pages))
        })
        .map_err(|k| format!("notary load: {k:?}"))?;
    p.write_shared(&e, 3, 0, doc);
    let name = if op == "notarize" {
        "enclave.notarize"
    } else {
        "enclave.attest"
    };
    let nblocks = (doc.len() / 16) as u32;
    match tr.plat(id, op, name, p, |p| p.run(&e, 0, [nblocks, 0, 0])) {
        EnclaveRun::Exited(_) => Ok(()),
        r => Err(format!("{op} did not exit: {r:?}")),
    }
}

/// Runs `f` traced and untraced with the same seed, alternating which
/// goes first; returns traced/untraced host time.
fn paired(
    tr: &mut Tracer,
    first_traced: bool,
    mut f: impl FnMut(&mut Tracer) -> Result<(), String>,
) -> Result<f64, String> {
    let mut time = |tr: &mut Tracer, on: bool| -> Result<f64, String> {
        tr.on = on;
        let t = Instant::now();
        f(tr)?;
        Ok(t.elapsed().as_nanos() as f64)
    };
    let (a, b) = (time(tr, first_traced)?, time(tr, !first_traced)?);
    let (traced, bare) = if first_traced { (a, b) } else { (b, a) };
    Ok(traced / bare)
}

/// Direct calls on `nproc` threads; returns the spans and the paired
/// traced/untraced time ratios.
fn direct(ctx: &Ctx, t0: Instant) -> Result<(Vec<Span>, Vec<f64>), String> {
    let threads = ctx.shards as u64;
    let per_thread = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || -> Result<(Vec<Span>, Vec<f64>), String> {
                    let mut tr = Tracer {
                        on: true,
                        t0,
                        spans: Vec::new(),
                    };
                    let mut ratios = Vec::new();
                    for k in 0..SESSIONS_PER_THREAD {
                        let pos = t + k * threads;
                        ratios.push(paired(&mut tr, k % 2 == 0, |tr| session(ctx, tr, pos))?);
                    }
                    let mut p = Platform::with_config(ctx.cfg.platform.clone());
                    let ops = [
                        ("notarize", NOTARIZE_PER_THREAD),
                        ("attest", ATTEST_PER_THREAD),
                    ];
                    for (op, n) in ops {
                        for k in 0..n {
                            let id = 1 << 32 | t << 16 | k;
                            let seed = ctx.cfg.platform.derive_seed(id);
                            let doc = if op == "notarize" {
                                document(seed, DOC_KB)
                            } else {
                                let mut d = vec![k as u32; 8];
                                d.resize(16, 0);
                                d
                            };
                            ratios.push(paired(&mut tr, k % 2 == 0, |tr| {
                                pooled_op(tr, &mut p, id, op, seed, &doc)
                            })?);
                        }
                    }
                    Ok((tr.spans, ratios))
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("traced thread panicked"))
            .collect::<Vec<_>>()
    });
    let (mut spans, mut ratios) = (Vec::new(), Vec::new());
    for r in per_thread {
        let (s, q) = r?;
        spans.extend(s);
        ratios.extend(q);
    }
    Ok((spans, ratios))
}

/// Execution rungs, fastest first: (name, uop traces, superblocks, accel).
const RUNGS: [(&str, bool, bool, bool); 4] = [
    ("uop", true, true, true),
    ("sb", false, true, true),
    ("accel", false, false, true),
    ("base", false, false, false),
];

/// Host µs of `Attested::begin` and a 64 KB notarization per rung.
fn ladder(ctx: &Ctx) -> Result<Vec<(String, f64)>, String> {
    let cfg = ctx
        .cfg
        .platform
        .clone()
        .with_seed(ctx.cfg.platform.derive_seed(1 << 40));
    let doc = document(cfg.seed, DOC_KB);
    let vs = ctx.client.challenge(1 << 40);
    let mut cycles: BTreeMap<&str, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for (rung, uop, sb, accel) in RUNGS {
        for op in ["begin", "notarize"] {
            let mut us = Vec::new();
            for _ in 0..LADDER_REPS {
                let mut p = Platform::with_config(cfg.clone());
                p.machine.set_fetch_accel(accel);
                p.machine.set_superblocks(sb);
                p.machine.set_uop_traces(uop);
                let (c0, t) = if op == "begin" {
                    let e = load(&mut p, &Attested::image())?;
                    let start = (p.cycles(), Instant::now());
                    Attested::begin(&mut p, &e, 0, &vs.nonce, vs.share)
                        .map_err(|e| e.to_string())?;
                    start
                } else {
                    let e = load(&mut p, &notary_image((doc.len() * 4).div_ceil(4096)))?;
                    p.write_shared(&e, 3, 0, &doc);
                    let start = (p.cycles(), Instant::now());
                    match p.run(&e, 0, [(doc.len() / 16) as u32, 0, 0]) {
                        EnclaveRun::Exited(_) => {}
                        r => return Err(format!("ladder notarize: {r:?}")),
                    }
                    start
                };
                us.push(t.elapsed().as_nanos() as f64 / 1e3);
                let spent = p.cycles() - c0;
                let want = *cycles.entry(op).or_insert(spent);
                if spent != want {
                    return Err(format!(
                        "tier ladder: {op} on rung {rung} cost {spent} cycles, uop rung {want}"
                    ));
                }
            }
            out.push((format!("armv7.tier_us.{rung}.{op}"), stats::median(&us)));
        }
    }
    for (op, c) in cycles {
        println!("# tier ladder: {op} retires {c} cycles on every rung");
    }
    Ok(out)
}

fn load(p: &mut Platform, img: &komodo_guest::Image) -> Result<Enclave, String> {
    p.load(img).map_err(|k| format!("ladder load: {k:?}"))
}

/// Median over spans named `name` of `f(span)`.
fn med(spans: &[Span], name: &str, f: impl Fn(&Span) -> f64) -> f64 {
    let v: Vec<f64> = spans.iter().filter(|s| s.name == name).map(f).collect();
    stats::median(&v)
}

/// uop hits over all trace dispatches across spans named `name`.
fn uop_share(spans: &[Span], name: &str) -> f64 {
    let (mut uop, mut all) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == name) {
        uop += s.sim.uop_hits;
        all += s.sim.uop_hits + s.sim.sb_hits;
    }
    uop as f64 / all.max(1) as f64
}

fn write_spans(args: &Args, spans: &[Span]) -> Result<String, String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let mut w = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?,
    );
    let io = |e: std::io::Error| format!("writing spans: {e}");
    writeln!(
        w,
        "{}",
        host::fingerprint(args.workload, args.seed, args.seconds, args.trace)
    )
    .map_err(io)?;
    for s in spans {
        writeln!(
            w,
            "{{\"id\": {}, \"name\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \"cycles\": {}, \"sb_built\": {}, \"sb_hits\": {}, \"uop_hits\": {}}}",
            s.id, s.name, s.parent, s.start_ns, s.dur_ns, s.sim.cycles, s.sim.sb_built, s.sim.sb_hits, s.sim.uop_hits
        )
        .map_err(io)?;
    }
    w.flush().map_err(io)?;
    Ok(path.display().to_string())
}

pub fn per_layer(args: &Args, ctx: &Ctx, p: &Phases) -> Result<Metrics, String> {
    let mut m = Metrics::default();

    // Service layer: session kinds from the churn phase, attest/notarize
    // from the reference rate.
    let churn: Vec<&NodeRun> = p.churn.iter().map(|c| &c.node).collect();
    let reference: Vec<&NodeRun> = p.notary.reference().nodes.iter().collect();
    let sessions = by_kind(churn.iter().copied());
    let notary = by_kind(reference.iter().copied());
    let mut begin_service_us = f64::NAN;
    for (name, code) in kinds() {
        let k = sessions
            .get(&code)
            .or_else(|| notary.get(&code))
            .ok_or_else(|| format!("no {name} requests ran"))?;
        m.put(
            format!("service.queue_wait_p50_us.{name}"),
            stats::median(&k.queued_us),
            "us",
        );
        let service = stats::median(&k.service_us);
        m.put(format!("service.time_p50_us.{name}"), service, "us");
        if name == "begin" {
            begin_service_us = service;
        }
    }

    // Fleet layer, over the named workload's phase.
    let ladder_nodes: Vec<&NodeRun> = p.notary.levels.iter().flat_map(|l| &l.nodes).collect();
    let named = if args.workload == "attested_churn" {
        &churn
    } else {
        &ladder_nodes
    };
    let busy: Vec<f64> = named.iter().map(|n| n.busy_share()).collect();
    let stolen: Vec<f64> = named.iter().map(|n| n.stolen_share()).collect();
    m.put("fleet.busy_share", stats::median(&busy), "ratio");
    m.put("fleet.stolen_share", stats::median(&stolen), "ratio");

    // Direct calls.
    let t0 = Instant::now();
    let (spans, ratios) = direct(ctx, t0)?;
    let us = |s: &Span| s.dur_ns as f64 / 1e3;
    let boot = med(&spans, "platform.boot", us);
    let load = med(&spans, "platform.load", us);
    let begin = med(&spans, "attested.begin", us);
    m.put("platform.boot_us", boot, "us");
    m.put("platform.reset_us", med(&spans, "platform.reset", us), "us");
    m.put("platform.load_us", load, "us");
    m.put(
        "platform.load_cycles",
        med(&spans, "platform.load", |s| s.sim.cycles as f64),
        "cycles",
    );
    let ops = [
        ("begin", "attested.begin"),
        ("confirm", "attested.confirm"),
        ("send", "attested.send"),
        ("notarize", "enclave.notarize"),
        ("attest", "enclave.attest"),
    ];
    for (op, span) in ops {
        let cycles = med(&spans, span, |s| s.sim.cycles as f64);
        // A step's cycles are all a confirm/send request costs the node.
        if let Some(served) = p
            .cycles
            .cycles(op)
            .filter(|_| op == "confirm" || op == "send")
        {
            if served as f64 != cycles {
                return Err(format!(
                    "{op}: {cycles} cycles called directly, {served} through the node"
                ));
            }
        }
        m.put(format!("enclave.cycles.{op}"), cycles, "cycles");
    }
    for (op, span) in ops {
        let mcps = |s: &Span| s.sim.cycles as f64 * 1e3 / s.dur_ns as f64;
        m.put(
            format!("armv7.host_mcps.{op}"),
            med(&spans, span, mcps),
            "Mcycles/s",
        );
    }
    m.put(
        "armv7.sb_built.begin",
        med(&spans, "attested.begin", |s| s.sim.sb_built as f64),
        "count",
    );
    for (op, span) in ops {
        m.put(
            format!("armv7.uop_share.{op}"),
            uop_share(&spans, span),
            "ratio",
        );
    }
    m.put(
        "crypto.quote_check_us",
        med(&spans, "crypto.quote_check", us),
        "us",
    );
    m.put(
        "crypto.tag_check_us",
        med(&spans, "crypto.tag_check", us),
        "us",
    );

    // Memory and generator.
    m.put(
        "mem.rss_per_session_kb",
        p.fanout.drives[0].rss_per_session_kb,
        "KB",
    );
    let late = &p.notary.reference().late_ms;
    m.put(
        "gen.late_p99_ms",
        stats::tail(late, 99.0, "generator lateness")?,
        "ms",
    );

    for (name, v) in ladder(ctx)? {
        m.put(name, v, "us");
    }
    m.put(
        "trace.overhead_pct",
        (stats::median(&ratios) - 1.0) * 100.0,
        "%",
    );
    m.put(
        "trace.begin_spans_over_service",
        (boot + load + begin) / begin_service_us,
        "ratio",
    );

    let path = write_spans(args, &spans)?;
    println!("# {} spans written to {path}", spans.len());
    Ok(m)
}
