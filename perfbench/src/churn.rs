//! `attested_churn`: closed loop. `nproc` client threads each run whole
//! attested sessions back to back — begin, client-side quote check,
//! confirm, four MAC'd sends (every tag checked), close.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use komodo_service::{Request, Response, Service, ServiceHandle};

use crate::client::{check_tag, Client};
use crate::node::{call, Ctx, NodeRun};

/// Application messages per session.
pub const SENDS: u32 = 4;
/// Sessions a slice completes before its throughput is timed: the
/// fresh node's first sessions start all at once.
const WARMUP: usize = 20;
/// Requests one session submits: begin, confirm, sends, close.
const REQUESTS_PER_SESSION: u64 = 3 + SENDS as u64;

pub struct Churn {
    /// Begin submit → `SessionEstablished`, client check included, in ms.
    pub hs_ms: Vec<f64>,
    /// When each session finished, seconds from the first submit.
    pub done_s: Vec<f64>,
    pub node: NodeRun,
}

impl Churn {
    pub fn sessions(&self) -> u64 {
        self.hs_ms.len() as u64
    }

    pub fn attempted(&self) -> u64 {
        self.sessions() * REQUESTS_PER_SESSION
    }

    /// (sessions, seconds) from the [`WARMUP`]-th completion to the last:
    /// the slice's steady-state share of the throughput.
    pub fn steady(&self) -> (f64, f64) {
        let mut done = self.done_s.clone();
        done.sort_by(f64::total_cmp);
        match (done.get(WARMUP - 1), done.last()) {
            (Some(first), Some(last)) if done.len() > WARMUP => {
                ((done.len() - WARMUP) as f64, last - first)
            }
            _ => (0.0, 0.0),
        }
    }
}

/// Runs the closed loop until `budget` has passed and at least
/// `min_sessions` sessions completed.
pub fn run(ctx: &Ctx, budget: Duration, min_sessions: u64) -> Result<Churn, String> {
    let clients = ctx.shards as u64;
    let stop = AtomicBool::new(false);
    let done = AtomicU64::new(0);
    let run = Service::run(ctx.cfg.clone(), |h| {
        let t0 = Instant::now();
        let per_client = std::thread::scope(|s| {
            let threads: Vec<_> = (0..clients)
                .map(|c| {
                    let (stop, done, client) = (&stop, &done, &ctx.client);
                    s.spawn(move || {
                        let (mut hs_ms, mut done_s) = (Vec::new(), Vec::new());
                        for k in 0.. {
                            let enough = done.load(Ordering::Relaxed) >= min_sessions;
                            if stop.load(Ordering::Relaxed) || (enough && t0.elapsed() >= budget) {
                                break;
                            }
                            match session(h, client, c + k * clients) {
                                Ok(hs) => {
                                    hs_ms.push(hs.as_nanos() as f64 / 1e6);
                                    done_s.push(t0.elapsed().as_secs_f64());
                                    done.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => {
                                    stop.store(true, Ordering::Relaxed);
                                    return Err(e);
                                }
                            }
                        }
                        Ok((hs_ms, done_s))
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        per_client
    });
    let attempted = run.records.len() as u64;
    let (per_client, node) = NodeRun::check(run, attempted)?;
    let mut out = Churn {
        hs_ms: Vec::new(),
        done_s: Vec::new(),
        node,
    };
    for c in per_client {
        let (hs, done) = c?;
        out.hs_ms.extend(hs);
        out.done_s.extend(done);
    }
    if out.node.records.len() as u64 != out.attempted() {
        return Err("churn: records do not match the sessions run".into());
    }
    Ok(out)
}

/// One whole attested session at client position `pos`; returns the
/// handshake latency.
fn session(h: &ServiceHandle<'_, '_>, client: &Client, pos: u64) -> Result<Duration, String> {
    let vs = client.challenge(pos);
    let t = Instant::now();
    let (begin_req, session, quote) = match call(
        h,
        Request::HandshakeBegin {
            nonce: vs.nonce,
            verifier_share: vs.share,
        },
    )? {
        (id, Response::HandshakeQuote { session, quote }) => (id, session, quote),
        (id, r) => return Err(format!("begin {id} answered {r:?}")),
    };
    let est = client.check_quote(begin_req, &vs, &quote)?;
    let tag = est.confirm.0;
    match call(h, Request::HandshakeConfirm { session, tag })? {
        (_, Response::SessionEstablished) => {}
        (id, r) => return Err(format!("confirm {id} answered {r:?}")),
    }
    let hs = t.elapsed();
    for round in 0..SENDS {
        let payload = client.payload(pos, round);
        match call(h, Request::AttestedSend { session, payload })? {
            (_, Response::AttestedTag { seq, tag }) if seq == round => {
                check_tag(&est.key, seq, &payload, tag)?
            }
            (id, r) => return Err(format!("send {id} answered {r:?}")),
        }
    }
    match call(h, Request::SessionClose { session })? {
        (_, Response::SessionClosed) => Ok(hs),
        (id, r) => Err(format!("close {id} answered {r:?}")),
    }
}
