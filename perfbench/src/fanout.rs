//! `attested_fanout`: phased, the shape of `drive_attested`. Begin S
//! sessions in one batch, check every quote, confirm all, run R rounds
//! of MAC'd sends across every live session, close all. Each repeat runs
//! on a fresh node, so request ids — and with them session seeds — are
//! the same in every repeat and the outcome must be too. Repeats are
//! spread over the whole run.

use std::time::{Duration, Instant};

use komodo_service::{drive_attested, AttestedClient, AttestedOutcome, Request, Response, Service};
use komodo_service::{ServiceHandle, Ticket};

use crate::client::{check_tag, key_term, Client};
use crate::host;
use crate::node::{Ctx, NodeRun};

/// Live sessions per repeat.
pub const SESSIONS: u64 = 128;
/// Send rounds across all live sessions per repeat.
pub const ROUNDS: u32 = 32;

/// One repeat's figures.
pub struct Drive {
    pub outcome: AttestedOutcome,
    /// Verified messages per second of each send round.
    pub round_msg_per_s: Vec<f64>,
    /// Process VmHWM with every session live, MB.
    pub hwm_mb: f64,
    /// (VmHWM with every session live − VmRSS before the begins) / S.
    pub rss_per_session_kb: f64,
}

#[derive(Default)]
pub struct Fanout {
    pub drives: Vec<Drive>,
    pub nodes: Vec<NodeRun>,
}

impl Fanout {
    pub fn attempted(&self) -> u64 {
        self.nodes.iter().map(|n| n.records.len() as u64).sum()
    }

    /// Runs at least `min_repeats` repeats, and more while another one
    /// is expected to end within `budget`, failing unless every repeat
    /// produces the first one's outcome and summed cycle total.
    pub fn repeats(
        &mut self,
        ctx: &Ctx,
        budget: Duration,
        min_repeats: usize,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        for k in 0.. {
            let per_repeat = t0.elapsed() / k.max(1);
            if k >= min_repeats as u32 && t0.elapsed() + per_repeat > budget {
                break;
            }
            let (drive, node) = repeat(ctx, SESSIONS, ROUNDS)?;
            if let (Some(first), Some(node0)) = (self.drives.first(), self.nodes.first()) {
                if drive.outcome != first.outcome || node.cycles() != node0.cycles() {
                    return Err(format!(
                        "fanout repeat differs from the first: {:?} / {} cycles vs {:?} / {} cycles",
                        drive.outcome,
                        node.cycles(),
                        first.outcome,
                        node0.cycles()
                    ));
                }
            }
            self.drives.push(drive);
            self.nodes.push(node);
        }
        Ok(())
    }
}

/// A small phased drive here must reproduce the repo's reference drive
/// of the same seed exactly — proof that this client speaks the same
/// protocol and derives the same keys as `drive_attested`.
pub fn reference_check(ctx: &Ctx) -> Result<(), String> {
    let (sessions, rounds) = (4, 2);
    let (mine, _) = repeat(ctx, sessions, rounds)?;
    let reference = Service::run(ctx.cfg.clone(), |h| {
        let client = AttestedClient::new(ctx.client.platform_seed);
        drive_attested(
            h,
            &client,
            ctx.client.seed,
            sessions as usize,
            rounds as usize,
        )
    })
    .value
    .outcome;
    if mine.outcome != reference {
        return Err(format!(
            "phased drive {:?} differs from drive_attested {reference:?}",
            mine.outcome
        ));
    }
    Ok(())
}

fn repeat(ctx: &Ctx, sessions: u64, rounds: u32) -> Result<(Drive, NodeRun), String> {
    let run = Service::run(ctx.cfg.clone(), |h| drive(h, &ctx.client, sessions, rounds));
    let attempted = sessions * (3 + rounds as u64);
    let (drive, node) = NodeRun::check(run, attempted)?;
    Ok((drive?, node))
}

fn wait_all(
    tickets: Vec<Result<Ticket, komodo_service::Reject>>,
) -> Result<Vec<(u64, Response)>, String> {
    tickets
        .into_iter()
        .map(|t| {
            let t = t.map_err(|r| format!("fanout request rejected: {r}"))?;
            let id = t.id();
            t.wait()
                .map(|r| (id, r))
                .map_err(|e| format!("fanout request {id} failed: {e}"))
        })
        .collect()
}

fn drive(
    h: &ServiceHandle<'_, '_>,
    client: &Client,
    sessions: u64,
    rounds: u32,
) -> Result<Drive, String> {
    let mut outcome = AttestedOutcome {
        sessions,
        ..AttestedOutcome::default()
    };
    let challenges: Vec<_> = (0..sessions).map(|p| client.challenge(p)).collect();
    let begins = challenges
        .iter()
        .map(|vs| Request::HandshakeBegin {
            nonce: vs.nonce,
            verifier_share: vs.share,
        })
        .collect();
    let rss0 = host::status_kb("VmRSS")?;
    let mut live = Vec::with_capacity(sessions as usize);
    for (pos, (id, r)) in wait_all(h.submit_batch(begins))?.into_iter().enumerate() {
        let Response::HandshakeQuote { session, quote } = r else {
            return Err(format!("begin {id} answered {r:?}"));
        };
        let est = client.check_quote(id, &challenges[pos], &quote)?;
        live.push((pos as u64, session, est));
    }
    let confirms = live
        .iter()
        .map(|(_, session, est)| Request::HandshakeConfirm {
            session: *session,
            tag: est.confirm.0,
        })
        .collect();
    for ((pos, _, est), t) in live.iter().zip(h.submit_batch(confirms)) {
        match wait_all(vec![t])?.pop() {
            Some((_, Response::SessionEstablished)) => {}
            other => return Err(format!("confirm answered {other:?}")),
        }
        outcome.established += 1;
        outcome.key_digest = outcome.key_digest.wrapping_add(key_term(*pos, &est.key));
    }
    let hwm = host::status_kb("VmHWM")?;
    let mut round_msg_per_s = Vec::with_capacity(rounds as usize);
    host::ticked(0, || -> Result<(), String> {
        for round in 0..rounds {
            let t_round = Instant::now();
            let sends = live
                .iter()
                .map(|(pos, session, _)| Request::AttestedSend {
                    session: *session,
                    payload: client.payload(*pos, round),
                })
                .collect();
            for ((pos, _, est), (id, r)) in live.iter().zip(wait_all(h.submit_batch(sends))?) {
                match r {
                    Response::AttestedTag { seq, tag } if seq == round => {
                        check_tag(&est.key, seq, &client.payload(*pos, round), tag)?
                    }
                    r => return Err(format!("send {id} answered {r:?}")),
                }
                outcome.messages += 1;
            }
            round_msg_per_s.push(live.len() as f64 / t_round.elapsed().as_secs_f64());
        }
        Ok(())
    })?;
    let closes = live
        .iter()
        .map(|(_, session, _)| Request::SessionClose { session: *session })
        .collect();
    for (id, r) in wait_all(h.submit_batch(closes))? {
        if r != Response::SessionClosed {
            return Err(format!("close {id} answered {r:?}"));
        }
    }
    Ok(Drive {
        outcome,
        round_msg_per_s,
        hwm_mb: hwm as f64 / 1024.0,
        rss_per_session_kb: hwm.saturating_sub(rss0) as f64 / sessions as f64,
    })
}
