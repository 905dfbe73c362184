//! Service-node integration: request semantics end to end, shutdown
//! under load, deterministic backpressure, and the metrics
//! conservation law (fleet totals == sum of per-request records).

use komodo::PlatformConfig;
use komodo_service::{
    drive, drive_attested, drive_indexed, schedule, schedule_indexed, ArrivalIdx, AttestedClient,
    Mix, Reject, Request, Response, Service, ServiceConfig, ServiceError, Ticket,
};
use std::sync::Arc;

fn cfg(shards: usize) -> ServiceConfig {
    ServiceConfig::default().with_shards(shards)
}

/// A small sandbox program: a tight loop the invoke path can run for
/// any step budget.
fn loop_code() -> Arc<Vec<u32>> {
    use komodo_armv7::regs::Reg;
    use komodo_armv7::{Assembler, Cond};
    let mut a = Assembler::new(komodo_guest::user::CODE_VA);
    a.mov_imm(Reg::R(0), 0);
    let top = a.label();
    a.add_imm(Reg::R(0), Reg::R(0), 1);
    a.b_to(Cond::Al, top);
    Arc::new(a.words())
}

#[test]
fn attest_quotes_verify_against_the_monitor_key() {
    let report = [0xa11c_e000, 1, 2, 3, 4, 5, 6, 7];
    let r = Service::run(cfg(2), |h| {
        let t = h.submit(Request::Attest { report }).unwrap();
        t.wait().unwrap()
    });
    let Response::Quote { counter, mac } = r.value else {
        panic!("wrong response: {:?}", r.value);
    };
    assert_eq!(counter, 1, "fresh notary's first signature");
    // The MAC must verify against the notary measurement and the
    // notarised digest of the padded report — the full local-attestation
    // check a relying party would do.
    let mut doc = report.to_vec();
    doc.resize(16, 0);
    let img = komodo_guest::notary::notary_image(1);
    let measurement = komodo::measure_image(&img, 1);
    let digest = komodo_guest::notary::notarised_digest(counter, &doc);
    // The attest key is per-platform; recompute on a platform booted
    // with the same derived seed (job index 0).
    let seed = PlatformConfig::default()
        .with_insecure_size(2 << 20)
        .with_npages(256)
        .derive_seed(0);
    let p = komodo::Platform::with_config(
        PlatformConfig::default()
            .with_insecure_size(2 << 20)
            .with_npages(256)
            .with_seed(seed),
    );
    let expected = komodo_spec::svc::attest_mac(p.monitor.attest_key(), &measurement, &digest);
    assert_eq!(mac, expected.0, "quote failed verification");
}

#[test]
fn sessions_round_trip_and_close() {
    let r = Service::run(cfg(2), |h| {
        let opened = h.submit(Request::SessionOpen).unwrap().wait().unwrap();
        let Response::SessionOpened { session } = opened else {
            panic!("wrong response: {opened:?}");
        };
        let put = h
            .submit(Request::SessionPut {
                session,
                value: 0xfeed,
            })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(put, Response::SessionStored);
        let got = h
            .submit(Request::SessionGet { session })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(got, Response::SessionValue { value: 0xfeed });
        let closed = h
            .submit(Request::SessionClose { session })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(closed, Response::SessionClosed);
        // The id is gone now.
        let gone = h.submit(Request::SessionGet { session }).unwrap().wait();
        assert_eq!(gone, Err(ServiceError::NoSuchSession(session)));
        session
    });
    assert_eq!(r.records.len(), 5);
    assert!(r.records.iter().filter(|rec| rec.ok).count() == 4);
}

#[test]
fn notarize_and_invoke_produce_work() {
    let code = loop_code();
    let r = Service::run(cfg(2), |h| {
        let n = h.submit(Request::Notarize { doc_kb: 4 }).unwrap();
        let i = h
            .submit(Request::Invoke {
                code: Arc::clone(&code),
                steps: 10_000,
            })
            .unwrap();
        (n.wait().unwrap(), i.wait().unwrap())
    });
    let (n, i) = r.value;
    assert!(matches!(n, Response::Notarized { counter: 1, .. }), "{n:?}");
    assert_eq!(i, Response::Invoked { steps: 10_000 });
    assert!(r.metrics.total().cycles > 10_000);
}

/// Satellite: metrics conservation — the fleet's folded totals equal
/// the sum of per-request records, across every request kind including
/// long-lived sessions (delta attribution) and pooled-platform work.
#[test]
fn fleet_totals_equal_the_sum_of_request_records() {
    let code = loop_code();
    let r = Service::run(cfg(3), |h| {
        let mut tickets: Vec<Ticket> = Vec::new();
        tickets.push(h.submit(Request::Attest { report: [9; 8] }).unwrap());
        tickets.push(h.submit(Request::Notarize { doc_kb: 4 }).unwrap());
        for _ in 0..3 {
            tickets.push(
                h.submit(Request::Invoke {
                    code: Arc::clone(&code),
                    steps: 5_000,
                })
                .unwrap(),
            );
        }
        let Response::SessionOpened { session } =
            h.submit(Request::SessionOpen).unwrap().wait().unwrap()
        else {
            panic!("open failed");
        };
        // Session ops are sequenced: close is control-plane (highest
        // priority) and would otherwise overtake the put/get.
        for req in [
            Request::SessionPut { session, value: 1 },
            Request::SessionGet { session },
            Request::SessionClose { session },
        ] {
            h.submit(req).unwrap().wait().unwrap();
        }
        // An error-path request records too (zero counters).
        tickets.push(h.submit(Request::SessionGet { session: 999 }).unwrap());
        for t in tickets {
            let _ = t.wait();
        }
    });
    assert_eq!(r.records.len(), 10);
    let mut summed = komodo_trace::MetricsSnapshot::default();
    for rec in &r.records {
        summed.absorb(&rec.sim);
    }
    let total = r.metrics.total();
    assert_eq!(
        summed, total,
        "per-request records must sum to the fleet's folded totals"
    );
    assert!(total.cycles > 0);
    // The report surfaces the same totals.
    let rep = r.report();
    assert_eq!(rep.total, total);
    assert_eq!(rep.requests, 10);
    assert_eq!(rep.errors, 1);
}

/// Satellite: the striped session table under concurrency — eight
/// sessions (one per stripe) operated on simultaneously by a
/// multi-shard fleet. Every operation lands on its own session, values
/// never bleed between sessions, and the conservation law (records sum
/// to the fleet totals) survives the striping.
#[test]
fn striped_sessions_survive_concurrent_operations() {
    let r = Service::run(cfg(4), |h| {
        let mut ids = Vec::new();
        for _ in 0..8 {
            let Response::SessionOpened { session } =
                h.submit(Request::SessionOpen).unwrap().wait().unwrap()
            else {
                panic!("open failed");
            };
            ids.push(session);
        }
        // Each round fires a put at every session at once; ids 1..=8
        // cover all eight stripes, so the puts only proceed in parallel
        // if the stripes really lock independently.
        for round in 0..3u32 {
            let tickets: Vec<Ticket> = ids
                .iter()
                .map(|&session| {
                    h.submit(Request::SessionPut {
                        session,
                        value: 0x1000 + session as u32 + round,
                    })
                    .unwrap()
                })
                .collect();
            for t in tickets {
                assert_eq!(t.wait().unwrap(), Response::SessionStored);
            }
        }
        let gets: Vec<(u64, Ticket)> = ids
            .iter()
            .map(|&session| (session, h.submit(Request::SessionGet { session }).unwrap()))
            .collect();
        for (session, t) in gets {
            assert_eq!(
                t.wait().unwrap(),
                Response::SessionValue {
                    value: 0x1000 + session as u32 + 2
                },
                "session {session} lost or mixed up its value"
            );
        }
        for &session in &ids {
            assert_eq!(
                h.submit(Request::SessionClose { session })
                    .unwrap()
                    .wait()
                    .unwrap(),
                Response::SessionClosed
            );
        }
    });
    // 8 opens + 24 puts + 8 gets + 8 closes.
    assert_eq!(r.records.len(), 48);
    assert!(r.records.iter().all(|rec| rec.ok));
    let mut summed = komodo_trace::MetricsSnapshot::default();
    for rec in &r.records {
        summed.absorb(&rec.sim);
    }
    assert_eq!(
        summed,
        r.metrics.total(),
        "conservation law must survive table striping"
    );
}

/// Satellite: shutdown under load — every in-flight request completes
/// or returns the typed shutdown error; none hang; new submissions are
/// rejected at the door.
#[test]
fn shutdown_under_load_resolves_every_request_typed() {
    let code = loop_code();
    let r = Service::run(cfg(1), |h| {
        // Enough slow work that most of it is still queued when the
        // flag flips (single shard; each invoke runs 200k steps).
        let tickets: Vec<Ticket> = (0..12)
            .map(|_| {
                h.submit(Request::Invoke {
                    code: Arc::clone(&code),
                    steps: 200_000,
                })
                .unwrap()
            })
            .collect();
        h.shutdown();
        // New data-plane work is rejected at the door...
        let refused = h.submit(Request::Attest { report: [0; 8] });
        assert_eq!(refused.err(), Some(Reject::ShuttingDown));
        // ...and every accepted request resolves (completes or fails
        // typed) — this join hanging is the pre-PR failure mode.
        let mut completed = 0u64;
        let mut shut = 0u64;
        for t in tickets {
            match t.wait() {
                Ok(Response::Invoked { .. }) => completed += 1,
                Err(ServiceError::Shutdown) => shut += 1,
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert_eq!(completed + shut, 12);
        assert!(shut > 0, "some queued work must have been cut off");
        (completed, shut)
    });
    let (completed, shut) = r.value;
    assert_eq!(r.rejected_shutdown, 1);
    // Records exist for all 12 accepted requests; the shutdown-errored
    // ones carry zero simulated work.
    assert_eq!(r.records.len(), 12);
    assert_eq!(
        r.records.iter().filter(|rec| rec.ok).count() as u64,
        completed
    );
    let zeroed = r
        .records
        .iter()
        .filter(|rec| !rec.ok && rec.sim.cycles == 0)
        .count() as u64;
    assert_eq!(zeroed, shut);
}

/// Satellite: backpressure is deterministic under a gated queue — with
/// the worker pinned on a slow request and the bound filled, exactly
/// the overflow is rejected, every time.
#[test]
fn backpressure_rejects_exactly_the_overflow() {
    let code = loop_code();
    let r = Service::run(cfg(1).with_queue_capacity(2), |h| {
        // Pin the single worker on a long request, then wait until it
        // has been claimed (pending drops to 0) so queue occupancy is
        // exactly what we submit next.
        let blocker = h
            .submit(Request::Invoke {
                code: Arc::clone(&code),
                steps: 3_000_000,
            })
            .unwrap();
        while h.pending() > 0 {
            std::thread::yield_now();
        }
        // Fill the bound...
        let a = h.submit(Request::Attest { report: [1; 8] }).unwrap();
        let b = h.submit(Request::Attest { report: [2; 8] }).unwrap();
        // ...then every further data-plane request is rejected with the
        // bound, deterministically.
        for _ in 0..3 {
            let rejected = h.submit(Request::Notarize { doc_kb: 1 });
            assert_eq!(rejected.err(), Some(Reject::QueueFull { capacity: 2 }));
        }
        // Control-plane teardown is exempt from the bound (here it
        // types as NoSuchSession — admission is what's under test).
        let ctrl = h.submit(Request::SessionClose { session: 42 }).unwrap();
        for t in [blocker, a, b] {
            t.wait().unwrap();
        }
        assert_eq!(ctrl.wait(), Err(ServiceError::NoSuchSession(42)));
    });
    assert_eq!(r.rejected_full, 3);
    assert_eq!(r.records.len(), 4, "rejected requests leave no record");
}

/// The seeded open-loop schedule drives the node deterministically:
/// same seed, same outcome split against an unbounded queue.
#[test]
fn seeded_load_is_replayable() {
    let mix = Mix::new()
        .with(2, Request::Attest { report: [3; 8] })
        .with(1, Request::Notarize { doc_kb: 1 });
    let arrivals = schedule(0xfeed, 10, 0, &mix).unwrap();
    let run =
        |arrivals: &[komodo_service::Arrival]| Service::run(cfg(2), |h| drive(h, arrivals, false));
    let a = run(&arrivals);
    let b = run(&arrivals);
    assert_eq!(a.value, b.value);
    assert_eq!(a.value.ok, 10);
    assert_eq!(a.value.rejected, 0);
    // Same schedule, same per-request simulated work: the summed
    // records agree bit-for-bit across runs.
    let sum = |r: &komodo_service::ServiceRun<komodo_service::DriveOutcome>| {
        let mut t = komodo_trace::MetricsSnapshot::default();
        for rec in &r.records {
            t.absorb(&rec.sim);
        }
        t
    };
    assert_eq!(sum(&a), sum(&b));
}

/// Armed tracing stamps request spans into the flight recorder: every
/// request kind's record carries at least its dispatch and completion
/// stamps and the armed capacity, and the fleet metrics carry the
/// recorder counters.
#[test]
fn traced_requests_record_spans() {
    let config = cfg(1).with_trace_capacity(512);
    let client = AttestedClient::new(config.platform.seed);
    let r = Service::run(config, |h| {
        let one = |req: Request| h.submit(req).unwrap().wait().unwrap();
        one(Request::Attest { report: [5; 8] });
        one(Request::Notarize { doc_kb: 1 });
        one(Request::Invoke {
            code: loop_code(),
            steps: 100,
        });
        let Response::SessionOpened { session } = one(Request::SessionOpen) else {
            panic!("session did not open");
        };
        one(Request::SessionPut { session, value: 9 });
        one(Request::SessionGet { session });
        one(Request::SessionClose { session });
        // Begin, confirm, send and close of one attested session.
        drive_attested(h, &client, 0x7ace, 1, 1).outcome
    });
    assert_eq!(r.value.established, 1);
    let mut kinds: Vec<u8> = r.records.iter().map(|rec| rec.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(
        kinds,
        (0..=9).collect::<Vec<u8>>(),
        "every request kind ran"
    );
    for rec in &r.records {
        assert!(rec.ok, "request {} (kind {}) failed", rec.req, rec.kind);
        assert_eq!(rec.sim.trace_capacity, 512);
        assert!(
            rec.sim.trace_recorded >= 2,
            "request {} (kind {}): dispatch + complete at minimum, got {}",
            rec.req,
            rec.kind,
            rec.sim.trace_recorded
        );
    }
    assert!(r.metrics.total().trace_recorded >= 2 * r.records.len() as u64);
}

/// Tentpole: vectored submission. A batch admitted through
/// `submit_batch` behaves exactly like per-request submission — same
/// responses, same records, same conservation law — and the
/// request→seed mapping is shard-count independent (1 shard vs 4,
/// driven through the streaming schedule with one submitter so the
/// index assignment is deterministic).
#[test]
fn batched_submission_is_shard_count_invariant() {
    let mix = Mix::new()
        .with(2, Request::Attest { report: [3; 8] })
        .with(1, Request::Notarize { doc_kb: 1 });
    let arrivals = schedule_indexed(0x5eed, 24, 0, &mix).unwrap();
    let sweep = |shards: usize| {
        let r = Service::run(cfg(shards), |h| {
            drive_indexed(h, &mix, &arrivals, false, 1, 8).outcome
        });
        // Per-request records, keyed by deterministic request id.
        let mut recs: Vec<_> = r
            .records
            .iter()
            .map(|rec| (rec.req, rec.kind, rec.class, rec.ok, rec.sim))
            .collect();
        recs.sort_by_key(|t| t.0);
        let mut summed = komodo_trace::MetricsSnapshot::default();
        for rec in &r.records {
            summed.absorb(&rec.sim);
        }
        assert_eq!(
            summed,
            r.metrics.total(),
            "conservation law under batched ingest at {shards} shards"
        );
        (r.value, recs)
    };
    let (o1, r1) = sweep(1);
    let (o4, r4) = sweep(4);
    assert_eq!(o1.ok, 24);
    assert_eq!(o1, o4, "outcome split changed with shard count");
    assert_eq!(r1, r4, "per-request records changed with shard count");
}

/// Batched admission on a bounded queue mirrors per-request admission:
/// the earliest data-plane items take the remaining capacity, the
/// overflow is rejected item by item, and control-plane items pass.
#[test]
fn batched_backpressure_rejects_the_overflow_itemwise() {
    let code = loop_code();
    let r = Service::run(cfg(1).with_queue_capacity(2), |h| {
        let blocker = h
            .submit(Request::Invoke {
                code: Arc::clone(&code),
                steps: 3_000_000,
            })
            .unwrap();
        while h.pending() > 0 {
            std::thread::yield_now();
        }
        let results = h.submit_batch(vec![
            Request::Attest { report: [1; 8] },
            Request::Attest { report: [2; 8] },
            Request::Notarize { doc_kb: 1 },
            Request::Notarize { doc_kb: 1 },
            Request::SessionClose { session: 42 },
        ]);
        let verdicts: Vec<_> = results
            .iter()
            .map(|r| r.as_ref().map(|_| ()).map_err(|e| *e))
            .collect();
        assert_eq!(
            verdicts,
            vec![
                Ok(()),
                Ok(()),
                Err(Reject::QueueFull { capacity: 2 }),
                Err(Reject::QueueFull { capacity: 2 }),
                Ok(()),
            ],
            "earliest data-plane items fill the bound; control is exempt"
        );
        for t in results.into_iter().flatten() {
            let _ = t.wait();
        }
        blocker.wait().unwrap();
    });
    assert_eq!(r.rejected_full, 2);
    // blocker + 2 attests + control close leave records.
    assert_eq!(r.records.len(), 4, "rejected batch items leave no record");
}

/// Satellite: the paced driver counts arrivals it could not submit on
/// time. A schedule whose offsets are already in the past when the
/// driver reaches them must surface as `behind_schedule`, not vanish.
#[test]
fn paced_driver_counts_behind_schedule() {
    let mix = Mix::new().with(1, Request::Attest { report: [8; 8] });
    // Offsets 1ns apart: by the time the driver submits the first
    // request, the rest of the schedule is already overdue.
    let mut arrivals = schedule(0x1ab, 6, 0, &mix).unwrap();
    for (i, a) in arrivals.iter_mut().enumerate() {
        a.at_ns = 1 + i as u64;
    }
    let paced = Service::run(cfg(1), |h| drive(h, &arrivals, true));
    assert_eq!(paced.value.ok, 6);
    assert!(
        paced.value.behind_schedule >= 5,
        "overdue arrivals must be counted, got {}",
        paced.value.behind_schedule
    );
    // An unpaced burst has no schedule to lag behind.
    let burst = Service::run(cfg(1), |h| drive(h, &arrivals, false));
    assert_eq!(burst.value.behind_schedule, 0);
    // The parallel driver counts lag the same way.
    let streamed: Vec<ArrivalIdx> = arrivals
        .iter()
        .map(|a| ArrivalIdx {
            at_ns: a.at_ns,
            proto: 0,
        })
        .collect();
    let report = Service::run(cfg(1), |h| drive_indexed(h, &mix, &streamed, true, 1, 4));
    assert!(report.value.outcome.behind_schedule >= 5);
}

/// Parallel batched ingestion conserves everything: K submitter
/// threads driving partitions through `submit_batch` resolve every
/// scheduled arrival (ok + errors + rejected = scheduled), and the
/// per-shard record buffers still sum bit-for-bit to the folded fleet
/// metrics.
#[test]
fn parallel_batched_ingest_conserves_records_and_metrics() {
    let mix = Mix::new()
        .with(3, Request::Attest { report: [4; 8] })
        .with(1, Request::Notarize { doc_kb: 1 });
    let n = 64usize;
    let arrivals = schedule_indexed(0xcafe, n, 0, &mix).unwrap();
    let r = Service::run(cfg(4), |h| {
        drive_indexed(h, &mix, &arrivals, false, 4, 8).outcome
    });
    let o = r.value;
    assert_eq!(
        o.ok + o.errors + o.rejected,
        n as u64,
        "every scheduled arrival must resolve exactly once"
    );
    assert_eq!(o.rejected, 0, "unbounded queue rejects nothing");
    assert_eq!(r.records.len(), n);
    let mut summed = komodo_trace::MetricsSnapshot::default();
    for rec in &r.records {
        summed.absorb(&rec.sim);
    }
    assert_eq!(
        summed,
        r.metrics.total(),
        "per-shard record buffers must sum to the fleet totals"
    );
}
