//! Attested sessions at the workspace level: the remote-attestation
//! handshake driven through the service node end to end — negative
//! paths (forged, replayed, mismeasured, truncated handshakes all fail
//! closed), the equal-keys property over randomized drives, the
//! shard-count invariance of a large concurrent handshake wave, and the
//! invariance of the whole handshake — and of the notary that signs
//! attestations — across the simulator's execution rungs.

use komodo::{measure_image, Platform, PlatformConfig};
use komodo_crypto::{
    device_attest_key, kdf, Digest, Quote, Verifier, VerifierSession, VerifyError,
};
use komodo_guest::notary::{notarised_digest, notary_image};
use komodo_os::EnclaveRun;
use komodo_service::protocol::{Attested, AttestedStep, StepCtx};
use komodo_service::{
    drive_attested, AttestedClient, Protocol, QuoteWords, Request, Response, Service,
    ServiceConfig, ServiceError, ServiceHandle,
};
use komodo_spec::seed::derive_stream;
use komodo_spec::svc::attest_mac;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

fn cfg(shards: usize) -> ServiceConfig {
    ServiceConfig::default().with_shards(shards)
}

fn to_quote(q: &QuoteWords) -> Quote {
    Quote {
        public: q.public,
        binding_mac: Digest(q.binding_mac),
        enclave_share: q.enclave_share,
        sig: komodo_crypto::schnorr::Signature {
            r: q.sig_r,
            s: q.sig_s,
        },
        confirm: Digest(q.confirm),
    }
}

/// Begins one handshake through the service and returns the raw quote
/// plus everything needed to verify it: the verifier session, the
/// device attestation key for the session's platform, and the session
/// id.
fn begin_raw(
    h: &ServiceHandle<'_, '_>,
    base_seed: u64,
    nonce: [u32; 4],
) -> (u64, VerifierSession, [u8; 32], Quote) {
    let vs = VerifierSession::new(nonce, 0xabcd, 0x1234);
    let t = h
        .submit(Request::HandshakeBegin {
            nonce,
            verifier_share: vs.share,
        })
        .unwrap();
    let begin_req = t.id();
    let Response::HandshakeQuote { session, quote } = t.wait().unwrap() else {
        panic!("handshake did not quote");
    };
    let device = device_attest_key(derive_stream(base_seed, begin_req));
    (session, vs, device, to_quote(&quote))
}

/// Satellite: forged-quote rejection, end to end — a genuine quote from
/// the service with any field tampered fails the verifier's checks
/// typed, in check order.
#[test]
fn tampered_quotes_are_rejected_typed() {
    let config = cfg(1);
    let client = AttestedClient::new(config.platform.seed);
    Service::run(config, |h| {
        let (_, vs, device, quote) = begin_raw(h, client.platform_seed, [0x51; 4]);
        let verifier = Verifier::new(&device, client.measurement);
        // The untampered quote verifies.
        verifier
            .check_quote(&vs, &quote)
            .expect("genuine quote must verify");
        // Forged binding MAC: the public key no longer traces to the
        // measured enclave.
        let mut forged = quote;
        forged.binding_mac.0[3] ^= 1;
        assert_eq!(
            verifier.check_quote(&vs, &forged),
            Err(VerifyError::BadBinding)
        );
        // Tampered signature: the challenge binding breaks.
        let mut forged = quote;
        forged.sig.s ^= 2;
        assert_eq!(
            verifier.check_quote(&vs, &forged),
            Err(VerifyError::BadSignature)
        );
        // Tampered confirmation tag: key confirmation fails.
        let mut forged = quote;
        forged.confirm.0[0] ^= 4;
        assert_eq!(
            verifier.check_quote(&vs, &forged),
            Err(VerifyError::BadConfirm)
        );
        // Out-of-group share: rejected before any use.
        let mut forged = quote;
        forged.enclave_share = 1;
        assert_eq!(
            verifier.check_quote(&vs, &forged),
            Err(VerifyError::BadShare)
        );
    });
}

/// Satellite: replay — a quote answering one challenge does not verify
/// against another verifier session's fresh nonce and share.
#[test]
fn replayed_quote_rejected_by_fresh_challenge() {
    let config = cfg(1);
    let client = AttestedClient::new(config.platform.seed);
    Service::run(config, |h| {
        let (_, _, device, quote) = begin_raw(h, client.platform_seed, [0x11; 4]);
        let fresh = VerifierSession::new([0x22; 4], 0x9999, 0x7777);
        assert_eq!(
            Verifier::new(&device, client.measurement).check_quote(&fresh, &quote),
            Err(VerifyError::BadSignature),
            "a replayed quote must not satisfy a fresh challenge"
        );
    });
}

/// Satellite: wrong measurement — a verifier expecting different
/// enclave code rejects the genuine quote at the binding check.
#[test]
fn wrong_measurement_rejected() {
    let config = cfg(1);
    let base_seed = config.platform.seed;
    Service::run(config, |h| {
        let (_, vs, device, quote) = begin_raw(h, base_seed, [0x33; 4]);
        let notary = komodo::measure_image(&komodo_guest::notary::notary_image(1), 1);
        assert_eq!(
            Verifier::new(&device, notary).check_quote(&vs, &quote),
            Err(VerifyError::BadBinding),
            "a quote from the RA enclave must not pass as the notary"
        );
    });
}

/// Satellite: a truncated handshake — begun, never confirmed — yields
/// no established session: traffic is refused typed, the pending
/// session closes cleanly, and node teardown leaves nothing behind.
#[test]
fn truncated_handshake_fails_closed() {
    let config = cfg(1);
    let client = AttestedClient::new(config.platform.seed);
    let r = Service::run(config, |h| {
        let (session, _, device, quote) = begin_raw(h, client.platform_seed, [0x44; 4]);
        // The quote itself is genuine...
        let vs_check = Verifier::new(&device, client.measurement);
        assert!(vs_check
            .check_quote(&VerifierSession::new([0x44; 4], 0xabcd, 0x1234), &quote)
            .is_ok());
        // ...but without the confirmation, no traffic flows.
        let refused = h
            .submit(Request::AttestedSend {
                session,
                payload: [9; 8],
            })
            .unwrap()
            .wait();
        assert!(
            matches!(refused, Err(ServiceError::Protocol(_))),
            "traffic on an unconfirmed handshake must fail typed: {refused:?}"
        );
        // Generic close tears the half-open handshake down.
        assert_eq!(
            h.submit(Request::SessionClose { session })
                .unwrap()
                .wait()
                .unwrap(),
            Response::SessionClosed
        );
        session
    });
    // A second begin left pending at shutdown is also fine — covered by
    // the run completing; the records show no established traffic.
    assert!(r.records.iter().any(|rec| !rec.ok));
}

/// Property: every completed handshake derives the same session key on
/// both sides. The drive verifies each enclave-produced traffic tag
/// under the *client's* independently-derived key, so
/// `messages == established × rounds` with zero failures is exactly the
/// equal-keys property — exercised here over proptest-drawn drive
/// seeds (fresh nonces, DH secrets, and payloads per seed).
#[test]
fn prop_completed_sessions_derive_equal_keys() {
    let mut rng = TestRng::for_test("prop_completed_sessions_derive_equal_keys");
    let config = cfg(2);
    let client = AttestedClient::new(config.platform.seed);
    for _ in 0..6 {
        let seed = (0u64..u64::MAX).generate(&mut rng);
        let r = Service::run(config.clone(), |h| drive_attested(h, &client, seed, 3, 2));
        let o = r.value.outcome;
        assert_eq!(o.established, 3, "seed {seed:#x}: a handshake failed");
        assert_eq!(
            o.messages, 6,
            "seed {seed:#x}: a traffic tag failed under the client key — the sides disagree"
        );
        assert_eq!(o.failed, 0, "seed {seed:#x}");
    }
}

/// The confirmation tags are direction-separated: feeding the enclave
/// its own confirm tag (instead of the verifier-direction tag) must be
/// refused — the KDF labels the two directions apart.
#[test]
fn reflected_confirm_tag_is_refused() {
    let config = cfg(1);
    let client = AttestedClient::new(config.platform.seed);
    Service::run(config, |h| {
        let nonce = [0x66; 4];
        let (session, vs, device, quote) = begin_raw(h, client.platform_seed, nonce);
        let est = Verifier::new(&device, client.measurement)
            .check_quote(&vs, &quote)
            .unwrap();
        // Reflect the enclave's own tag back at it.
        let reflected = h
            .submit(Request::HandshakeConfirm {
                session,
                tag: quote.confirm.0,
            })
            .unwrap()
            .wait();
        assert!(
            matches!(reflected, Err(ServiceError::Protocol(_))),
            "reflected confirm must be refused: {reflected:?}"
        );
        // And the derived tags really differ.
        assert_ne!(est.confirm, quote.confirm);
        let _ = kdf::CONFIRM_VERIFIER_TAG;
    });
}

/// Satellite: the new enclave-visible chaos fault kind — SVC-level
/// perturbation of the inputs a malicious OS relays mid-handshake —
/// always yields a quote the verifier oracle rejects. Tampering is
/// *detected*, never silently accepted: the enclave signs what it was
/// actually given, so the verifier's challenge no longer matches.
#[test]
fn chaos_perturbed_handshake_is_never_accepted() {
    use komodo_chaos::Fault;
    use komodo_guest::ra::{ra_image, shared_layout as sl, unpack_u64};
    use komodo_os::EnclaveRun;
    use komodo_spec::seed::SplitMix64;

    let mut p = komodo::Platform::with_config(
        komodo::PlatformConfig::default()
            .with_insecure_size(1 << 20)
            .with_npages(64)
            .with_seed(0xc4a0_57e5),
    );
    let img = ra_image();
    let e = p.load(&img).unwrap();
    assert_eq!(p.run(&e, 0, [0, 0, 0]), EnclaveRun::Exited(0));
    let verifier = Verifier::new(p.monitor.attest_key(), komodo::measure_image(&img, 1));

    let run_quote = |p: &mut komodo::Platform| -> Quote {
        assert_eq!(p.run(&e, 0, [2, 0, 0]), EnclaveRun::Exited(0));
        let pub_words = p.read_shared(&e, 3, sl::PUB, 2);
        let mac = p.read_shared(&e, 3, sl::MAC, 8);
        let rs = p.read_shared(&e, 3, sl::R, 4);
        let eshare = p.read_shared(&e, 3, sl::ESHARE, 2);
        let confirm = p.read_shared(&e, 3, sl::CONFIRM, 8);
        Quote {
            public: unpack_u64(pub_words[0], pub_words[1]),
            binding_mac: Digest(mac.try_into().unwrap()),
            enclave_share: unpack_u64(eshare[0], eshare[1]),
            sig: komodo_crypto::schnorr::Signature {
                r: unpack_u64(rs[0], rs[1]),
                s: unpack_u64(rs[2], rs[3]),
            },
            confirm: Digest(confirm.try_into().unwrap()),
        }
    };

    // Sanity: an unperturbed handshake is accepted — the rejections
    // below are because of the tampering, not a broken fixture.
    let clean = VerifierSession::new([0xc1ea_0001; 4], 0x1111, 0x2222);
    p.write_shared(&e, 3, sl::NONCE, &clean.nonce);
    p.write_shared(
        &e,
        3,
        sl::VSHARE,
        &[clean.share as u32, (clean.share >> 32) as u32],
    );
    assert!(verifier.check_quote(&clean, &run_quote(&mut p)).is_ok());

    let mut rng = SplitMix64::new(0x7a3b_0001);
    let mut rejections = 0u32;
    for round in 0..24u64 {
        let nonce = [rng.next_u64() as u32; 4].map(|w| w ^ round as u32);
        let vs = VerifierSession::new(nonce, rng.next_u64() as u32, rng.next_u64() as u32);
        // The fault the chaos schedule draws: XOR a nonzero mask into
        // one of the SVC-relayed inputs, here a word of the challenge
        // the OS carries to the enclave.
        let fault = Fault::EntryPerturb {
            arg: rng.below(6) as u8,
            val: (rng.next_u64() as u32) | 1,
        };
        let Fault::EntryPerturb { arg, val } = fault else {
            unreachable!()
        };
        assert_eq!(fault.kind_code(), 8, "the new enclave-visible kind");
        let mut challenge = [
            vs.nonce[0],
            vs.nonce[1],
            vs.nonce[2],
            vs.nonce[3],
            vs.share as u32,
            (vs.share >> 32) as u32,
        ];
        // Mid-handshake perturbation: the OS relays a corrupted word.
        challenge[arg as usize % 6] ^= val;
        p.write_shared(&e, 3, sl::NONCE, &challenge[..4]);
        p.write_shared(&e, 3, sl::VSHARE, &challenge[4..]);
        let quote = run_quote(&mut p);
        assert!(
            verifier.check_quote(&vs, &quote).is_err(),
            "round {round}: tampered handshake ({fault}) accepted"
        );
        rejections += 1;
    }
    assert_eq!(rejections, 24);
}

/// Tentpole acceptance: a large wave of concurrent handshakes is
/// shard-count invariant — the same drive against a 1-shard and a
/// 4-shard fleet produces the identical [`AttestedOutcome`] (including
/// the key digest, so every session derived the same key in both runs)
/// and identical per-request records. Session count defaults to 128
/// for routine runs; CI's release-mode bench drives the full 1000.
///
/// [`AttestedOutcome`]: komodo_service::AttestedOutcome
#[test]
fn handshake_wave_is_shard_count_invariant() {
    let sessions: usize = std::env::var("KOMODO_ATTESTED_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    let client = AttestedClient::new(cfg(1).platform.seed);
    let sweep = |shards: usize| {
        let r = Service::run(cfg(shards), |h| {
            drive_attested(h, &client, 0x1000_0001, sessions, 1).outcome
        });
        let mut recs: Vec<_> = r
            .records
            .iter()
            .map(|rec| (rec.req, rec.kind, rec.class, rec.ok, rec.sim))
            .collect();
        recs.sort_by_key(|t| t.0);
        (r.value, recs)
    };
    let (o1, r1) = sweep(1);
    let (o4, r4) = sweep(4);
    assert_eq!(o1.established, sessions as u64, "handshakes failed: {o1:?}");
    assert_eq!(o1.failed, 0);
    assert_eq!(o1, o4, "attested outcome changed with shard count");
    assert_eq!(r1, r4, "per-request records changed with shard count");
}

/// The execution rungs, fastest first: (accel, superblocks, uop traces).
const RUNGS: [(bool, bool, bool); 4] = [
    (true, true, true),
    (true, true, false),
    (true, false, false),
    (false, false, false),
];

/// Platform seeds every rung-equality input runs under.
const RUNG_SEEDS: [u64; 3] = [1, 0x5eed, 104_729];

/// A platform seeded `seed` with the execution ladder set by `(accel,
/// superblocks, uop traces)`.
fn platform_on_rung(seed: u64, (accel, superblocks, uops): (bool, bool, bool)) -> Platform {
    let mut p = Platform::with_config(PlatformConfig::default().with_seed(seed));
    p.machine.set_fetch_accel(accel);
    p.machine.set_superblocks(superblocks);
    p.machine.set_uop_traces(uops);
    p
}

/// The four-way differential harness: runs `run` for every seed in
/// [`RUNG_SEEDS`] on micro-op regions, superblocks, the fetch
/// accelerator only, and plain stepping, asserts the four observations
/// are identical, and returns the uop rung's per seed.
fn identical_at_every_rung<T: PartialEq + std::fmt::Debug>(
    what: &str,
    run: impl Fn(u64, (bool, bool, bool)) -> T,
) -> Vec<(u64, T)> {
    RUNG_SEEDS
        .iter()
        .map(|&seed| {
            let [uop, sb, accel, base] = RUNGS.map(|r| run(seed, r));
            assert_eq!(uop, base, "{what}, seed {seed}: uop rung diverged");
            assert_eq!(sb, base, "{what}, seed {seed}: superblock rung diverged");
            assert_eq!(accel, base, "{what}, seed {seed}: accel rung diverged");
            (seed, uop)
        })
        .collect()
}

/// What one rung observes of a whole attested session.
#[derive(Debug, PartialEq)]
struct RungRun {
    quote: QuoteWords,
    begin_cycles: u64,
    confirm: Result<Response, ServiceError>,
    sends: Vec<Result<Response, ServiceError>>,
    cycles: u64,
    retired: u64,
}

/// Boot → load → `Attested::begin` → confirm → two sends on a platform
/// seeded `seed` at `rung`; the traffic tags are checked against the
/// verifier's key on the way.
fn attested_session_on_rung(seed: u64, rung: (bool, bool, bool)) -> RungRun {
    let mut p = platform_on_rung(seed, rung);
    let e = p.load(&Attested::image()).expect("ra load");
    let vs = VerifierSession::new([seed as u32, 2, 3, 4], 0x5eed, seed as u32);
    let c0 = p.cycles();
    let quote = Attested::begin(&mut p, &e, 0, &vs.nonce, vs.share).expect("begin");
    let begin_cycles = p.cycles() - c0;
    let measurement = AttestedClient::new(seed).measurement;
    let est = Verifier::new(&device_attest_key(seed), measurement)
        .check_quote(&vs, &to_quote(&quote))
        .expect("genuine quote must verify");
    let mut state = Attested::open(0);
    let ctx = StepCtx {
        session: 0,
        now_req: 1,
        handshake_ttl: u64::MAX,
    };
    let step = AttestedStep::Confirm { tag: est.confirm.0 };
    let confirm = Attested::step(&mut state, &mut p, &e, step, &ctx).0;
    let sends = (0..2u32)
        .map(|seq| {
            let payload = [seq ^ seed as u32; 8];
            let r = Attested::step(&mut state, &mut p, &e, AttestedStep::Send { payload }, &ctx).0;
            if let Ok(Response::AttestedTag { tag, .. }) = &r {
                assert!(kdf::verify_app_tag(&est.key, seq, &payload, &Digest(*tag)));
            }
            r
        })
        .collect();
    RungRun {
        quote,
        begin_cycles,
        confirm,
        sends,
        cycles: p.cycles(),
        retired: p.machine.metrics_snapshot().retired(),
    }
}

/// The handshake in the four-way differential: for several platform
/// seeds, the whole attested session yields identical quotes, confirm
/// outcomes, traffic tags, cycle counts and retired-instruction totals
/// on every rung.
#[test]
fn handshake_is_identical_at_every_rung() {
    for (seed, uop) in identical_at_every_rung("handshake", attested_session_on_rung) {
        assert_eq!(uop.confirm, Ok(Response::SessionEstablished), "seed {seed}");
        assert!(
            uop.sends.iter().all(|r| r.is_ok()),
            "seed {seed}: {:?}",
            uop.sends
        );
    }
}

/// Document size of the rung-equality and dispatch-profile notarizations.
const NOTARY_DOC_KB: usize = 4;

/// What one rung observes of one notarization.
#[derive(Debug, PartialEq)]
struct NotaryRun {
    counter: u32,
    mac: [u32; 8],
    cycles: u64,
    retired: u64,
}

/// Boot → load → one signing pass of the notary over a
/// [`NOTARY_DOC_KB`] document on a platform seeded `seed` at `rung`; the
/// MAC is checked against the monitor's attestation key on the way.
fn notary_on_rung(seed: u64, rung: (bool, bool, bool)) -> NotaryRun {
    let mut p = platform_on_rung(seed, rung);
    let doc: Vec<u32> = (0..NOTARY_DOC_KB * 256)
        .map(|i| (i as u32 ^ seed as u32).wrapping_mul(0x0100_0193))
        .collect();
    let img = notary_image((NOTARY_DOC_KB * 1024).div_ceil(4096));
    let e = p.load(&img).expect("notary load");
    p.write_shared(&e, 3, 0, &doc);
    let EnclaveRun::Exited(counter) = p.run(&e, 0, [(doc.len() / 16) as u32, 0, 0]) else {
        panic!("seed {seed}: notary did not exit");
    };
    let mut mac = [0u32; 8];
    mac.copy_from_slice(&p.read_shared(&e, 4, 0, 8));
    let expected = attest_mac(
        p.monitor.attest_key(),
        &measure_image(&img, 1),
        &notarised_digest(counter, &doc),
    );
    assert_eq!(
        mac, expected.0,
        "seed {seed}: notary MAC failed verification"
    );
    NotaryRun {
        counter,
        mac,
        cycles: p.cycles(),
        retired: p.machine.metrics_snapshot().retired(),
    }
}

/// Figure 5's notary in the same four-way differential: for each seed,
/// a 4 KB notarization yields the identical counter, MAC, cycle count
/// and retired total on every rung.
#[test]
fn notary_is_identical_at_every_rung() {
    for (seed, uop) in identical_at_every_rung("notary", notary_on_rung) {
        assert_eq!(uop.counter, 1, "seed {seed}: first notarization");
    }
}

/// Dispatch-profile guard for the notarization at the uop rung: the
/// SHA-256 round loop (with its `PUSH`/`POP` spill) runs as one chained
/// micro-op region, so nearly every instruction retires in regions and
/// per-instruction steps stay at about one per compression — the
/// counters, being deterministic, repeat exactly.
#[test]
fn notary_runs_in_regions_at_the_uop_rung() {
    let profile = || {
        let mut p = platform_on_rung(1, RUNGS[0]);
        let doc = vec![0x0123_4567u32; NOTARY_DOC_KB * 256];
        let e = p
            .load(&notary_image((NOTARY_DOC_KB * 1024).div_ceil(4096)))
            .expect("notary load");
        p.write_shared(&e, 3, 0, &doc);
        let before = p.machine.metrics_snapshot();
        let r = p.run(&e, 0, [(doc.len() / 16) as u32, 0, 0]);
        assert!(matches!(r, EnclaveRun::Exited(1)), "{r:?}");
        p.machine.metrics_snapshot().delta_since(&before)
    };
    let s = profile();
    assert_eq!(s, profile(), "dispatch counters must repeat exactly");
    // The counter block, one per 64-byte document block, and the padding
    // block.
    let compressions = (NOTARY_DOC_KB * 1024 / 64 + 2) as u64;
    let insns = s.retired();
    // The cold start before promotion (~3.3k instructions) is 1.5% of a
    // 4 KB notarization; everything after it runs in regions.
    assert!(
        s.retired_uop * 100 >= insns * 98,
        "only {} of {insns} instructions retired in regions: {s:?}",
        s.retired_uop
    );
    assert!(
        s.retired_step <= 2 * compressions,
        "{} per-instruction steps over {compressions} compressions: {s:?}",
        s.retired_step
    );
}
