//! The verifier side of an attested session, as a remote client runs it:
//! seeded challenges, quote checking against the device key, and traffic
//! tag checking under the client-derived session key.
//!
//! Challenge and payload derivation match `komodo_service::drive_attested`
//! position for position, so a phased drive here and the repo's reference
//! drive of the same seed must produce the same `AttestedOutcome`.

use komodo_crypto::schnorr::Signature;
use komodo_crypto::verifier::Established;
use komodo_crypto::{device_attest_key, kdf, Digest, Quote, Verifier, VerifierSession};
use komodo_service::QuoteWords;
use komodo_spec::seed::{derive_stream, mix64, SplitMix64};

/// What a client knows out of band about the node it challenges.
#[derive(Clone, Copy, Debug)]
pub struct Client {
    /// Workload seed the challenges and payloads derive from.
    pub seed: u64,
    /// The node's base platform seed (device keys derive from it).
    pub platform_seed: u64,
    /// Expected RA-enclave measurement.
    pub measurement: Digest,
}

impl Client {
    pub fn new(seed: u64, platform_seed: u64) -> Client {
        let c = komodo_service::AttestedClient::new(platform_seed);
        Client {
            seed,
            platform_seed,
            measurement: c.measurement,
        }
    }

    /// The verifier half of the handshake for session position `pos`.
    pub fn challenge(&self, pos: u64) -> VerifierSession {
        let mut rng = SplitMix64::new(derive_stream(self.seed, pos));
        let nonce = std::array::from_fn(|_| rng.next_u64() as u32);
        let (hi, lo) = (rng.next_u64() as u32, rng.next_u64() as u32);
        VerifierSession::new(nonce, hi, lo)
    }

    /// Application payload `round` of the session at `pos`.
    pub fn payload(&self, pos: u64, round: u32) -> [u32; 8] {
        let mut rng = SplitMix64::new(derive_stream(
            self.seed ^ 0x5e55_10b5_ea7e_d001,
            (pos << 24) | round as u64,
        ));
        std::array::from_fn(|_| rng.next_u64() as u32)
    }

    /// Checks a quote from the session platform booted for request
    /// `begin_req`: the device key pins the platform, the measurement
    /// pins the code, and the confirm tag pins the derived key.
    pub fn check_quote(
        &self,
        begin_req: u64,
        vs: &VerifierSession,
        quote: &QuoteWords,
    ) -> Result<Established, String> {
        let q = Quote {
            public: quote.public,
            binding_mac: Digest(quote.binding_mac),
            enclave_share: quote.enclave_share,
            sig: Signature {
                r: quote.sig_r,
                s: quote.sig_s,
            },
            confirm: Digest(quote.confirm),
        };
        let device = device_attest_key(derive_stream(self.platform_seed, begin_req));
        Verifier::new(&device, self.measurement)
            .check_quote(vs, &q)
            .map_err(|e| format!("quote of begin request {begin_req} rejected: {e:?}"))
    }
}

/// Checks one traffic tag under the client-side key.
pub fn check_tag(key: &Digest, seq: u32, payload: &[u32; 8], tag: [u32; 8]) -> Result<(), String> {
    if kdf::verify_app_tag(key, seq, payload, &Digest(tag)) {
        Ok(())
    } else {
        Err(format!("traffic tag {seq} failed to verify"))
    }
}

/// The `AttestedOutcome::key_digest` term of the session at `pos`.
pub fn key_term(pos: u64, key: &Digest) -> u64 {
    let mut h = pos + 1;
    for w in key.0 {
        h = mix64(h ^ w as u64);
    }
    h
}
