//! The node under test and what one service run leaves behind: request
//! records split by kind, shard accounting, and the checks every record
//! must pass.

use std::collections::BTreeMap;
use std::time::Duration;

use komodo_fleet::ShardStats;
use komodo_service::{Request, RequestRecord, Response, ServiceConfig, ServiceHandle, ServiceRun};
use komodo_spec::seed::derive_stream;

use crate::client::Client;
use crate::host;

/// Everything derived from the workload seed, shared by all phases.
pub struct Ctx {
    pub seed: u64,
    pub shards: usize,
    pub client: Client,
    pub cfg: ServiceConfig,
}

impl Ctx {
    pub fn new(seed: u64) -> Ctx {
        let shards = host::nproc();
        let base = ServiceConfig::default().with_shards(shards);
        let platform = base.platform.clone().with_seed(derive_stream(seed, 1));
        let client = Client::new(derive_stream(seed, 2), platform.seed);
        Ctx {
            seed,
            shards,
            client,
            cfg: base.with_platform(platform),
        }
    }

    /// A seed for stream `n` of this run (schedules, reports).
    pub fn stream(&self, n: u64) -> u64 {
        derive_stream(self.seed, 0x100 + n)
    }
}

/// The request kinds the benchmark reports on, by metric name.
pub fn kinds() -> [(&'static str, u8); 6] {
    [
        (
            "begin",
            Request::HandshakeBegin {
                nonce: [0; 4],
                verifier_share: 0,
            }
            .kind_code(),
        ),
        (
            "confirm",
            Request::HandshakeConfirm {
                session: 0,
                tag: [0; 8],
            }
            .kind_code(),
        ),
        (
            "send",
            Request::AttestedSend {
                session: 0,
                payload: [0; 8],
            }
            .kind_code(),
        ),
        ("close", Request::SessionClose { session: 0 }.kind_code()),
        ("attest", Request::Attest { report: [0; 8] }.kind_code()),
        ("notarize", Request::Notarize { doc_kb: 1 }.kind_code()),
    ]
}

/// Kind code of the metric name `name`.
pub fn code(name: &str) -> u8 {
    kinds()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, c)| *c)
        .expect("known kind name")
}

/// Submits `req` and waits for its response; a door rejection or a
/// typed error is a correctness failure.
pub fn call(h: &ServiceHandle<'_, '_>, req: Request) -> Result<(u64, Response), String> {
    let what = req.kind_name();
    let t = h.submit(req).map_err(|r| format!("{what} rejected: {r}"))?;
    let id = t.id();
    t.wait()
        .map(|r| (id, r))
        .map_err(|e| format!("{what} request {id} failed: {e}"))
}

/// What one service run leaves behind for the metrics.
pub struct NodeRun {
    pub records: Vec<RequestRecord>,
    pub shards: Vec<ShardStats>,
    pub wall: Duration,
}

impl NodeRun {
    /// Checks that every accepted request produced exactly one record
    /// and none failed, then keeps the accounting.
    pub fn check<R>(run: ServiceRun<R>, attempted: u64) -> Result<(R, NodeRun), String> {
        if run.records.len() as u64 != attempted {
            return Err(format!(
                "{} records for {attempted} submitted requests",
                run.records.len()
            ));
        }
        if let Some(r) = run.records.iter().find(|r| !r.ok) {
            return Err(format!("request {} (kind {}) failed", r.req, r.kind));
        }
        if run.rejected_full + run.rejected_shutdown > 0 {
            return Err("requests rejected at the door".into());
        }
        Ok((
            run.value,
            NodeRun {
                records: run.records,
                shards: run.shards,
                wall: run.wall,
            },
        ))
    }

    /// Records by request id.
    pub fn by_id(&self) -> BTreeMap<u64, &RequestRecord> {
        self.records.iter().map(|r| (r.req, r)).collect()
    }

    /// Σ busy / (shards × wall).
    pub fn busy_share(&self) -> f64 {
        let busy: u64 = self.shards.iter().map(|s| s.busy_ns).sum();
        busy as f64 / (self.shards.len() as f64 * self.wall.as_nanos() as f64)
    }

    /// Stolen jobs / all jobs.
    pub fn stolen_share(&self) -> f64 {
        let jobs: u64 = self.shards.iter().map(|s| s.jobs).sum();
        let stolen: u64 = self.shards.iter().map(|s| s.stolen).sum();
        stolen as f64 / jobs.max(1) as f64
    }

    /// Summed simulated cycles over every record.
    pub fn cycles(&self) -> u64 {
        self.records.iter().map(|r| r.sim.cycles).sum()
    }
}

/// Per-kind samples pooled over the service runs of one phase.
#[derive(Default)]
pub struct KindSamples {
    pub queued_us: Vec<f64>,
    pub service_us: Vec<f64>,
}

/// Pools `runs`' records by kind code.
pub fn by_kind<'a>(runs: impl IntoIterator<Item = &'a NodeRun>) -> BTreeMap<u8, KindSamples> {
    let mut out: BTreeMap<u8, KindSamples> = BTreeMap::new();
    for r in runs.into_iter().flat_map(|n| &n.records) {
        let k = out.entry(r.kind).or_default();
        k.queued_us.push(r.queued_ns as f64 / 1e3);
        k.service_us.push(r.service_ns as f64 / 1e3);
    }
    out
}

/// The simulated-cycle cost of every kind that must cost the same on
/// every request (all but `begin`, whose session seed varies the
/// handshake), checked across every run of the benchmark process.
#[derive(Default)]
pub struct CycleGate {
    seen: BTreeMap<u8, u64>,
}

impl CycleGate {
    pub fn check(&mut self, run: &NodeRun) -> Result<(), String> {
        let begin = code("begin");
        for r in run.records.iter().filter(|r| r.kind != begin) {
            let want = *self.seen.entry(r.kind).or_insert(r.sim.cycles);
            if r.sim.cycles != want {
                return Err(format!(
                    "request {} of kind {} cost {} cycles, earlier ones {want}",
                    r.req, r.kind, r.sim.cycles
                ));
            }
        }
        Ok(())
    }

    /// The constant cycle cost of `kind`, if any request of it ran.
    pub fn cycles(&self, kind: &str) -> Option<u64> {
        self.seen.get(&code(kind)).copied()
    }
}
