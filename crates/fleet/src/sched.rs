//! The fleet scheduler: worker threads with pooled platforms pulling
//! jobs from one shared class-lane queue.
//!
//! Ownership story: each worker thread *owns* at most one [`Platform`]
//! (lazily booted on first use, recycled between jobs), so no platform
//! is ever shared — `Platform` only needs to be `Send`, never `Sync`.
//! Jobs are `FnOnce` closures handed a [`ShardCtx`]; results travel back
//! through typed [`JobHandle`]s. Per-shard counter snapshots fold into a
//! [`FleetMetrics`] when the run finishes.
//!
//! Queue: one mutex over three class lanes (control, interactive,
//! batch), the next job index and a closed flag, plus one condvar idle
//! workers wait on. A worker takes the front of the highest non-empty
//! class, so dispatch is class-then-index across the whole fleet. Every
//! submission is a batch: [`Fleet::try_submit_batch`] admits N classed
//! jobs under one lock hold, assigns their indices contiguously in item
//! order, shares one result block among them and wakes workers once;
//! [`Fleet::try_submit`] is a batch of one. Platforms are independent,
//! so the queue only has to hand jobs out in order: its lock is held
//! for a few pointer moves per job, far below the simulated work a job
//! does.
//!
//! Submission is classed ([`Class`]): control-plane jobs are always
//! dispatched before interactive ones, which precede batch work. The
//! queue may be bounded ([`FleetConfig::with_queue_capacity`]): a full
//! queue *rejects* data-plane submissions with [`SubmitError::Full`]
//! instead of growing without limit — the backpressure surface the
//! service node builds on. Admission is decided under the queue lock,
//! so concurrent submitters never overshoot the bound. Submitting after
//! the fleet shut its queue is a hard [`SubmitError::Closed`] error in
//! every build.
//!
//! Liveness contract: [`JobHandle::join`] always wakes. A job's result
//! cell is completed by the job itself (value or caught panic), or — if
//! the job never runs because its worker died mid-queue or the fleet
//! tore down around it — by the completion guard that every queued task
//! carries, which fills the cell with a [`JobPanic`] when the task is
//! dropped unexecuted. Shutdown is race-free: `close` sets the flag
//! under the queue lock, so a submission either lands before it (and is
//! drained) or sees it (and is refused), and a worker exits only once
//! the queue is closed *and* empty.
//!
//! Determinism contract: a job's *result* may depend only on its index
//! and derived seed ([`PlatformConfig::derive_seed`]), never on which
//! shard runs it — the scheduler guarantees the platform a job sees is
//! bit-for-bit a fresh boot with the job's seed, whichever worker picks
//! it up and whatever ran there before. Which *shard* a job lands on is
//! scheduling noise, so the per-shard metric split varies run to run,
//! but the summed totals are shard-count independent, and so is the
//! request→index mapping of a batch.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use komodo::{Platform, PlatformConfig};
use komodo_trace::{FleetMetrics, MetricsSnapshot};

use crate::busy;
use crate::panic_msg::panic_message;

/// Poison-tolerant lock: a panic on another thread while it held this
/// mutex must not cascade into opaque `PoisonError` panics here. Every
/// shared structure in this module keeps itself consistent across
/// unwinds — result cells are single-assignment, lane mutations
/// (push/pop) complete before the guard drops — so the data under a
/// poisoned lock is always safe to keep using; poisoning only tells us
/// a panic happened elsewhere, and the fleet already surfaces panics
/// through [`JobPanic`] / the worker join.
fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Poison-tolerant condvar wait; see [`lock_unpoisoned`].
fn wait_unpoisoned<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// How a worker recycles its platform between jobs that use one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recycle {
    /// Keep the platform and fast re-boot it in place for the next job
    /// ([`Platform::reset_with_seed`]): RAM allocations are reused, and
    /// the reset is verified bit-for-bit equal to a fresh boot. The
    /// default.
    Reboot,
    /// Drop the platform after every job and construct a fresh one for
    /// the next: the slow path, kept as the oracle the reboot path is
    /// checked against (both must yield identical job results).
    Rebuild,
}

/// Priority class of a submitted job. Workers always dispatch the
/// highest class with queued work; within a class, dispatch is FIFO in
/// submission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// Control plane: session teardown, shutdown drains — must never
    /// starve behind data-plane work, and is exempt from the queue
    /// bound (rejecting teardown would leak the resources it frees).
    Control,
    /// Latency-sensitive data plane (attestation, session operations).
    Interactive,
    /// Throughput data plane (bulk enclave jobs); the default class.
    Batch,
}

impl Class {
    /// All classes, highest priority first (the worker scan order).
    pub const ALL: [Class; 3] = [Class::Control, Class::Interactive, Class::Batch];

    /// Lane index: 0 = highest priority.
    fn lane(self) -> usize {
        self as usize
    }

    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Class::Control => "control",
            Class::Interactive => "interactive",
            Class::Batch => "batch",
        }
    }
}

/// Why a submission was refused. Rejection is synchronous and leaves no
/// trace in the fleet: no job index is consumed, nothing runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The fleet body returned (or the service began shutdown) and the
    /// queue no longer accepts work. A hard error in every build.
    Closed,
    /// The queue is at its configured capacity
    /// ([`FleetConfig::with_queue_capacity`]); the caller must shed the
    /// job or retry later. Control-class jobs are never rejected for
    /// capacity.
    Full {
        /// The configured bound that was hit.
        capacity: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "submit on a closed fleet queue"),
            SubmitError::Full { capacity } => {
                write!(f, "fleet queue full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Fleet construction parameters.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker-thread (shard) count; clamped to at least 1.
    pub shards: usize,
    /// Base platform parameters; each job's platform is booted with the
    /// seed [`PlatformConfig::derive_seed`]`(job_index)` derived from
    /// this config's seed.
    pub platform: PlatformConfig,
    /// Platform recycling policy.
    pub recycle: Recycle,
    /// Maximum queued (submitted, not yet claimed) data-plane jobs;
    /// `None` = unbounded. When bounded, [`Fleet::try_submit`] returns
    /// [`SubmitError::Full`] instead of growing the backlog.
    pub queue_capacity: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            platform: PlatformConfig::default(),
            recycle: Recycle::Reboot,
            queue_capacity: None,
        }
    }
}

impl FleetConfig {
    /// Returns the config with `shards` worker threads.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns the config with the given base platform parameters.
    pub fn with_platform(mut self, platform: PlatformConfig) -> Self {
        self.platform = platform;
        self
    }

    /// Returns the config with the given recycling policy.
    pub fn with_recycle(mut self, recycle: Recycle) -> Self {
        self.recycle = recycle;
        self
    }

    /// Returns the config with the queue bounded to `capacity` queued
    /// data-plane jobs (backpressure; see [`SubmitError::Full`]).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }
}

/// A job that panicked; the payload, rendered as `panic!` would show it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// The rendered panic message.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// The message a joiner sees when its job was claimed or queued but the
/// worker (or the whole fleet) tore down before the job could run.
pub const ABANDONED: &str = "job abandoned: worker or fleet tore down before it ran";

/// What a job hands back: its value, or the panic that ended it.
pub type JobResult<T> = Result<T, JobPanic>;

/// Shared result storage for one submitted batch: one allocation and one
/// mutex/condvar pair for N jobs. Every joiner waits on the shared
/// condvar and re-checks only its own cell; completions are
/// single-assignment per cell.
struct ResultBlock<T> {
    results: Mutex<Vec<Option<JobResult<T>>>>,
    done: Condvar,
}

/// Completion guard: fills one job's result cell exactly once. The task
/// closure completes it with the job's outcome; if the task is instead
/// *dropped* unexecuted — its worker thread died between claiming it and
/// running it, the fleet tore down with the job still queued, or the
/// queue refused it — the guard's `Drop` completes the cell with a
/// [`JobPanic`] so a joiner always wakes instead of blocking forever on
/// a cell nobody will fill.
struct Completion<T> {
    block: Arc<ResultBlock<T>>,
    at: usize,
    filled: bool,
}

impl<T> Completion<T> {
    fn fill(&mut self, r: JobResult<T>) {
        lock_unpoisoned(&self.block.results)[self.at] = Some(r);
        self.block.done.notify_all();
        self.filled = true;
    }
}

impl<T> Drop for Completion<T> {
    fn drop(&mut self) {
        if !self.filled {
            self.fill(Err(JobPanic {
                message: ABANDONED.to_string(),
            }));
        }
    }
}

/// Typed handle to one submitted job's eventual result.
pub struct JobHandle<T> {
    block: Arc<ResultBlock<T>>,
    at: usize,
    job: u64,
}

impl<T> JobHandle<T> {
    /// The job's fleet-wide index (submission order, starting at 0) —
    /// the same index its platform seed was derived from.
    pub fn index(&self) -> u64 {
        self.job
    }

    /// Blocks until the job finishes and returns its result. A job that
    /// panicked yields `Err(`[`JobPanic`]`)` instead of poisoning the
    /// fleet: every other job still runs to completion. A job whose
    /// worker died before running it yields `Err` with [`ABANDONED`] —
    /// the completion guard guarantees this join never hangs.
    pub fn join(self) -> JobResult<T> {
        let mut r = lock_unpoisoned(&self.block.results);
        loop {
            if let Some(v) = r[self.at].take() {
                return v;
            }
            r = wait_unpoisoned(&self.block.done, r);
        }
    }
}

/// A queued task: type-erased job closure. The closure owns a
/// [`Completion`]; dropping it unexecuted resolves the job as abandoned.
type Task<'env> = Box<dyn FnOnce(&mut ShardCtx<'_>) + Send + 'env>;

/// Everything under the queue lock.
struct Lanes<'env> {
    /// One FIFO per [`Class`], indexed by `Class::lane()`; each holds
    /// (job index, task) in increasing index order.
    lanes: [VecDeque<(u64, Task<'env>)>; 3],
    /// The next job index: jobs accepted so far.
    next: u64,
    closed: bool,
}

impl Lanes<'_> {
    /// Accepted jobs not yet claimed by a worker, control included.
    fn queued(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

/// The fleet's work queue: one lock, one condvar for idle workers, and
/// the optional bound on queued data-plane jobs.
struct Queue<'env> {
    state: Mutex<Lanes<'env>>,
    ready: Condvar,
    capacity: Option<usize>,
}

impl<'env> Queue<'env> {
    fn new(capacity: Option<usize>) -> Self {
        Queue {
            state: Mutex::new(Lanes {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                next: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues classed tasks under one lock hold, returning one outcome
    /// per item in item order. A closed queue refuses every item
    /// [`SubmitError::Closed`]. On a bounded queue the data-plane items
    /// that fit under the bound — the earliest in item order — are
    /// admitted and the rest refused [`SubmitError::Full`]; control
    /// items count toward occupancy but are never refused. Accepted
    /// items get contiguous indices in item order, so a batch's
    /// request→index (and therefore request→seed) mapping is identical
    /// at any shard count. A refused task is dropped after the lock is
    /// released; its completion guard resolves the never-returned handle
    /// as abandoned.
    fn push_batch(&self, items: Vec<(Class, Task<'env>)>) -> Vec<Result<u64, SubmitError>> {
        let mut refused = Vec::new();
        let mut q = lock_unpoisoned(&self.state);
        if q.closed {
            return items.iter().map(|_| Err(SubmitError::Closed)).collect();
        }
        let capacity = self.capacity.unwrap_or(usize::MAX);
        let mut room = capacity.saturating_sub(q.queued());
        let mut accepted = 0;
        let out = items
            .into_iter()
            .map(|(class, task)| {
                if class != Class::Control {
                    if room == 0 {
                        refused.push(task);
                        return Err(SubmitError::Full { capacity });
                    }
                    room -= 1;
                }
                let job = q.next;
                q.next += 1;
                q.lanes[class.lane()].push_back((job, task));
                accepted += 1;
                Ok(job)
            })
            .collect();
        drop(q);
        match accepted {
            0 => {}
            1 => self.ready.notify_one(),
            _ => self.ready.notify_all(),
        }
        out
    }

    /// Claims the next task — the front of the highest non-empty class —
    /// blocking while the queue is open and empty. After close, drains
    /// the backlog and then returns `None`.
    fn pop(&self) -> Option<(u64, Task<'env>)> {
        let mut q = lock_unpoisoned(&self.state);
        loop {
            if let Some(next) = q.lanes.iter_mut().find_map(VecDeque::pop_front) {
                return Some(next);
            }
            if q.closed {
                return None;
            }
            q = wait_unpoisoned(&self.ready, q);
        }
    }

    fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        self.ready.notify_all();
    }

    fn submitted(&self) -> u64 {
        lock_unpoisoned(&self.state).next
    }

    fn queued_len(&self) -> usize {
        lock_unpoisoned(&self.state).queued()
    }
}

/// One worker's pooled state, threaded through every job it runs.
struct ShardState {
    cfg: PlatformConfig,
    recycle: Recycle,
    platform: Option<Platform>,
    metrics: MetricsSnapshot,
    jobs: u64,
    boots: u64,
    resets: u64,
    busy_ns: u64,
}

/// The execution context a job receives: identity (shard, index, seed)
/// plus access to the shard's pooled platform and metrics fold.
pub struct ShardCtx<'a> {
    shard: usize,
    job: u64,
    seed: u64,
    used: bool,
    state: &'a mut ShardState,
}

impl ShardCtx<'_> {
    /// The shard (worker index) running this job. Identity only — job
    /// results must not depend on it.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// This job's fleet-wide index (submission order).
    pub fn job_index(&self) -> u64 {
        self.job
    }

    /// This job's derived platform seed:
    /// `fleet_config.platform.derive_seed(job_index)`. Depends only on
    /// the base seed and the index, never the shard.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard's platform, guaranteed bit-for-bit fresh for this job:
    /// booted on first use (with this job's seed), recycled per the
    /// fleet's [`Recycle`] policy on reuse. The first call in a job pays
    /// the boot or reset; later calls return the same platform, carrying
    /// whatever state the job has built on it.
    pub fn platform(&mut self) -> &mut Platform {
        if !self.used {
            self.used = true;
            match self.state.platform.as_mut() {
                Some(p) => {
                    p.reset_with_seed(self.seed);
                    self.state.resets += 1;
                }
                None => {
                    let cfg = self.state.cfg.clone().with_seed(self.seed);
                    self.state.platform = Some(Platform::with_config(cfg));
                    self.state.boots += 1;
                }
            }
        }
        self.state
            .platform
            .as_mut()
            .expect("platform exists once used")
    }

    /// Folds an externally-measured counter snapshot into this shard's
    /// metrics — for jobs that drive their own machines instead of (or
    /// in addition to) the pooled platform. The pooled platform's own
    /// counters are folded automatically after the job.
    pub fn absorb(&mut self, snap: &MetricsSnapshot) {
        self.state.metrics.absorb(snap);
    }
}

/// Per-shard accounting for one fleet run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Jobs this shard executed.
    pub jobs: u64,
    /// Always 0: every worker claims from the one shared queue, so no
    /// job is ever taken from a sibling. Kept so readers of the former
    /// work-stealing split (a `stolen / jobs` share) still build and
    /// read 0.
    pub stolen: u64,
    /// Platforms constructed from scratch.
    pub boots: u64,
    /// Fast in-place re-boots of the pooled platform.
    pub resets: u64,
    /// Busy time in nanoseconds: thread CPU time where the host exposes
    /// it (Linux schedstat), else wall time spent executing jobs (queue
    /// idle excluded).
    pub busy_ns: u64,
}

/// Everything a fleet run produces: the body's return value plus the
/// folded metrics and per-shard accounting.
#[derive(Debug)]
pub struct FleetRun<R> {
    /// What the body closure returned.
    pub value: R,
    /// Per-shard counter snapshots and their aggregate.
    pub metrics: FleetMetrics,
    /// Per-shard job/boot/busy accounting.
    pub shards: Vec<ShardStats>,
    /// Jobs executed across all shards.
    pub jobs: u64,
    /// Wall-clock duration of the whole run (spawn to last join).
    pub wall: Duration,
}

impl<R> FleetRun<R> {
    /// Summed busy nanoseconds across shards — the denominator for
    /// CPU-normalized throughput.
    pub fn busy_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.busy_ns).sum()
    }
}

/// The submission interface the body closure drives. Submit jobs, keep
/// the typed handles, join them (inside the body or after [`run`]
/// returns — all handles are resolved by then either way).
pub struct Fleet<'q, 'env> {
    queue: &'q Queue<'env>,
}

impl<'env> Fleet<'_, 'env> {
    /// Submits a job in `class`; returns the typed handle to its result,
    /// or the [`SubmitError`] if the queue refused it (closed, or a
    /// bounded queue at capacity). On rejection nothing ran, no job
    /// index was consumed, and there is no handle to leak.
    ///
    /// The closure runs exactly once on some shard, receives that
    /// shard's [`ShardCtx`], and may return any `Send` value. Panics
    /// inside the job are caught and surface as `Err(JobPanic)` from
    /// [`JobHandle::join`]; other jobs are unaffected. A batch of one
    /// through [`Fleet::try_submit_batch`].
    pub fn try_submit<T, F>(&self, class: Class, f: F) -> Result<JobHandle<T>, SubmitError>
    where
        T: Send + 'env,
        F: FnOnce(&mut ShardCtx<'_>) -> T + Send + 'env,
    {
        let mut one = self.try_submit_batch(vec![(class, f)]);
        one.pop().expect("one outcome per submitted job")
    }

    /// Submits a batch of classed jobs in one queue pass: one lock hold,
    /// one result-block allocation shared by the whole batch, and one
    /// worker wake — the per-job constant costs of submission amortized
    /// over N jobs. Returns one `Result` per job, in item order;
    /// accepted jobs get contiguous indices assigned in item order
    /// (identical at any shard count), rejected ones consumed no index.
    ///
    /// Admission is per item: on a bounded queue the earliest data-plane
    /// items fill the remaining capacity and the rest are refused
    /// [`SubmitError::Full`]; control items are exempt from the bound; a
    /// close refuses the whole batch.
    pub fn try_submit_batch<T, F>(
        &self,
        jobs: Vec<(Class, F)>,
    ) -> Vec<Result<JobHandle<T>, SubmitError>>
    where
        T: Send + 'env,
        F: FnOnce(&mut ShardCtx<'_>) -> T + Send + 'env,
    {
        if jobs.is_empty() {
            return Vec::new();
        }
        let block = Arc::new(ResultBlock {
            results: Mutex::new((0..jobs.len()).map(|_| None).collect()),
            done: Condvar::new(),
        });
        let tasks: Vec<(Class, Task<'env>)> = jobs
            .into_iter()
            .enumerate()
            .map(|(at, (class, f))| {
                let mut completion = Completion {
                    block: Arc::clone(&block),
                    at,
                    filled: false,
                };
                let task: Task<'env> = Box::new(move |ctx| {
                    let result = catch_unwind(AssertUnwindSafe(|| f(ctx))).map_err(|p| JobPanic {
                        message: panic_message(p),
                    });
                    completion.fill(result);
                });
                (class, task)
            })
            .collect();
        self.queue
            .push_batch(tasks)
            .into_iter()
            .enumerate()
            .map(|(at, r)| {
                r.map(|job| JobHandle {
                    block: Arc::clone(&block),
                    at,
                    job,
                })
            })
            .collect()
    }

    /// [`Fleet::try_submit_batch`], panicking on any rejection — for
    /// harnesses that submit to an unbounded queue while the fleet body
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics (in every build) if any item is refused.
    pub fn submit_batch<T, F>(&self, jobs: Vec<(Class, F)>) -> Vec<JobHandle<T>>
    where
        T: Send + 'env,
        F: FnOnce(&mut ShardCtx<'_>) -> T + Send + 'env,
    {
        self.try_submit_batch(jobs)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("fleet batch submit failed: {e}")))
            .collect()
    }

    /// [`Fleet::try_submit`] in `class`, panicking on rejection — for
    /// callers that configured an unbounded queue and submit only while
    /// the fleet body runs (both invariants hold for every in-workspace
    /// harness; the service node uses `try_submit`).
    ///
    /// # Panics
    ///
    /// Panics (in every build) if the queue is closed or full.
    pub fn submit_class<T, F>(&self, class: Class, f: F) -> JobHandle<T>
    where
        T: Send + 'env,
        F: FnOnce(&mut ShardCtx<'_>) -> T + Send + 'env,
    {
        self.try_submit(class, f)
            .unwrap_or_else(|e| panic!("fleet submit failed: {e}"))
    }

    /// [`Fleet::submit_class`] in [`Class::Batch`] — the compatibility
    /// surface predating priority classes.
    ///
    /// # Panics
    ///
    /// Panics (in every build) if the queue is closed or full.
    pub fn submit<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'env,
        F: FnOnce(&mut ShardCtx<'_>) -> T + Send + 'env,
    {
        self.submit_class(Class::Batch, f)
    }

    /// Jobs accepted so far.
    pub fn submitted(&self) -> u64 {
        self.queue.submitted()
    }

    /// Jobs currently queued (accepted but not yet claimed by a
    /// worker). A point-in-time reading — workers drain concurrently —
    /// useful for tests and load-shedding heuristics, not invariants.
    pub fn queued(&self) -> usize {
        self.queue.queued_len()
    }
}

fn worker(queue: &Queue<'_>, cfg: &FleetConfig, shard: usize) -> ShardState {
    let cpu0 = busy::thread_busy_ns();
    let mut wall_busy = Duration::ZERO;
    let mut state = ShardState {
        cfg: cfg.platform.clone(),
        recycle: cfg.recycle,
        platform: None,
        metrics: MetricsSnapshot::default(),
        jobs: 0,
        boots: 0,
        resets: 0,
        busy_ns: 0,
    };
    while let Some((job, task)) = queue.pop() {
        let t0 = Instant::now();
        let seed = cfg.platform.derive_seed(job);
        let mut ctx = ShardCtx {
            shard,
            job,
            seed,
            used: false,
            state: &mut state,
        };
        task(&mut ctx);
        let used = ctx.used;
        state.jobs += 1;
        if used {
            // The platform was fresh at job start, so its counters are
            // exactly this job's work: fold the full snapshot. Folding
            // per job (not per shard at shutdown) is what makes the
            // summed totals shard-count independent.
            let p = state.platform.as_ref().expect("used implies present");
            let snap = p.machine.metrics_snapshot();
            state.metrics.absorb(&snap);
            if state.recycle == Recycle::Rebuild {
                state.platform = None;
            }
        }
        wall_busy += t0.elapsed();
    }
    // Busy accounting: prefer real thread CPU time (idle condvar waits
    // don't accrue), fall back to wall time around task execution. The
    // kernel only folds the running slice into schedstat at scheduler
    // events, so yield first — otherwise each worker under-reports by
    // its tail since the last tick, inflating multi-shard efficiency.
    std::thread::yield_now();
    state.busy_ns = busy::resolve(cpu0, busy::thread_busy_ns(), wall_busy);
    state
}

/// Runs a fleet: spawns `cfg.shards` workers, hands the body a
/// [`Fleet`] to submit jobs through, and after the body returns waits
/// for every submitted job to finish before folding shard metrics and
/// returning.
///
/// The body's environment may be borrowed (`'env`): jobs can capture
/// references to caller state, like `std::thread::scope`. If the body
/// panics, all already-submitted jobs still run, workers shut down
/// cleanly, and the panic then resumes.
pub fn run<'env, R>(cfg: FleetConfig, body: impl FnOnce(&Fleet<'_, 'env>) -> R) -> FleetRun<R> {
    let shards = cfg.shards.max(1);
    let queue = Queue::new(cfg.queue_capacity);
    let t0 = Instant::now();
    let (value, states) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shards)
            .map(|i| {
                let q = &queue;
                let c = &cfg;
                s.spawn(move || worker(q, c, i))
            })
            .collect();
        let fleet = Fleet { queue: &queue };
        let value = catch_unwind(AssertUnwindSafe(|| body(&fleet)));
        queue.close();
        let states: Vec<ShardState> = handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect();
        match value {
            Ok(v) => (v, states),
            Err(p) => resume_unwind(p),
        }
    });
    let wall = t0.elapsed();
    let metrics = FleetMetrics::from_shards(states.iter().map(|s| s.metrics).collect());
    let shard_stats: Vec<ShardStats> = states
        .iter()
        .map(|s| ShardStats {
            jobs: s.jobs,
            stolen: 0,
            boots: s.boots,
            resets: s.resets,
            busy_ns: s.busy_ns,
        })
        .collect();
    let jobs = shard_stats.iter().map(|s| s.jobs).sum();
    FleetRun {
        value,
        metrics,
        shards: shard_stats,
        jobs,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use komodo_guest::progs;
    use komodo_os::EnclaveRun;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    fn small() -> PlatformConfig {
        PlatformConfig::default()
            .with_insecure_size(1 << 20)
            .with_npages(32)
    }

    /// Direct handle on a queue for white-box tests: a `Fleet` whose
    /// queue this module owns, no workers attached.
    fn bare_fleet<'q, 'env>(queue: &'q Queue<'env>) -> Fleet<'q, 'env> {
        Fleet { queue }
    }

    /// The submission surface must be shareable with worker threads.
    #[test]
    fn fleet_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FleetConfig>();
        assert_send::<JobHandle<u64>>();
        assert_send::<ShardStats>();
        assert_send::<SubmitError>();
        assert_send::<Class>();
    }

    #[test]
    fn typed_results_round_trip() {
        let r = run(FleetConfig::default().with_shards(3), |fleet| {
            let a = fleet.submit(|ctx| ctx.job_index() * 10);
            let b = fleet.submit(|_| "text".to_string());
            let c = fleet.submit(|ctx| (ctx.job_index(), vec![1u8, 2, 3]));
            (a.join().unwrap(), b.join().unwrap(), c.join().unwrap())
        });
        assert_eq!(r.value, (0, "text".to_string(), (2, vec![1, 2, 3])));
        assert_eq!(r.jobs, 3);
    }

    #[test]
    fn every_job_runs_exactly_once_even_unjoined() {
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let slots = &hits;
        let r = run(FleetConfig::default().with_shards(4), |fleet| {
            for slot in slots.iter().take(64) {
                // Handles dropped: the run must still execute the jobs.
                let _ = fleet.submit(move |_| slot.fetch_add(1, Ordering::Relaxed));
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(r.jobs, 64);
        assert_eq!(r.shards.iter().map(|s| s.jobs).sum::<u64>(), 64);
    }

    #[test]
    fn batch_submission_runs_every_job_with_contiguous_indices() {
        let r = run(FleetConfig::default().with_shards(4), |fleet| {
            let handles = fleet.submit_batch(
                (0..32)
                    .map(|_| (Class::Batch, |ctx: &mut ShardCtx<'_>| ctx.job_index() * 3))
                    .collect::<Vec<_>>(),
            );
            handles
                .into_iter()
                .enumerate()
                .map(|(i, h)| {
                    assert_eq!(h.index(), i as u64, "indices are item-ordered");
                    h.join().unwrap()
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(r.value, (0..32).map(|i| i * 3).collect::<Vec<u64>>());
        assert_eq!(r.jobs, 32);
        assert_eq!(r.shards.iter().map(|s| s.jobs).sum::<u64>(), 32);
    }

    /// White-box: a bounded queue admits the earliest data-plane prefix
    /// of a batch, rejects the overflow with the bound, and exempts
    /// control items.
    #[test]
    fn batch_on_a_bounded_queue_admits_a_prefix() {
        let q: Queue<'_> = Queue::new(Some(2));
        let fleet = bare_fleet(&q);
        fn own_index(ctx: &mut ShardCtx<'_>) -> u64 {
            ctx.job_index()
        }
        type Job = fn(&mut ShardCtx<'_>) -> u64;
        let jobs: Vec<(Class, Job)> = vec![
            (Class::Batch, own_index),
            (Class::Batch, own_index),
            (Class::Batch, own_index),
            (Class::Batch, own_index),
            (Class::Control, own_index),
        ];
        let results = fleet.try_submit_batch::<u64, _>(jobs);
        let indices: Vec<_> = results
            .iter()
            .map(|r| r.as_ref().map(|h| h.index()).map_err(|e| *e))
            .collect();
        assert_eq!(
            indices,
            vec![
                Ok(0),
                Ok(1),
                Err(SubmitError::Full { capacity: 2 }),
                Err(SubmitError::Full { capacity: 2 }),
                Ok(2),
            ]
        );
        // Rejected items consumed no index; accepted ones are queued.
        assert_eq!(q.submitted(), 3);
        assert_eq!(q.queued_len(), 3);
    }

    /// White-box dispatch order: workers share one queue, so dispatch
    /// is class-then-index fleet-wide — every queued control job before
    /// any interactive one before any batch job, and within a class the
    /// lowest index first, however the jobs were submitted.
    #[test]
    fn dispatch_is_class_then_index_fleet_wide() {
        let q: Queue<'_> = Queue::new(None);
        let fleet = bare_fleet(&q);
        fleet.try_submit::<u64, _>(Class::Batch, |_| 0).unwrap();
        fleet
            .try_submit::<u64, _>(Class::Interactive, |_| 1)
            .unwrap();
        fn nothing(_: &mut ShardCtx<'_>) -> u64 {
            0
        }
        type Job = fn(&mut ShardCtx<'_>) -> u64;
        let batch: Vec<(Class, Job)> = vec![
            (Class::Batch, nothing),
            (Class::Control, nothing),
            (Class::Interactive, nothing),
            (Class::Batch, nothing),
        ];
        fleet.try_submit_batch::<u64, _>(batch);
        fleet.try_submit::<u64, _>(Class::Control, |_| 6).unwrap();
        q.close();
        let mut order = Vec::new();
        while let Some((job, _task)) = q.pop() {
            order.push(job);
        }
        // Control (j3, j6), interactive (j1, j4), batch (j0, j2, j5).
        assert_eq!(order, vec![3, 6, 1, 4, 0, 2, 5]);
    }

    /// Races `threads` submitters, each sending `batches` batches of
    /// `classes` at `fleet` at once; returns every item's class and
    /// outcome.
    fn race(
        fleet: &Fleet<'_, '_>,
        threads: usize,
        batches: usize,
        classes: &[Class],
    ) -> Vec<(Class, Result<u64, SubmitError>)> {
        fn nothing(_: &mut ShardCtx<'_>) -> u64 {
            0
        }
        type Job = fn(&mut ShardCtx<'_>) -> u64;
        std::thread::scope(|s| {
            let submitters: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(move || {
                        let mut seen = Vec::new();
                        for _ in 0..batches {
                            let jobs: Vec<(Class, Job)> =
                                classes.iter().map(|&c| (c, nothing as Job)).collect();
                            let results = fleet.try_submit_batch::<u64, _>(jobs);
                            seen.extend(
                                classes
                                    .iter()
                                    .copied()
                                    .zip(results.into_iter().map(|r| r.map(|h| h.index()))),
                            );
                        }
                        seen
                    })
                })
                .collect();
            submitters
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        })
    }

    /// The bound is exact under racing submitters. With no worker
    /// draining the queue, 4 threads race 240 data-plane items for more
    /// than the bound: exactly `CAP` are admitted, with indices
    /// `0..CAP`, and every other item is refused `Full`. Then mixed
    /// batches race against the full queue: every control item is
    /// admitted, with the next contiguous indices, and every data item
    /// is refused.
    #[test]
    fn racing_batches_fill_a_bounded_queue_exactly() {
        const CAP: usize = 100;
        let q: Queue<'_> = Queue::new(Some(CAP));
        let fleet = bare_fleet(&q);
        let full = Err(SubmitError::Full { capacity: CAP });

        let data = race(
            &fleet,
            4,
            20,
            &[Class::Batch, Class::Interactive, Class::Batch],
        );
        let mut admitted: Vec<u64> = data.iter().filter_map(|(_, r)| r.ok()).collect();
        admitted.sort_unstable();
        assert_eq!(admitted, (0..CAP as u64).collect::<Vec<_>>());
        assert!(data
            .iter()
            .filter(|(_, r)| r.is_err())
            .all(|(_, r)| *r == full));

        let mixed = race(
            &fleet,
            4,
            5,
            &[Class::Control, Class::Batch, Class::Control],
        );
        let mut control: Vec<u64> = Vec::new();
        for (class, r) in &mixed {
            match class {
                Class::Control => control.push(r.expect("control is exempt from the bound")),
                _ => assert_eq!(*r, full, "a full queue admits no data-plane job"),
            }
        }
        control.sort_unstable();
        let end = (CAP + control.len()) as u64;
        assert_eq!(control, (CAP as u64..end).collect::<Vec<_>>());
        assert_eq!(q.submitted(), end);
        assert_eq!(q.queued_len(), end as usize);
    }

    #[test]
    fn panics_are_captured_per_job() {
        let r = run(FleetConfig::default().with_shards(2), |fleet| {
            let bad = fleet.submit(|_| -> u32 { panic!("job 0 exploded") });
            let good = fleet.submit(|_| 7u32);
            (bad.join(), good.join())
        });
        let (bad, good) = r.value;
        assert_eq!(bad.unwrap_err().message, "job 0 exploded");
        assert_eq!(good.unwrap(), 7);
        assert_eq!(r.jobs, 2, "a panicking job still counts as executed");
    }

    /// Regression (release-build hang): submitting after close used to
    /// be guarded only by a `debug_assert!`, so a release-build submit
    /// raced worker exit and its join could hang forever. It is now a
    /// hard [`SubmitError::Closed`] in every build.
    #[test]
    fn submit_after_close_is_a_hard_error() {
        let q: Queue<'_> = Queue::new(None);
        let fleet = bare_fleet(&q);
        let accepted = fleet.try_submit(Class::Batch, |_| 1u32);
        assert!(accepted.is_ok());
        q.close();
        let refused = fleet.try_submit(Class::Batch, |_| 2u32);
        assert_eq!(refused.err(), Some(SubmitError::Closed));
        // Control class gets no exemption from close (only from the
        // capacity bound).
        let refused = fleet.try_submit(Class::Control, |_| 3u32);
        assert_eq!(refused.err(), Some(SubmitError::Closed));
        // Batches are refused whole.
        fn five(_: &mut ShardCtx<'_>) -> u32 {
            5
        }
        type Job = fn(&mut ShardCtx<'_>) -> u32;
        let batch_jobs: Vec<(Class, Job)> = vec![(Class::Batch, five), (Class::Control, five)];
        let refused = fleet.try_submit_batch::<u32, _>(batch_jobs);
        assert!(refused
            .iter()
            .all(|r| matches!(r, Err(SubmitError::Closed))));
        // The panicking wrapper turns the same condition into an
        // unconditional panic, not a silent enqueue.
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            fleet.submit(|_| 4u32);
        }));
        assert!(
            panic_message(panicked.unwrap_err()).contains("closed"),
            "submit after close must fail loudly in every build"
        );
        // A refused submission consumed no job index.
        assert_eq!(fleet.submitted(), 1);
    }

    /// Regression (joiner hang): a job whose worker thread dies after
    /// claiming it but before running it used to leave its result slot
    /// empty forever. The completion guard now resolves it as abandoned.
    #[test]
    fn worker_death_mid_queue_wakes_joiners() {
        let q: Queue<'_> = Queue::new(None);
        let fleet = bare_fleet(&q);
        let claimed = fleet.try_submit(Class::Batch, |_| 1u32).unwrap();
        let queued = fleet.try_submit(Class::Batch, |_| 2u32).unwrap();
        q.close();
        std::thread::scope(|s| {
            // A "worker" that claims the first task and dies without
            // running it (panic outside any per-job catch_unwind — the
            // task closure is dropped during the unwind).
            let h = s.spawn(|| {
                let _task = q.pop().expect("task queued");
                panic!("worker killed mid-queue");
            });
            assert!(h.join().is_err(), "worker must have died");
        });
        let r = claimed.join();
        assert_eq!(r.unwrap_err().message, ABANDONED);
        // The still-queued task is abandoned when the queue drops.
        drop(q);
        assert_eq!(queued.join().unwrap_err().message, ABANDONED);
    }

    /// Regression (poison cascade): a panic while the queue lock was held
    /// used to turn every later `lock().unwrap()` into an opaque
    /// `PoisonError` panic on unrelated threads. Locking is now
    /// poison-tolerant.
    #[test]
    fn poisoned_locks_do_not_cascade() {
        let q: Queue<'_> = Queue::new(None);
        let fleet = bare_fleet(&q);
        // Poison the queue mutex: panic while holding it.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = q.state.lock().unwrap();
            panic!("poison the queue");
        }));
        assert!(q.state.is_poisoned(), "setup must have poisoned the lock");
        // Submission and dispatch still work.
        let h = fleet.try_submit(Class::Batch, |_| 11u32).unwrap();
        q.close();
        let (job, task) = q.pop().expect("task dispatches through poison");
        assert_eq!(job, 0);
        let cfg = FleetConfig::default();
        let mut state = ShardState {
            cfg: cfg.platform.clone(),
            recycle: cfg.recycle,
            platform: None,
            metrics: MetricsSnapshot::default(),
            jobs: 0,
            boots: 0,
            resets: 0,
            busy_ns: 0,
        };
        let mut ctx = ShardCtx {
            shard: 0,
            job,
            seed: 0,
            used: false,
            state: &mut state,
        };
        task(&mut ctx);
        assert_eq!(h.join().unwrap(), 11);
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let cfg = FleetConfig::default().with_shards(1).with_queue_capacity(2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let r = run(cfg, |fleet| {
            // Occupy the only worker so later submissions stay queued.
            let blocker = fleet.submit(move |_| {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            });
            started_rx.recv().unwrap();
            // Two queued jobs fill the bound…
            let a = fleet.try_submit(Class::Batch, |_| 1u32).unwrap();
            let b = fleet.try_submit(Class::Interactive, |_| 2u32).unwrap();
            // …the third data-plane job is rejected with the bound…
            let rejected = fleet.try_submit(Class::Batch, |_| 3u32);
            assert_eq!(rejected.err(), Some(SubmitError::Full { capacity: 2 }));
            // …but control-plane work is exempt from the bound.
            let ctrl = fleet.try_submit(Class::Control, |_| 4u32).unwrap();
            gate_tx.send(()).unwrap();
            blocker.join().unwrap();
            (a.join().unwrap(), b.join().unwrap(), ctrl.join().unwrap())
        });
        assert_eq!(r.value, (1, 2, 4));
        // blocker + a + b + ctrl ran; the rejected job never did.
        assert_eq!(r.jobs, 4);
    }

    #[test]
    fn classes_dispatch_in_priority_order() {
        let cfg = FleetConfig::default().with_shards(1);
        let order = Mutex::new(Vec::new());
        let log = &order;
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        run(cfg, |fleet| {
            let blocker = fleet.submit(move |_| {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            });
            started_rx.recv().unwrap();
            // Queued while the worker is busy: submission order is
            // batch, batch, interactive, control — dispatch order must
            // be control, interactive, batch, batch.
            for (class, tag) in [
                (Class::Batch, "b1"),
                (Class::Batch, "b2"),
                (Class::Interactive, "i"),
                (Class::Control, "c"),
            ] {
                fleet.submit_class(class, move |_| {
                    lock_unpoisoned(log).push(tag);
                });
            }
            gate_tx.send(()).unwrap();
            blocker.join().unwrap();
        });
        assert_eq!(*lock_unpoisoned(&order), vec!["c", "i", "b1", "b2"]);
    }

    #[test]
    fn seeds_are_index_derived() {
        let cfg = FleetConfig::default().with_shards(2);
        let base = cfg.platform.clone();
        let r = run(cfg, |fleet| {
            (0..8)
                .map(|_| fleet.submit(|ctx| (ctx.job_index(), ctx.seed())))
                .collect::<Vec<_>>()
        });
        for h in r.value {
            let (job, seed) = h.join().unwrap();
            assert_eq!(seed, base.derive_seed(job));
        }
    }

    #[test]
    fn platform_jobs_see_a_fresh_seeded_platform() {
        let cfg = FleetConfig::default().with_shards(2).with_platform(small());
        let r = run(cfg, |fleet| {
            (0..6)
                .map(|_| {
                    fleet.submit(|ctx| {
                        let seed = ctx.seed();
                        let job = ctx.job_index() as u32;
                        let p = ctx.platform();
                        assert_eq!(p.config().seed, seed);
                        // Fresh boot: full secure pool, boot-only cycles.
                        assert_eq!(p.os.secure_available(), 32);
                        let e = p.load(&progs::adder()).unwrap();
                        let run = p.run(&e, 0, [job, 1, 0]);
                        (run, p.cycles())
                    })
                })
                .collect::<Vec<_>>()
        });
        for (i, h) in r.value.into_iter().enumerate() {
            let (er, cycles) = h.join().unwrap();
            assert_eq!(er, EnclaveRun::Exited(i as u32 + 1));
            // Same workload on a scratch fresh platform: identical cycles.
            let mut fresh = Platform::with_config(
                small().with_seed(PlatformConfig::default().derive_seed(i as u64)),
            );
            let e = fresh.load(&progs::adder()).unwrap();
            fresh.run(&e, 0, [i as u32, 1, 0]);
            assert_eq!(cycles, fresh.cycles(), "job {i} diverged from fresh boot");
        }
    }

    #[test]
    fn reboot_recycling_boots_once_per_shard() {
        let cfg = FleetConfig::default().with_shards(1).with_platform(small());
        let r = run(cfg, |fleet| {
            for _ in 0..5 {
                fleet.submit(|ctx| {
                    ctx.platform();
                });
            }
        });
        assert_eq!(r.shards[0].boots, 1);
        assert_eq!(r.shards[0].resets, 4);
    }

    #[test]
    fn rebuild_recycling_boots_every_job() {
        let cfg = FleetConfig::default()
            .with_shards(1)
            .with_platform(small())
            .with_recycle(Recycle::Rebuild);
        let r = run(cfg, |fleet| {
            for _ in 0..3 {
                fleet.submit(|ctx| {
                    ctx.platform();
                });
            }
        });
        assert_eq!(r.shards[0].boots, 3);
        assert_eq!(r.shards[0].resets, 0);
    }

    #[test]
    fn platforms_boot_lazily() {
        let r = run(FleetConfig::default().with_shards(4), |fleet| {
            for i in 0..16u64 {
                fleet.submit(move |_| i);
            }
        });
        assert_eq!(r.shards.iter().map(|s| s.boots).sum::<u64>(), 0);
        assert_eq!(r.metrics.total(), MetricsSnapshot::default());
    }

    #[test]
    fn absorbed_metrics_fold_into_the_total() {
        let r = run(FleetConfig::default().with_shards(3), |fleet| {
            for i in 1..=4u64 {
                fleet.submit(move |ctx| {
                    ctx.absorb(&MetricsSnapshot {
                        cycles: i,
                        ..MetricsSnapshot::default()
                    });
                });
            }
        });
        assert_eq!(r.metrics.total().cycles, 1 + 2 + 3 + 4);
        assert_eq!(r.metrics.shard_count(), 3);
    }

    #[test]
    fn body_panic_still_runs_submitted_jobs_and_propagates() {
        let ran = AtomicU64::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run(FleetConfig::default().with_shards(2), |fleet| {
                for _ in 0..4 {
                    fleet.submit(|_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("body bailed");
            });
        }));
        assert_eq!(panic_message(caught.unwrap_err()), "body bailed");
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let r = run(FleetConfig::default().with_shards(0), |fleet| {
            fleet.submit(|ctx| ctx.shard()).join().unwrap()
        });
        assert_eq!(r.value, 0);
        assert_eq!(r.shards.len(), 1);
    }
}
