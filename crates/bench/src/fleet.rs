//! Shard-scaling throughput: the guest workloads fanned out as jobs on
//! the `komodo-fleet` scheduler, measured at 1/2/4/8 shards.
//!
//! Komodo's scale-out story is replication: platforms are independent
//! by construction, so fleet throughput should scale with shard count.
//! This harness runs the *identical* job set at every shard count and
//! reports two bases (see [`Row`]):
//!
//! - **wall** (`insns / wall_seconds`): what you feel, first. It can
//!   scale only up to the host's core count, and the gate caps its
//!   speedup at `min(shards, nproc)`.
//! - **CPU-normalized projection** (`shards × insns / busy_cpu_seconds`):
//!   what `shards` dedicated cores would sustain at the *measured*
//!   per-busy-second efficiency. Busy time comes from the fleet's
//!   per-thread CPU accounting (Linux `schedstat`; queue waits don't
//!   accrue), so scheduler overhead, lock contention and recycle costs
//!   show up as lost efficiency. Sharding cannot make work cheaper, so
//!   its speedup is at most the shard count.
//!
//! Every row also folds per-job machine counters through the fleet's
//! metrics pipeline, and the harness asserts the summed totals are
//! bit-for-bit identical across shard counts — the determinism contract
//! (results depend on job index, never placement) checked in the large.

use komodo_armv7::ExitReason;
use komodo_fleet::FleetConfig;
use komodo_trace::MetricsSnapshot;

use crate::report::{busy_s, Row};
use crate::throughput::{guest, workloads};

/// Shard counts of the fleet and service sweeps.
pub const SHARDS: &[usize] = &[1, 2, 4, 8];

/// One shard count's measurement over the fixed job set.
#[derive(Clone, Debug)]
pub struct FleetThroughput {
    /// Worker shards the fleet ran with.
    pub shards: usize,
    /// Total simulated instructions across all jobs.
    pub insns: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Summed per-shard busy CPU seconds ([`busy_s`]).
    pub busy_s: f64,
    /// Summed machine counters from every job, via the fleet fold.
    pub total: MetricsSnapshot,
}

impl Row for FleetThroughput {
    fn shards(&self) -> usize {
        self.shards
    }

    fn wall_rate(&self) -> f64 {
        self.insns as f64 / self.wall_s
    }

    fn agg_rate(&self) -> f64 {
        self.shards as f64 * self.insns as f64 / self.busy_s
    }
}

/// Runs the fixed job set (`jobs` jobs of `steps` instructions each,
/// round-robin over [`workloads`]) on a fleet of `shards` workers in the
/// production configuration (micro-op traces + superblocks + fetch
/// accelerator — the same engines the service node runs, so the
/// service-vs-fleet ratio isolates the request layer).
pub fn measure_fleet(shards: usize, steps: u64, jobs: u64) -> FleetThroughput {
    let wl = workloads();
    let r = komodo_fleet::run(FleetConfig::default().with_shards(shards), |fleet| {
        for j in 0..jobs {
            let code = wl[(j as usize) % wl.len()].1.clone();
            fleet.submit(move |ctx| {
                let mut m = guest(&code);
                m.set_fetch_accel(true);
                m.set_superblocks(true);
                m.set_uop_traces(true);
                let exit = m.run_user(steps).expect("workload violated model contract");
                assert_eq!(exit, ExitReason::StepLimit, "workloads must run to budget");
                ctx.absorb(&m.metrics_snapshot());
            });
        }
    });
    FleetThroughput {
        shards,
        insns: steps * jobs,
        wall_s: r.wall.as_secs_f64(),
        busy_s: busy_s(r.busy_ns(), r.wall),
        total: r.metrics.total(),
    }
}

/// The shard-scaling sweep: measures the identical job set at every
/// count in `shard_counts` and asserts the folded metric totals are
/// bit-for-bit equal across rows (the fleet determinism contract).
pub fn fleet_throughput(steps: u64, jobs: u64, shard_counts: &[usize]) -> Vec<FleetThroughput> {
    let rows: Vec<FleetThroughput> = shard_counts
        .iter()
        .map(|&s| measure_fleet(s, steps, jobs))
        .collect();
    for r in rows.iter().skip(1) {
        assert_eq!(
            r.total, rows[0].total,
            "shard count changed the folded metric totals ({} vs {} shards)",
            r.shards, rows[0].shards
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::speedup;

    #[test]
    fn sweep_measures_and_totals_are_shard_independent() {
        let s = fleet_throughput(1_000, 4, &[2, 1]);
        assert_eq!(s.len(), 2);
        for r in &s {
            assert_eq!(r.insns, 4_000);
            assert!(r.wall_s > 0.0);
            assert!(r.busy_s > 0.0);
            assert!(r.total.cycles > 0, "jobs must fold machine counters");
        }
        // fleet_throughput asserted total equality internally; re-check
        // the visible invariant here.
        assert_eq!(s[0].total, s[1].total);
        assert_eq!(speedup(&s, 1, FleetThroughput::agg_rate), Some(1.0));
    }

    #[test]
    fn rates_are_per_wall_and_per_busy_second() {
        let r = FleetThroughput {
            shards: 4,
            insns: 4000,
            wall_s: 0.5,
            busy_s: 4.0,
            total: MetricsSnapshot::default(),
        };
        assert_eq!(r.wall_rate(), 8000.0);
        assert_eq!(r.agg_rate(), 4000.0);
    }
}
