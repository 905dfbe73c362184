//! Chaos-campaign harness at the bench's standard knobs.
//!
//! The campaign itself lives in [`komodo_chaos::campaign`]; this module
//! fixes the master seed and the recycle policy, so the gated run and
//! the `chaos_smoke` binary replay the same reproducible cases.

use komodo_chaos::{run_campaign, CampaignConfig, CampaignReport};
use komodo_fleet::Recycle;

/// Master seed for the standard bench campaign — fixed so the committed
/// verdict digest is reproducible on any host.
pub const CHAOS_SEED: u64 = 0xc4a0_5eed;

/// Runs the standard campaign: `cases` seeded fault-injection cases
/// fanned across `shards` fleet shards under the default chaos config.
pub fn default_campaign(cases: u64, shards: usize) -> CampaignReport {
    campaign_at(CHAOS_SEED, cases, shards)
}

/// [`default_campaign`] with an explicit master seed (determinism
/// cross-checks re-run the same campaign at other shard counts).
pub fn campaign_at(master_seed: u64, cases: u64, shards: usize) -> CampaignReport {
    run_campaign(&CampaignConfig {
        master_seed,
        cases,
        shards,
        recycle: Recycle::Reboot,
        ..CampaignConfig::default()
    })
}
