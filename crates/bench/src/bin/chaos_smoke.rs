//! Chaos campaign smoke: the fault-injection harness at scale, gated.
//!
//! Three checks, each printing a grep-able verdict line for CI:
//!
//! 1. **Scale + oracles.** A seeded campaign (10k cases by default, 1k
//!    under `KOMODO_BENCH_QUICK=1`) fans across 4 fleet shards; every
//!    case must pass both the noninterference and the refinement
//!    oracle against the correct monitor.
//! 2. **Determinism.** The identical campaign re-runs single-sharded;
//!    the two verdict digests must match bit-for-bit — case outcomes
//!    depend only on `(master seed, case index)`, never on scheduling.
//! 3. **Oracle validation.** The same campaign against a monitor with a
//!    deliberately planted register-scrub bug must *fail*; the first
//!    failing case is then delta-debugged to a minimal schedule, which
//!    must still fail when re-run from scratch.

use komodo::Platform;
use komodo_bench::chaos::{campaign_at, default_campaign, CHAOS_SEED};
use komodo_bench::report::quick;
use komodo_chaos::schedule::CaseSpec;
use komodo_chaos::{run_case_spec, shrink_case, CampaignConfig, ChaosConfig};
use komodo_monitor::PlantedBugs;

fn main() {
    let quick = quick();
    let cases: u64 = if quick { 1_000 } else { 10_000 };

    // (1) Scale: the full campaign on 4 shards.
    println!("chaos campaign: {cases} cases, master seed {CHAOS_SEED:#x}, 4 shards");
    let wide = default_campaign(cases, 4);
    println!(
        "  {} passed / {} cases, {} faults injected over {} slots, {:.0} cases/s",
        wide.passed,
        wide.cases,
        wide.injected.iter().sum::<u64>(),
        wide.slots,
        wide.cases_per_sec()
    );
    println!("  fault mix: {}", wide.fault_mix_line());
    for f in &wide.failures {
        println!(
            "  FAILURE case {} seed {:#x}: {}",
            f.index,
            f.seed,
            f.verdict.name()
        );
    }
    assert!(
        wide.all_green(),
        "oracle violations against correct monitor"
    );
    println!("chaos smoke ok: {} cases, 0 oracle violations", wide.cases);

    // (2) Determinism: same campaign, one shard, digest must match.
    let narrow = campaign_at(CHAOS_SEED, cases, 1);
    assert_eq!(
        wide.verdict_digest, narrow.verdict_digest,
        "verdict digest changed with shard count"
    );
    assert_eq!(wide.passed, narrow.passed);
    assert_eq!(wide.injected, narrow.injected);
    println!(
        "chaos determinism ok: digest {}.. identical at 1 and 4 shards",
        &wide.verdict_digest[..16]
    );

    // (3) Oracle validation: a planted bug must be caught and shrunk.
    let buggy = ChaosConfig {
        planted: PlantedBugs {
            leak_regs_on_interrupt: true,
            ..PlantedBugs::default()
        },
        ..ChaosConfig::default()
    };
    let report = komodo_chaos::run_campaign(&CampaignConfig {
        master_seed: CHAOS_SEED,
        cases: if quick { 200 } else { 1_000 },
        shards: 4,
        chaos: buggy.clone(),
        ..CampaignConfig::default()
    });
    assert!(
        !report.all_green(),
        "planted register-scrub bug escaped a {}-case campaign",
        report.cases
    );
    let first = &report.failures[0];
    println!(
        "chaos planted-bug: case {} seed {:#x} failed ({}) out of {} cases",
        first.index,
        first.seed,
        first.verdict.name(),
        report.cases
    );

    let case = CaseSpec::generate(first.seed);
    let mut p = Platform::with_config(buggy.platform.clone());
    let shrunk = shrink_case(&mut p, &buggy, &case).expect("failing case must shrink");
    println!(
        "  shrunk {} -> {} faults in {} probes",
        case.faults.len(),
        shrunk.minimal.faults.len(),
        shrunk.probes
    );
    print!("{}", shrunk.minimal);
    // The minimal schedule reproduces from scratch.
    let again = run_case_spec(&mut p, &buggy, &shrunk.minimal);
    assert_eq!(again.verdict.code(), shrunk.report.verdict.code());
    assert!(again.verdict.is_failure());
    println!(
        "chaos shrink ok: minimal schedule has {} faults and reproduces ({})",
        shrunk.minimal.faults.len(),
        again.verdict.name()
    );
}
