//! Host wall-time throughput of the simulator hot path across the four
//! stepping configurations — micro-op traces, superblocks, fetch
//! accelerator only, baseline (see `komodo_armv7::dcache`,
//! `komodo_armv7::uop` and `komodo_bench::throughput`).
//!
//! Run with `cargo bench -p komodo-bench --bench sim_throughput`; set
//! `KOMODO_BENCH_QUICK=1` for shorter runs. The gated figures (tier
//! ratios, machine equality, scaling, trace overhead) come from the
//! `evolution` binary's one gated run, not from here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use komodo_bench::report::quick;
use komodo_bench::throughput::{guest, workloads};

fn sim_throughput(c: &mut Criterion) {
    let steps: u64 = if quick() { 5_000 } else { 50_000 };
    let mut g = c.benchmark_group("sim_throughput");
    for (name, code) in workloads() {
        for (label, accel, superblocks, uops) in [
            ("uop", true, true, true),
            ("superblock", true, true, false),
            ("accel", true, false, false),
            ("base", false, false, false),
        ] {
            g.bench_with_input(BenchmarkId::new(name, label), &code, |b, code| {
                b.iter(|| {
                    let mut m = guest(code);
                    m.set_fetch_accel(accel);
                    m.set_superblocks(superblocks);
                    m.set_uop_traces(uops);
                    m.run_user(steps).unwrap()
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, sim_throughput);
criterion_main!(benches);
