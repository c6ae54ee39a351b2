//! Simulator-core benchmark: one uninstrumented golden run of each of the
//! 15 paper-scale suite programs — block setup, warp stepping and lane
//! execution with no instrumentation, checkpoints or classification on top.
//! Each measurement carries the run's thread-level dynamic instructions as
//! its throughput denominator, so `throughput_elements / median_ns` is the
//! simulator's instruction rate. Writes `BENCH_sim_core.json` for
//! EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_runtime::{run_program, RuntimeConfig};
use workloads::Scale;

fn bench_golden_runs(c: &mut Criterion) {
    let mut g = c.benchmark_group("golden_run");
    for entry in workloads::suite(Scale::Paper) {
        let out = run_program(entry.program.as_ref(), RuntimeConfig::default(), None);
        assert!(out.termination.is_clean(), "{}: golden run failed", entry.name);
        let launches = &out.summary.launches;
        let blocks: u64 = launches.iter().map(|l| l.stats.blocks).sum();
        println!(
            "{}: {} launches, {blocks} blocks, {} thread instructions",
            entry.name,
            launches.len(),
            out.summary.dyn_instrs
        );
        g.throughput(Throughput::Elements(out.summary.dyn_instrs));
        g.bench_function(entry.name, |b| {
            b.iter(|| run_program(entry.program.as_ref(), RuntimeConfig::default(), None))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .json_output(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_sim_core.json"));
    targets = bench_golden_runs
}
criterion_main!(benches);
