//! Checkpoint/fast-forward engine benchmarks: memory snapshot cost, single
//! injection runs with and without prefix fast-forwarding, and whole
//! campaigns with checkpoints on vs. `--no-checkpoint`. Writes the
//! measurements to `BENCH_checkpoint.json` for EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_isa::{encode, Module};
use gpu_runtime::{
    run_program, run_program_fast_forward, Program, Runtime, RuntimeConfig, RuntimeError,
};
use gpu_sim::GlobalMem;
use nvbitfi::{
    golden_run_recording, profile_program, select_transient, BitFlipModel, CampaignConfig,
    InstrGroup, ProfilingMode, TransientInjector, TransientParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use workloads::Scale;

/// A snapshot copies every allocated byte, so its cost grows linearly with
/// the allocation (4 KiB per page here) and not with device capacity.
fn bench_snapshot(c: &mut Criterion) {
    let mut g = c.benchmark_group("snapshot");
    for pages in [1u32, 64, 1024] {
        let mut mem = GlobalMem::new(64 << 20);
        mem.alloc(pages * 4096).expect("alloc");
        g.throughput(Throughput::Elements(u64::from(pages)));
        g.bench_function(format!("{pages}_pages_allocated"), |b| b.iter(|| mem.snapshot()));
    }
    g.finish();
}

/// One fault site in the last dynamic kernel of a ≥4-launch workload:
/// fast-forward replays the whole prefix from checkpoints, full replay
/// re-simulates it.
fn last_instance_site(profile: &nvbitfi::Profile) -> TransientParams {
    let last = profile.kernels.last().expect("kernels");
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    loop {
        let p = select_transient(profile, InstrGroup::GpPr, BitFlipModel::FlipSingleBit, &mut rng)
            .expect("site");
        if p.kernel_name == last.kernel && p.kernel_count == last.instance {
            return p;
        }
    }
}

fn bench_injection_run(c: &mut Criterion) {
    let entry = workloads::find(Scale::Test, "303.ostencil").expect("entry");
    let cfg = RuntimeConfig::default();
    let (golden, store) =
        golden_run_recording(entry.program.as_ref(), cfg.clone()).expect("golden");
    assert!(store.len() >= 4, "acceptance requires a >=4-launch workload");
    let profile = profile_program(entry.program.as_ref(), cfg.clone(), ProfilingMode::Exact)
        .expect("profile");
    let params = last_instance_site(&profile);
    let upto = store.find_instance(&params.kernel_name, params.kernel_count).expect("target ran");
    let store = Arc::new(store);
    let mut run_cfg = cfg;
    run_cfg.instr_budget = Some(golden.suggested_budget());

    let mut g = c.benchmark_group("injection_run_last_instance");
    g.bench_function("full_replay", |b| {
        b.iter(|| {
            let (tool, _h) = TransientInjector::new(params.clone());
            run_program(entry.program.as_ref(), run_cfg.clone(), Some(Box::new(tool)))
        })
    });
    g.bench_function("fast_forward", |b| {
        b.iter(|| {
            let (tool, _h) = TransientInjector::new(params.clone());
            run_program_fast_forward(
                entry.program.as_ref(),
                run_cfg.clone(),
                Some(Box::new(tool)),
                Arc::clone(&store),
                upto,
            )
        })
    });
    g.finish();
}

/// Sites drawn uniformly over all dynamic instructions (the paper's default
/// G_GPPR campaign): the expected skippable prefix is ~half the run.
fn bench_campaign_uniform_sites(c: &mut Criterion) {
    let entry = workloads::find(Scale::Test, "303.ostencil").expect("entry");
    let base = CampaignConfig {
        injections: 20,
        seed: 0x5EED,
        workers: 1, // serial: measure simulation work, not scheduling
        profiling: ProfilingMode::Exact,
        ..CampaignConfig::default()
    };
    let mut g = c.benchmark_group("campaign_uniform_sites_20_injections");
    g.bench_function("checkpointed", |b| {
        let cfg = CampaignConfig { use_checkpoints: true, ..base.clone() };
        b.iter(|| {
            nvbitfi::run_transient_campaign(entry.program.as_ref(), entry.check.as_ref(), &cfg)
                .expect("campaign")
        })
    });
    g.bench_function("no_checkpoint", |b| {
        let cfg = CampaignConfig { use_checkpoints: false, ..base.clone() };
        b.iter(|| {
            nvbitfi::run_transient_campaign(entry.program.as_ref(), entry.check.as_ref(), &cfg)
                .expect("campaign")
        })
    });
    g.finish();
}

/// Eight integer-heavy scramble launches followed by one FP64 daxpy — the
/// "heavy prefix, late target" shape where checkpointing pays most. A
/// G_FP64 campaign can only select sites in the final launch, so every
/// injection run fast-forwards the whole scramble phase.
struct LateTarget;

impl LateTarget {
    const N: u32 = 1024;
    const PREFIX_LAUNCHES: u32 = 8;
}

impl Program for LateTarget {
    fn name(&self) -> &str {
        "bench.late_target"
    }

    fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
        let n = Self::N;
        let bytes = encode::encode_module(&Module::new(
            "late_target",
            vec![
                workloads::kernels::lcg_scramble("scramble"),
                workloads::kernels::daxpy_f64("daxpy"),
            ],
        ));
        let m = rt.load_module(&bytes)?;
        let scramble = rt.get_kernel(m, "scramble")?;
        let daxpy = rt.get_kernel(m, "daxpy")?;

        let data = rt.alloc(n * 4)?;
        rt.write_u32s(data, &(0..n).collect::<Vec<u32>>())?;
        for _ in 0..Self::PREFIX_LAUNCHES {
            rt.launch(scramble, n / 64, 64u32, &[data.addr(), n, 32u32])?;
        }

        let y = rt.alloc(n * 8)?;
        let x = rt.alloc(n * 8)?;
        rt.write_f64s(y, &vec![1.0; n as usize])?;
        rt.write_f64s(x, &vec![0.5; n as usize])?;
        let a = 3.0f64.to_bits();
        rt.launch(daxpy, n / 64, 64u32, &[y.addr(), x.addr(), a as u32, (a >> 32) as u32, n])?;
        rt.synchronize()?;

        let mixed = rt.read_u32s(data, n as usize)?.iter().fold(0u32, |acc, v| acc ^ v);
        let sum: f64 = rt.read_f64s(y, n as usize)?.iter().sum();
        rt.println(format!("mix {mixed:08x} sum {sum:.6}"));
        Ok(())
    }
}

/// The acceptance shape: a ≥4-launch workload where the checkpointed
/// campaign must be ≥3× faster than `--no-checkpoint` with identical
/// outcome counts. Verifies the counts once, then measures both modes.
fn bench_campaign_late_sites(c: &mut Criterion) {
    let base = CampaignConfig {
        injections: 10,
        seed: 0x5EED,
        group: InstrGroup::Fp64,
        workers: 1,
        profiling: ProfilingMode::Exact,
        ..CampaignConfig::default()
    };
    let check = nvbitfi::ExactDiff;
    let with = nvbitfi::run_transient_campaign(
        &LateTarget,
        &check,
        &CampaignConfig { use_checkpoints: true, ..base.clone() },
    )
    .expect("checkpointed campaign");
    let without = nvbitfi::run_transient_campaign(
        &LateTarget,
        &check,
        &CampaignConfig { use_checkpoints: false, ..base.clone() },
    )
    .expect("full-replay campaign");
    assert_eq!(with.counts, without.counts, "same seed, same outcome tally");
    println!("late-site outcome counts (both modes): {}", with.counts);

    let mut g = c.benchmark_group("campaign_late_sites_10_injections");
    g.bench_function("checkpointed", |b| {
        let cfg = CampaignConfig { use_checkpoints: true, ..base.clone() };
        b.iter(|| nvbitfi::run_transient_campaign(&LateTarget, &check, &cfg).expect("campaign"))
    });
    g.bench_function("no_checkpoint", |b| {
        let cfg = CampaignConfig { use_checkpoints: false, ..base.clone() };
        b.iter(|| nvbitfi::run_transient_campaign(&LateTarget, &check, &cfg).expect("campaign"))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .json_output(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_checkpoint.json"));
    targets = bench_snapshot, bench_injection_run, bench_campaign_uniform_sites,
        bench_campaign_late_sites
}
criterion_main!(benches);
