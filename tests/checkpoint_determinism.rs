//! Checkpoint fast-forward must be invisible to fault injection: for every
//! suite program, an injection run that restores the golden checkpoint
//! preceding its target kernel instance must produce the same classified
//! `Outcome`, the same `InjectionDetail` (same architectural event), and
//! bit-identical program output as a run that re-simulates the full prefix.

use gpu_runtime::{run_program, run_program_fast_forward, RuntimeConfig};
use nvbitfi::{
    classify, golden_run_recording, profile_program, select_transient, BitFlipModel,
    CampaignConfig, InstrGroup, ProfilingMode, TransientInjector,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use workloads::Scale;

#[test]
fn checkpoint_restored_runs_match_full_reexecution_on_every_workload() {
    for entry in workloads::suite(Scale::Test) {
        let cfg = RuntimeConfig::default();
        let (golden, store) =
            golden_run_recording(entry.program.as_ref(), cfg.clone()).expect(entry.name);
        let store = store.into_shared();
        let profile = profile_program(entry.program.as_ref(), cfg.clone(), ProfilingMode::Exact)
            .expect(entry.name);

        let mut run_cfg = cfg;
        run_cfg.instr_budget = Some(golden.suggested_budget());
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);

        // A couple of sites per program keeps the sweep cheap while still
        // exercising different target instances (and hence different
        // checkpoint indices).
        for _ in 0..2 {
            let params =
                select_transient(&profile, InstrGroup::GpPr, BitFlipModel::FlipSingleBit, &mut rng)
                    .expect(entry.name);
            let upto = store
                .find_instance(&params.kernel_name, params.kernel_count)
                .unwrap_or(store.len() as u64);

            let (tool, full_handle) = TransientInjector::new(params.clone());
            let full = run_program(entry.program.as_ref(), run_cfg.clone(), Some(Box::new(tool)));

            // Bounded at the target, and open: either way the replay stops
            // at the first launch the injector instruments.
            for bound in [upto, store.len() as u64] {
                let (tool, ff_handle) = TransientInjector::new(params.clone());
                let ff = run_program_fast_forward(
                    entry.program.as_ref(),
                    run_cfg.clone(),
                    Some(Box::new(tool)),
                    Arc::clone(&store),
                    bound,
                );

                let ctx = format!("{} site {params} bound {bound}", entry.name);
                assert_eq!(ff.stdout, full.stdout, "{ctx}");
                assert_eq!(ff.files, full.files, "{ctx}");
                assert_eq!(ff.termination, full.termination, "{ctx}");
                assert_eq!(ff.anomalies.len(), full.anomalies.len(), "{ctx}");
                assert_eq!(ff_handle.get(), full_handle.get(), "{ctx}: architectural event");
                assert_eq!(
                    classify(&golden, &ff, entry.check.as_ref()),
                    classify(&golden, &full, entry.check.as_ref()),
                    "{ctx}: classified outcome"
                );
                assert_eq!(
                    ff.prefix_instrs_skipped,
                    store.instrs_before(upto),
                    "{ctx}: skipped exactly the recorded prefix"
                );
            }
        }
    }
}

#[test]
fn campaign_outcome_counts_match_with_and_without_checkpoints() {
    // The acceptance check's correctness half: same seed, same workload,
    // identical OutcomeCounts whether or not injection runs fast-forward.
    let entry = workloads::find(Scale::Test, "303.ostencil").expect("suite entry");
    let base = CampaignConfig {
        injections: 20,
        seed: 0xFA57,
        workers: 4,
        profiling: ProfilingMode::Exact,
        ..CampaignConfig::default()
    };
    let with = nvbitfi::run_transient_campaign(
        entry.program.as_ref(),
        entry.check.as_ref(),
        &CampaignConfig { use_checkpoints: true, ..base.clone() },
    )
    .expect("checkpointed campaign");
    let without = nvbitfi::run_transient_campaign(
        entry.program.as_ref(),
        entry.check.as_ref(),
        &CampaignConfig { use_checkpoints: false, ..base },
    )
    .expect("full-replay campaign");

    assert_eq!(with.counts, without.counts);
    for (a, b) in with.runs.iter().zip(&without.runs) {
        assert_eq!(a.params, b.params, "selection order preserved");
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.injected, b.injected);
        assert_eq!(b.prefix_instrs_skipped, 0, "--no-checkpoint replays everything");
    }
    assert!(
        with.runs.iter().map(|r| r.prefix_instrs_skipped).sum::<u64>() > 0,
        "checkpointed campaign skipped some prefix work"
    );
}
