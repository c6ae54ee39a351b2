//! Workspace-level integration tests: the full Figure 1 pipeline across
//! every crate — ISA → simulator → runtime → NVBit layer → NVBitFI
//! campaigns — on real suite programs.

use nvbitfi::{
    run_permanent_campaign, run_transient_campaign, CampaignConfig, InfraKind, OutcomeClass,
    PermanentCampaignConfig, ProfilingMode,
};
use workloads::Scale;

fn small_campaign(profiling: ProfilingMode, injections: usize, seed: u64) -> CampaignConfig {
    CampaignConfig { injections, profiling, seed, workers: 2, ..CampaignConfig::default() }
}

#[test]
fn transient_campaign_end_to_end_ostencil() {
    let program = workloads::ostencil::Ostencil { scale: Scale::Test };
    let check = workloads::ostencil::Ostencil::check();
    let result =
        run_transient_campaign(&program, &check, &small_campaign(ProfilingMode::Exact, 25, 1))
            .expect("campaign");
    // Every injection classified, exactly once.
    assert_eq!(result.counts.total(), 25);
    assert_eq!(result.runs.len(), 25);
    // With exact profiling every selected site exists, so every fault fires.
    assert!(result.runs.iter().all(|r| r.injected), "exact profile sites must be reachable");
    // The profile matches the program's Table IV shape.
    assert_eq!(result.profile.kernels.len(), 11); // 2*5 stencil + 1 copy at Test scale
    assert!(result.profile.total() > 0);
    // Timing was recorded for the overhead figures.
    assert!(result.timing.profiling > std::time::Duration::ZERO);
}

#[test]
fn transient_campaign_covers_multiple_outcome_classes() {
    // With pointer-heavy G_GP injections on a checking program, a moderate
    // campaign reliably produces both masked and non-masked outcomes.
    let program = workloads::ostencil::Ostencil { scale: Scale::Test };
    let check = workloads::ostencil::Ostencil::check();
    let result =
        run_transient_campaign(&program, &check, &small_campaign(ProfilingMode::Exact, 60, 2))
            .expect("campaign");
    let c = &result.counts;
    assert!(c.masked > 0, "some faults must mask: {c}");
    assert!(c.sdc + c.due() > 0, "some faults must propagate: {c}");
}

#[test]
fn approximate_profiling_may_miss_sites_but_still_classifies() {
    // cg's reduction tree makes instance workloads differ; approximate
    // profiling extrapolates from the first instance, so some selected
    // sites may never be reached. Those runs must still classify (Masked).
    let program = workloads::cg::Cg { scale: Scale::Test };
    let check = workloads::cg::Cg::check();
    let result = run_transient_campaign(
        &program,
        &check,
        &small_campaign(ProfilingMode::Approximate, 40, 3),
    )
    .expect("campaign");
    assert_eq!(result.counts.total(), 40);
    let unfired = result.runs.iter().filter(|r| !r.injected).count();
    // Not asserting unfired > 0 (seed-dependent), but unfired runs must be
    // masked: no injection, no corruption.
    for run in result.runs.iter().filter(|r| !r.injected) {
        assert!(run.outcome.is_masked(), "unfired injection classified {}", run.outcome);
    }
    // The approximate profile believes all instances of a static kernel
    // look like the first one.
    let p = &result.profile;
    let mut by_name: std::collections::HashMap<&str, Vec<u64>> = Default::default();
    for k in &p.kernels {
        by_name.entry(k.kernel.as_str()).or_default().push(k.total());
    }
    for (name, totals) in by_name {
        assert!(
            totals.iter().all(|t| *t == totals[0]),
            "approximate profile must replicate first-instance counts for {name}"
        );
    }
    let _ = unfired;
}

#[test]
fn permanent_campaign_end_to_end_md() {
    let program = workloads::md::Md { scale: Scale::Test };
    let check = workloads::md::Md::check();
    let cfg = PermanentCampaignConfig { seed: 4, workers: 2, ..Default::default() };
    let result = run_permanent_campaign(&program, &check, &cfg).expect("campaign");
    // One experiment per executed opcode, pruned by the profile (§IV-C).
    let executed = result.profile.executed_opcodes();
    assert_eq!(result.runs.len(), executed.len());
    assert!(
        (10..=50).contains(&executed.len()),
        "executed-opcode count should be in the paper's ballpark (16-41): {}",
        executed.len()
    );
    // Weighted fractions form a distribution.
    let w = result.weighted;
    assert!((w.sdc + w.due + w.masked - 1.0).abs() < 1e-9, "{w:?}");
    // FP64 opcodes are in the mix for md.
    assert!(executed.iter().any(|o| o.mnemonic() == "DFMA"), "md is FP64-heavy");
}

#[test]
fn permanent_deadline_overruns_retry_then_record_infra_errors() {
    // An already-expired deadline fails every attempt of every simulated
    // experiment: each spends its retry and settles as
    // InfraError(Deadline), and infra weight leaves the weighted
    // denominator entirely. An experiment that cannot activate is answered
    // from golden before any attempt, so no deadline touches it.
    let program = workloads::md::Md { scale: Scale::Test };
    let check = workloads::md::Md::check();
    let cfg = PermanentCampaignConfig {
        seed: 4,
        workers: 2,
        max_retries: 1,
        retry_backoff: std::time::Duration::ZERO,
        run_deadline: Some(std::time::Duration::ZERO),
        ..Default::default()
    };
    let result = run_permanent_campaign(&program, &check, &cfg).expect("campaign survives");
    let simulated = result.runs.len() - result.answered();
    assert!(simulated > 0, "some experiment must reach the deadline");
    for run in &result.runs {
        if run.simulated {
            assert_eq!(run.outcome.class, OutcomeClass::InfraError(InfraKind::Deadline));
            assert_eq!(run.attempts, 2, "max_retries = 1 means two attempts");
        } else {
            assert!(run.outcome.is_masked(), "{run:?}");
            assert_eq!(run.attempts, 0, "answered from golden, never attempted");
        }
    }
    assert_eq!(result.counts.infra as usize, simulated);
    // Only the answered experiments' weight is left, all of it Masked.
    let w = result.weighted;
    assert_eq!((w.sdc, w.due), (0.0, 0.0));
    let masked = if result.answered() > 0 { 1.0 } else { 0.0 };
    assert!((w.masked - masked).abs() < 1e-12, "{w:?}");
}

#[test]
fn unweighted_and_weighted_permanent_outcomes_differ_in_general() {
    // Weighting by dynamic count is the whole point of Figure 3's
    // aggregation; check the machinery produces sane numbers on ep.
    let program = workloads::ep::Ep { scale: Scale::Test };
    let check = workloads::ep::Ep::check();
    let cfg = PermanentCampaignConfig { seed: 5, workers: 2, ..Default::default() };
    let result = run_permanent_campaign(&program, &check, &cfg).expect("campaign");
    assert_eq!(result.counts.total() as usize, result.runs.len());
    let total_weight: u64 = result.runs.iter().map(|r| r.weight).sum();
    assert!(total_weight > 0);
    // Every run's weight equals its opcode's profile total.
    for run in &result.runs {
        assert_eq!(run.weight, result.profile.opcode_total(run.params.opcode()));
    }
}

#[test]
fn campaign_over_whole_suite_smoke() {
    // Tiny campaign across all 15 programs: everything loads, profiles,
    // injects, and classifies without errors.
    for entry in workloads::suite(Scale::Test) {
        let result = run_transient_campaign(
            entry.program.as_ref(),
            entry.check.as_ref(),
            &small_campaign(ProfilingMode::Approximate, 4, 6),
        )
        .unwrap_or_else(|e| panic!("campaign failed for {}: {e}", entry.name));
        assert_eq!(result.counts.total(), 4, "{}", entry.name);
    }
}

#[test]
fn profiler_counts_match_simulator_counts() {
    // The profiler's total must equal the simulator's own thread-level
    // dynamic-instruction statistic for the same run — two independent
    // counting paths (tool callbacks vs scheduler counters) agreeing.
    use gpu_runtime::{run_program, RuntimeConfig};
    for entry in workloads::suite(Scale::Test).into_iter().take(6) {
        let out = run_program(entry.program.as_ref(), RuntimeConfig::default(), None);
        assert!(out.termination.is_clean(), "{}", entry.name);
        let profile = nvbitfi::profile_program(
            entry.program.as_ref(),
            RuntimeConfig::default(),
            ProfilingMode::Exact,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert_eq!(
            profile.total(),
            out.summary.dyn_instrs,
            "{}: profiler vs scheduler disagree",
            entry.name
        );
        // One profile line per dynamic kernel launch.
        assert_eq!(profile.kernels.len(), out.summary.launches.len(), "{}", entry.name);
    }
}
