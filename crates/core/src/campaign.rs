//! Campaign orchestration — Figure 1 end to end, many times over.
//!
//! A transient campaign runs: golden run → profile → select N faults →
//! N injection runs → classify each against golden. A permanent campaign
//! runs one experiment per *executed* opcode (the profile prunes unused
//! opcodes, as §IV-C describes) and weights outcomes by each opcode's
//! dynamic instruction share (Figure 3).
//!
//! Injection runs are independent processes in the paper; here they are
//! independent simulator instances, handed to the one campaign dispatcher
//! (`dispatch.rs`) that runs them in worker threads or worker processes.

use crate::bitflip::BitFlipModel;
use crate::dispatch::{attempt_here, dispatch, Attempt, Job, Plan, Settled};
use crate::error::FiError;
use crate::golden::{GoldenOutput, PreparedGolden};
use crate::igid::InstrGroup;
use crate::outcome::{InfraKind, Outcome, OutcomeClass, OutcomeCounts, SdcCheck};
use crate::params::{PermanentParams, TransientParams};
use crate::permanent::PermanentInjector;
use crate::pool::{self, IsolationMode, Worker};
use crate::profile::{profile_program, Profile, ProfilingMode};
use crate::prune::prune_dead_sites;
use crate::select::select_campaign;
use crate::transient::TransientInjector;
use gpu_runtime::{Program, RuntimeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a transient-fault campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base runtime configuration for every run.
    pub runtime: RuntimeConfig,
    /// Number of injections (the paper uses 100 per program; 1000 tightens
    /// the confidence interval, see [`crate::stats`]).
    pub injections: usize,
    /// Instruction group to inject.
    pub group: InstrGroup,
    /// Bit-flip model.
    pub bit_flip: BitFlipModel,
    /// Exact or approximate profiling.
    pub profiling: ProfilingMode,
    /// RNG seed for fault selection (campaigns are reproducible).
    pub seed: u64,
    /// Worker threads for injection runs.
    pub workers: usize,
    /// When `true` (the default), the golden run records launch-boundary
    /// checkpoints and every injection run fast-forwards its pre-injection
    /// prefix from them instead of re-simulating it. `false` reproduces the
    /// paper's full-replay cost (the `--no-checkpoint` escape hatch).
    pub use_checkpoints: bool,
    /// When `true` (the default), sites whose corrupted destination is
    /// provably dead at the injection point (per `gpu-analysis` liveness)
    /// are classified Masked without simulation. Sound by construction —
    /// see [`crate::prune`] — and disabled by `--no-static-prune`.
    pub use_static_prune: bool,
    /// Extra execution attempts granted to a run whose worker panicked or
    /// died, or whose wall-clock deadline expired, before the site is
    /// recorded as [`OutcomeClass::InfraError`]. `0` records the first
    /// failure.
    pub max_retries: u32,
    /// Pause between retry attempts, scaled linearly by the attempt number
    /// (deterministic backoff). `Duration::ZERO` retries immediately.
    pub retry_backoff: Duration,
    /// Per-run wall-clock deadline. A run that outlives it is killed by the
    /// simulator's deadline poll, retried per `max_retries`, and ultimately
    /// recorded as [`OutcomeClass::InfraError`] — the backstop against
    /// runaway runs the instruction budget cannot catch (e.g. host-side
    /// loops). `None` disables the deadline.
    pub run_deadline: Option<Duration>,
    /// Test-only fault injector for the harness itself: consulted once per
    /// execution attempt with `(site_index, attempt)`; returning `true`
    /// loses that attempt the way the isolation mode can lose one — thread
    /// mode panics the worker thread, process mode SIGKILLs the worker
    /// process right after dispatch. `None` (always, outside tests)
    /// disables it.
    pub fault_hook: Option<FaultHook>,
    /// How injection runs execute: in-process worker threads (the default)
    /// or supervised disposable worker processes — see [`IsolationMode`].
    pub isolation: IsolationMode,
}

/// A harness-fault injector for testing worker isolation: `(site_index,
/// attempt)` → `true` loses that execution attempt (see
/// [`CampaignConfig::fault_hook`]).
#[derive(Clone)]
pub struct FaultHook(pub Arc<dyn Fn(usize, u32) -> bool + Send + Sync>);

impl FaultHook {
    /// Wrap a predicate as a hook.
    pub fn new(f: impl Fn(usize, u32) -> bool + Send + Sync + 'static) -> FaultHook {
        FaultHook(Arc::new(f))
    }
}

impl std::fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FaultHook(..)")
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            runtime: RuntimeConfig::default(),
            injections: 100,
            group: InstrGroup::GpPr,
            bit_flip: BitFlipModel::FlipSingleBit,
            profiling: ProfilingMode::Exact,
            seed: 0x5EED,
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            use_checkpoints: true,
            use_static_prune: true,
            max_retries: 1,
            retry_backoff: Duration::from_millis(50),
            run_deadline: None,
            fault_hook: None,
            isolation: IsolationMode::Thread,
        }
    }
}

/// One classified injection run.
#[derive(Debug, Clone)]
pub struct InjectionRun {
    /// The fault parameters.
    pub params: TransientParams,
    /// The classified outcome.
    pub outcome: Outcome,
    /// `true` if the fault actually fired (with approximate profiling, a
    /// selected site may lie beyond the instance's real execution).
    pub injected: bool,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Dynamic instructions skipped by checkpoint fast-forwarding (0 when
    /// checkpoints are disabled).
    pub prefix_instrs_skipped: u64,
    /// `true` if the outcome came from static dead-fault pruning rather
    /// than a simulated run (always Masked, `wall` is zero).
    pub pruned: bool,
    /// Execution attempts this verdict took (`1` for a clean first run;
    /// `> 1` means the worker panicked or overran its deadline and was
    /// retried).
    pub attempts: u32,
    /// `true` if this run's verdict was reloaded from a prior campaign's
    /// journal by `resume` rather than executed in this campaign.
    pub resumed: bool,
}

/// Wall-clock accounting for overhead analysis (Figures 4 and 5).
#[derive(Debug, Clone, Default)]
pub struct CampaignTiming {
    /// Duration of the uninstrumented golden run.
    pub golden: Duration,
    /// Duration of the profiling run.
    pub profiling: Duration,
    /// Duration of the static-analysis pass (site resolution plus
    /// liveness), zero when pruning is disabled.
    pub analysis: Duration,
    /// Durations of the individual injection runs.
    pub injections: Vec<Duration>,
    /// Total dynamic instructions the injection runs skipped by
    /// fast-forwarding pre-injection prefixes from checkpoints.
    pub prefix_instrs_skipped: u64,
}

impl CampaignTiming {
    /// Median injection-run duration (the statistic Figure 4 reports).
    pub fn median_injection(&self) -> Duration {
        if self.injections.is_empty() {
            return Duration::ZERO;
        }
        let mut v = self.injections.clone();
        v.sort();
        v[v.len() / 2]
    }

    /// Total campaign time: profiling, static analysis, and all
    /// injections (Figure 5).
    pub fn total(&self) -> Duration {
        self.profiling + self.analysis + self.injections.iter().sum::<Duration>()
    }
}

/// Result of a transient campaign.
#[derive(Debug)]
pub struct TransientCampaign {
    /// Program name.
    pub program: String,
    /// The profile used for site selection.
    pub profile: Profile,
    /// Golden reference.
    pub golden: GoldenOutput,
    /// Aggregate outcome tally.
    pub counts: OutcomeCounts,
    /// Per-injection details, in selection order. After an interrupted
    /// campaign this holds only the sites that completed.
    pub runs: Vec<InjectionRun>,
    /// Timing for overhead analysis.
    pub timing: CampaignTiming,
    /// `true` if the campaign stopped early ([`CampaignHooks::should_stop`])
    /// with sites still unclassified; `counts` and `runs` cover only the
    /// completed portion.
    pub interrupted: bool,
}

impl TransientCampaign {
    /// Number of sites classified by static dead-fault pruning instead of
    /// simulation.
    pub fn statically_pruned(&self) -> usize {
        self.runs.iter().filter(|r| r.pruned).count()
    }

    /// Number of verdicts reloaded from a prior journal by `resume`.
    pub fn resumed_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.resumed).count()
    }

    /// Number of runs that needed more than one execution attempt.
    pub fn retried_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.attempts > 1).count()
    }

    /// Number of sites whose verdict is [`InfraKind::WorkerDied`] — a
    /// process-isolated worker vanished mid-run and the retry budget ran
    /// out (always 0 under thread isolation).
    pub fn worker_deaths(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.outcome.class == OutcomeClass::InfraError(InfraKind::WorkerDied))
            .count()
    }
}

/// Observation points a caller can attach to a running campaign.
///
/// Methods are invoked from worker threads, so implementations must be
/// `Sync` and use interior mutability.
pub trait CampaignHooks: Sync {
    /// Called once per completed run, as it completes (dispatch order, not
    /// selection order) — the durable journal's append point. Not called
    /// for verdicts reloaded from a prior journal.
    fn on_run(&self, run: &InjectionRun) {
        let _ = run;
    }

    /// Polled before each site is dispatched; returning `true` stops the
    /// campaign gracefully: in-flight runs finish (and reach
    /// [`CampaignHooks::on_run`]), undispatched sites are dropped, and the
    /// result is marked [`TransientCampaign::interrupted`].
    fn should_stop(&self) -> bool {
        false
    }
}

/// The no-op hooks [`run_transient_campaign`] uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl CampaignHooks for NoHooks {}

/// Resume matching: take each prior verdict's site out of `work` and return
/// the verdicts, marked resumed, with the selection index they fill. Sites
/// match by their parameter-file text — the same values a results-log row
/// serializes, so a reloaded row matches a reselected site iff their log
/// lines would be identical. Multiset semantics — duplicate selections
/// consume one prior row each, in journal order. Prior InfraError verdicts
/// are discarded so the harness's own failures get re-run.
fn reload_prior(
    work: &mut Vec<(usize, TransientParams, bool)>,
    prior: Vec<InjectionRun>,
) -> Vec<(usize, InjectionRun)> {
    let mut by_site: HashMap<String, Vec<InjectionRun>> = HashMap::new();
    for run in prior.into_iter().rev().filter(|r| !r.outcome.is_infra()) {
        by_site.entry(run.params.to_file()).or_default().push(run);
    }
    let mut reloaded = Vec::new();
    work.retain(|(i, params, _)| match by_site.get_mut(&params.to_file()).and_then(Vec::pop) {
        Some(mut run) => {
            run.resumed = true;
            reloaded.push((*i, run));
            false
        }
        None => true,
    });
    reloaded
}

/// One transient injection attempt in this thread — the run body every
/// execution path shares: campaign worker threads call it directly and
/// process-isolation workers ([`crate::worker::serve`]) call it per shipped
/// site. The detail is `(injected, prefix_instrs_skipped)`.
pub(crate) fn attempt_transient(
    golden: &PreparedGolden,
    program: &dyn Program,
    check: &dyn SdcCheck,
    params: &TransientParams,
    harness_fault: bool,
) -> Attempt<(bool, u64)> {
    attempt_here(harness_fault, || {
        let (tool, handle) = TransientInjector::new(params.clone());
        let upto = golden.target_launch(std::slice::from_ref(params));
        let (outcome, skipped) = golden.inject(program, check, Box::new(tool), upto);
        (outcome, (handle.get().injected, skipped))
    })
}

/// Run a complete transient-fault campaign on one program.
///
/// # Errors
///
/// Returns [`FiError`] if the golden or profiling run fails, or if the
/// selected instruction group has no dynamic instructions in the profile.
pub fn run_transient_campaign(
    program: &dyn Program,
    check: &dyn SdcCheck,
    cfg: &CampaignConfig,
) -> Result<TransientCampaign, FiError> {
    run_transient_campaign_with(program, check, cfg, Vec::new(), &NoHooks)
}

/// Run a transient campaign, resuming past any `prior` verdicts and
/// reporting progress through `hooks`.
///
/// `prior` rows (reloaded from a crashed campaign's journal via
/// [`crate::logfile::recover_results_log`] and [`crate::logfile::to_runs`])
/// are matched against the freshly-selected sites by parameter equality;
/// matched sites keep their recorded verdict (marked
/// [`InjectionRun::resumed`]) and are not re-executed. Prior
/// [`OutcomeClass::InfraError`] verdicts are *not* honored — the harness
/// failed those runs, so a resume gives them a fresh chance. Because
/// selection is seed-deterministic, resuming an interrupted campaign with
/// its original configuration completes exactly the missing sites and
/// reproduces the uninterrupted campaign's outcome counts.
///
/// # Errors
///
/// Returns [`FiError`] if the golden or profiling run fails, or if the
/// selected instruction group has no dynamic instructions in the profile.
pub fn run_transient_campaign_with(
    program: &dyn Program,
    check: &dyn SdcCheck,
    cfg: &CampaignConfig,
    prior: Vec<InjectionRun>,
    hooks: &dyn CampaignHooks,
) -> Result<TransientCampaign, FiError> {
    // Step 0: golden run (also calibrates the hang monitor). With
    // checkpoints enabled it additionally records the launch-boundary
    // state every injection run fast-forwards from.
    let t0 = Instant::now();
    let mut golden = PreparedGolden::new(program, cfg.runtime.clone(), cfg.use_checkpoints)?;
    let golden_wall = t0.elapsed();

    // Step 1: profile.
    let t0 = Instant::now();
    let profile = profile_program(program, golden.config.clone(), cfg.profiling)?;
    let profiling_wall = t0.elapsed();

    // Step 2: select fault sites. Selection consumes the RNG before any
    // pruning happens, so a seed picks the same sites with pruning on or
    // off — the two configurations differ only in how sites are resolved.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sites = select_campaign(&profile, cfg.group, cfg.bit_flip, cfg.injections, &mut rng)?;

    // Step 2b: static dead-fault pruning. One extra resolver run maps
    // each site to its static pc; sites whose corrupted destination is
    // dead there are provably Masked and skip simulation entirely.
    let t0 = Instant::now();
    let pruned_flags = if cfg.use_static_prune {
        prune_dead_sites(program, golden.config.clone(), cfg.group, &sites)
    } else {
        vec![false; sites.len()]
    };
    let analysis_wall = if cfg.use_static_prune { t0.elapsed() } else { Duration::ZERO };

    // Group sites by target launch: runs sharing a target restore the same
    // checkpoint, so the store's pages stay warm across consecutive work
    // items.
    let mut work: Vec<(usize, TransientParams, bool)> = sites
        .into_iter()
        .zip(pruned_flags)
        .enumerate()
        .map(|(i, (p, pruned))| (i, p, pruned))
        .collect();
    work.sort_by_cached_key(|(i, p, _)| (golden.target_launch(std::slice::from_ref(p)), *i));

    let reloaded = reload_prior(&mut work, prior);
    let jobs = work
        .into_iter()
        .map(|(i, params, pruned)| {
            if !pruned {
                return (i, Job::Run(params));
            }
            // The fault provably cannot propagate: the run is synthesized as
            // Masked and never reaches a worker.
            let run = InjectionRun {
                params,
                outcome: Outcome { class: OutcomeClass::Masked, potential_due: false },
                injected: true,
                wall: Duration::ZERO,
                prefix_instrs_skipped: 0,
                pruned: true,
                attempts: 1,
                resumed: false,
            };
            (i, Job::Known(run))
        })
        .collect();

    // The per-run deadline applies to injection runs only: the golden,
    // profiling, and resolver runs above are campaign prerequisites, not
    // experiments the harness may abandon.
    golden.config.wall_deadline = cfg.run_deadline;

    // Steps 3-4: inject and classify. Each site executes behind an
    // isolation boundary: a worker panic, a worker death, or a deadline
    // overrun costs (after `max_retries` further attempts) only that site's
    // verdict — recorded as InfraError — never the campaign.
    let plan = Plan {
        workers: cfg.workers,
        max_retries: cfg.max_retries,
        backoff: cfg.retry_backoff,
        fault_hook: cfg.fault_hook.as_ref(),
    };
    let stop = || hooks.should_stop();
    let settle = |params, s: Settled<(bool, u64)>| {
        let (injected, prefix_instrs_skipped) = s.detail.unwrap_or_default();
        InjectionRun {
            params,
            outcome: s.outcome,
            injected,
            wall: s.wall,
            prefix_instrs_skipped,
            pruned: false,
            attempts: s.attempts,
            resumed: false,
        }
    };
    let on_done = |run: &InjectionRun| hooks.on_run(run);
    let (mut tagged, interrupted) = match &cfg.isolation {
        IsolationMode::Thread => dispatch(
            &plan,
            jobs,
            &stop,
            |_: &mut (), _, params, fault| {
                attempt_transient(&golden, program, check, params, fault)
            },
            settle,
            on_done,
        ),
        IsolationMode::Process(iso) => {
            let init = iso.init(cfg, program.name());
            dispatch(
                &plan,
                jobs,
                &stop,
                |worker: &mut Option<Worker>, index, params, kill| {
                    pool::attempt(iso, &init, worker, index, params, kill)
                },
                settle,
                on_done,
            )
        }
    };
    // Report in selection order, with reloaded prior verdicts merged back in.
    tagged.extend(reloaded);
    tagged.sort_by_key(|&(orig, _)| orig);
    let runs: Vec<InjectionRun> = tagged.into_iter().map(|(_, r)| r).collect();

    let mut counts = OutcomeCounts::default();
    for r in &runs {
        counts.add(&r.outcome);
    }
    let timing = CampaignTiming {
        golden: golden_wall,
        profiling: profiling_wall,
        analysis: analysis_wall,
        injections: runs.iter().map(|r| r.wall).collect(),
        prefix_instrs_skipped: runs.iter().map(|r| r.prefix_instrs_skipped).sum(),
    };
    Ok(TransientCampaign {
        program: program.name().to_string(),
        profile,
        golden: golden.output,
        counts,
        runs,
        timing,
        interrupted,
    })
}

/// Configuration of a permanent-fault campaign.
#[derive(Debug, Clone)]
pub struct PermanentCampaignConfig {
    /// Base runtime configuration for every run.
    pub runtime: RuntimeConfig,
    /// RNG seed (SM, lane, and mask bit are drawn per opcode).
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// When `true` (the default), opcodes with zero dynamic count are
    /// skipped, "further simplifying the campaign" (§IV-C). When `false`,
    /// all 171 opcodes run, as in the paper's Figure 3 experiment.
    pub skip_unused: bool,
    /// Extra attempts for a panicked or deadline-killed experiment before
    /// it is recorded as [`OutcomeClass::InfraError`].
    pub max_retries: u32,
    /// Pause between retry attempts, scaled by the attempt number.
    pub retry_backoff: Duration,
    /// Per-experiment wall-clock deadline (`None` disables it).
    pub run_deadline: Option<Duration>,
}

impl Default for PermanentCampaignConfig {
    fn default() -> Self {
        PermanentCampaignConfig {
            runtime: RuntimeConfig::default(),
            seed: 0x5EED,
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            skip_unused: true,
            max_retries: 1,
            retry_backoff: Duration::from_millis(50),
            run_deadline: None,
        }
    }
}

/// One permanent-fault experiment (one opcode).
#[derive(Debug, Clone)]
pub struct PermanentRun {
    /// The fault parameters.
    pub params: PermanentParams,
    /// The classified outcome.
    pub outcome: Outcome,
    /// The opcode's dynamic instruction count in the profile — the
    /// outcome's weight in Figure 3's aggregation.
    pub weight: u64,
    /// Fault activations during the run.
    pub activations: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Execution attempts the verdict took (`> 1` means retries after a
    /// worker panic or deadline overrun).
    pub attempts: u32,
}

/// Dynamic-count-weighted outcome fractions (Figure 3's y-axis).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeightedOutcomes {
    /// Weighted SDC fraction.
    pub sdc: f64,
    /// Weighted DUE fraction.
    pub due: f64,
    /// Weighted Masked fraction.
    pub masked: f64,
}

/// Result of a permanent campaign.
#[derive(Debug)]
pub struct PermanentCampaign {
    /// Program name.
    pub program: String,
    /// The profile used for pruning and weighting.
    pub profile: Profile,
    /// Unweighted tally over the runs.
    pub counts: OutcomeCounts,
    /// Weighted fractions (Figure 3).
    pub weighted: WeightedOutcomes,
    /// Per-opcode runs.
    pub runs: Vec<PermanentRun>,
    /// Duration of the profiling step.
    pub profiling_wall: Duration,
}

impl PermanentCampaign {
    /// Total campaign time: profiling plus all per-opcode runs.
    pub fn total_time(&self) -> Duration {
        self.profiling_wall + self.runs.iter().map(|r| r.wall).sum::<Duration>()
    }
}

/// Run a complete permanent-fault campaign on one program: one experiment
/// per (executed) opcode, outcomes weighted by dynamic count.
///
/// # Errors
///
/// Returns [`FiError`] if the golden or profiling run fails.
pub fn run_permanent_campaign(
    program: &dyn Program,
    check: &dyn SdcCheck,
    cfg: &PermanentCampaignConfig,
) -> Result<PermanentCampaign, FiError> {
    let mut golden = PreparedGolden::new(program, cfg.runtime.clone(), false)?;

    let t0 = Instant::now();
    let profile = profile_program(program, golden.config.clone(), ProfilingMode::Approximate)?;
    let profiling_wall = t0.elapsed();

    let executed = profile.executed_opcodes();
    let opcodes: Vec<gpu_isa::Opcode> = if cfg.skip_unused {
        executed.iter().copied().collect()
    } else {
        gpu_isa::Opcode::ALL.to_vec()
    };

    // Draw fault placement from the SMs and lanes the program actually
    // occupies. With the paper's full-scale workloads every SM and lane is
    // busy, so this coincides with Table III's full 0..N-1 ranges; with
    // simulator-scaled grids it avoids trivially-masked dead placements.
    let launches = &golden.output.summary.launches;
    let num_sms = golden.config.gpu.num_sms;
    let max_blocks = launches.iter().map(|l| l.stats.blocks).max().unwrap_or(1).max(1);
    let used_sms = num_sms.min(max_blocks.min(u32::MAX as u64) as u32).max(1);
    let max_tpb = launches.iter().map(|l| l.stats.threads_per_block).max().unwrap_or(1).max(1);
    let used_lanes = (gpu_isa::WARP_SIZE as u64).min(max_tpb).max(1) as u32;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let jobs = opcodes
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let params = PermanentParams {
                sm_id: rng.gen_range(0..used_sms),
                lane_id: rng.gen_range(0..used_lanes),
                bit_mask: 1u32 << rng.gen_range(0..32),
                opcode_id: op.encode(),
            };
            (i, Job::Run((params, profile.opcode_total(*op))))
        })
        .collect();

    // Same dispatcher and isolation contract as the transient campaign: a
    // panicked or deadline-killed experiment is retried, then recorded as
    // InfraError — one opcode's verdict, not the campaign, is what a
    // runaway run costs. A permanent fault is active from the first launch,
    // so every experiment is a full run.
    golden.config.wall_deadline = cfg.run_deadline;
    let plan = Plan {
        workers: cfg.workers,
        max_retries: cfg.max_retries,
        backoff: cfg.retry_backoff,
        fault_hook: None,
    };
    let (runs, _) = dispatch(
        &plan,
        jobs,
        &|| false,
        |_: &mut (), _, &(params, _): &(PermanentParams, u64), fault| {
            attempt_here(fault, || {
                let (tool, handle) = PermanentInjector::new(params);
                let (outcome, _) = golden.inject(program, check, Box::new(tool), 0);
                (outcome, handle.get().activations)
            })
        },
        |(params, weight), s| PermanentRun {
            params,
            outcome: s.outcome,
            weight,
            activations: s.detail.unwrap_or(0),
            wall: s.wall,
            attempts: s.attempts,
        },
        |_| {},
    );
    let runs: Vec<PermanentRun> = runs.into_iter().map(|(_, r)| r).collect();

    let mut counts = OutcomeCounts::default();
    let mut w = WeightedOutcomes::default();
    // Infra errors carry no verdict: their weight leaves the denominator
    // entirely rather than biasing any class.
    let total_weight: u64 = runs.iter().filter(|r| !r.outcome.is_infra()).map(|r| r.weight).sum();
    for r in &runs {
        counts.add(&r.outcome);
        if total_weight > 0 && !r.outcome.is_infra() {
            let share = r.weight as f64 / total_weight as f64;
            if r.outcome.is_sdc() {
                w.sdc += share;
            } else if r.outcome.is_due() {
                w.due += share;
            } else {
                w.masked += share;
            }
        }
    }

    Ok(PermanentCampaign {
        program: program.name().to_string(),
        profile,
        counts,
        weighted: w,
        runs,
        profiling_wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(instruction_count: u64) -> TransientParams {
        TransientParams {
            group: InstrGroup::Gp,
            bit_flip: BitFlipModel::FlipSingleBit,
            kernel_name: "k".into(),
            kernel_count: 0,
            instruction_count,
            destination_register: 0.5,
            bit_pattern: 0.5,
        }
    }

    fn prior_run(instruction_count: u64, class: OutcomeClass, wall_ms: u64) -> InjectionRun {
        InjectionRun {
            params: site(instruction_count),
            outcome: Outcome { class, potential_due: false },
            injected: true,
            wall: Duration::from_millis(wall_ms),
            prefix_instrs_skipped: 0,
            pruned: false,
            attempts: 1,
            resumed: false,
        }
    }

    #[test]
    fn reload_prior_consumes_one_row_per_selection_and_reruns_infra() {
        // Site 1 is selected three times, site 2 twice, site 3 once.
        let mut work: Vec<(usize, TransientParams, bool)> =
            [1, 2, 1, 3, 1, 2].iter().enumerate().map(|(i, &n)| (i, site(n), false)).collect();
        let prior = vec![
            prior_run(1, OutcomeClass::Masked, 10),
            prior_run(2, OutcomeClass::InfraError(InfraKind::Deadline), 20),
            prior_run(1, OutcomeClass::Masked, 11),
            prior_run(2, OutcomeClass::Masked, 21),
            prior_run(9, OutcomeClass::Masked, 90),
        ];
        let reloaded = reload_prior(&mut work, prior);

        // Site 1's two rows fill its first two selections, in journal
        // order; its third selection runs fresh. Site 2's infra row is
        // discarded, so one of its two selections runs fresh. Site 3 has no
        // row; site 9's row matches nothing.
        let got: Vec<(usize, u64, u64)> = reloaded
            .iter()
            .map(|(i, r)| (*i, r.params.instruction_count, r.wall.as_millis() as u64))
            .collect();
        assert_eq!(got, vec![(0, 1, 10), (1, 2, 21), (2, 1, 11)]);
        assert!(reloaded.iter().all(|(_, r)| r.resumed && !r.outcome.is_infra()));
        let left: Vec<usize> = work.iter().map(|(i, _, _)| *i).collect();
        assert_eq!(left, vec![3, 4, 5]);
    }

    #[test]
    fn timing_median_and_total() {
        let t = CampaignTiming {
            golden: Duration::from_millis(1),
            profiling: Duration::from_millis(10),
            analysis: Duration::from_millis(4),
            injections: vec![
                Duration::from_millis(3),
                Duration::from_millis(1),
                Duration::from_millis(2),
            ],
            prefix_instrs_skipped: 0,
        };
        assert_eq!(t.median_injection(), Duration::from_millis(2));
        assert_eq!(t.total(), Duration::from_millis(20));
        assert_eq!(CampaignTiming::default().median_injection(), Duration::ZERO);
    }
}
