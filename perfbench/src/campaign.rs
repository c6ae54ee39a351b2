//! The workload's campaigns, driven through the library's public entry
//! points with every configuration field set explicitly.

use crate::reference::Verdicts;
use crate::spec::{scale_name, WORKERS};
use crate::trace::{SpanId, Trace};
use gpu_runtime::RuntimeConfig;
use nvbitfi::logfile::{outcome_code, results_log_header, results_log_row};
use nvbitfi::{
    run_permanent_campaign, run_transient_campaign_with, BitFlipModel, CampaignConfig,
    CampaignHooks, InjectionRun, InstrGroup, IsolationMode, Journal, PermanentCampaign,
    PermanentCampaignConfig, ProcessIsolation, ProfilingMode, TransientCampaign,
};
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};
use workloads::{BenchEntry, Scale};

/// The transient campaign configuration, field by field: G_GPPR single-bit
/// flips, exact profiling, checkpoints and static pruning on, two workers.
pub fn transient_cfg(injections: usize, seed: u64, isolation: IsolationMode) -> CampaignConfig {
    CampaignConfig {
        runtime: RuntimeConfig::default(),
        injections,
        group: InstrGroup::GpPr,
        bit_flip: BitFlipModel::FlipSingleBit,
        profiling: ProfilingMode::Exact,
        seed,
        workers: WORKERS,
        use_checkpoints: true,
        use_static_prune: true,
        max_retries: 1,
        retry_backoff: Duration::from_millis(50),
        run_deadline: None,
        fault_hook: None,
        isolation,
    }
}

/// The permanent campaign configuration: executed opcodes only, two
/// workers.
pub fn permanent_cfg(seed: u64) -> PermanentCampaignConfig {
    PermanentCampaignConfig {
        runtime: RuntimeConfig::default(),
        seed,
        workers: WORKERS,
        skip_unused: true,
        max_retries: 1,
        retry_backoff: Duration::from_millis(50),
        run_deadline: None,
    }
}

/// Process isolation whose workers are this very binary (`perfbench
/// worker`), so the worker is always built from the same sources as the
/// supervisor. With `spawn_log`, every worker start appends a line there.
pub fn process_isolation(scale: Scale, spawn_log: Option<&Path>) -> Result<IsolationMode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut command = vec![exe.to_string_lossy().into_owned(), "worker".to_string()];
    if let Some(log) = spawn_log {
        command.push("--spawn-log".to_string());
        command.push(log.to_string_lossy().into_owned());
    }
    Ok(IsolationMode::Process(ProcessIsolation::new(command, scale_name(scale))))
}

/// Campaign hooks: the journal append point, the time of the first
/// dispatch poll, and (when traced) a span per run and per append.
struct Hooks<'a> {
    first_poll: OnceLock<Instant>,
    journal: Mutex<Journal>,
    io_error: Mutex<Option<String>>,
    trace: Option<(&'a Trace, SpanId, &'a str)>,
    /// Traced journal appends: (seconds, count).
    appends: Mutex<(f64, u64)>,
}

impl CampaignHooks for Hooks<'_> {
    fn on_run(&self, run: &InjectionRun) {
        let row = results_log_row(run);
        let start = Instant::now();
        let res = self.journal.lock().expect("journal lock poisoned").append(&row);
        let end = Instant::now();
        if let Err(e) = res {
            self.io_error.lock().expect("error slot poisoned").get_or_insert(e.to_string());
        }
        if let Some((trace, parent, program)) = self.trace {
            if !run.pruned {
                trace.record(
                    "campaign.injection_run",
                    end - run.wall,
                    end,
                    Some(parent),
                    program,
                    None,
                );
            }
            trace.record("journal.append", start, end, Some(parent), program, None);
            let mut a = self.appends.lock().expect("append tally poisoned");
            a.0 += end.duration_since(start).as_secs_f64();
            a.1 += 1;
        }
    }

    fn should_stop(&self) -> bool {
        self.first_poll.get_or_init(Instant::now);
        false
    }
}

/// One transient campaign as the benchmark measured it.
pub struct TransientResult {
    pub campaign: TransientCampaign,
    /// Call to return, seconds.
    pub wall: f64,
    /// Call to first dispatch poll, seconds.
    pub setup: f64,
    /// First dispatch poll to return, seconds.
    pub injection_phase: f64,
    /// Traced journal appends: (seconds, count).
    pub appends: (f64, u64),
}

impl TransientResult {
    pub fn verdicts(&self) -> Verdicts {
        Verdicts::new(
            self.campaign.runs.iter().map(|r| (r.params.to_file(), outcome_code(&r.outcome))),
        )
    }
}

/// Run one transient campaign with a fresh journal at `journal`.
pub fn run_transient(
    entry: &BenchEntry,
    cfg: &CampaignConfig,
    journal: &Path,
    trace: Option<(&Trace, SpanId)>,
) -> Result<TransientResult, String> {
    let header = results_log_header(entry.name, &[("seed", cfg.seed.to_string())]);
    let journal = Journal::create(journal, &header)
        .map_err(|e| format!("cannot create journal {}: {e}", journal.display()))?;
    let span = trace.map(|(t, parent)| {
        (t, t.open("campaign.run_transient_campaign_with", Some(parent), entry.name))
    });
    let hooks = Hooks {
        first_poll: OnceLock::new(),
        journal: Mutex::new(journal),
        io_error: Mutex::new(None),
        trace: span.map(|(t, id)| (t, id, entry.name)),
        appends: Mutex::new((0.0, 0)),
    };
    let start = Instant::now();
    let campaign = run_transient_campaign_with(
        entry.program.as_ref(),
        entry.check.as_ref(),
        cfg,
        Vec::new(),
        &hooks,
    )
    .map_err(|e| format!("{}: campaign failed: {e}", entry.name))?;
    let end = Instant::now();
    if let Some(e) = hooks.io_error.lock().expect("error slot poisoned").take() {
        return Err(format!("{}: journal append failed: {e}", entry.name));
    }
    let first = hooks.first_poll.get().copied().unwrap_or(end);
    if let Some((t, id)) = span {
        t.record("campaign.setup", start, first, Some(id), entry.name, None);
        t.close(id);
    }
    let appends = *hooks.appends.lock().expect("append tally poisoned");
    Ok(TransientResult {
        campaign,
        wall: end.duration_since(start).as_secs_f64(),
        setup: first.duration_since(start).as_secs_f64(),
        injection_phase: end.duration_since(first).as_secs_f64(),
        appends,
    })
}

/// One permanent campaign as the benchmark measured it.
pub struct PermanentResult {
    pub campaign: PermanentCampaign,
    pub wall: f64,
}

impl PermanentResult {
    pub fn verdicts(&self) -> Verdicts {
        Verdicts::new(
            self.campaign.runs.iter().map(|r| (r.params.to_file(), outcome_code(&r.outcome))),
        )
    }

    /// Seconds from the campaign call to its first dispatch: the profiling
    /// run, as `PermanentCampaign::profiling_wall` reports it.
    pub fn setup(&self) -> f64 {
        self.campaign.profiling_wall.as_secs_f64()
    }
}

/// Run one permanent campaign.
pub fn run_permanent(
    entry: &BenchEntry,
    cfg: &PermanentCampaignConfig,
    trace: Option<(&Trace, SpanId)>,
) -> Result<PermanentResult, String> {
    let start = Instant::now();
    let campaign = run_permanent_campaign(entry.program.as_ref(), entry.check.as_ref(), cfg)
        .map_err(|e| format!("{}: permanent campaign failed: {e}", entry.name))?;
    let end = Instant::now();
    if let Some((t, parent)) = trace {
        t.record("permanent.run_permanent_campaign", start, end, Some(parent), entry.name, None);
    }
    Ok(PermanentResult { campaign, wall: end.duration_since(start).as_secs_f64() })
}
