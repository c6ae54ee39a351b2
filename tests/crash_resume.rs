//! Crash-and-resume robustness: an interrupted campaign resumed from its
//! journal reproduces the uninterrupted campaign's outcome counts exactly,
//! and a panicking or runaway worker costs only its own run's verdict.

use nvbitfi::{
    logfile, run_transient_campaign, run_transient_campaign_with, CampaignConfig, CampaignHooks,
    FaultHook, InjectionRun, NoHooks, OutcomeClass, ProfilingMode,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use workloads::omriq::Omriq;
use workloads::Scale;

fn cfg(injections: usize) -> CampaignConfig {
    CampaignConfig {
        injections,
        seed: 42,
        profiling: ProfilingMode::Exact,
        workers: 2,
        retry_backoff: Duration::ZERO,
        ..CampaignConfig::default()
    }
}

/// Hooks that journal each completed run into a string (the in-memory
/// analog of the CLI's durable file journal) and request a stop once
/// `stop_after` runs have completed — the worker-side view of Ctrl-C.
struct JournalStop {
    rows: Mutex<String>,
    completed: AtomicUsize,
    stop_after: usize,
}

impl JournalStop {
    fn new(stop_after: usize) -> JournalStop {
        JournalStop { rows: Mutex::new(String::new()), completed: AtomicUsize::new(0), stop_after }
    }
}

impl CampaignHooks for JournalStop {
    fn on_run(&self, run: &InjectionRun) {
        self.rows.lock().push_str(&logfile::results_log_row(run));
        self.completed.fetch_add(1, Ordering::SeqCst);
    }

    fn should_stop(&self) -> bool {
        self.completed.load(Ordering::SeqCst) >= self.stop_after
    }
}

#[test]
fn interrupted_campaign_resumes_to_identical_counts() {
    let program = Omriq { scale: Scale::Test };
    let check = Omriq::check();
    let cfg = cfg(20);

    let baseline = run_transient_campaign(&program, &check, &cfg).expect("uninterrupted");
    assert_eq!(baseline.runs.len(), 20);
    assert!(!baseline.interrupted);

    // Interrupt mid-campaign: stop dispatching after 7 completions.
    let hooks = JournalStop::new(7);
    let partial = run_transient_campaign_with(&program, &check, &cfg, Vec::new(), &hooks)
        .expect("interrupted campaign still returns");
    assert!(partial.interrupted, "stop hook must mark the campaign interrupted");
    assert!(partial.runs.len() < 20, "undispatched sites are dropped");
    assert!(partial.runs.len() >= 7, "completed (incl. in-flight) runs are kept");

    // The journal holds exactly the completed runs — crash-durable state.
    let journal = format!("{}{}", logfile::results_log_header("omriq", &[]), hooks.rows.lock());
    let (rows, torn) = logfile::recover_results_log(&journal).expect("journal parses");
    assert!(!torn);
    assert_eq!(rows.len(), partial.runs.len());

    // Resume from the journal: identical config, prior verdicts reloaded.
    let reloaded = rows.len();
    let resumed_hooks = JournalStop::new(usize::MAX);
    let resumed =
        run_transient_campaign_with(&program, &check, &cfg, rows, &resumed_hooks).expect("resume");
    assert!(!resumed.interrupted);
    assert_eq!(resumed.runs.len(), 20);
    assert_eq!(resumed.resumed_runs(), reloaded, "every journaled verdict is honored");
    assert_eq!(
        resumed.counts, baseline.counts,
        "resume reproduces the uninterrupted campaign's outcome counts"
    );

    // Duplicate-free completion: reloaded rows plus freshly-journaled rows
    // cover each selected site exactly once.
    let fresh = resumed_hooks.completed.load(Ordering::SeqCst);
    assert_eq!(reloaded + fresh, 20);
    let mut keys: Vec<String> = resumed
        .runs
        .iter()
        .map(|r| logfile::results_log_row(r).split('\t').take(7).collect::<Vec<_>>().join("\t"))
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), 20, "no site appears twice after resume");
}

#[test]
fn transient_worker_panic_is_retried_without_changing_outcomes() {
    let program = Omriq { scale: Scale::Test };
    let check = Omriq::check();
    let base_cfg = cfg(10);
    let baseline = run_transient_campaign(&program, &check, &base_cfg).expect("baseline");

    // Every site's first attempt panics; the retry succeeds.
    let flaky = CampaignConfig {
        max_retries: 2,
        fault_hook: Some(FaultHook::new(|_, attempt| attempt == 1)),
        ..base_cfg.clone()
    };
    let result = run_transient_campaign(&program, &check, &flaky).expect("flaky campaign");
    assert_eq!(result.counts, baseline.counts, "retries must not alter verdicts");
    assert_eq!(result.counts.infra, 0);
    for r in &result.runs {
        // Pruned sites never execute, so the harness fault can't hit them.
        assert!(r.pruned || r.attempts == 2, "attempts={} pruned={}", r.attempts, r.pruned);
    }
    assert_eq!(
        result.retried_runs(),
        result.runs.iter().filter(|r| !r.pruned).count(),
        "every executed site needed its retry"
    );
}

#[test]
fn persistent_worker_panic_costs_only_that_runs_verdict() {
    let program = Omriq { scale: Scale::Test };
    let check = Omriq::check();
    let hostile = CampaignConfig {
        max_retries: 1,
        fault_hook: Some(FaultHook::new(|_, _| true)), // every attempt panics
        ..cfg(8)
    };
    let result = run_transient_campaign(&program, &check, &hostile).expect("campaign survives");
    assert_eq!(result.runs.len(), 8, "panics never poison the fan-out");
    let executed = result.runs.iter().filter(|r| !r.pruned).count() as u64;
    assert_eq!(result.counts.infra, executed, "every executed site is an infra error");
    for r in result.runs.iter().filter(|r| !r.pruned) {
        assert!(
            matches!(r.outcome.class, OutcomeClass::InfraError(_)),
            "persistent panic records InfraError, got {:?}",
            r.outcome.class
        );
        assert_eq!(r.attempts, 2, "max_retries=1 means two attempts");
    }
    // Infra errors leave the SDC/DUE denominator instead of biasing it.
    assert_eq!(result.counts.classified(), result.counts.total() - executed);
}

#[test]
fn expired_deadline_is_an_infra_error_not_a_crash() {
    let program = Omriq { scale: Scale::Test };
    let check = Omriq::check();
    let hostile = CampaignConfig {
        max_retries: 0,
        run_deadline: Some(Duration::ZERO), // every simulated run overruns
        ..cfg(6)
    };
    let result = run_transient_campaign(&program, &check, &hostile).expect("campaign survives");
    assert_eq!(result.runs.len(), 6);
    for r in result.runs.iter().filter(|r| !r.pruned) {
        assert!(
            matches!(r.outcome.class, OutcomeClass::InfraError(nvbitfi::InfraKind::Deadline)),
            "zero deadline records InfraError(Deadline), got {:?}",
            r.outcome.class
        );
        assert_eq!(r.attempts, 1, "max_retries=0 records the first failure");
    }
    // A prior InfraError verdict is not honored on resume: the site re-runs.
    let infra_rows = result.runs.clone();
    let healthy = CampaignConfig { run_deadline: None, ..cfg(6) };
    let resumed = run_transient_campaign_with(&program, &check, &healthy, infra_rows, &NoHooks)
        .expect("resume past infra errors");
    assert_eq!(resumed.counts.infra, 0, "infra verdicts get a fresh attempt on resume");
    assert_eq!(resumed.resumed_runs(), 0);
    assert_eq!(resumed.counts.total(), 6);
}
