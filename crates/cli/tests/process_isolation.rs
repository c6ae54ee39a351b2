//! Process-isolation robustness, end to end against the real `nvbitfi`
//! binary: a SIGKILLed worker costs a retry (not the campaign), exhausted
//! retries record `INFRA:died`, and `resume` reconstructs the isolation
//! mode from the journal and re-runs exactly the infra rows.

use nvbitfi::outcome::InfraKind;
use nvbitfi::{
    run_transient_campaign, CampaignConfig, FaultHook, IsolationMode, OutcomeClass,
    ProcessIsolation, ProfilingMode,
};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Duration;
use workloads::Scale;

const PROGRAM: &str = "314.omriq";

fn worker_command() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_nvbitfi").to_string(), "worker".to_string()]
}

fn cfg(isolation: IsolationMode) -> CampaignConfig {
    CampaignConfig {
        injections: 6,
        seed: 7,
        profiling: ProfilingMode::Exact,
        workers: 2,
        max_retries: 1,
        retry_backoff: Duration::ZERO,
        isolation,
        ..CampaignConfig::default()
    }
}

fn run(isolation: IsolationMode, fault_hook: Option<FaultHook>) -> nvbitfi::TransientCampaign {
    let entry = workloads::find(Scale::Test, PROGRAM).expect("known program");
    let cfg = CampaignConfig { fault_hook, ..cfg(isolation) };
    run_transient_campaign(entry.program.as_ref(), entry.check.as_ref(), &cfg)
        .expect("campaign runs")
}

#[cfg(unix)]
#[test]
fn sigkilled_worker_is_respawned_and_counts_match_thread_mode() {
    let baseline = run(IsolationMode::Thread, None);

    // SIGKILL the worker right after site 2 is dispatched, first attempt
    // only: the supervisor must declare it dead, respawn, and re-dispatch.
    let iso = ProcessIsolation::new(worker_command(), "test");
    let hook = FaultHook::new(|site, attempt| site == 2 && attempt == 1);
    let c = run(IsolationMode::Process(iso), Some(hook));

    assert_eq!(c.counts, baseline.counts, "a killed worker must not change any verdict");
    assert_eq!(c.worker_deaths(), 0, "the retry succeeded, so no WorkerDied verdict");
    assert!(
        c.runs.iter().any(|r| r.attempts > 1),
        "the killed site's verdict records its extra attempt"
    );
    for (a, b) in baseline.runs.iter().zip(&c.runs) {
        assert_eq!(a.params, b.params, "both modes cover the same seed-selected sites");
        // Process mode transports verdicts in the journal's canonical code
        // (SDC channel detail is not wire-preserved), so compare codes.
        assert_eq!(
            nvbitfi::logfile::outcome_code(&a.outcome),
            nvbitfi::logfile::outcome_code(&b.outcome),
            "per-site verdicts agree across isolation modes"
        );
    }
}

#[cfg(unix)]
#[test]
fn exhausted_retries_record_worker_died() {
    // Kill the worker on every attempt at site 1: with max_retries = 1 the
    // supervisor gives up after two kills and records the harness failure.
    let iso = ProcessIsolation::new(worker_command(), "test");
    let c = run(IsolationMode::Process(iso), Some(FaultHook::new(|site, _attempt| site == 1)));

    assert_eq!(c.worker_deaths(), 1, "exactly the doomed site dies");
    assert_eq!(c.counts.infra, 1);
    let died = &c.runs[1];
    assert_eq!(died.outcome.class, OutcomeClass::InfraError(InfraKind::WorkerDied));
    assert_eq!(died.attempts, 2, "max_retries = 1 grants one respawned re-dispatch");
    assert!(!died.injected);
    // The row survives the journal round-trip as the v5 `INFRA:died` code.
    let row = nvbitfi::logfile::results_log_row(died);
    assert!(row.contains("INFRA:died"), "{row}");
    let parsed = nvbitfi::logfile::read_results_log(&format!(
        "{}{row}",
        nvbitfi::logfile::results_log_header(PROGRAM, &[])
    ))
    .expect("row parses");
    assert_eq!(parsed[0].outcome.class, OutcomeClass::InfraError(InfraKind::WorkerDied));
}

fn nvbitfi_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nvbitfi")).args(args).output().expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nvbitfi-pisol-test-{}-{name}", std::process::id()));
    p
}

/// The deterministic verdict tally from a campaign/resume report: the
/// slice from "SDC" through "potential DUEs" (wall-clock figures vary).
fn counts_of(out: &str) -> &str {
    let start = out.find("SDC").expect("report has counts");
    let end = out.find("potential DUEs").expect("report has potential DUEs");
    &out[start..end]
}

#[test]
fn resume_reconstructs_process_isolation_and_reruns_infra_rows() {
    let log = tmp("resume.log");
    let _ = std::fs::remove_file(&log);

    let o = nvbitfi_bin(&[
        "campaign",
        PROGRAM,
        "--scale",
        "test",
        "--injections",
        "6",
        "--seed",
        "7",
        "--isolation",
        "process",
        "--log",
        log.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let baseline = String::from_utf8_lossy(&o.stdout).to_string();

    // Forge a worker death into the journal: swap one simulated row's
    // outcome for `INFRA:died`, exactly what a crashed campaign leaves
    // behind when a site exhausted its respawn budget.
    let text = std::fs::read_to_string(&log).expect("journal exists");
    assert!(text.starts_with("# nvbitfi results log v5"), "{text}");
    assert!(text.contains("# meta isolation=process"), "{text}");
    let mut forged = false;
    let doctored: Vec<String> = text
        .lines()
        .map(|line| {
            if forged || line.starts_with('#') {
                return line.to_string();
            }
            let mut cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 13, "{line}");
            forged = true;
            cols[7] = "0";
            cols[8] = "INFRA:died";
            cols.join("\t")
        })
        .collect();
    assert!(forged, "journal has at least one data row");
    std::fs::write(&log, doctored.join("\n") + "\n").unwrap();

    // Resume must re-run exactly that row — in process mode, reconstructed
    // from the journal's own `isolation=` meta — and land on the original
    // uninterrupted counts.
    let o = nvbitfi_bin(&["resume", log.to_str().unwrap()]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let resumed = String::from_utf8_lossy(&o.stdout).to_string();
    assert_eq!(counts_of(&resumed), counts_of(&baseline), "{resumed}");
    assert!(resumed.contains("5 resumed"), "{resumed}");
    assert!(resumed.contains("1 fresh"), "{resumed}");
    assert!(resumed.contains("0 infra errors"), "{resumed}");

    // The rewritten journal holds 6 clean verdicts and no infra rows.
    let rewritten = std::fs::read_to_string(&log).unwrap();
    let rows = nvbitfi::logfile::read_results_log(&rewritten).expect("rewritten log parses");
    assert_eq!(rows.len(), 6);
    assert!(rows.iter().all(|r| !matches!(r.outcome.class, OutcomeClass::InfraError(_))));

    let _ = std::fs::remove_file(&log);
}
