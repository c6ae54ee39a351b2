//! The escape hatches and isolation modes are parameters of one campaign
//! path, so they must not change a single verdict: every cell of
//! {thread, process} × {checkpoints on, off} × {static pruning on, off}
//! reproduces the thread/on/on cell site for site, on every workload.

use nvbitfi::logfile::outcome_code;
use nvbitfi::{run_transient_campaign, CampaignConfig, IsolationMode, ProcessIsolation};
use std::time::Duration;
use workloads::Scale;

/// `(params, outcome code, fired)` per selected site, in selection order.
type Verdicts = Vec<(nvbitfi::TransientParams, String, bool)>;

fn verdicts(entry: &workloads::BenchEntry, cfg: &CampaignConfig) -> Verdicts {
    let c = run_transient_campaign(entry.program.as_ref(), entry.check.as_ref(), cfg)
        .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
    assert_eq!(c.counts.infra, 0, "{}: no harness failures expected", entry.name);
    c.runs.into_iter().map(|r| (r.params, outcome_code(&r.outcome), r.injected)).collect()
}

#[test]
fn every_isolation_checkpoint_and_prune_cell_gives_identical_verdicts() {
    let process = IsolationMode::Process(ProcessIsolation::new(
        vec![env!("CARGO_BIN_EXE_nvbitfi").to_string(), "worker".to_string()],
        "test",
    ));
    let suite = workloads::suite(Scale::Test);
    assert_eq!(suite.len(), 15);
    for entry in &suite {
        let base = CampaignConfig {
            injections: 6,
            seed: 11,
            workers: 2,
            retry_backoff: Duration::ZERO,
            ..CampaignConfig::default()
        };
        let reference = verdicts(entry, &base);
        assert_eq!(reference.len(), 6, "{}", entry.name);
        for (mode, isolation) in [("thread", IsolationMode::Thread), ("process", process.clone())] {
            for use_checkpoints in [true, false] {
                for use_static_prune in [true, false] {
                    if mode == "thread" && use_checkpoints && use_static_prune {
                        continue; // the reference cell itself
                    }
                    let cfg = CampaignConfig {
                        isolation: isolation.clone(),
                        use_checkpoints,
                        use_static_prune,
                        ..base.clone()
                    };
                    let cell = format!(
                        "{} {mode} checkpoints={use_checkpoints} prune={use_static_prune}",
                        entry.name
                    );
                    assert_eq!(verdicts(entry, &cfg), reference, "{cell}");
                }
            }
        }
    }
}
