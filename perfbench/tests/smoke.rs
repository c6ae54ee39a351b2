//! Smoke mode: every workload at test scale with a handful of injections,
//! through the same binary and code path as a measured run, including the
//! verdict check against the checked-in reference.

use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["transient-suite", "process-short", "permanent-suite"];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("spawn perfbench")
}

fn smoke(workload: &str, trace: &str, extra: &[&str]) -> (Output, String) {
    let mut args =
        vec!["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace, "--smoke"];
    args.extend_from_slice(extra);
    let out = bench(&args);
    let last = String::from_utf8_lossy(&out.stdout).lines().last().unwrap_or_default().to_string();
    (out, last)
}

#[test]
fn every_workload_runs_with_reference_verdicts() {
    for w in WORKLOADS {
        for (trace, metrics) in [("0", 7), ("1", 31)] {
            let (out, last) = smoke(w, trace, &[]);
            assert!(
                out.status.success(),
                "{w} trace={trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{w}: {last}");
            assert!(last.contains("\"failed\": 0,"), "{w}: {last}");
            assert_eq!(last.matches("{\"value\": ").count(), metrics, "{w} trace={trace}: {last}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains("verdict_mismatches: 0"), "{w}: {stdout}");
            assert!(stdout.contains(" sources="), "results are stamped: {stdout}");
        }
    }
}

#[test]
fn a_verdict_differing_from_the_reference_fails_the_run() {
    let reference = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference/verdicts.tsv");
    let text = std::fs::read_to_string(reference).expect("reference present");
    // Flip the first verdict of process-short's smoke row for variant 0.
    let tampered: String = text
        .lines()
        .map(|l| {
            if l.starts_with("smoke/process-short\t0\t314.omriq\t") {
                let (head, verdicts) = l.rsplit_once('\t').expect("tab-separated");
                let first = if verdicts.starts_with('M') { 'S' } else { 'M' };
                format!("{head}\t{first}{}\n", &verdicts[1..])
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    assert_ne!(tampered, text, "the row to tamper with exists");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tampered-verdicts.tsv");
    std::fs::write(&path, tampered).expect("write tampered reference");
    let (out, last) =
        smoke("process-short", "0", &["--reference", path.to_str().expect("utf-8 path")]);
    assert!(!out.status.success(), "a mismatch must fail the run");
    assert!(last.starts_with("{\"correct\": false"), "{last}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verdict_mismatches: ") && !stdout.contains("verdict_mismatches: 0 "));
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = bench(&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]);
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
