//! End-to-end tests of the `nvbitfi` binary: the upstream-script workflow
//! of profile-file → select → params-file → inject, driven through the CLI.

use std::path::PathBuf;
use std::process::{Command, Output};

fn nvbitfi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nvbitfi")).args(args).output().expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).to_string()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nvbitfi-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn no_args_prints_usage() {
    let o = nvbitfi(&[]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("usage: nvbitfi"));
}

#[test]
fn unknown_command_fails() {
    let o = nvbitfi(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown command"));
}

#[test]
fn list_shows_all_programs() {
    let o = nvbitfi(&["list"]);
    assert!(o.status.success());
    let out = stdout(&o);
    for name in ["303.ostencil", "354.cg", "370.bt"] {
        assert!(out.contains(name), "{out}");
    }
}

#[test]
fn unknown_program_fails_cleanly() {
    let o = nvbitfi(&["profile", "999.nope", "--scale", "test"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown program"));
}

#[test]
fn select_rejects_an_unknown_program() {
    // A valid profile does not make a program name valid: `select` checks
    // the name against the suite before it reads the profile.
    let profile_path = tmp("select-unknown-profile.txt");
    let profile = profile_path.to_str().expect("utf8");
    let o = nvbitfi(&["profile", "314.omriq", "--scale", "test", "--out", profile]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));

    let o = nvbitfi(&["select", "999.nope", "--profile", profile, "--seed", "3"]);
    let err = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(1), "{err}");
    assert!(err.contains("unknown program `999.nope`"), "{err}");
    assert!(o.stdout.is_empty(), "no site printed: {}", stdout(&o));
    let _ = std::fs::remove_file(profile_path);
}

#[test]
fn profile_select_inject_pipeline() {
    // Figure 1 as three CLI invocations with real files in between.
    let profile_path = tmp("profile.txt");
    let params_path = tmp("params.txt");

    let o = nvbitfi(&[
        "profile",
        "314.omriq",
        "--scale",
        "test",
        "--mode",
        "exact",
        "--out",
        profile_path.to_str().expect("utf8"),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let text = std::fs::read_to_string(&profile_path).expect("profile written");
    assert!(text.starts_with("# nvbitfi profile mode=exact"));
    assert!(text.contains("mriq_phimag:0:"));

    let o = nvbitfi(&[
        "select",
        "314.omriq",
        "--profile",
        profile_path.to_str().expect("utf8"),
        "--group",
        "8",
        "--bitflip",
        "1",
        "--seed",
        "99",
        "--out",
        params_path.to_str().expect("utf8"),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let params = std::fs::read_to_string(&params_path).expect("params written");
    assert_eq!(params.lines().count(), 7, "Table II parameter file: {params}");
    assert_eq!(params.lines().next(), Some("8"), "G_GP id");

    let o = nvbitfi(&[
        "inject",
        "314.omriq",
        "--scale",
        "test",
        "--params",
        params_path.to_str().expect("utf8"),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    assert!(out.contains("injected: true"), "{out}");
    assert!(out.contains("outcome:"), "{out}");

    let _ = std::fs::remove_file(profile_path);
    let _ = std::fs::remove_file(params_path);
}

#[test]
fn campaign_runs_and_reports_ci() {
    let o =
        nvbitfi(&["campaign", "314.omriq", "--scale", "test", "--injections", "10", "--seed", "3"]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    assert!(out.contains("10 injections"), "{out}");
    assert!(out.contains("confidence margin"), "{out}");
}

#[test]
fn permanent_injection_reports_activations() {
    let o = nvbitfi(&[
        "pf",
        "314.omriq",
        "--scale",
        "test",
        "--opcode",
        "MUFU",
        "--lane",
        "2",
        "--mask",
        "0x1",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    assert!(out.contains("activations:"), "{out}");
    assert!(out.contains("outcome:"), "{out}");
}

#[test]
fn permanent_campaign_reports_experiments_answered_from_golden() {
    let o = nvbitfi(&["pf-campaign", "303.ostencil", "--scale", "test"]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    assert!(out.contains("over 16 opcode experiments"), "{out}");
    // At the default seed two placements miss every lane their opcode runs
    // on, so those two experiments are answered without simulation.
    assert!(out.contains("answered from golden: 2 of 16 experiments"), "{out}");
}

#[test]
fn disasm_prints_sass() {
    let o = nvbitfi(&["disasm", "314.omriq", "--scale", "test"]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    assert!(out.contains(".module"), "{out}");
    assert!(out.contains("MUFU"), "{out}");
    assert!(out.contains("EXIT"), "{out}");
}

#[test]
fn split_campaign_via_list_and_log() {
    // select --count N → run-list --log → results log parses and tallies.
    let profile_path = tmp("split-profile.txt");
    let list_path = tmp("split-list.txt");
    let log_path = tmp("split-log.txt");

    let o = nvbitfi(&[
        "profile",
        "314.omriq",
        "--scale",
        "test",
        "--out",
        profile_path.to_str().expect("utf8"),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));

    let o = nvbitfi(&[
        "select",
        "314.omriq",
        "--profile",
        profile_path.to_str().expect("utf8"),
        "--count",
        "8",
        "--seed",
        "17",
        "--out",
        list_path.to_str().expect("utf8"),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let list = std::fs::read_to_string(&list_path).expect("list");
    assert_eq!(list.lines().filter(|l| !l.starts_with('#')).count(), 8);

    let o = nvbitfi(&[
        "run-list",
        "314.omriq",
        "--scale",
        "test",
        "--list",
        list_path.to_str().expect("utf8"),
        "--log",
        log_path.to_str().expect("utf8"),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let log = std::fs::read_to_string(&log_path).expect("log");
    let rows = log.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(rows, 8, "one result row per fault:\n{log}");
    assert!(stdout(&o).contains("8 classified runs"), "{}", stdout(&o));
    assert!(log.starts_with("# nvbitfi results log v5"), "journal header:\n{log}");

    for p in [profile_path, list_path, log_path] {
        let _ = std::fs::remove_file(p);
    }
}

/// A results log's `(parameters, outcome code)` pairs, sorted: journal
/// rows land in completion order.
fn verdicts_of(log: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(log).expect("log");
    let mut rows: Vec<String> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let fields: Vec<&str> = l.split('\t').collect();
            assert_eq!(fields.len(), 13, "v5 row: {l}");
            format!("{}\t{}", fields[..7].join("\t"), fields[8])
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn run_list_of_selected_sites_matches_the_campaign() {
    // The split workflow (select a list, run it) and a campaign with the
    // same seed classify the same sites identically, in both isolation
    // modes.
    let profile_path = tmp("equiv-profile.txt");
    let list_path = tmp("equiv-list.txt");
    let (list_log, campaign_log) = (tmp("equiv-list.log"), tmp("equiv-campaign.log"));
    let path = |p: &PathBuf| p.to_str().expect("utf8").to_string();

    let o = nvbitfi(&["profile", "314.omriq", "--scale", "test", "--out", &path(&profile_path)]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let o = nvbitfi(&[
        "select",
        "314.omriq",
        "--profile",
        &path(&profile_path),
        "--count",
        "8",
        "--seed",
        "17",
        "--out",
        &path(&list_path),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));

    for isolation in ["thread", "process"] {
        let common = ["314.omriq", "--scale", "test", "--isolation", isolation];
        let o = nvbitfi(
            &[
                &["run-list"][..],
                &common,
                &["--list", &path(&list_path), "--log", &path(&list_log)],
            ]
            .concat(),
        );
        assert!(o.status.success(), "{isolation}: {}", String::from_utf8_lossy(&o.stderr));
        assert!(stdout(&o).contains("robustness:"), "dispatcher report: {}", stdout(&o));
        let o = nvbitfi(
            &[
                &["campaign"][..],
                &common,
                &["--injections", "8", "--seed", "17", "--log", &path(&campaign_log)],
            ]
            .concat(),
        );
        assert!(o.status.success(), "{isolation}: {}", String::from_utf8_lossy(&o.stderr));

        let (listed, campaigned) = (verdicts_of(&list_log), verdicts_of(&campaign_log));
        assert_eq!(listed.len(), 8, "{isolation}");
        assert!(listed.iter().all(|r| !r.contains("INFRA:")), "{isolation}: {listed:?}");
        assert_eq!(listed, campaigned, "{isolation}: same sites, same verdicts");
    }

    for p in [profile_path, list_path, list_log, campaign_log] {
        let _ = std::fs::remove_file(p);
    }
}

#[cfg(unix)]
#[test]
fn interrupted_run_list_offers_no_resume() {
    // A run-list journal carries no campaign meta, so `resume` cannot
    // continue it; an interrupted run-list must not suggest it.
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGINT: i32 = 2;
    const SITES: usize = 5000;

    let profile_path = tmp("interrupt-profile.txt");
    let list_path = tmp("interrupt-list.txt");
    let log_path = tmp("interrupt-log.txt");
    let path = |p: &PathBuf| p.to_str().expect("utf8").to_string();
    let o = nvbitfi(&["profile", "314.omriq", "--out", &path(&profile_path)]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let count = SITES.to_string();
    let o = nvbitfi(&[
        "select",
        "314.omriq",
        "--profile",
        &path(&profile_path),
        "--count",
        &count,
        "--out",
        &path(&list_path),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));

    // Paper scale: the whole list takes many seconds, so the interrupt
    // lands while sites are still undispatched.
    let child = Command::new(env!("CARGO_BIN_EXE_nvbitfi"))
        .args(["run-list", "314.omriq", "--list", &path(&list_path), "--log", &path(&log_path)])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    // The first journaled row means the Ctrl-C handler is installed.
    let rows = || {
        std::fs::read_to_string(&log_path)
            .map_or(0, |t| t.lines().filter(|l| !l.starts_with('#')).count())
    };
    let start = std::time::Instant::now();
    while rows() == 0 {
        assert!(start.elapsed() < std::time::Duration::from_secs(60), "no run completed");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(unsafe { kill(child.id() as i32, SIGINT) }, 0);
    let o = child.wait_with_output().expect("run-list exits");

    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    assert!(out.contains("interrupted — completed runs are journaled"), "{out}");
    assert!(!out.contains("nvbitfi resume"), "a run-list log cannot be resumed:\n{out}");
    let journaled = rows();
    assert!(journaled > 0 && journaled < SITES, "{journaled} of {SITES} rows journaled");

    for p in [profile_path, list_path, log_path] {
        let _ = std::fs::remove_file(p);
    }
}

/// The deterministic part of a campaign's outcome report: the tally from
/// "SDC" up to "potential DUEs" (timings vary run to run, counts must not).
fn counts_of(out: &str) -> String {
    let start = out.find("SDC ").expect("counts present");
    let end = out[start..].find("potential DUEs").expect("counts end present");
    out[start..start + end].to_string()
}

#[test]
fn campaign_journal_resumes_after_crash() {
    let log_path = tmp("resume-log.txt");
    let log = log_path.to_str().expect("utf8");

    // Full campaign with journaling plus the robustness flags.
    let o = nvbitfi(&[
        "campaign",
        "314.omriq",
        "--scale",
        "test",
        "--injections",
        "6",
        "--seed",
        "7",
        "--max-retries",
        "2",
        "--deadline-ms",
        "10000",
        "--log",
        log,
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let full = stdout(&o);
    assert!(full.contains("0 infra errors"), "{full}");
    let baseline = counts_of(&full);

    let text = std::fs::read_to_string(&log_path).expect("log");
    assert!(text.starts_with("# nvbitfi results log v5 program=314.omriq"), "{text}");
    for meta in [
        "# meta scale=test",
        "# meta seed=7",
        "# meta injections=6",
        "# meta max_retries=2",
        "# meta deadline_ms=10000",
    ] {
        assert!(text.contains(meta), "missing `{meta}`:\n{text}");
    }
    let data: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(data.len(), 6, "{text}");

    // Simulate a crash mid-append: three complete rows plus a torn tail.
    let header: String =
        text.lines().filter(|l| l.starts_with('#')).map(|l| format!("{l}\n")).collect();
    let crashed =
        format!("{header}{}\n{}\n{}\n{}", data[0], data[1], data[2], &data[3][..data[3].len() / 2]);
    std::fs::write(&log_path, crashed).expect("truncate");

    let o = nvbitfi(&["resume", log]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    assert!(out.contains("torn final line"), "{out}");
    assert!(out.contains("3 of 6 verdicts reloaded"), "{out}");
    assert!(out.contains("3 fresh, 3 resumed"), "{out}");
    assert_eq!(counts_of(&out), baseline, "resume reproduces the uninterrupted tally\n{out}");
    let text = std::fs::read_to_string(&log_path).expect("log");
    assert_eq!(
        text.lines().filter(|l| !l.starts_with('#')).count(),
        6,
        "journal is duplicate-free after resume:\n{text}"
    );
    let resumed: String =
        text.lines().filter(|l| l.starts_with('#')).map(|l| format!("{l}\n")).collect();
    assert_eq!(resumed, header, "resume writes the header back as it was");

    // Resuming an already-complete log reloads everything, runs nothing.
    let o = nvbitfi(&["resume", log]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    assert!(out.contains("6 of 6 verdicts reloaded"), "{out}");
    assert!(out.contains("0 fresh, 6 resumed"), "{out}");
    assert_eq!(counts_of(&out), baseline, "{out}");

    let _ = std::fs::remove_file(log_path);
}

#[test]
fn all_infra_campaign_reports_without_margin() {
    // --deadline-ms 0 makes every run overrun: no classified runs at all.
    // The report must degrade gracefully instead of panicking on an empty
    // confidence-margin denominator.
    let o = nvbitfi(&[
        "campaign",
        "314.omriq",
        "--scale",
        "test",
        "--injections",
        "4",
        "--seed",
        "7",
        "--deadline-ms",
        "0",
        "--max-retries",
        "0",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    assert!(out.contains("4 infra errors"), "{out}");
    assert!(out.contains("n/a (no classified runs)"), "{out}");
}

#[test]
fn resume_rejects_logs_without_meta() {
    let log_path = tmp("meta-less.txt");
    std::fs::write(&log_path, "# nvbitfi results log v3 program=314.omriq\n").expect("write");
    let o = nvbitfi(&["resume", log_path.to_str().expect("utf8")]);
    assert!(!o.status.success());
    assert!(
        String::from_utf8_lossy(&o.stderr).contains("meta"),
        "{}",
        String::from_utf8_lossy(&o.stderr)
    );
    let _ = std::fs::remove_file(log_path);
}

#[test]
fn resume_rejects_a_meta_flag_other_than_0_or_1() {
    let log_path = tmp("banana.txt");
    let header = "# nvbitfi results log v5 program=314.omriq\n# meta scale=test\n\
                  # meta igid=7\n# meta bfm=1\n# meta injections=2\n# meta seed=7\n\
                  # meta checkpoints=banana\n";
    std::fs::write(&log_path, header).expect("write");
    let o = nvbitfi(&["resume", log_path.to_str().expect("utf8")]);
    assert!(!o.status.success(), "{}", stdout(&o));
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.contains("`# meta checkpoints=`") && err.contains("banana"), "{err}");
    assert_eq!(std::fs::read_to_string(&log_path).expect("log"), header, "log left as it was");
    let _ = std::fs::remove_file(log_path);
}

#[test]
fn undeclared_flags_and_arguments_fail_before_any_run() {
    let profile_path = tmp("strict-profile.txt");
    let list_path = tmp("strict-list.txt");
    let log_path = tmp("strict-log.txt");
    let (profile, list, log) = (
        profile_path.to_str().expect("utf8"),
        list_path.to_str().expect("utf8"),
        log_path.to_str().expect("utf8"),
    );
    let o = nvbitfi(&["profile", "314.omriq", "--scale", "test", "--out", profile]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let o = nvbitfi(&["select", "314.omriq", "--profile", profile, "--count", "8", "--out", list]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));

    let run_list = ["run-list", "314.omriq", "--scale", "test", "--list", list];
    let cases: [(Vec<&str>, &str); 6] = [
        // Selection flags belong to `campaign`, not to a list run.
        (
            [&run_list[..], &["--injections", "3", "--seed", "99", "--log", log]].concat(),
            "--injections",
        ),
        // A typo'd switch must not swallow the next flag as its value.
        ([&run_list[..], &["--no-checkpoints", "--log", log]].concat(), "--no-checkpoints"),
        (
            vec!["campaign", "314.omriq", "--scale", "test", "--frobnicate", "1", "--log", log],
            "--frobnicate",
        ),
        (vec!["campaign", "314.omriq", "extra", "--scale", "test", "--log", log], "extra"),
        (vec!["campaign", "314.omriq", "--scale", "test", "--log"], "--log"),
        (vec!["pf-campaign", "314.omriq", "--scale", "test", "--injections", "5"], "--injections"),
    ];
    for (argv, token) in cases {
        let o = nvbitfi(&argv);
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(!o.status.success(), "{argv:?} succeeded:\n{}", stdout(&o));
        assert!(err.contains(&format!("`{token}`")), "{argv:?}: {err}");
        assert!(!log_path.exists(), "{argv:?} created a journal");
        assert!(!stdout(&o).contains("running"), "{argv:?} started a run:\n{}", stdout(&o));
    }

    for p in [profile_path, list_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn resume_accepts_the_mode_names_campaign_does() {
    let log_path = tmp("approximate-mode.txt");
    let log = log_path.to_str().expect("utf8");
    let header = "# nvbitfi results log v5 program=314.omriq\n# meta scale=test\n\
                  # meta igid=7\n# meta bfm=1\n# meta injections=2\n# meta seed=7\n";
    for mode in ["approx", "approximate"] {
        std::fs::write(&log_path, format!("{header}# meta mode={mode}\n")).expect("write");
        let o = nvbitfi(&["resume", log]);
        assert!(o.status.success(), "{mode}: {}", String::from_utf8_lossy(&o.stderr));
        assert!(stdout(&o).contains("2 fresh, 0 resumed"), "{mode}: {}", stdout(&o));
    }
    let _ = std::fs::remove_file(log_path);
}

#[test]
fn disasm_edit_assemble_roundtrip() {
    // Dump a program's SASS, reassemble it to a binary, and disassemble the
    // binary again: the listings must agree (the nvdisasm↔assembler loop).
    let listing_path = tmp("listing.sass");
    let module_path = tmp("module.bin");

    let o = nvbitfi(&["disasm", "314.omriq", "--scale", "test"]);
    assert!(o.status.success());
    std::fs::write(&listing_path, stdout(&o)).expect("write listing");

    let o = nvbitfi(&[
        "assemble",
        "--in",
        listing_path.to_str().expect("utf8"),
        "--out",
        module_path.to_str().expect("utf8"),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    assert!(stdout(&o).contains("2 kernels"), "{}", stdout(&o));

    let o = nvbitfi(&["disasm-bin", "--in", module_path.to_str().expect("utf8")]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let second = stdout(&o);
    let first = std::fs::read_to_string(&listing_path).expect("listing");
    assert_eq!(first.trim(), second.trim(), "listings agree after reassembly");

    for p in [listing_path, module_path] {
        let _ = std::fs::remove_file(p);
    }
}

/// `trace` prints the three NVBit example tools' reports: `instr_count`
/// and `opcode_hist` from the golden run's opcode counters, and a
/// `mem_trace` sample from an instrumented run.
#[test]
fn trace_runs_the_nvbit_example_tools() {
    let o = nvbitfi(&["trace", "314.omriq", "--scale", "test", "--top", "3", "--mem", "5"]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    assert!(out.contains("instr_count:"), "{out}");
    assert!(out.contains("opcode_hist"), "{out}");
    assert!(out.contains("mem_trace"), "{out}");
    assert!(out.contains("MUFU"), "{out}");
}

/// The counts `trace` and `profile` read from the golden run are the ones
/// NVBitFI's profiler measures, on every test-scale program: `trace`'s
/// total, each per-kernel line and each opcode line (hottest first, ties
/// in opcode order), and `profile`'s whole file in both modes.
#[test]
fn trace_and_profile_print_the_profilers_counts_on_every_program() {
    use gpu_runtime::RuntimeConfig;
    use nvbitfi::{profile_program, ProfilingMode};
    use std::collections::BTreeMap;

    for entry in workloads::suite(workloads::Scale::Test) {
        let name = entry.name;
        let reference = |mode| {
            profile_program(entry.program.as_ref(), RuntimeConfig::default(), mode).expect(name)
        };
        let exact = reference(ProfilingMode::Exact);

        let o = nvbitfi(&["trace", name, "--scale", "test", "--top", "1000", "--mem", "1"]);
        assert!(o.status.success(), "{name}: {}", String::from_utf8_lossy(&o.stderr));
        let out = stdout(&o);
        let mut sections = out.split("\n\n");
        let (counts, hist) = (sections.next().expect(name), sections.next().expect(name));
        let mut counts = counts.lines();
        assert_eq!(
            counts.next(),
            Some(format!("instr_count: {} dynamic instructions", exact.total()).as_str()),
            "{name}"
        );
        let mut per_kernel = BTreeMap::new();
        for k in &exact.kernels {
            *per_kernel.entry(k.kernel.clone()).or_insert(0) += k.total();
        }
        let printed: BTreeMap<String, u64> = counts
            .map(|l| {
                let (kernel, n) = l.trim().split_once(' ').expect(l);
                (kernel.to_string(), n.trim().parse().expect(l))
            })
            .collect();
        assert_eq!(printed, per_kernel, "{name}: per-kernel lines");

        let mut hist = hist.lines();
        assert_eq!(hist.next(), Some("opcode_hist (top 1000):"), "{name}");
        let ops: Vec<(gpu_isa::Opcode, u64)> = hist
            .map(|l| {
                let (m, n) = l.trim().split_once(' ').expect(l);
                (gpu_isa::Opcode::from_mnemonic(m).expect(l), n.trim().parse().expect(l))
            })
            .collect();
        let printed_ops: Vec<_> = ops.iter().map(|(op, _)| *op).collect();
        let mut executed: Vec<_> = exact.executed_opcodes().into_iter().collect();
        executed.sort_by_key(|op| std::cmp::Reverse(exact.opcode_total(*op)));
        assert_eq!(printed_ops, executed, "{name}: opcodes, hottest first");
        for (op, n) in ops {
            assert_eq!(n, exact.opcode_total(op), "{name}: {op}");
        }

        for (mode, flag) in
            [(ProfilingMode::Exact, "exact"), (ProfilingMode::Approximate, "approx")]
        {
            let o = nvbitfi(&["profile", name, "--scale", "test", "--mode", flag]);
            assert!(o.status.success(), "{name}: {}", String::from_utf8_lossy(&o.stderr));
            assert_eq!(stdout(&o), reference(mode).to_file(), "{name}: {mode} profile");
        }
    }
}
