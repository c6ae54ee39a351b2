//! Campaign benchmark for the NVBitFI reproduction.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--smoke] [--reference FILE]
//! perfbench steady --runs N --seconds S [--out FILE]
//! perfbench reference [--out FILE]
//! perfbench rep ...            (one repetition; spawned by the above)
//! perfbench worker [--spawn-log FILE]   (process-isolation worker)
//! ```
//!
//! See README.md beside this crate for the workloads and metrics.

mod campaign;
mod digest;
mod probe;
mod reference;
mod rep;
mod spec;
mod stats;
mod steady;
mod trace;

use crate::reference::Reference;
use crate::spec::{spec, Spec, VARIANTS};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// End-to-end metrics and their units, in report order.
const E2E_UNITS: [(&str, &str); 8] = [
    ("campaign_s", "s"),
    ("setup_s", "s"),
    ("injections_per_s", "1/s"),
    ("run_p50_ms", "ms"),
    ("run_p90_ms", "ms"),
    ("sim_instrs_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Printed with the end-to-end metrics but left out of the result line:
/// on `process-short` the 90th percentile sits on the worker's 2 ms poll
/// slice and jumps to the next slice whenever more than a tenth of a
/// repetition's runs miss it under host load, so its run-to-run spread
/// (0.37 in ten runs) is wider than any bound it could carry.
const PRINTED_ONLY: [&str; 1] = ["run_p90_ms"];

/// Per-layer metrics and their units, in report order.
const LAYER_UNITS: [(&str, &str); 31] = [
    ("gpu-sim.golden_s", "s"),
    ("gpu-sim.thread_instrs", "count"),
    ("gpu-sim.launches", "count"),
    ("gpu-sim.us_per_launch", "us"),
    ("gpu-runtime.record_s", "s"),
    ("gpu-runtime.checkpoints", "count"),
    ("gpu-runtime.ff_skipped_share", "share"),
    ("gpu-isa.decode_us", "us"),
    ("gpu-isa.modules_loaded", "count"),
    ("nvbit.hook_calls", "count"),
    ("nvbit.ns_per_hook_call", "ns"),
    ("nvbit.jit_cache_hit_share", "share"),
    ("profile.s", "s"),
    ("select.ms", "ms"),
    ("prune.s", "s"),
    ("prune.pruned_share", "share"),
    ("gpu-analysis.liveness_us", "us"),
    ("inject.run_ms_p50", "ms"),
    ("inject.thread_instrs_per_run", "count"),
    ("outcome.classify_us", "us"),
    ("campaign.worker_busy_share", "share"),
    ("worker.ready_ms", "ms"),
    ("worker.frame_rtt_us", "us"),
    ("worker.frame_bytes", "bytes"),
    ("pool.respawns", "count"),
    ("pool.run_overhead_ms", "ms"),
    ("journal.append_us", "us"),
    ("permanent.run_ms_p50", "ms"),
    ("permanent.activations", "count"),
    ("permanent.profile_s", "s"),
    ("trace.overhead_share", "share"),
];

/// `--key value` pairs and bare `--switch`es.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        const SWITCHES: [&str; 1] = ["smoke"];
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a.strip_prefix("--").ok_or(format!("unexpected argument `{a}`"))?;
            let value = if SWITCHES.contains(&key) {
                "1".to_string()
            } else {
                it.next().ok_or(format!("--{key} needs a value"))?.clone()
            };
            map.insert(key.to_string(), value);
        }
        Ok(Args(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn req(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or(format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match (self.get(key), default) {
            (Some(v), _) => v.parse().map_err(|_| format!("bad value for --{key}: `{v}`")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("missing --{key}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn default_reference() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("reference").join("verdicts.tsv")
}

/// Scratch files (journals, spans) live beside the binary, in the build
/// directory.
fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.parent().unwrap_or(Path::new(".")).join("perfbench-work")
}

/// Refuse to run from a binary built from other sources than those on
/// disk: its campaigns (and its process-isolation workers) would measure
/// stale code.
fn check_fresh() -> Result<(), String> {
    let built = env!("PERFBENCH_SOURCE_DIGEST");
    let now = digest::source_digest(&repo_root());
    if built == now {
        Ok(())
    } else {
        Err(format!(
            "this binary was built from sources with digest {built}, but the sources now \
             digest to {now}; rebuild it (cargo build --release --manifest-path perfbench/Cargo.toml)"
        ))
    }
}

/// The commit the sources came from, when the tree is a git checkout.
fn git_commit() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else { return "none".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(spec: &Spec, seed: u64, seconds: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "# perfbench workload={} seed={seed} variant={} campaign_seed={:#x} scale={} workers={} \
         nproc={nproc} seconds={seconds}\n\
         # commit={} sources={} rustc=\"{}\"\n",
        spec.name,
        seed % VARIANTS,
        spec::campaign_seed(seed % VARIANTS),
        spec::scale_name(spec.scale),
        spec::WORKERS,
        git_commit(),
        env!("PERFBENCH_SOURCE_DIGEST"),
        env!("PERFBENCH_RUSTC"),
    )
}

fn load_reference(args: &Args) -> Result<Reference, String> {
    let path = args.get("reference").map_or_else(default_reference, PathBuf::from);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read verdict reference {}: {e}", path.display()))?;
    reference::parse(&text)
}

/// One repetition as its parent parsed it.
#[derive(Debug, Default)]
struct RepLines {
    e2e: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
    self_times: BTreeMap<String, f64>,
    counts: BTreeMap<String, u64>,
}

fn parse_rep(text: &str) -> Result<RepLines, String> {
    let mut r = RepLines::default();
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let [kind, name, value] = f[..] else { continue };
        let bad = || format!("bad repetition line `{line}`");
        let num = || value.parse::<f64>().map_err(|_| bad());
        match kind {
            "e2e" => {
                r.e2e.insert(name.into(), num()?);
            }
            "layer" => {
                r.layers.insert(name.into(), num()?);
            }
            "self" => {
                r.self_times.insert(name.into(), num()?);
            }
            "count" => {
                r.counts.insert(name.into(), value.parse().map_err(|_| bad())?);
            }
            _ => {}
        }
    }
    Ok(r)
}

/// Spawn one repetition in a fresh process and wait for it.
fn spawn_rep(args: &Args, variant: u64, traced: bool, parity: bool) -> Result<RepLines, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("rep")
        .args(["--workload", args.req("workload")?])
        .args(["--variant", &variant.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--parity", if parity { "1" } else { "0" }]);
    if args.flag("smoke") {
        cmd.arg("--smoke");
    }
    if let Some(r) = args.get("reference") {
        cmd.args(["--reference", r]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition failed ({})", out.status));
    }
    parse_rep(&String::from_utf8_lossy(&out.stdout))
}

fn fmt_row(cells: &[String]) -> String {
    let widths = [38, 16, 16, 16, 6, 5];
    let mut s = String::new();
    for (i, c) in cells.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(10);
        if i == 0 {
            s.push_str(&format!("{c:<w$}"));
        } else {
            s.push_str(&format!(" {c:>w$}"));
        }
    }
    s
}

/// Median and quartiles of each metric across repetitions.
fn summary_table(units: &[(&str, &str)], reps: &[&BTreeMap<String, f64>]) -> String {
    let mut out = fmt_row(&["metric", "median", "q1", "q3", "unit", "reps"].map(String::from));
    out.push('\n');
    for (name, unit) in units {
        let v: Vec<f64> = reps.iter().filter_map(|r| r.get(*name).copied()).collect();
        let Some(med) = median(&v) else { continue };
        let (q1, q3) = quartiles(&v).unwrap_or((med, med));
        let cells = [
            name.to_string(),
            format!("{med:.6}"),
            format!("{q1:.6}"),
            format!("{q3:.6}"),
            unit.to_string(),
            v.len().to_string(),
        ];
        out.push_str(&fmt_row(&cells));
        out.push('\n');
    }
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// What one measured run found: the verdict check, the counts and metrics
/// of the result line, and the human-readable report.
struct Measured {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    report: String,
}

/// Repeat the workload in fresh processes for `--seconds`, every repetition
/// on the seed's input variant, and summarise the repetitions.
fn measure(args: &Args) -> Result<Measured, String> {
    check_fresh()?;
    let workload = args.req("workload")?;
    let smoke = args.flag("smoke");
    let spec = spec(workload, smoke).ok_or(format!("unknown workload `{workload}`"))?;
    let seed: u64 = args.num("seed", None)?;
    let seconds: u64 = args.num("seconds", None)?;
    let traced = match args.req("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad value for --trace: `{other}` (0|1)")),
    };
    load_reference(args)?;
    let mut report = stamp(&spec, seed, seconds);

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut plain, mut with_trace): (Vec<RepLines>, Vec<RepLines>) = (Vec::new(), Vec::new());
    loop {
        let k = plain.len() + with_trace.len();
        let traced_now = traced && k % 2 == 1;
        let rep = spawn_rep(args, seed % VARIANTS, traced_now, k == 0)?;
        if traced_now {
            with_trace.push(rep);
        } else {
            plain.push(rep);
        }
        // Start another repetition while at least half of one still fits,
        // so the repetition count does not flip on small timing noise.
        let elapsed = start.elapsed();
        let mean = elapsed / (k + 1) as u32;
        if (!traced || !with_trace.is_empty()) && elapsed + mean / 2 >= budget {
            break;
        }
    }

    let all: Vec<&RepLines> = plain.iter().chain(&with_trace).collect();
    let count = |k: &str| all.iter().map(|r| r.counts.get(k).copied().unwrap_or(0)).sum::<u64>();
    let (attempted, infra, mismatches, parity) =
        (count("attempted"), count("infra"), count("mismatches"), count("parity_mismatches"));
    let samples =
        all.iter().map(|r| r.counts.get("run_samples").copied().unwrap_or(0)).collect::<Vec<_>>();

    let plain_e2e: Vec<&BTreeMap<String, f64>> = plain.iter().map(|r| &r.e2e).collect();
    let _ =
        writeln!(report, "\nend-to-end ({} untraced repetitions, fresh process each)", plain.len());
    report.push_str(&summary_table(&E2E_UNITS, &plain_e2e));
    let _ = writeln!(report, "run_p50_ms/run_p90_ms samples per repetition: {samples:?}");
    let _ = writeln!(
        report,
        "infra_error_share: {} (InfraError verdicts / runs attempted)",
        infra as f64 / attempted.max(1) as f64
    );
    let _ = writeln!(
        report,
        "verdict_mismatches: {mismatches} (sites differing from the reference, all repetitions)"
    );
    if spec.kind == spec::Kind::Process {
        let _ = writeln!(report, "process_vs_thread_mismatches: {parity}");
    }

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if traced {
        // Repetition 2i is untraced and 2i+1 traced, on the same input.
        let campaign = |r: &RepLines| r.e2e.get("campaign_s").copied();
        let ratios: Vec<f64> = plain
            .iter()
            .zip(&with_trace)
            .filter_map(|(u, t)| Some(campaign(t)? / campaign(u)? - 1.0))
            .collect();
        let overhead = median(&ratios).unwrap_or(0.0);
        let mut layer_maps: Vec<BTreeMap<String, f64>> =
            with_trace.iter().map(|r| r.layers.clone()).collect();
        for m in &mut layer_maps {
            m.insert("trace.overhead_share".into(), overhead);
        }
        let refs: Vec<&BTreeMap<String, f64>> = layer_maps.iter().collect();
        let _ = writeln!(report, "\nper-layer ({} traced repetitions)", with_trace.len());
        report.push_str(&summary_table(&LAYER_UNITS, &refs));
        let selfs: Vec<&BTreeMap<String, f64>> = with_trace.iter().map(|r| &r.self_times).collect();
        let names: Vec<String> = selfs
            .iter()
            .flat_map(|m| m.keys().cloned())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let units: Vec<(&str, &str)> = names.iter().map(|n| (n.as_str(), "s")).collect();
        let _ = writeln!(report, "\nself time per span (seconds, traced repetitions)");
        report.push_str(&summary_table(&units, &selfs));
        let _ = writeln!(
            report,
            "tracing overhead: median over {} untraced/traced pairs of traced campaign_s / \
             untraced campaign_s - 1 = {overhead:.4}",
            ratios.len()
        );
        for (name, unit) in LAYER_UNITS {
            let v: Vec<f64> = refs.iter().filter_map(|m| m.get(name).copied()).collect();
            metrics.push((name, unit, median(&v).unwrap_or(0.0)));
        }
    } else {
        for (name, unit) in E2E_UNITS.into_iter().filter(|(n, _)| !PRINTED_ONLY.contains(n)) {
            let v: Vec<f64> = plain_e2e.iter().filter_map(|m| m.get(name).copied()).collect();
            metrics.push((name, unit, median(&v).unwrap_or(0.0)));
        }
    }

    Ok(Measured {
        correct: mismatches == 0 && parity == 0,
        attempted,
        failed: infra + mismatches + parity,
        metrics,
        report,
    })
}

/// The benchmark's entry point: one measured run, its report and the
/// result line.
fn run_cmd(args: &Args) -> Result<bool, String> {
    let m = measure(args)?;
    print!("{}", m.report);
    let body: Vec<String> = m
        .metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.correct,
        m.attempted,
        m.failed,
        body.join(", ")
    );
    Ok(m.correct)
}

fn rep_cmd(args: &Args) -> Result<(), String> {
    check_fresh()?;
    let smoke = args.flag("smoke");
    let workload = args.req("workload")?;
    let spec = spec(workload, smoke).ok_or(format!("unknown workload `{workload}`"))?;
    let reference = load_reference(args)?;
    let opts = rep::RepOptions {
        spec: &spec,
        smoke,
        variant: args.num("variant", None)?,
        traced: args.get("trace") == Some("1"),
        parity: args.get("parity") == Some("1"),
        reference: &reference,
        work_dir: &work_dir(),
    };
    let out = rep::run(&opts)?;
    print!("{}", out.render());
    std::io::stdout().flush().map_err(|e| e.to_string())
}

fn worker_cmd(args: &Args) -> Result<(), String> {
    if let Some(log) = args.get("spawn-log") {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("cannot open spawn log {log}: {e}"))?;
        writeln!(f, "{}", std::process::id()).map_err(|e| e.to_string())?;
    }
    let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
    nvbitfi::serve(stdin.lock(), stdout.lock(), &probe::resolve)
        .map_err(|e| format!("worker transport failure: {e}"))
}

/// Regenerate the verdict reference: every workload, full and smoke, every
/// variant. Process-mode workloads are recorded in thread mode; their
/// repetitions then check process-mode verdicts against it.
fn reference_cmd(args: &Args) -> Result<(), String> {
    check_fresh()?;
    let out = args.get("out").map_or_else(default_reference, PathBuf::from);
    let work = work_dir();
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let mut table = Reference::new();
    for smoke in [true, false] {
        for name in spec::WORKLOADS {
            let s = spec(name, smoke).expect("known workload");
            for variant in 0..VARIANTS {
                let seed = spec::campaign_seed(variant);
                eprintln!("reference: {} variant {variant}", spec::reference_key(&s, smoke));
                for program in &s.programs {
                    let entry = workloads::find(s.scale, program).ok_or("unknown program")?;
                    let v = if s.kind == spec::Kind::Permanent {
                        campaign::run_permanent(&entry, &campaign::permanent_cfg(seed), None)?
                            .verdicts()
                    } else {
                        let cfg = campaign::transient_cfg(
                            s.injections,
                            seed,
                            nvbitfi::IsolationMode::Thread,
                        );
                        campaign::run_transient(&entry, &cfg, &work.join("reference.log"), None)?
                            .verdicts()
                    };
                    table.insert((spec::reference_key(&s, smoke), variant, program.to_string()), v);
                }
            }
        }
    }
    std::fs::write(&out, reference::render(&table))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("reference: wrote {} rows to {}", table.len(), out.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("rep" | "worker" | "steady" | "reference")) => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let result = Args::parse(rest).and_then(|args| match cmd {
        "rep" => rep_cmd(&args).map(|()| true),
        "worker" => worker_cmd(&args).map(|()| true),
        "steady" => steady::run(&args).map(|()| true),
        "reference" => reference_cmd(&args).map(|()| true),
        _ => run_cmd(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: verdicts differ from the reference");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
