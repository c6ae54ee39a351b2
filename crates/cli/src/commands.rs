//! Subcommand implementations.

use crate::args::Args;
use gpu_isa::disasm;
use gpu_runtime::{run_program, RuntimeConfig};
use nvbit::{CallSite, NvBit, NvBitTool};
use nvbitfi::{
    atomic_write, report, run_permanent_campaign, run_transient_campaign_with, select_transient,
    stats, BitFlipModel, CampaignConfig, CampaignHooks, InjectionRun, InstrGroup, IsolationMode,
    Journal, PermanentCampaignConfig, PermanentInjector, PermanentParams, PreparedGolden,
    ProcessIsolation, Profile, ProfilingMode, TransientCampaign, TransientInjector,
    TransientParams,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use workloads::{BenchEntry, Scale};

const USAGE: &str = "\
usage: nvbitfi <command> [args]

commands:
  list                          list the benchmark programs
  profile <prog> [--mode exact|approx] [--out FILE] [--scale paper|test]
  select <prog> --profile FILE [--group ID] [--bitflip ID] [--seed S] [--count N] [--out FILE]
  inject <prog> --params FILE [--scale paper|test]
  run-list <prog> --list FILE [--log FILE]
  campaign <prog> [--injections N] [--group ID] [--bitflip ID] [--seed S] [--mode exact|approx] [--log FILE] [--max-retries N] [--deadline-ms MS] [--isolation thread|process] [--no-checkpoint] [--no-static-prune]
  resume <LOG> [--scale paper|test] [--isolation thread|process]
  pf <prog> --opcode MNEMONIC [--sm N] [--lane N] [--mask HEX]
  pf-campaign <prog> [--seed S]
  lint <prog|MODULE.bin> [--json] [--scale paper|test]
  disasm <prog>
  assemble --in LISTING --out MODULE.bin
  disasm-bin --in MODULE.bin
  trace <prog> [--top N] [--mem N]

campaign logs are durable journals: every classified run is flushed to
--log as it completes, Ctrl-C stops dispatching and flushes a partial log,
and `nvbitfi resume <LOG>` continues an interrupted campaign to the same
final counts an uninterrupted run would have produced.

--isolation process runs every injection in a supervised disposable worker
process: a run that segfaults, aborts, or is killed costs one verdict
(recorded INFRA:died and re-run by resume), never the campaign.
";

/// Dispatch a parsed command line.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, bad flags, or
/// failed campaigns.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        print!("{USAGE}");
        return Ok(());
    };
    let args = Args::parse(&argv[1..])?;
    match cmd.as_str() {
        "list" => list(),
        "profile" => profile(&args),
        "select" => select(&args),
        "inject" => inject(&args),
        "run-list" => run_list(&args),
        "campaign" => campaign(&args),
        "resume" => resume(&args),
        "pf" => pf(&args),
        "pf-campaign" => pf_campaign(&args),
        "lint" => lint(&args),
        "disasm" => disassemble(&args),
        "assemble" => assemble(&args),
        "trace" => trace(&args),
        "disasm-bin" => disasm_bin(&args),
        // Hidden: the process-isolation worker entry point, spawned by
        // `campaign --isolation process` — never by hand, so not in USAGE.
        "worker" => worker_cmd(),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn scale(args: &Args) -> Result<Scale, String> {
    match args.get("scale") {
        None | Some("paper") => Ok(Scale::Paper),
        Some("test") => Ok(Scale::Test),
        Some(other) => Err(format!("bad --scale `{other}` (paper|test)")),
    }
}

fn entry(args: &Args, scale: Scale) -> Result<BenchEntry, String> {
    let name = args.positional(0).ok_or("missing program name; try `nvbitfi list`")?;
    workloads::find(scale, name).ok_or_else(|| format!("unknown program `{name}`"))
}

fn mode(args: &Args) -> Result<ProfilingMode, String> {
    match args.get("mode") {
        None | Some("exact") => Ok(ProfilingMode::Exact),
        Some("approx") | Some("approximate") => Ok(ProfilingMode::Approximate),
        Some(other) => Err(format!("bad --mode `{other}` (exact|approx)")),
    }
}

fn group(args: &Args) -> Result<InstrGroup, String> {
    let id: u8 = args.get_or("group", InstrGroup::GpPr.id())?;
    InstrGroup::from_id(id).ok_or_else(|| format!("bad --group {id} (1..8, see Table II)"))
}

fn bitflip(args: &Args) -> Result<BitFlipModel, String> {
    let id: u8 = args.get_or("bitflip", BitFlipModel::FlipSingleBit.id())?;
    BitFlipModel::from_id(id).ok_or_else(|| format!("bad --bitflip {id} (1..4, see Table II)"))
}

fn list() -> Result<(), String> {
    let mut rows = vec![vec![
        "program".to_string(),
        "description".to_string(),
        "static kernels".to_string(),
        "dynamic kernels (paper)".to_string(),
    ]];
    for e in workloads::suite(Scale::Paper) {
        rows.push(vec![
            e.name.to_string(),
            e.description.to_string(),
            e.paper_static.to_string(),
            e.paper_dynamic.to_string(),
        ]);
    }
    print!("{}", report::table(&rows));
    Ok(())
}

fn profile(args: &Args) -> Result<(), String> {
    let e = entry(args, scale(args)?)?;
    let mode = mode(args)?;
    let p = nvbitfi::profile_program(e.program.as_ref(), RuntimeConfig::default(), mode)
        .map_err(|err| err.to_string())?;
    let text = p.to_file();
    match args.get("out") {
        Some(path) => {
            atomic_write(path, &text).map_err(|err| err.to_string())?;
            println!(
                "wrote {} dynamic kernels ({} dynamic instructions, {mode} profiling) to {path}",
                p.kernels.len(),
                p.total()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn select(args: &Args) -> Result<(), String> {
    let profile_path = args.get("profile").ok_or("missing --profile FILE")?;
    let text = std::fs::read_to_string(profile_path).map_err(|e| e.to_string())?;
    let profile = Profile::from_file(&text).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(args.get_or("seed", 0x5EED_u64)?);
    let count: usize = args.get_or("count", 1)?;
    if count == 1 {
        let params = select_transient(&profile, group(args)?, bitflip(args)?, &mut rng)
            .map_err(|e| e.to_string())?;
        match args.get("out") {
            Some(path) => {
                atomic_write(path, params.to_file()).map_err(|e| e.to_string())?;
                println!("wrote fault parameters to {path}: {params}");
            }
            None => print!("{}", params.to_file()),
        }
    } else {
        // Multiple faults: write an injection list (the split-campaign
        // workflow — ship the list, run it elsewhere with `run-list`).
        let sites =
            nvbitfi::select_campaign(&profile, group(args)?, bitflip(args)?, count, &mut rng)
                .map_err(|e| e.to_string())?;
        let text = nvbitfi::logfile::write_injection_list(&sites);
        match args.get("out") {
            Some(path) => {
                atomic_write(path, text).map_err(|e| e.to_string())?;
                println!("wrote {count} faults to {path}");
            }
            None => print!("{text}"),
        }
    }
    Ok(())
}

/// The golden run single injections are classified against: default
/// runtime, no checkpoints, so every injection is a full replay.
fn prepare(e: &BenchEntry) -> Result<PreparedGolden, String> {
    PreparedGolden::new(e.program.as_ref(), RuntimeConfig::default(), false)
        .map_err(|err| err.to_string())
}

fn run_list(args: &Args) -> Result<(), String> {
    let e = entry(args, scale(args)?)?;
    let list_path = args.get("list").ok_or("missing --list FILE")?;
    let text = std::fs::read_to_string(list_path).map_err(|err| err.to_string())?;
    let sites = nvbitfi::logfile::read_injection_list(&text).map_err(|err| err.to_string())?;
    println!("running {} faults from {list_path} into {} …", sites.len(), e.name);

    let golden = prepare(&e)?;

    // Journal incrementally: run-list logs are durable the same way
    // campaign logs are (no resume meta — the list file is the authority).
    let mut journal = match args.get("log") {
        Some(path) => {
            let header = nvbitfi::logfile::results_log_header(e.name, &[]);
            Some(Journal::create(path, &header).map_err(|err| format!("create {path}: {err}"))?)
        }
        None => None,
    };
    crate::sigint::install();

    let total = sites.len();
    let mut counts = nvbitfi::OutcomeCounts::default();
    for (done, params) in sites.into_iter().enumerate() {
        if crate::sigint::interrupted() {
            println!("interrupted — stopping after {done} of {total} runs");
            break;
        }
        let t = std::time::Instant::now();
        let (tool, handle) = TransientInjector::new(params.clone());
        let (outcome, prefix_instrs_skipped) =
            golden.inject(e.program.as_ref(), e.check.as_ref(), Box::new(tool), 0);
        counts.add(&outcome);
        let run = nvbitfi::InjectionRun {
            params,
            outcome,
            injected: handle.get().injected,
            wall: t.elapsed(),
            prefix_instrs_skipped,
            pruned: false,
            attempts: 1,
            resumed: false,
        };
        if let Some(j) = journal.as_mut() {
            j.append(&nvbitfi::logfile::results_log_row(&run)).map_err(|err| err.to_string())?;
        }
    }
    println!("{counts}");
    if let Some(log_path) = args.get("log") {
        println!("results log written to {log_path}");
    }
    Ok(())
}

fn inject(args: &Args) -> Result<(), String> {
    let e = entry(args, scale(args)?)?;
    let params_path = args.get("params").ok_or("missing --params FILE")?;
    let text = std::fs::read_to_string(params_path).map_err(|err| err.to_string())?;
    let params = TransientParams::from_file(&text).map_err(|err| err.to_string())?;
    println!("injecting: {params}");

    let (tool, handle) = TransientInjector::new(params);
    let (outcome, _) = prepare(&e)?.inject(e.program.as_ref(), e.check.as_ref(), Box::new(tool), 0);
    let rec = handle.get();
    println!("injected: {}", rec.injected);
    if let Some(d) = rec.detail {
        println!(
            "  corrupted {} at pc {} in `{}` instance {} (thread {}): {:?}",
            d.opcode, d.pc, d.kernel, d.instance, d.global_tid, d.target
        );
    }
    println!("outcome: {outcome}");
    Ok(())
}

/// Journal-and-interrupt hooks shared by `campaign` and `resume`: appends
/// one flushed v4 row per completed run and stops dispatch after Ctrl-C.
struct CliHooks {
    journal: Option<Mutex<Journal>>,
    io_error: Mutex<Option<String>>,
}

impl CliHooks {
    fn new(journal: Option<Journal>) -> CliHooks {
        CliHooks { journal: journal.map(Mutex::new), io_error: Mutex::new(None) }
    }

    /// The first journal-append failure, if any (workers keep running —
    /// losing durability must not also lose the in-memory campaign).
    fn take_error(&self) -> Option<String> {
        self.io_error.lock().take()
    }
}

impl CampaignHooks for CliHooks {
    fn on_run(&self, run: &InjectionRun) {
        if let Some(j) = &self.journal {
            if let Err(err) = j.lock().append(&nvbitfi::logfile::results_log_row(run)) {
                let mut slot = self.io_error.lock();
                if slot.is_none() {
                    *slot = Some(err.to_string());
                }
            }
        }
    }

    fn should_stop(&self) -> bool {
        crate::sigint::interrupted()
    }
}

fn mode_name(m: ProfilingMode) -> &'static str {
    match m {
        ProfilingMode::Exact => "exact",
        ProfilingMode::Approximate => "approx",
    }
}

fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Paper => "paper",
        Scale::Test => "test",
    }
}

/// Build the isolation mode from an `--isolation` value (or the journal's
/// `# meta isolation=`). Process mode spawns this very binary as the worker
/// command, with the campaign's scale forwarded for the suite lookup.
fn parse_isolation(choice: Option<&str>, sc: Scale) -> Result<IsolationMode, String> {
    match choice {
        None | Some("thread") => Ok(IsolationMode::Thread),
        Some("process") => {
            let exe = std::env::current_exe()
                .map_err(|err| format!("cannot locate own executable to spawn workers: {err}"))?;
            Ok(IsolationMode::Process(ProcessIsolation::new(
                vec![exe.to_string_lossy().into_owned(), "worker".to_string()],
                scale_name(sc),
            )))
        }
        Some(other) => Err(format!("bad isolation `{other}` (thread|process)")),
    }
}

fn isolation_name(mode: &IsolationMode) -> &'static str {
    match mode {
        IsolationMode::Thread => "thread",
        IsolationMode::Process(_) => "process",
    }
}

/// Hidden subcommand: one process-isolation worker session over
/// stdin/stdout. See `nvbitfi::worker` for the protocol.
fn worker_cmd() -> Result<(), String> {
    // Ctrl-C at the terminal reaches the whole process group; the worker
    // must outlive it so the supervisor can drain in-flight runs cleanly.
    crate::sigint::ignore();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    nvbitfi::serve(stdin.lock(), stdout.lock(), &|prog, sc| {
        let sc = match sc {
            "paper" => Scale::Paper,
            "test" => Scale::Test,
            _ => return None,
        };
        workloads::find(sc, prog).map(|e| (e.program, e.check))
    })
    .map_err(|err| format!("worker transport failure: {err}"))
}

/// The `# meta` pairs a results journal records so `resume` can rebuild the
/// identical seed-deterministic campaign without the original command line.
fn campaign_meta(sc: Scale, cfg: &CampaignConfig) -> Vec<(&'static str, String)> {
    vec![
        ("scale", scale_name(sc).to_string()),
        ("igid", cfg.group.id().to_string()),
        ("bfm", cfg.bit_flip.id().to_string()),
        ("injections", cfg.injections.to_string()),
        ("seed", cfg.seed.to_string()),
        ("mode", mode_name(cfg.profiling).to_string()),
        ("checkpoints", u8::from(cfg.use_checkpoints).to_string()),
        ("prune", u8::from(cfg.use_static_prune).to_string()),
        ("max_retries", cfg.max_retries.to_string()),
        (
            "deadline_ms",
            cfg.run_deadline.map_or_else(|| "-".to_string(), |d| d.as_millis().to_string()),
        ),
        ("isolation", isolation_name(&cfg.isolation).to_string()),
    ]
}

fn campaign_cfg(args: &Args) -> Result<CampaignConfig, String> {
    Ok(CampaignConfig {
        injections: args.get_or("injections", 100)?,
        seed: args.get_or("seed", 0x5EED_u64)?,
        group: group(args)?,
        bit_flip: bitflip(args)?,
        profiling: mode(args)?,
        use_checkpoints: !args.switch("no-checkpoint"),
        use_static_prune: !args.switch("no-static-prune"),
        max_retries: args.get_or("max-retries", CampaignConfig::default().max_retries)?,
        run_deadline: match args.get("deadline-ms") {
            Some(v) => Some(Duration::from_millis(
                v.parse().map_err(|_| format!("bad value for --deadline-ms: `{v}`"))?,
            )),
            None => None,
        },
        ..CampaignConfig::default()
    })
}

/// Report a finished (possibly interrupted) campaign and surface journal
/// state: robustness counters, the classified-runs confidence margin, any
/// journal I/O failure, and the resume hint.
fn finish_campaign(
    log_path: Option<&str>,
    result: &TransientCampaign,
    hooks: &CliHooks,
) -> Result<(), String> {
    println!("{}", report::transient_summary(result));
    let classified = result.counts.classified();
    if classified > 0 {
        println!(
            "90% confidence margin: ±{:.1}% (over {classified} classified runs)",
            stats::error_margin(classified as usize, 0.90) * 100.0,
        );
    } else {
        println!("90% confidence margin: n/a (no classified runs)");
    }
    if let Some(err) = hooks.take_error() {
        return Err(format!("journal write failed: {err}"));
    }
    if let Some(path) = log_path {
        println!("results log written to {path}");
    }
    if result.interrupted {
        match log_path {
            Some(path) => {
                println!("interrupted — completed runs are journaled");
                println!("resume with: nvbitfi resume {path}");
            }
            None => println!("interrupted — partial results (run with --log to make resumable)"),
        }
    }
    Ok(())
}

fn campaign(args: &Args) -> Result<(), String> {
    let sc = scale(args)?;
    let e = entry(args, sc)?;
    let mut cfg = campaign_cfg(args)?;
    cfg.isolation = parse_isolation(args.get("isolation"), sc)?;
    let journal = match args.get("log") {
        Some(path) => {
            let header = nvbitfi::logfile::results_log_header(e.name, &campaign_meta(sc, &cfg));
            Some(Journal::create(path, &header).map_err(|err| format!("create {path}: {err}"))?)
        }
        None => None,
    };
    crate::sigint::install();
    println!("running {} transient injections into {} …", cfg.injections, e.name);
    let hooks = CliHooks::new(journal);
    let result =
        run_transient_campaign_with(e.program.as_ref(), e.check.as_ref(), &cfg, Vec::new(), &hooks)
            .map_err(|err| err.to_string())?;
    finish_campaign(args.get("log"), &result, &hooks)
}

fn resume(args: &Args) -> Result<(), String> {
    let log_path = args.positional(0).ok_or("missing results log; usage: nvbitfi resume <LOG>")?;
    let text = std::fs::read_to_string(log_path).map_err(|err| format!("{log_path}: {err}"))?;
    let header = nvbitfi::logfile::parse_log_header(&text);
    let program = header
        .program
        .clone()
        .ok_or("log has no `program=` header line; is this a results log?")?;
    let get = |k: &str| header.meta.get(k).map(String::as_str);
    let need = |k: &str| {
        get(k).ok_or_else(|| {
            format!(
                "log is missing `# meta {k}=` (written by campaign --log since v4); cannot resume"
            )
        })
    };

    let sc = match args.get("scale").or(get("scale")) {
        None | Some("paper") => Scale::Paper,
        Some("test") => Scale::Test,
        Some(other) => return Err(format!("bad scale `{other}` (paper|test)")),
    };
    let e = workloads::find(sc, &program)
        .ok_or_else(|| format!("unknown program `{program}` named by the log"))?;
    let group_id: u8 = need("igid")?.parse().map_err(|_| "bad `# meta igid=`".to_string())?;
    let bfm_id: u8 = need("bfm")?.parse().map_err(|_| "bad `# meta bfm=`".to_string())?;
    let cfg = CampaignConfig {
        injections: need("injections")?
            .parse()
            .map_err(|_| "bad `# meta injections=`".to_string())?,
        seed: need("seed")?.parse().map_err(|_| "bad `# meta seed=`".to_string())?,
        group: InstrGroup::from_id(group_id).ok_or("bad `# meta igid=`")?,
        bit_flip: BitFlipModel::from_id(bfm_id).ok_or("bad `# meta bfm=`")?,
        profiling: match get("mode") {
            None | Some("exact") => ProfilingMode::Exact,
            Some("approx") => ProfilingMode::Approximate,
            Some(other) => return Err(format!("bad `# meta mode={other}`")),
        },
        use_checkpoints: get("checkpoints") != Some("0"),
        use_static_prune: get("prune") != Some("0"),
        max_retries: match get("max_retries") {
            Some(v) => v.parse().map_err(|_| "bad `# meta max_retries=`".to_string())?,
            None => CampaignConfig::default().max_retries,
        },
        run_deadline: match get("deadline_ms") {
            None | Some("-") => None,
            Some(v) => Some(Duration::from_millis(
                v.parse().map_err(|_| "bad `# meta deadline_ms=`".to_string())?,
            )),
        },
        // The journal records how the campaign executed; a resume
        // reconstructs the same isolation mode unless overridden.
        isolation: parse_isolation(args.get("isolation").or(get("isolation")), sc)?,
        ..CampaignConfig::default()
    };

    let (rows, torn) =
        nvbitfi::logfile::recover_results_log(&text).map_err(|err| err.to_string())?;
    if torn {
        println!("note: dropped a torn final line (crash mid-append); its run re-executes");
    }
    let prior = nvbitfi::logfile::to_runs(rows);
    let reran_infra = prior.iter().filter(|r| r.outcome.is_infra()).count();
    if reran_infra > 0 {
        println!("note: {reran_infra} prior infra-error run(s) get a fresh attempt");
    }

    // Rewrite the journal duplicate-free before appending: keep the header
    // (meta intact) and every honored verdict; drop the torn tail and any
    // infra rows being re-run. Atomic, so a crash here cannot lose the log.
    let meta_pairs: Vec<(&str, String)> =
        header.meta.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let mut content = nvbitfi::logfile::results_log_header(&program, &meta_pairs);
    let kept = prior.iter().filter(|r| !r.outcome.is_infra()).count();
    for run in prior.iter().filter(|r| !r.outcome.is_infra()) {
        content.push_str(&nvbitfi::logfile::results_log_row(run));
    }
    atomic_write(log_path, &content).map_err(|err| format!("rewrite {log_path}: {err}"))?;
    let journal = Journal::append_to(log_path).map_err(|err| format!("open {log_path}: {err}"))?;

    crate::sigint::install();
    println!(
        "resuming campaign on {program}: {kept} of {} verdicts reloaded from {log_path} …",
        cfg.injections
    );
    let hooks = CliHooks::new(Some(journal));
    let result =
        run_transient_campaign_with(e.program.as_ref(), e.check.as_ref(), &cfg, prior, &hooks)
            .map_err(|err| err.to_string())?;
    finish_campaign(Some(log_path), &result, &hooks)
}

fn pf(args: &Args) -> Result<(), String> {
    let e = entry(args, scale(args)?)?;
    let mnemonic = args.get("opcode").ok_or("missing --opcode MNEMONIC")?;
    let opcode = gpu_isa::Opcode::from_mnemonic(mnemonic)
        .ok_or_else(|| format!("unknown opcode `{mnemonic}`"))?;
    let params = PermanentParams {
        sm_id: args.get_or("sm", 0u32)?,
        lane_id: args.get_or("lane", 0u32)?,
        bit_mask: args.get_u32_or("mask", 1)?,
        opcode_id: opcode.encode(),
    };
    params.validate(RuntimeConfig::default().gpu.num_sms).map_err(|err| err.to_string())?;
    println!("injecting: {params}");

    let (tool, handle) = PermanentInjector::new(params);
    let (outcome, _) = prepare(&e)?.inject(e.program.as_ref(), e.check.as_ref(), Box::new(tool), 0);
    let rec = handle.get();
    println!("activations: {} of {} executions", rec.activations, rec.executions);
    println!("outcome: {outcome}");
    Ok(())
}

fn pf_campaign(args: &Args) -> Result<(), String> {
    let e = entry(args, scale(args)?)?;
    let cfg = PermanentCampaignConfig {
        seed: args.get_or("seed", 0x5EED_u64)?,
        ..PermanentCampaignConfig::default()
    };
    println!("running per-opcode permanent campaign on {} …", e.name);
    let result = run_permanent_campaign(e.program.as_ref(), e.check.as_ref(), &cfg)
        .map_err(|err| err.to_string())?;
    println!("{}", report::permanent_summary(&result));
    Ok(())
}

/// A tool that captures every loaded module, for `nvbitfi lint <prog>`.
struct ModuleCapture {
    modules: Arc<Mutex<Vec<gpu_isa::Module>>>,
}

impl NvBitTool for ModuleCapture {
    fn on_module_load(&mut self, module: &gpu_isa::Module) {
        self.modules.lock().push(module.clone());
    }
    fn device_call(&mut self, _s: &CallSite<'_>, _t: &mut gpu_sim::ThreadCtx<'_>) {}
}

fn lint(args: &Args) -> Result<(), String> {
    let target = args.positional(0).ok_or("missing target; try a program name or MODULE.bin")?;

    // A path to an encoded module lints the file; anything else is looked
    // up in the workload suite and linted as loaded (post encode/decode).
    let modules: Vec<gpu_isa::Module> = if std::path::Path::new(target).is_file() {
        let bytes = std::fs::read(target).map_err(|e| e.to_string())?;
        vec![gpu_isa::encode::decode_module(&bytes).map_err(|e| e.to_string())?]
    } else {
        let e = entry(args, scale(args)?)?;
        let modules = Arc::new(Mutex::new(Vec::new()));
        let tool = NvBit::new(ModuleCapture { modules: Arc::clone(&modules) });
        let out = run_program(e.program.as_ref(), RuntimeConfig::default(), Some(Box::new(tool)));
        if !out.termination.is_clean() {
            return Err(format!("program did not run cleanly: {:?}", out.termination));
        }
        let m = modules.lock().clone();
        if m.is_empty() {
            return Err(format!("{} loaded no modules", e.name));
        }
        m
    };

    let mut findings = Vec::new();
    for module in &modules {
        findings.extend(gpu_analysis::lint_module(module));
    }
    if args.switch("json") {
        print!("{}", gpu_analysis::render_json(&findings));
    } else {
        print!("{}", gpu_analysis::render_text(&findings));
    }
    let errors = findings.iter().filter(|f| f.severity == gpu_analysis::Severity::Error).count();
    if errors > 0 {
        return Err(format!("lint found {errors} error(s)"));
    }
    Ok(())
}

fn trace(args: &Args) -> Result<(), String> {
    // The classic NVBit example tools, driven together: instr_count,
    // opcode_hist, and a mem_trace sample.
    let e = entry(args, scale(args)?)?;
    let top: usize = args.get_or("top", 10)?;
    let mem_n: usize = args.get_or("mem", 8)?;

    let (tool, counts) = nvbit::tools::InstrCounter::new();
    let out = run_program(e.program.as_ref(), RuntimeConfig::default(), Some(Box::new(tool)));
    if !out.termination.is_clean() {
        return Err(format!("program did not run cleanly: {:?}", out.termination));
    }
    let counts = counts.get();
    println!("instr_count: {} dynamic instructions", counts.total);
    for (kernel, n) in counts.per_kernel.iter().take(top) {
        println!("  {kernel:<24} {n}");
    }
    if counts.per_kernel.len() > top {
        println!("  … {} more kernels", counts.per_kernel.len() - top);
    }

    let (tool, hist) = nvbit::tools::OpcodeHistogram::new();
    run_program(e.program.as_ref(), RuntimeConfig::default(), Some(Box::new(tool)));
    println!(
        "
opcode_hist (top {top}):"
    );
    for (op, n) in hist.get().hottest().into_iter().take(top) {
        println!("  {:<10} {n}", op.mnemonic());
    }

    let (tool, trace) = nvbit::tools::MemTracer::new(mem_n);
    run_program(e.program.as_ref(), RuntimeConfig::default(), Some(Box::new(tool)));
    println!(
        "
mem_trace (first {mem_n} accesses):"
    );
    for a in trace.get() {
        println!(
            "  {} pc {:>3} tid {:>4} {} {:#010x}",
            a.opcode.mnemonic(),
            a.pc,
            a.global_tid,
            if a.is_read { "R" } else { "W" },
            a.addr
        );
    }
    Ok(())
}

fn assemble(args: &Args) -> Result<(), String> {
    let in_path = args.get("in").ok_or("missing --in LISTING")?;
    let out_path = args.get("out").ok_or("missing --out MODULE.bin")?;
    let text = std::fs::read_to_string(in_path).map_err(|e| e.to_string())?;
    let module = gpu_isa::asm_text::parse_module(&text).map_err(|e| e.to_string())?;
    let bytes = gpu_isa::encode::encode_module(&module);
    atomic_write(out_path, &bytes).map_err(|e| e.to_string())?;
    println!(
        "assembled module `{}` ({} kernels, {} bytes) to {out_path}",
        module.name(),
        module.kernels().len(),
        bytes.len()
    );
    Ok(())
}

fn disasm_bin(args: &Args) -> Result<(), String> {
    let in_path = args.get("in").ok_or("missing --in MODULE.bin")?;
    let bytes = std::fs::read(in_path).map_err(|e| e.to_string())?;
    let text = disasm::module_bytes(&bytes).map_err(|e| e.to_string())?;
    print!("{text}");
    Ok(())
}

/// A tool that captures module disassembly, for `nvbitfi disasm`.
struct DisasmTool {
    listings: Arc<Mutex<Vec<String>>>,
}

impl NvBitTool for DisasmTool {
    fn on_module_load(&mut self, module: &gpu_isa::Module) {
        self.listings.lock().push(disasm::module(module));
    }
    fn device_call(&mut self, _s: &CallSite<'_>, _t: &mut gpu_sim::ThreadCtx<'_>) {}
}

fn disassemble(args: &Args) -> Result<(), String> {
    let e = entry(args, scale(args)?)?;
    let listings = Arc::new(Mutex::new(Vec::new()));
    let tool = NvBit::new(DisasmTool { listings: Arc::clone(&listings) });
    let out = run_program(e.program.as_ref(), RuntimeConfig::default(), Some(Box::new(tool)));
    if !out.termination.is_clean() {
        return Err(format!("program did not run cleanly: {:?}", out.termination));
    }
    for text in listings.lock().iter() {
        print!("{text}");
    }
    Ok(())
}
