//! Subcommand implementations.

use crate::args::Args;
use gpu_isa::{disasm, Module};
use gpu_runtime::{run_program, run_program_golden, RuntimeConfig};
use nvbitfi::logfile::{
    parse_bit_flip, parse_deadline_ms, parse_group, parse_mode, CampaignSettings,
};
use nvbitfi::{
    atomic_write, report, run_injection_list, run_permanent_campaign, run_transient_campaign_with,
    stats, CampaignConfig, CampaignHooks, InjectionRun, IsolationMode, Journal,
    PermanentCampaignConfig, PermanentInjector, PermanentParams, PreparedGolden, ProcessIsolation,
    Profile, ProfilingMode, TransientCampaign, TransientInjector, TransientParams,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use workloads::{BenchEntry, Scale};

type Command = fn(&Args) -> Result<(), String>;

/// Every command with its usage line. A usage line is also the command's
/// declaration: [`Args::parse`] accepts exactly the positionals, flags and
/// switches it names, so the help text cannot drift from what is parsed.
const COMMANDS: &[(&str, &str, Command)] = &[
    ("list", "", |_| list()),
    ("profile", "<prog> [--mode exact|approx] [--out FILE] [--scale paper|test]", profile),
    (
        "select",
        "<prog> --profile FILE [--group ID] [--bitflip ID] [--seed S] [--count N] [--out FILE]",
        select,
    ),
    ("inject", "<prog> --params FILE [--scale paper|test]", inject),
    (
        "run-list",
        "<prog> --list FILE [--log FILE] [--scale paper|test] [--max-retries N] \
         [--deadline-ms MS] [--isolation thread|process] [--no-checkpoint] [--no-static-prune]",
        run_list,
    ),
    (
        "campaign",
        "<prog> [--injections N] [--group ID] [--bitflip ID] [--seed S] [--mode exact|approx] \
         [--log FILE] [--scale paper|test] [--max-retries N] [--deadline-ms MS] \
         [--isolation thread|process] [--no-checkpoint] [--no-static-prune]",
        campaign,
    ),
    ("resume", "<LOG> [--scale paper|test] [--isolation thread|process]", resume),
    ("pf", "<prog> --opcode MNEMONIC [--sm N] [--lane N] [--mask HEX] [--scale paper|test]", pf),
    ("pf-campaign", "<prog> [--seed S] [--scale paper|test]", pf_campaign),
    ("lint", "<prog|MODULE.bin> [--json] [--scale paper|test]", lint),
    ("disasm", "<prog> [--scale paper|test]", disassemble),
    ("assemble", "--in LISTING --out MODULE.bin", assemble),
    ("disasm-bin", "--in MODULE.bin", disasm_bin),
    ("trace", "<prog> [--top N] [--mem N] [--scale paper|test]", trace),
];

const NOTES: &str = "\
campaign and run-list logs are durable journals: every classified run is
flushed to --log as it completes, and Ctrl-C stops dispatching and flushes
a partial log. `nvbitfi resume <LOG>` continues an interrupted campaign to
the same final counts an uninterrupted run would have produced (a run-list
log names no selection to resume; run the list again).

--isolation process runs every injection in a supervised disposable worker
process: a run that segfaults, aborts, or is killed costs one verdict
(recorded INFRA:died and re-run by resume), never the campaign.
";

fn usage() -> String {
    let mut out = String::from("usage: nvbitfi <command> [args]\n\ncommands:\n");
    for (name, line, _) in COMMANDS {
        out.push_str(format!("  {name} {line}").trim_end());
        out.push('\n');
    }
    format!("{out}\n{NOTES}")
}

/// Dispatch a parsed command line.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, bad flags, or
/// failed campaigns.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let cmd = argv.first().map_or("help", String::as_str);
    match cmd {
        // Hidden: the process-isolation worker entry point, spawned by
        // `campaign --isolation process` — never by hand, so not in usage.
        "worker" => worker_cmd(),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        _ => {
            let Some((_, line, run)) = COMMANDS.iter().find(|(name, ..)| *name == cmd) else {
                return Err(format!("unknown command `{cmd}`\n{}", usage()));
            };
            let args = Args::parse(&argv[1..], line)
                .map_err(|err| format!("{err}\nusage: nvbitfi {cmd} {line}"))?;
            run(&args)
        }
    }
}

/// A scale from its name (`--scale`, `# meta scale=`, the worker's init
/// frame); absent means paper scale.
fn parse_scale(name: Option<&str>) -> Result<Scale, String> {
    match name {
        None | Some("paper") => Ok(Scale::Paper),
        Some("test") => Ok(Scale::Test),
        Some(other) => Err(format!("bad scale `{other}` (paper|test)")),
    }
}

fn entry(args: &Args, scale: Scale) -> Result<BenchEntry, String> {
    let name = args.positional(0).ok_or("missing program name; try `nvbitfi list`")?;
    workloads::find(scale, name).ok_or_else(|| format!("unknown program `{name}`"))
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
    let e = entry(args, parse_scale(args.get("scale"))?)?;
    let mode = args.get_with("mode", ProfilingMode::Exact, parse_mode)?;
    let p = prepare(&e)?.profile(mode);
    if let Some(path) = write_out(args, &p.to_file())? {
        println!(
            "wrote {} dynamic kernels ({} dynamic instructions, {mode} profiling) to {path}",
            p.kernels.len(),
            p.total()
        );
    }
    Ok(())
}

/// Write `text` to `--out` if given, else print it; the path written to.
fn write_out<'a>(args: &'a Args, text: &str) -> Result<Option<&'a str>, String> {
    let Some(path) = args.get("out") else {
        print!("{text}");
        return Ok(None);
    };
    atomic_write(path, text).map_err(|err| err.to_string())?;
    Ok(Some(path))
}

fn select(args: &Args) -> Result<(), String> {
    // The profile names the sites; the program must still be one the suite
    // can run them on.
    entry(args, Scale::Paper)?;
    let profile_path = args.get("profile").ok_or("missing --profile FILE")?;
    let text = std::fs::read_to_string(profile_path).map_err(|e| e.to_string())?;
    let profile = Profile::from_file(&text).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(args.get_or("seed", 0x5EED_u64)?);
    let count: usize = args.get_or("count", 1)?;
    let d = CampaignConfig::default();
    let group = args.get_with("group", d.group, parse_group)?;
    let bit_flip = args.get_with("bitflip", d.bit_flip, parse_bit_flip)?;
    let sites = nvbitfi::select_campaign(&profile, group, bit_flip, count, &mut rng)
        .map_err(|e| e.to_string())?;
    if let [params] = &sites[..] {
        if let Some(path) = write_out(args, &params.to_file())? {
            println!("wrote fault parameters to {path}: {params}");
        }
    } else if let Some(path) = write_out(args, &nvbitfi::logfile::write_injection_list(&sites))? {
        // Multiple faults: an injection list (the split-campaign workflow —
        // ship the list, run it elsewhere with `run-list`).
        println!("wrote {count} faults to {path}");
    }
    Ok(())
}

/// The golden run of `e`, under the default runtime and without
/// checkpoints: single injections are classified against it (each one a
/// full replay), and `profile` and `trace` read its opcode counters.
fn prepare(e: &BenchEntry) -> Result<PreparedGolden, String> {
    PreparedGolden::new(e.program.as_ref(), RuntimeConfig::default(), false)
        .map_err(|err| err.to_string())
}

fn run_list(args: &Args) -> Result<(), String> {
    let (sc, cfg) = runnable(args, campaign_cfg(args)?)?;
    let e = entry(args, sc)?;
    let list_path = args.get("list").ok_or("missing --list FILE")?;
    let text = std::fs::read_to_string(list_path).map_err(|err| err.to_string())?;
    let sites = nvbitfi::logfile::read_injection_list(&text).map_err(|err| err.to_string())?;
    // No resume meta: the list file, not a seed, names the sites.
    let journal = create_journal(args.get("log"), e.name, &[])?;
    crate::sigint::install();
    println!("running {} faults from {list_path} into {} …", sites.len(), e.name);
    let hooks = CliHooks::new(journal);
    let result = run_injection_list(e.program.as_ref(), e.check.as_ref(), &cfg, sites, &hooks)
        .map_err(|err| err.to_string())?;
    finish_campaign(args.get("log"), false, &result, &hooks)
}

fn inject(args: &Args) -> Result<(), String> {
    let e = entry(args, parse_scale(args.get("scale"))?)?;
    let params_path = args.get("params").ok_or("missing --params FILE")?;
    let text = std::fs::read_to_string(params_path).map_err(|err| err.to_string())?;
    let params = TransientParams::from_file(&text).map_err(|err| err.to_string())?;
    println!("injecting: {params}");

    let (tool, handle) = TransientInjector::new(params);
    let (outcome, _) = prepare(&e)?.inject(e.program.as_ref(), e.check.as_ref(), Box::new(tool));
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

/// Journal-and-interrupt hooks shared by `campaign`, `resume` and
/// `run-list`: appends one flushed v5 row per completed run and stops
/// dispatch after Ctrl-C.
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

/// Hidden subcommand: one process-isolation worker session over
/// stdin/stdout. See `nvbitfi::worker` for the protocol.
fn worker_cmd() -> Result<(), String> {
    // Ctrl-C at the terminal reaches the whole process group; the worker
    // must outlive it so the supervisor can drain in-flight runs cleanly.
    crate::sigint::ignore();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    nvbitfi::serve(stdin.lock(), stdout.lock(), &|prog, sc| {
        let e = workloads::find(parse_scale(Some(sc)).ok()?, prog)?;
        Some((e.program, e.check))
    })
    .map_err(|err| format!("worker transport failure: {err}"))
}

/// A results journal at `path` (if given) for `program`, headed by `meta`.
fn create_journal(
    path: Option<&str>,
    program: &str,
    meta: &[(&str, String)],
) -> Result<Option<Journal>, String> {
    path.map(|path| {
        let header = nvbitfi::logfile::results_log_header(program, meta);
        Journal::create(path, &header).map_err(|err| format!("create {path}: {err}"))
    })
    .transpose()
}

/// The campaign settings from flags. `run-list` declares only the run
/// options, so its selection keeps the defaults, which it does not use.
fn campaign_cfg(args: &Args) -> Result<CampaignSettings, String> {
    let d = CampaignSettings::default();
    let c = &d.config;
    let config = CampaignConfig {
        injections: args.get_or("injections", c.injections)?,
        seed: args.get_or("seed", c.seed)?,
        group: args.get_with("group", c.group, parse_group)?,
        bit_flip: args.get_with("bitflip", c.bit_flip, parse_bit_flip)?,
        profiling: args.get_with("mode", c.profiling, parse_mode)?,
        use_checkpoints: !args.switch("no-checkpoint"),
        use_static_prune: !args.switch("no-static-prune"),
        max_retries: args.get_or("max-retries", c.max_retries)?,
        run_deadline: args.get_with("deadline-ms", None, |v| {
            Some(parse_deadline_ms(v)?.map(Duration::from_millis))
        })?,
        ..d.config
    };
    Ok(CampaignSettings {
        scale: args.get("scale").map_or(d.scale, str::to_string),
        isolation: args.get("isolation").map_or(d.isolation, str::to_string),
        config,
    })
}

/// The scale and the config a campaign with settings `s` runs, where
/// `--scale` and `--isolation` override `s`. Process isolation spawns this
/// very binary as the worker command, with the scale forwarded for the
/// suite lookup.
fn runnable(args: &Args, s: CampaignSettings) -> Result<(Scale, CampaignConfig), String> {
    let scale = args.get("scale").unwrap_or(&s.scale);
    let sc = parse_scale(Some(scale))?;
    let isolation = match args.get("isolation").unwrap_or(&s.isolation) {
        "thread" => IsolationMode::Thread,
        "process" => {
            let exe = std::env::current_exe()
                .map_err(|err| format!("cannot locate own executable to spawn workers: {err}"))?;
            IsolationMode::Process(ProcessIsolation::new(
                vec![exe.to_string_lossy().into_owned(), "worker".to_string()],
                scale,
            ))
        }
        other => return Err(format!("bad isolation `{other}` (thread|process)")),
    };
    Ok((sc, CampaignConfig { isolation, ..s.config }))
}

/// Report a finished (possibly interrupted) campaign and surface journal
/// state: robustness counters, the classified-runs confidence margin, any
/// journal I/O failure, and — if the log can be `resume`d — the resume
/// hint.
fn finish_campaign(
    log_path: Option<&str>,
    resumable: bool,
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
                if resumable {
                    println!("resume with: nvbitfi resume {path}");
                }
            }
            None if resumable => {
                println!("interrupted — partial results (run with --log to make resumable)")
            }
            None => println!("interrupted — partial results"),
        }
    }
    Ok(())
}

fn campaign(args: &Args) -> Result<(), String> {
    let settings = campaign_cfg(args)?;
    let meta = settings.meta();
    let (sc, cfg) = runnable(args, settings)?;
    let e = entry(args, sc)?;
    let journal = create_journal(args.get("log"), e.name, &meta)?;
    crate::sigint::install();
    println!("running {} transient injections into {} …", cfg.injections, e.name);
    let hooks = CliHooks::new(journal);
    let result =
        run_transient_campaign_with(e.program.as_ref(), e.check.as_ref(), &cfg, Vec::new(), &hooks)
            .map_err(|err| err.to_string())?;
    finish_campaign(args.get("log"), true, &result, &hooks)
}

fn resume(args: &Args) -> Result<(), String> {
    let log_path = args.positional(0).ok_or("missing results log; usage: nvbitfi resume <LOG>")?;
    let text = std::fs::read_to_string(log_path).map_err(|err| format!("{log_path}: {err}"))?;
    let header = nvbitfi::logfile::parse_log_header(&text);
    let program = header
        .program
        .clone()
        .ok_or("log has no `program=` header line; is this a results log?")?;
    let settings = CampaignSettings::from_meta(&header).map_err(|err| err.to_string())?;
    // The header goes back as it was read; `--scale` and `--isolation`
    // override how this resume runs, not what the journal records.
    let mut content = nvbitfi::logfile::results_log_header(&program, &settings.meta());
    let (sc, cfg) = runnable(args, settings)?;
    let e = workloads::find(sc, &program)
        .ok_or_else(|| format!("unknown program `{program}` named by the log"))?;

    let (prior, torn) =
        nvbitfi::logfile::recover_results_log(&text).map_err(|err| err.to_string())?;
    if torn {
        println!("note: dropped a torn final line (crash mid-append); its run re-executes");
    }
    let reran_infra = prior.iter().filter(|r| r.outcome.is_infra()).count();
    if reran_infra > 0 {
        println!("note: {reran_infra} prior infra-error run(s) get a fresh attempt");
    }

    // Rewrite the journal duplicate-free before appending: keep the header
    // and every honored verdict; drop the torn tail and any infra rows being
    // re-run. Atomic, so a crash here cannot lose the log.
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
    finish_campaign(Some(log_path), true, &result, &hooks)
}

fn pf(args: &Args) -> Result<(), String> {
    let e = entry(args, parse_scale(args.get("scale"))?)?;
    let mnemonic = args.get("opcode").ok_or("missing --opcode MNEMONIC")?;
    let opcode = gpu_isa::Opcode::from_mnemonic(mnemonic)
        .ok_or_else(|| format!("unknown opcode `{mnemonic}`"))?;
    let params = PermanentParams {
        sm_id: args.get_or("sm", 0u32)?,
        lane_id: args.get_or("lane", 0u32)?,
        bit_mask: args.get_u32_or("mask", 1)?,
        opcode_id: opcode.encode(),
    };
    params.validate().map_err(|err| err.to_string())?;
    println!("injecting: {params}");

    let (tool, handle) = PermanentInjector::new(params);
    let (outcome, _) = prepare(&e)?.inject(e.program.as_ref(), e.check.as_ref(), Box::new(tool));
    let rec = handle.get();
    println!("activations: {} of {} executions", rec.activations, rec.executions);
    println!("outcome: {outcome}");
    Ok(())
}

fn pf_campaign(args: &Args) -> Result<(), String> {
    let e = entry(args, parse_scale(args.get("scale"))?)?;
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

/// The modules `e` loads, in load order and as a tool sees them (decoded
/// from their binaries), from one clean run.
fn loaded_modules(e: &BenchEntry) -> Result<Vec<Arc<Module>>, String> {
    let (out, capture) = run_program_golden(e.program.as_ref(), RuntimeConfig::default(), false);
    if !out.termination.is_clean() {
        return Err(format!("program did not run cleanly: {:?}", out.termination));
    }
    Ok(capture.modules)
}

fn lint(args: &Args) -> Result<(), String> {
    let target = args.positional(0).ok_or("missing target; try a program name or MODULE.bin")?;

    // A path to an encoded module lints the file; anything else is looked
    // up in the workload suite and linted as loaded (post encode/decode).
    let modules = if std::path::Path::new(target).is_file() {
        let bytes = std::fs::read(target).map_err(|e| e.to_string())?;
        vec![Arc::new(gpu_isa::encode::decode_module(&bytes).map_err(|e| e.to_string())?)]
    } else {
        let e = entry(args, parse_scale(args.get("scale"))?)?;
        let modules = loaded_modules(&e)?;
        if modules.is_empty() {
            return Err(format!("{} loaded no modules", e.name));
        }
        modules
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
    // The classic NVBit example tools: instr_count and opcode_hist read
    // the golden run's opcode counters, and mem_trace samples a run of its
    // own, since access addresses are not in the golden ledger.
    let e = entry(args, parse_scale(args.get("scale"))?)?;
    let top: usize = args.get_or("top", 10)?;
    let mem_n: usize = args.get_or("mem", 8)?;

    let profile = prepare(&e)?.profile(ProfilingMode::Exact);
    let mut per_kernel = BTreeMap::new();
    for k in &profile.kernels {
        *per_kernel.entry(k.kernel.as_str()).or_insert(0) += k.total();
    }
    println!("instr_count: {} dynamic instructions", profile.total());
    for (kernel, n) in per_kernel.iter().take(top) {
        println!("  {kernel:<24} {n}");
    }
    if per_kernel.len() > top {
        println!("  … {} more kernels", per_kernel.len() - top);
    }

    println!("\nopcode_hist (top {top}):");
    for (op, n) in profile.hottest_opcodes().into_iter().take(top) {
        println!("  {:<10} {n}", op.mnemonic());
    }

    let (tool, trace) = nvbit::tools::MemTracer::new(mem_n);
    run_program(e.program.as_ref(), RuntimeConfig::default(), Some(Box::new(tool)));
    println!("\nmem_trace (first {mem_n} accesses):");
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

fn disassemble(args: &Args) -> Result<(), String> {
    let e = entry(args, parse_scale(args.get("scale"))?)?;
    for module in loaded_modules(&e)? {
        print!("{}", disasm::module(&module));
    }
    Ok(())
}
