//! One repetition of a workload in a fresh process: its campaigns, the
//! verdict check, the end-to-end metrics and, when traced, the per-layer
//! metrics and spans.

use crate::campaign::{
    permanent_cfg, process_isolation, run_permanent, run_transient, transient_cfg, TransientResult,
};
use crate::probe::{probe_program, probe_serve, Layers};
use crate::reference::{Reference, Verdicts};
use crate::spec::{campaign_seed, reference_key, Kind, Spec, WORKERS};
use crate::stats::percentile;
use crate::trace::{SpanId, Trace};
use gpu_runtime::RuntimeConfig;
use nvbitfi::{golden_run, IsolationMode};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::BenchEntry;

/// Injections of the small process/thread pair that measures the pool on
/// workloads whose own campaigns do not use it.
const POOL_PROBE_INJECTIONS: usize = 8;

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct RepOutput {
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    pub self_times: BTreeMap<&'static str, f64>,
    /// Verdicts produced (sites and experiments attempted).
    pub attempted: u64,
    pub infra: u64,
    /// Sites whose verdict differs from the reference.
    pub mismatches: u64,
    /// Sites whose process-mode verdict differs from thread mode.
    pub parity_mismatches: u64,
    /// Samples behind `run_p50_ms` / `run_p90_ms`.
    pub run_samples: usize,
}

impl RepOutput {
    /// The line protocol a repetition prints for its parent.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.e2e {
            out.push_str(&format!("e2e\t{k}\t{v:e}\n"));
        }
        for (k, v) in &self.layers {
            out.push_str(&format!("layer\t{k}\t{v:e}\n"));
        }
        for (k, v) in &self.self_times {
            out.push_str(&format!("self\t{k}\t{v:e}\n"));
        }
        for (k, v) in [
            ("attempted", self.attempted),
            ("infra", self.infra),
            ("mismatches", self.mismatches),
            ("parity_mismatches", self.parity_mismatches),
            ("run_samples", self.run_samples as u64),
        ] {
            out.push_str(&format!("count\t{k}\t{v}\n"));
        }
        out
    }
}

/// Options of one repetition.
pub struct RepOptions<'a> {
    pub spec: &'a Spec,
    pub smoke: bool,
    pub variant: u64,
    pub traced: bool,
    /// Also run the process-mode campaigns in thread mode and compare.
    pub parity: bool,
    pub reference: &'a Reference,
    pub work_dir: &'a Path,
}

/// User + system CPU seconds of this process and its reaped children.
fn cpu_seconds() -> f64 {
    // /proc reports clock ticks of USER_HZ, which Linux fixes at 100.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<f64> = after.split_whitespace().map(|f| f.parse().unwrap_or(0.0)).collect();
    // utime, stime, cutime, cstime are fields 14-17 (index 11-14 past the name).
    fields.get(11..15).map_or(0.0, |v| v.iter().sum::<f64>() / USER_HZ)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Accumulated over a repetition's campaigns.
#[derive(Default)]
struct Totals {
    campaign_s: f64,
    setup_s: f64,
    cpu_s: f64,
    verdicts: u64,
    run_walls: Vec<f64>,
    golden_s: f64,
    golden_instrs: u64,
}

struct Rep<'a> {
    opts: &'a RepOptions<'a>,
    seed: u64,
    out: RepOutput,
    totals: Totals,
    layers: Layers,
    trace: Option<(Trace, SpanId)>,
}

impl Rep<'_> {
    fn trace(&self) -> Option<(&Trace, SpanId)> {
        self.trace.as_ref().map(|(t, id)| (t, *id))
    }

    fn check(&mut self, program: &str, got: &Verdicts) {
        let key = (
            reference_key(self.opts.spec, self.opts.smoke),
            self.opts.variant,
            program.to_string(),
        );
        let n = match self.opts.reference.get(&key) {
            Some(want) => got.mismatches(want),
            None => got.letters.len().max(1),
        };
        if n > 0 {
            eprintln!(
                "perfbench: {program}: {n} verdict(s) differ from the reference for variant {}",
                self.opts.variant
            );
        }
        self.out.mismatches += n as u64;
    }

    fn journal(&self, program: &str) -> PathBuf {
        self.opts.work_dir.join(format!("journal-{}-{program}.log", self.opts.spec.name))
    }

    fn spawn_log(&self, program: &str) -> Option<PathBuf> {
        self.trace.is_some().then(|| self.opts.work_dir.join(format!("spawns-{program}.log")))
    }

    /// Run a transient campaign under `isolation`, timed into the totals.
    fn timed_transient(
        &mut self,
        entry: &BenchEntry,
        iso: IsolationMode,
    ) -> Result<TransientResult, String> {
        let cfg = transient_cfg(self.opts.spec.injections, self.seed, iso);
        let journal = self.journal(entry.name);
        let cpu0 = cpu_seconds();
        let r = run_transient(entry, &cfg, &journal, self.trace())?;
        self.totals.cpu_s += cpu_seconds() - cpu0;
        self.totals.campaign_s += r.wall;
        self.totals.setup_s += r.setup;
        self.totals.verdicts += r.campaign.runs.len() as u64;
        let live = r.campaign.runs.iter().filter(|run| !run.pruned);
        self.totals.run_walls.extend(live.map(|run| run.wall.as_secs_f64()));
        self.out.infra += r.campaign.counts.infra;
        self.check(entry.name, &r.verdicts());
        self.account_transient(&r);
        Ok(r)
    }

    fn account_transient(&mut self, r: &TransientResult) {
        let l = &mut self.layers;
        let live: Vec<_> = r.campaign.runs.iter().filter(|run| !run.pruned).collect();
        l.busy_s += live.iter().map(|run| run.wall.as_secs_f64()).sum::<f64>();
        l.capacity_s += WORKERS as f64 * r.injection_phase;
        l.ff_skipped += live.iter().map(|run| run.prefix_instrs_skipped).sum::<u64>();
        l.ff_total += live.len() as u64 * r.campaign.golden.summary.dyn_instrs;
        l.append_s += r.appends.0;
        l.appends += r.appends.1;
    }

    /// Thread-mode rerun of a process-mode campaign's sites: verdict
    /// parity, and the thread-mode run walls the pool overhead is taken
    /// against. Not part of the timed totals.
    fn parity(
        &mut self,
        entry: &BenchEntry,
        process: &TransientResult,
        injections: usize,
    ) -> Result<(), String> {
        let cfg = transient_cfg(injections, self.seed, IsolationMode::Thread);
        let thread = run_transient(entry, &cfg, &self.journal(entry.name), None)?;
        let n = process.verdicts().mismatches(&thread.verdicts());
        if n > 0 {
            eprintln!(
                "perfbench: {}: {n} process-mode verdict(s) differ from thread mode",
                entry.name
            );
        }
        self.out.parity_mismatches += n as u64;
        let walls = |r: &TransientResult| -> Vec<f64> {
            r.campaign.runs.iter().filter(|x| !x.pruned).map(|x| x.wall.as_secs_f64()).collect()
        };
        self.layers.process_walls.extend(walls(process));
        self.layers.thread_walls.extend(walls(&thread));
        Ok(())
    }

    fn count_respawns(&mut self, log: Option<&Path>, r: &TransientResult) {
        let Some(log) = log else { return };
        let spawns = std::fs::read_to_string(log).map_or(0, |t| t.lines().count());
        let live = r.campaign.runs.iter().filter(|x| !x.pruned).count();
        let initial = WORKERS.min(live);
        self.layers.respawns += spawns.saturating_sub(initial) as u64;
        let _ = std::fs::remove_file(log);
    }

    fn campaigns(&mut self) -> Result<(), String> {
        let spec = self.opts.spec;
        for name in &spec.programs {
            let entry =
                workloads::find(spec.scale, name).ok_or(format!("unknown program {name}"))?;
            self.golden_sample(&entry)?;
            match spec.kind {
                Kind::Thread => {
                    self.timed_transient(&entry, IsolationMode::Thread)?;
                }
                Kind::Process => {
                    let log = self.spawn_log(name);
                    let _ = log.as_deref().map(std::fs::remove_file);
                    let iso = process_isolation(spec.scale, log.as_deref())?;
                    let r = self.timed_transient(&entry, iso)?;
                    self.count_respawns(log.as_deref(), &r);
                    if self.opts.parity || self.trace.is_some() {
                        self.parity(&entry, &r, spec.injections)?;
                    }
                }
                Kind::Permanent => {
                    let cpu0 = cpu_seconds();
                    let r = run_permanent(&entry, &permanent_cfg(self.seed), self.trace())?;
                    self.totals.cpu_s += cpu_seconds() - cpu0;
                    self.totals.campaign_s += r.wall;
                    self.totals.setup_s += r.setup();
                    self.totals.verdicts += r.campaign.runs.len() as u64;
                    let walls: Vec<f64> =
                        r.campaign.runs.iter().map(|x| x.wall.as_secs_f64()).collect();
                    self.totals.run_walls.extend(&walls);
                    self.out.infra += r.campaign.counts.infra;
                    self.check(entry.name, &r.verdicts());
                    let l = &mut self.layers;
                    l.busy_s += walls.iter().sum::<f64>();
                    l.capacity_s += WORKERS as f64 * (r.wall - r.setup());
                    l.permanent_walls.extend(&walls);
                    l.activations += r.campaign.runs.iter().map(|x| x.activations).sum::<u64>();
                    l.permanent_profile_s += r.setup();
                }
            }
        }
        Ok(())
    }

    /// `sim_instrs_per_s` samples: uninstrumented golden runs, taken before
    /// each program's campaign (outside its timing) so that they span the
    /// same stretch of the repetition as the campaigns do.
    fn golden_sample(&mut self, entry: &BenchEntry) -> Result<(), String> {
        for _ in 0..self.opts.spec.golden_reps {
            let t = Instant::now();
            let g = golden_run(entry.program.as_ref(), RuntimeConfig::default())
                .map_err(|e| format!("{}: golden run failed: {e}", entry.name))?;
            self.totals.golden_s += t.elapsed().as_secs_f64();
            self.totals.golden_instrs += g.summary.dyn_instrs;
        }
        Ok(())
    }

    /// Probes of the mechanisms the workload's own campaigns do not use,
    /// on its first program.
    fn cross_probes(
        &mut self,
        first: &BenchEntry,
        replayed: &[nvbitfi::TransientParams],
    ) -> Result<(), String> {
        let (trace, root) = self.trace.as_ref().map(|(t, id)| (t, *id)).expect("traced repetition");
        probe_serve(self.opts.spec, first.name, replayed, trace, root, &mut self.layers)?;
        let spec = self.opts.spec;
        if spec.kind != Kind::Process {
            let log = self.spawn_log(first.name);
            let iso = process_isolation(spec.scale, log.as_deref())?;
            let cfg = transient_cfg(POOL_PROBE_INJECTIONS, self.seed, iso);
            let journal = self.journal(first.name);
            let span = trace.open("pool.process_campaign", Some(root), first.name);
            let r = run_transient(first, &cfg, &journal, Some((trace, span)))?;
            trace.close(span);
            self.layers.append_s += r.appends.0;
            self.layers.appends += r.appends.1;
            self.count_respawns(log.as_deref(), &r);
            self.parity(first, &r, POOL_PROBE_INJECTIONS)?;
        }
        if spec.kind != Kind::Permanent {
            let (trace, root) =
                self.trace.as_ref().map(|(t, id)| (t, *id)).expect("traced repetition");
            let r = run_permanent(first, &permanent_cfg(self.seed), Some((trace, root)))?;
            let l = &mut self.layers;
            l.permanent_walls.extend(r.campaign.runs.iter().map(|x| x.wall.as_secs_f64()));
            l.activations += r.campaign.runs.iter().map(|x| x.activations).sum::<u64>();
            l.permanent_profile_s += r.setup();
        }
        Ok(())
    }
}

/// Run one repetition.
pub fn run(opts: &RepOptions<'_>) -> Result<RepOutput, String> {
    std::fs::create_dir_all(opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    let spec = opts.spec;
    let mut rep = Rep {
        opts,
        seed: campaign_seed(opts.variant),
        out: RepOutput::default(),
        totals: Totals::default(),
        layers: Layers::default(),
        trace: None,
    };
    let mut replayed = Vec::new();
    if opts.traced {
        let trace = Trace::new(spec.name);
        let root = trace.open("rep", None, "");
        for (i, name) in spec.programs.iter().enumerate() {
            let entry =
                workloads::find(spec.scale, name).ok_or(format!("unknown program {name}"))?;
            let sites = probe_program(&entry, rep.seed, &trace, root, &mut rep.layers)?;
            if i == 0 {
                replayed = sites;
            }
        }
        rep.trace = Some((trace, root));
    }

    rep.campaigns()?;

    if opts.traced {
        let first = workloads::find(spec.scale, spec.programs[0]).ok_or("empty workload")?;
        rep.cross_probes(&first, &replayed)?;
    }

    let t = &rep.totals;
    rep.out.e2e = vec![
        ("campaign_s", t.campaign_s),
        ("setup_s", t.setup_s),
        ("injections_per_s", t.verdicts as f64 / (t.campaign_s - t.setup_s)),
        ("run_p50_ms", percentile(&t.run_walls, 50.0).unwrap_or(0.0) * 1e3),
        ("run_p90_ms", percentile(&t.run_walls, 90.0).unwrap_or(0.0) * 1e3),
        ("sim_instrs_per_s", t.golden_instrs as f64 / t.golden_s),
        ("cpu_s", t.cpu_s),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    rep.out.attempted = t.verdicts;
    rep.out.run_samples = t.run_walls.len();
    if let Some((trace, root)) = rep.trace.take() {
        trace.close(root);
        rep.out.layers = rep.layers.metrics();
        rep.out.self_times = trace.self_times();
        let path = opts.work_dir.join(format!("trace-{}-variant{}.tsv", spec.name, opts.variant));
        std::fs::write(&path, trace.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    Ok(rep.out)
}
