//! Per-layer probes for the traced run: each times or counts the
//! benchmark's own calls into one layer's public functions, recording a
//! span around every call.

use crate::spec::{scale_name, Spec};
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Trace};
use gpu_isa::encode::{decode_module, encode_module};
use gpu_isa::Module;
use gpu_runtime::{run_program, run_program_fast_forward, RuntimeConfig, Tool};
use nvbitfi::worker::{read_frame, write_frame};
use nvbitfi::{
    classify, golden_run, golden_run_recording, profile_program, prune_dead_sites, select_campaign,
    BitFlipModel, InstrGroup, KernelAnalysis, Msg, Profiler, ProfilingMode, TransientInjector,
    TransientParams, WorkerInit,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workloads::BenchEntry;

/// Timed repetitions of the cheap calls, so one probe is not all timer
/// resolution.
const DECODE_REPS: usize = 20;
const CLASSIFY_REPS: usize = 20;

/// Sites selected per program by the select probe.
const SELECT_COUNT: usize = 100;

/// Selected sites per program replayed by the inject probe.
const REPLAYS: usize = 4;

/// Everything the probes and the traced campaigns accumulate.
#[derive(Debug, Default)]
pub struct Layers {
    pub golden_s: f64,
    pub thread_instrs: u64,
    pub launches: u64,
    pub record_s: f64,
    pub checkpoints: u64,
    /// Checkpoint-skipped instructions and all instructions of the
    /// workload's simulated injection runs.
    pub ff_skipped: u64,
    pub ff_total: u64,
    pub decode_s: f64,
    pub decodes: u64,
    pub modules: u64,
    pub hook_calls: u64,
    pub hook_overhead_s: f64,
    pub jit_hits: u64,
    pub jit_lookups: u64,
    pub profile_s: f64,
    pub select_s: f64,
    pub prune_s: f64,
    pub pruned: u64,
    pub prune_sites: u64,
    pub liveness_s: f64,
    pub kernels: u64,
    pub inject_walls: Vec<f64>,
    pub inject_instrs: u64,
    pub classify_s: f64,
    pub classifies: u64,
    /// Σ run wall and Σ workers × injection-phase elapsed.
    pub busy_s: f64,
    pub capacity_s: f64,
    pub ready_s: Vec<f64>,
    pub rtt_s: Vec<f64>,
    pub frame_bytes: Vec<f64>,
    pub respawns: u64,
    pub process_walls: Vec<f64>,
    pub thread_walls: Vec<f64>,
    pub append_s: f64,
    pub appends: u64,
    pub permanent_walls: Vec<f64>,
    pub activations: u64,
    pub permanent_profile_s: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Layers {
    /// The per-layer metrics, named as in `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let p50 = |v: &[f64]| percentile(v, 50.0).unwrap_or(0.0);
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        vec![
            ("gpu-sim.golden_s", self.golden_s),
            ("gpu-sim.thread_instrs", self.thread_instrs as f64),
            ("gpu-sim.launches", self.launches as f64),
            ("gpu-sim.us_per_launch", ratio(self.golden_s * 1e6, self.launches as f64)),
            ("gpu-runtime.record_s", self.record_s),
            ("gpu-runtime.checkpoints", self.checkpoints as f64),
            ("gpu-runtime.ff_skipped_share", ratio(self.ff_skipped as f64, self.ff_total as f64)),
            ("gpu-isa.decode_us", ratio(self.decode_s * 1e6, self.decodes as f64)),
            ("gpu-isa.modules_loaded", self.modules as f64),
            ("nvbit.hook_calls", self.hook_calls as f64),
            ("nvbit.ns_per_hook_call", ratio(self.hook_overhead_s * 1e9, self.hook_calls as f64)),
            ("nvbit.jit_cache_hit_share", ratio(self.jit_hits as f64, self.jit_lookups as f64)),
            ("profile.s", self.profile_s),
            ("select.ms", self.select_s * 1e3),
            ("prune.s", self.prune_s),
            ("prune.pruned_share", ratio(self.pruned as f64, self.prune_sites as f64)),
            ("gpu-analysis.liveness_us", ratio(self.liveness_s * 1e6, self.kernels as f64)),
            ("inject.run_ms_p50", p50(&self.inject_walls) * 1e3),
            (
                "inject.thread_instrs_per_run",
                ratio(self.inject_instrs as f64, self.inject_walls.len() as f64),
            ),
            ("outcome.classify_us", ratio(self.classify_s * 1e6, self.classifies as f64)),
            ("campaign.worker_busy_share", ratio(self.busy_s, self.capacity_s)),
            ("worker.ready_ms", med(&self.ready_s) * 1e3),
            ("worker.frame_rtt_us", med(&self.rtt_s) * 1e6),
            ("worker.frame_bytes", med(&self.frame_bytes)),
            ("pool.respawns", self.respawns as f64),
            ("pool.run_overhead_ms", (p50(&self.process_walls) - p50(&self.thread_walls)) * 1e3),
            ("journal.append_us", ratio(self.append_s * 1e6, self.appends as f64)),
            ("permanent.run_ms_p50", p50(&self.permanent_walls) * 1e3),
            ("permanent.activations", self.activations as f64),
            ("permanent.profile_s", self.permanent_profile_s),
        ]
    }
}

/// A tool that keeps every module the program loads, as decoded.
struct ModuleCapture(Arc<Mutex<Vec<Module>>>);

impl gpu_sim::ExecHook for ModuleCapture {}

impl Tool for ModuleCapture {
    fn on_module_load(&mut self, module: &Module) {
        self.0.lock().expect("module capture poisoned").push(module.clone());
    }
}

/// Probe every layer once for one program. Returns the first replayed
/// sites, for the worker probe.
pub fn probe_program(
    entry: &BenchEntry,
    seed: u64,
    trace: &Trace,
    parent: SpanId,
    layers: &mut Layers,
) -> Result<Vec<TransientParams>, String> {
    let name = entry.name;
    let prog = entry.program.as_ref();
    let fail = |what: &str, e: nvbitfi::FiError| format!("{name}: {what} failed: {e}");
    let span_id = trace.open("probe.program", Some(parent), name);
    let span = Some(span_id);
    let cfg = RuntimeConfig::default();

    let (golden, t_golden) =
        trace.time("gpu-sim.golden_run", span, name, || golden_run(prog, cfg.clone()));
    let golden = golden.map_err(|e| fail("golden run", e))?;
    layers.golden_s += t_golden;
    layers.thread_instrs += golden.summary.dyn_instrs;
    layers.launches += golden.summary.launches.len() as u64;

    let (rec, t_rec) = trace.time("gpu-runtime.golden_run_recording", span, name, || {
        golden_run_recording(prog, cfg.clone())
    });
    let store = rec.map_err(|e| fail("recording golden run", e))?.1;
    layers.record_s += t_rec - t_golden;
    layers.checkpoints += store.len() as u64;
    let store = store.into_shared();

    let mut run_cfg = cfg.clone();
    run_cfg.instr_budget = Some(golden.suggested_budget());

    let modules = Arc::new(Mutex::new(Vec::new()));
    run_program(prog, cfg.clone(), Some(Box::new(ModuleCapture(Arc::clone(&modules)))));
    let modules = std::mem::take(&mut *modules.lock().expect("module capture poisoned"));
    for m in &modules {
        let bytes = encode_module(m);
        let (decoded, t) = trace.time("gpu-isa.decode_module", span, name, || {
            let mut last = None;
            for _ in 0..DECODE_REPS {
                last = Some(black_box(decode_module(black_box(&bytes))));
            }
            last
        });
        if !matches!(decoded, Some(Ok(ref d)) if d == m) {
            return Err(format!(
                "{name}: module `{}` does not decode to what was loaded",
                m.name()
            ));
        }
        layers.decode_s += t;
        layers.decodes += DECODE_REPS as u64;
        layers.modules += 1;
        for k in m.kernels() {
            let (_, t) = trace.time("gpu-analysis.kernel_analysis", span, name, || {
                black_box(KernelAnalysis::new(k));
            });
            layers.liveness_s += t;
            layers.kernels += 1;
        }
    }

    let (tool, _profile) = Profiler::new(ProfilingMode::Exact);
    let stats = tool.stats_handle();
    let (_, t_prof) = trace.time("nvbit.profiler_run", span, name, || {
        run_program(prog, run_cfg.clone(), Some(Box::new(tool)))
    });
    let s = *stats.lock();
    layers.hook_calls += s.device_calls;
    layers.hook_overhead_s += t_prof - t_golden;
    layers.jit_hits += s.cache_hits;
    layers.jit_lookups += s.launches_instrumented + s.launches_unmodified;

    let (profile, t) = trace.time("profile.profile_program", span, name, || {
        profile_program(prog, run_cfg.clone(), ProfilingMode::Exact)
    });
    let profile = profile.map_err(|e| fail("profiling", e))?;
    layers.profile_s += t;

    let mut rng = StdRng::seed_from_u64(seed);
    let (sites, t) = trace.time("select.select_campaign", span, name, || {
        select_campaign(
            &profile,
            InstrGroup::GpPr,
            BitFlipModel::FlipSingleBit,
            SELECT_COUNT,
            &mut rng,
        )
    });
    let sites = sites.map_err(|e| fail("site selection", e))?;
    layers.select_s += t;

    let (flags, t) = trace.time("prune.prune_dead_sites", span, name, || {
        prune_dead_sites(prog, run_cfg.clone(), InstrGroup::GpPr, &sites)
    });
    layers.prune_s += t;
    layers.pruned += flags.iter().filter(|f| **f).count() as u64;
    layers.prune_sites += sites.len() as u64;

    let replayed: Vec<TransientParams> = sites.into_iter().take(REPLAYS).collect();
    for site in &replayed {
        let upto =
            store.find_instance(&site.kernel_name, site.kernel_count).unwrap_or(store.len() as u64);
        let (tool, _handle) = TransientInjector::new(site.clone());
        let (out, t) = trace.time("inject.run_program_fast_forward", span, name, || {
            run_program_fast_forward(
                prog,
                run_cfg.clone(),
                Some(Box::new(tool)),
                Arc::clone(&store),
                upto,
            )
        });
        layers.inject_walls.push(t);
        layers.inject_instrs += out.summary.dyn_instrs.saturating_sub(out.prefix_instrs_skipped);
        let (_, t) = trace.time("outcome.classify", span, name, || {
            for _ in 0..CLASSIFY_REPS {
                black_box(classify(&golden, black_box(&out), entry.check.as_ref()));
            }
        });
        layers.classify_s += t;
        layers.classifies += CLASSIFY_REPS as u64;
    }
    trace.close(span_id);
    Ok(replayed)
}

/// The workload suite as the worker protocol's resolver sees it.
pub fn resolve(
    program: &str,
    scale: &str,
) -> Option<(Box<dyn gpu_runtime::Program + Send + Sync>, Box<dyn nvbitfi::SdcCheck + Send + Sync>)>
{
    let scale = match scale {
        "paper" => workloads::Scale::Paper,
        "test" => workloads::Scale::Test,
        _ => return None,
    };
    workloads::find(scale, program).map(|e| (e.program, e.check))
}

fn read_until_reply(r: &mut impl std::io::Read, bytes: &mut usize) -> Result<Msg, String> {
    loop {
        let text = read_frame(r)
            .map_err(|e| format!("worker probe: {e}"))?
            .ok_or("worker probe: worker hung up")?;
        *bytes += 4 + text.len();
        match Msg::parse(&text) {
            Some(Msg::Heartbeat) => {}
            Some(m) => return Ok(m),
            None => return Err("worker probe: unparseable frame".into()),
        }
    }
}

/// Drive `nvbitfi::serve` in-process over pipes: Init→Ready time, and per
/// site the Run→Done time minus the run's own simulation time, plus the
/// frame bytes exchanged.
pub fn probe_serve(
    spec: &Spec,
    program: &str,
    sites: &[TransientParams],
    trace: &Trace,
    parent: SpanId,
    layers: &mut Layers,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("worker probe: {e}");
    let (req_r, mut req_w) = std::io::pipe().map_err(io)?;
    let (mut resp_r, resp_w) = std::io::pipe().map_err(io)?;
    let init = WorkerInit {
        program: program.to_string(),
        scale: scale_name(spec.scale).to_string(),
        use_checkpoints: true,
        deadline_ms: None,
        heartbeat_ms: 100,
    };
    std::thread::scope(|s| {
        let server = s.spawn(move || nvbitfi::serve(req_r, resp_w, &resolve));
        let result = (|| -> Result<(), String> {
            let start = Instant::now();
            write_frame(&mut req_w, &Msg::Init(init).to_json()).map_err(io)?;
            let mut bytes = 0;
            match read_until_reply(&mut resp_r, &mut bytes)? {
                Msg::Ready => {}
                other => return Err(format!("worker probe: expected ready, got {other:?}")),
            }
            let end = Instant::now();
            trace.record("worker.serve_init", start, end, Some(parent), program, None);
            layers.ready_s.push(end.duration_since(start).as_secs_f64());
            for (i, site) in sites.iter().enumerate() {
                let run = Msg::Run { id: i as u64, site: site.to_file() }.to_json();
                let mut bytes = 4 + run.len();
                let start = Instant::now();
                write_frame(&mut req_w, &run).map_err(io)?;
                let reply = read_until_reply(&mut resp_r, &mut bytes)?;
                let end = Instant::now();
                let Msg::Done { wall_us, .. } = reply else {
                    return Err(format!("worker probe: expected a verdict, got {reply:?}"));
                };
                trace.record("worker.serve_run", start, end, Some(parent), program, Some(i));
                let rtt = end.duration_since(start).as_secs_f64() - wall_us as f64 / 1e6;
                layers.rtt_s.push(rtt);
                layers.frame_bytes.push(bytes as f64);
            }
            write_frame(&mut req_w, &Msg::Shutdown.to_json()).map_err(io)?;
            Ok(())
        })();
        drop(req_w);
        let served = server.join().expect("serve catches its own panics");
        result.and(served.map_err(io))
    })
}
