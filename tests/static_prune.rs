//! Cross-validation of static dead-fault pruning.
//!
//! Pruning claims certain fault sites are provably Masked without
//! simulation. These tests hold it to that claim from three directions:
//!
//! 1. A program with known-dead writes: campaigns with and without
//!    `use_static_prune` must select the same sites and classify every one
//!    identically — the pruned runs' force-simulated counterparts must all
//!    come back Masked with no anomaly.
//! 2. The whole 15-program suite, same invariant (suite kernels are held
//!    lint-clean, so pruning rarely fires there — the sweep guards the
//!    equivalence as kernels evolve).
//! 3. Property tests over random programs: the static live-out set must
//!    over-approximate each thread's dynamic read-before-overwrite trace,
//!    and every site pruning flags must simulate to Masked.

use gpu_isa::asm::KernelBuilder;
use gpu_isa::{encode, CmpOp, Kernel, Module, PReg, Reg, SpecialReg};
use gpu_runtime::{run_program, Program, Runtime, RuntimeConfig, RuntimeError};
use nvbit::{CallSite, Inserter, NvBit, NvBitTool, When};
use nvbitfi::{
    classify, golden_run, prune_dead_sites, run_transient_campaign, BitFlipModel, CampaignConfig,
    ExactDiff, InstrGroup, ProfilingMode, TransientInjector, TransientParams,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use workloads::Scale;

/// A program whose kernel mixes live computation with three dead writes
/// (R10, R11, R13 are never read), so a uniform campaign lands a healthy
/// fraction of its sites on provably-dead destinations.
struct DeadWrites;

impl Program for DeadWrites {
    fn name(&self) -> &str {
        "dead-writes"
    }
    fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
        let mut k = KernelBuilder::new("deadw");
        let (out, tid, off, v) = (Reg(4), Reg(0), Reg(1), Reg(2));
        k.ldc(out, 0);
        k.s2r(tid, SpecialReg::TidX);
        k.shli(off, tid, 2);
        k.iadd(out, out, off);
        k.movi(Reg(10), 0xDEAD); // dead: R10 never read
        k.iaddi(Reg(11), tid, 3); // dead: R11 never read
        k.movi(v, 5);
        k.iadd(v, v, tid);
        k.shli(Reg(13), v, 1); // dead: R13 never read
        k.stg(out, 0, v);
        k.exit();
        let bytes = encode::encode_module(&Module::new("m", vec![k.finish()]));
        let m = rt.load_module(&bytes)?;
        let k = rt.get_kernel(m, "deadw")?;
        let buf = rt.alloc(32 * 4)?;
        rt.launch(k, 1u32, 32u32, &[buf.addr()])?;
        rt.synchronize()?;
        let v = rt.read_u32s(buf, 32)?;
        rt.println(format!("sum={}", v.iter().sum::<u32>()));
        Ok(())
    }
}

fn paired_campaigns(
    program: &dyn Program,
    check: &dyn nvbitfi::SdcCheck,
    base: &CampaignConfig,
) -> (nvbitfi::TransientCampaign, nvbitfi::TransientCampaign) {
    let with = run_transient_campaign(
        program,
        check,
        &CampaignConfig { use_static_prune: true, ..base.clone() },
    )
    .expect("pruned campaign");
    let without = run_transient_campaign(
        program,
        check,
        &CampaignConfig { use_static_prune: false, ..base.clone() },
    )
    .expect("unpruned campaign");
    (with, without)
}

/// Identical selection and classification, run for run; every pruned
/// site's force-simulated counterpart Masked without anomaly.
fn assert_equivalent(with: &nvbitfi::TransientCampaign, without: &nvbitfi::TransientCampaign) {
    assert_eq!(with.runs.len(), without.runs.len());
    assert_eq!(with.counts, without.counts, "outcome distribution must not change");
    assert_eq!(without.statically_pruned(), 0);
    for (a, b) in with.runs.iter().zip(&without.runs) {
        assert_eq!(a.params, b.params, "same seed must select the same sites");
        assert_eq!(a.outcome, b.outcome, "pruning changed {}", a.params);
        if a.pruned {
            assert!(
                b.outcome.is_masked() && !b.outcome.potential_due,
                "pruned site {} simulates to {:?}, not Masked",
                a.params,
                b.outcome
            );
            assert!(b.injected, "pruned site {} never fired when simulated", a.params);
            assert_eq!(a.wall, std::time::Duration::ZERO);
        }
    }
}

#[test]
fn pruned_sites_simulate_to_masked() {
    let base = CampaignConfig {
        injections: 60,
        group: InstrGroup::Gp,
        seed: 11,
        workers: 2,
        profiling: ProfilingMode::Exact,
        ..CampaignConfig::default()
    };
    let (with, without) = paired_campaigns(&DeadWrites, &ExactDiff, &base);
    assert!(
        with.statically_pruned() >= 1,
        "a kernel with three dead writes must yield pruned sites"
    );
    assert!(with.statically_pruned() < with.runs.len(), "live destinations must not be pruned");
    assert_equivalent(&with, &without);
    assert!(with.timing.analysis > std::time::Duration::ZERO);
    assert_eq!(without.timing.analysis, std::time::Duration::ZERO);
}

#[test]
fn suite_campaigns_identical_with_and_without_pruning() {
    for entry in workloads::suite(Scale::Test) {
        let base = CampaignConfig {
            injections: 12,
            seed: 3,
            workers: 2,
            profiling: ProfilingMode::Exact,
            ..CampaignConfig::default()
        };
        let (with, without) = paired_campaigns(entry.program.as_ref(), entry.check.as_ref(), &base);
        assert_equivalent(&with, &without);
    }
}

// ---------------------------------------------------------------------------
// Property tests over random programs.
// ---------------------------------------------------------------------------

/// One body instruction of a random kernel.
#[derive(Debug, Clone)]
enum Op {
    /// `IADD32I Rd, Ra, imm`
    AddI { d: u8, a: u8, imm: i32 },
    /// `IADD Rd, Ra, Rb`
    Add { d: u8, a: u8, b: u8 },
    /// `IMUL Rd, Ra, Rb`
    Mul { d: u8, a: u8, b: u8 },
    /// `SHL Rd, Ra, sh`
    Shl { d: u8, a: u8, sh: u32 },
    /// `MOV32I Rd, imm`
    Mov { d: u8, imm: u32 },
    /// `ISETP.cmp P, Ra, imm`
    SetP { p: u8, a: u8, imm: i32 },
    /// `@P BRA +skip` — a forward branch over the next `skip` body ops.
    BraIf { p: u8, skip: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<i32>()).prop_map(|(d, a, imm)| Op::AddI {
            d: d % 8,
            a: a % 8,
            imm: imm % 100
        }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(d, a, b)| Op::Add {
            d: d % 8,
            a: a % 8,
            b: b % 8
        }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(d, a, b)| Op::Mul {
            d: d % 8,
            a: a % 8,
            b: b % 8
        }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(d, a, sh)| Op::Shl {
            d: d % 8,
            a: a % 8,
            sh: u32::from(sh % 8)
        }),
        (any::<u8>(), any::<u32>()).prop_map(|(d, imm)| Op::Mov { d: d % 8, imm: imm % 1000 }),
        (any::<u8>(), any::<u8>(), any::<i32>()).prop_map(|(p, a, imm)| Op::SetP {
            p: p % 3,
            a: a % 8,
            imm: imm % 50
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(p, skip)| Op::BraIf { p: p % 3, skip: skip % 4 }),
    ]
}

/// Assemble a random body into a runnable kernel: a prologue seeds R0-R7
/// and P0-P2 from the thread id, an epilogue stores R0-R5 so most live
/// corruption is observable, and every branch is a bounded forward skip.
fn build_kernel(body: &[Op]) -> Kernel {
    let mut k = KernelBuilder::new("rand");
    let (base, tid) = (Reg(8), Reg(9));
    k.ldc(base, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.shli(Reg(10), tid, 5);
    k.iadd(base, base, Reg(10));
    for r in 0..8 {
        k.iaddi(Reg(r), tid, i32::from(r) * 7 + 1);
    }
    for p in 0..3 {
        k.isetp(PReg(p), CmpOp::Lt, tid, 16 + i32::from(p));
    }
    // Emit the body, binding each pending forward label after its skip
    // count of body ops has been emitted.
    let mut pending: Vec<(usize, gpu_isa::asm::Label)> = Vec::new();
    for op in body {
        match *op {
            Op::AddI { d, a, imm } => {
                k.iaddi(Reg(d), Reg(a), imm);
            }
            Op::Add { d, a, b } => {
                k.iadd(Reg(d), Reg(a), Reg(b));
            }
            Op::Mul { d, a, b } => {
                k.imul(Reg(d), Reg(a), Reg(b));
            }
            Op::Shl { d, a, sh } => {
                k.shli(Reg(d), Reg(a), sh);
            }
            Op::Mov { d, imm } => {
                k.movi(Reg(d), imm);
            }
            Op::SetP { p, a, imm } => {
                k.isetp(PReg(p), CmpOp::Lt, Reg(a), imm);
            }
            Op::BraIf { p, skip } => {
                let l = k.new_label();
                k.bra_if(PReg(p), l);
                pending.push((usize::from(skip) + 1, l));
            }
        }
        for entry in &mut pending {
            entry.0 -= 1;
        }
        while let Some(pos) = pending.iter().position(|&(left, _)| left == 0) {
            let (_, l) = pending.remove(pos);
            k.bind(l);
        }
    }
    for (_, l) in pending {
        k.bind(l);
    }
    for r in 0..6u8 {
        k.stg(base, i16::from(r) * 4, Reg(r));
    }
    k.exit();
    k.finish()
}

/// Runs `kernel` on one 32-thread block writing 32×8 u32s of output.
struct RandProg {
    kernel: Kernel,
}

impl Program for RandProg {
    fn name(&self) -> &str {
        "rand-prog"
    }
    fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
        let bytes = encode::encode_module(&Module::new("m", vec![self.kernel.clone()]));
        let m = rt.load_module(&bytes)?;
        let k = rt.get_kernel(m, "rand")?;
        let buf = rt.alloc(32 * 32)?;
        rt.launch(k, 1u32, 32u32, &[buf.addr()])?;
        rt.synchronize()?;
        let v = rt.read_u32s(buf, 32 * 8)?;
        rt.println(format!("sum={}", v.iter().fold(0u32, |s, x| s.wrapping_add(*x))));
        Ok(())
    }
}

#[derive(Default)]
struct TraceState {
    /// Per thread: (instrs seen, site pc if reached, regs overwritten
    /// since the site, dynamic live set).
    threads: HashMap<u32, ThreadTrace>,
}

#[derive(Default)]
struct ThreadTrace {
    seen: u64,
    site_pc: Option<u32>,
    written: Vec<gpu_isa::RegSlot>,
    dyn_live: Vec<gpu_isa::RegSlot>,
}

/// Before-hook tracer: for each thread, treats its `site_index`-th
/// executed instruction as the injection site and collects every register
/// unit the thread reads afterwards before overwriting it — the *dynamic*
/// live set the static analysis must over-approximate.
struct LiveTracer {
    site_index: u64,
    state: Arc<Mutex<TraceState>>,
}

impl NvBitTool for LiveTracer {
    fn instrument_kernel(&mut self, kernel: &Kernel, inserter: &mut Inserter<'_>) {
        for pc in 0..kernel.len() {
            inserter.insert_call(pc, When::Before, 0, Vec::new());
        }
    }
    fn device_call(&mut self, site: &CallSite<'_>, thread: &mut gpu_sim::ThreadCtx<'_>) {
        let mut state = self.state.lock();
        let t = state.threads.entry(thread.meta.flat_tid).or_default();
        let n = t.seen;
        t.seen += 1;
        let instr = site.instr.instr();
        if n == self.site_index {
            t.site_pc = Some(site.instr.pc());
        } else if n > self.site_index {
            for slot in instr.uses() {
                if !t.written.contains(&slot) && !t.dyn_live.contains(&slot) {
                    t.dyn_live.push(slot);
                }
            }
            // The callback only fires for guard-passing threads, so every
            // def actually writes.
            for slot in instr.defs() {
                if !t.written.contains(&slot) {
                    t.written.push(slot);
                }
            }
        }
    }
}

proptest! {
    /// Static liveness over-approximates every thread's dynamic
    /// read-before-overwrite set at every site.
    #[test]
    fn static_liveness_covers_dynamic_reads(
        body in proptest::collection::vec(arb_op(), 5..20),
        site_index in 0u64..24,
    ) {
        let kernel = build_kernel(&body);
        let cfg = gpu_analysis::Cfg::build(&kernel);
        prop_assert!(cfg.precise, "forward branches only");
        let live = gpu_analysis::Liveness::compute(&kernel, &cfg);
        let state = Arc::new(Mutex::new(TraceState::default()));
        let tracer = LiveTracer { site_index, state: Arc::clone(&state) };
        let program = RandProg { kernel: kernel.clone() };
        let out = run_program(&program, RuntimeConfig::default(), Some(Box::new(NvBit::new(tracer))));
        prop_assert!(out.termination.is_clean(), "{:?}", out.termination);
        let state = state.lock();
        prop_assert!(!state.threads.is_empty());
        for (tid, t) in &state.threads {
            let Some(pc) = t.site_pc else { continue };
            let static_live = live.live_out(pc);
            for slot in &t.dyn_live {
                prop_assert!(
                    static_live.contains(*slot),
                    "thread {tid}: {slot} read after pc {pc} but not statically live-out"
                );
            }
        }
    }

    /// Every site pruning flags as dead simulates to Masked: the injected
    /// run's output is bit-identical to golden.
    #[test]
    fn pruned_random_sites_simulate_to_masked(
        body in proptest::collection::vec(arb_op(), 5..20),
        dreg in 0u8..10,
    ) {
        let kernel = build_kernel(&body);
        let program = RandProg { kernel };
        let run_cfg = RuntimeConfig::default();
        let golden = golden_run(&program, run_cfg.clone()).expect("golden");
        // Lane-0 sites at the first 16 group-instruction ordinals.
        let sites: Vec<TransientParams> = (0..16u64)
            .map(|j| TransientParams {
                group: InstrGroup::Gp,
                bit_flip: BitFlipModel::FlipSingleBit,
                kernel_name: "rand".into(),
                kernel_count: 0,
                instruction_count: j * 32,
                destination_register: f64::from(dreg) / 10.0,
                bit_pattern: 0.5,
            })
            .collect();
        let flags = prune_dead_sites(&program, run_cfg.clone(), InstrGroup::Gp, &sites);
        for (site, pruned) in sites.into_iter().zip(flags) {
            if !pruned {
                continue;
            }
            let (tool, handle) = TransientInjector::new(site.clone());
            let out = run_program(&program, run_cfg.clone(), Some(Box::new(tool)));
            let outcome = classify(&golden, &out, &ExactDiff);
            prop_assert!(handle.get().injected, "pruned site {site} never fired");
            prop_assert!(
                outcome.is_masked() && !outcome.potential_due,
                "pruned site {site} simulated to {outcome:?}"
            );
        }
    }
}
