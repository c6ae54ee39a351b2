//! Tail replay must be invisible: a run that replays launches from the
//! golden ledger ends with the same outcome, and the same memory after
//! every launch, as the same run simulated in full (`--no-checkpoint`).
//!
//! The shadow test checks every launch of suite injection runs against its
//! simulation through the ledger entries both runs record. Where both
//! simulated, the entries agree: the same bytes on the same read set
//! before, the same bytes on the same write set after. Where one run
//! replayed golden's entry, the other's simulation recorded that entry.
//! Recording checks, in debug builds, that a launch's write set holds
//! every byte it changed, so equal entries mean equal memory after every
//! launch, by induction from the start of the run.
//!
//! The adversarial programs each aim one way a fault could reach a later
//! launch past a careless replay rule.

use gpu_isa::asm::KernelBuilder;
use gpu_isa::{encode, Module, Reg, SpecialReg};
use gpu_runtime::{
    run_program, run_program_fast_forward, run_program_golden, CheckpointStore, InstrMasks,
    KernelLaunchInfo, ModuleId, Program, Runtime, RuntimeConfig, RuntimeError, TailReplay, Tool,
};
use gpu_sim::{DevPtr, ExecHook, InstrSite, ThreadCtx};
use nvbitfi::{
    classify, golden_run_recording, select_campaign, BitFlipModel, ExactDiff, InstrGroup,
    PreparedGolden, ProfilingMode, TransientInjector,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use workloads::Scale;

/// One run driven by hand, recording a ledger of every launch (replayed or
/// simulated) so each launch's inputs and outputs can be compared.
struct Recorded {
    result: Result<(), String>,
    stdout: String,
    anomalies: usize,
    ledger: CheckpointStore,
    prefix: u64,
    tail: TailReplay,
}

fn run_recorded(
    program: &dyn Program,
    cfg: &RuntimeConfig,
    tool: Box<dyn Tool>,
    golden: Option<&Arc<CheckpointStore>>,
) -> Recorded {
    let mut rt = Runtime::new(cfg.clone());
    rt.attach_tool(tool);
    if let Some(store) = golden {
        rt.fast_forward(Arc::clone(store), store.len() as u64);
    }
    rt.record_ledger(true);
    let result = program.run(&mut rt).map_err(|e| e.to_string());
    rt.finish();
    Recorded {
        result,
        stdout: rt.stdout().to_string(),
        anomalies: rt.anomalies().len(),
        ledger: rt.take_ledger().expect("recorded").0,
        prefix: rt.prefix_instrs_skipped(),
        tail: rt.tail_replayed(),
    }
}

/// Run `program` under `tool()` replaying from its golden ledger and
/// simulated in full, assert the two agree launch by launch, and return
/// what the replaying run replayed.
fn assert_replay_exact(
    what: &str,
    program: &dyn Program,
    cfg: &RuntimeConfig,
    golden: &Arc<CheckpointStore>,
    tool: &dyn Fn() -> Box<dyn Tool>,
) -> (u64, TailReplay) {
    let replayed = run_recorded(program, cfg, tool(), Some(golden));
    let simulated = run_recorded(program, cfg, tool(), None);
    assert_eq!(replayed.result, simulated.result, "{what}: exit");
    assert_eq!(replayed.stdout, simulated.stdout, "{what}: stdout");
    assert_eq!(replayed.anomalies, simulated.anomalies, "{what}: anomalies");
    assert_eq!(replayed.ledger.len(), simulated.ledger.len(), "{what}: launches");
    for (i, (r, s)) in replayed.ledger.iter().zip(simulated.ledger.iter()).enumerate() {
        assert_eq!(r.record, s.record, "{what}: launch {i} record");
        assert!(s.capture.is_some(), "{what}: launch {i} captured");
        // A replayed launch observed nothing; a simulated one observed
        // every instruction it executed.
        let was_replayed =
            r.opcodes.is_empty() && !r.record.skipped && r.record.stats.dyn_instrs > 0;
        let expected = if was_replayed { golden.get(i as u64).expect("golden entry") } else { r };
        assert_eq!(s.capture, expected.capture, "{what}: launch {i} inputs and outputs");
    }
    assert_eq!(simulated.prefix, 0);
    assert_eq!(simulated.tail, TailReplay::default());
    (replayed.prefix, replayed.tail)
}

#[test]
fn every_replayed_launch_matches_its_simulation_on_every_workload() {
    let mut tail = TailReplay::default();
    let mut sites = 0;
    for entry in workloads::suite(Scale::Test) {
        let program = entry.program.as_ref();
        let (golden, store) =
            golden_run_recording(program, RuntimeConfig::default()).expect(entry.name);
        let store = store.into_shared();
        let profile = PreparedGolden::new(program, RuntimeConfig::default(), false)
            .expect(entry.name)
            .profile(ProfilingMode::Exact);
        let cfg = RuntimeConfig {
            instr_budget: Some(golden.suggested_budget()),
            ..RuntimeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0x7A11);
        let selected =
            select_campaign(&profile, InstrGroup::GpPr, BitFlipModel::FlipSingleBit, 12, &mut rng)
                .expect(entry.name);
        for site in selected {
            let tool = || -> Box<dyn Tool> { Box::new(TransientInjector::new(site.clone()).0) };
            let what = format!("{} site {site}", entry.name);
            let (_, t) = assert_replay_exact(&what, program, &cfg, &store, &tool);
            tail += t;
            sites += 1;
        }
    }
    assert_eq!(sites, 15 * 12);
    assert!(tail.launches > 0, "some tail launch replayed: {tail:?}");
}

// --- adversarial programs ---------------------------------------------------

const N: u32 = 32;

/// `iota(out, k)`: `out[i] = i + k`. The sum is at pc 3.
fn iota() -> gpu_isa::Kernel {
    let mut k = KernelBuilder::new("iota");
    k.ldc(Reg(4), 0);
    k.ldc(Reg(5), 4);
    k.s2r(Reg(0), SpecialReg::GlobalTidX);
    k.iadd(Reg(2), Reg(0), Reg(5));
    k.shli(Reg(1), Reg(0), 2);
    k.iadd(Reg(4), Reg(4), Reg(1));
    k.stg(Reg(4), 0, Reg(2));
    k.exit();
    k.finish()
}

/// `ptrs(tab, base)`: `tab[i] = &base[i]`. The pointer is made at pc 4.
fn ptrs() -> gpu_isa::Kernel {
    let mut k = KernelBuilder::new("ptrs");
    k.ldc(Reg(4), 0);
    k.ldc(Reg(5), 4);
    k.s2r(Reg(0), SpecialReg::GlobalTidX);
    k.shli(Reg(1), Reg(0), 2);
    k.iadd(Reg(2), Reg(5), Reg(1));
    k.iadd(Reg(4), Reg(4), Reg(1));
    k.stg(Reg(4), 0, Reg(2));
    k.exit();
    k.finish()
}

/// `deref(dst, tab)`: `dst[i] = *tab[i]`.
fn deref() -> gpu_isa::Kernel {
    let mut k = KernelBuilder::new("deref");
    k.ldc(Reg(4), 0);
    k.ldc(Reg(5), 4);
    k.s2r(Reg(0), SpecialReg::GlobalTidX);
    k.shli(Reg(1), Reg(0), 2);
    k.iadd(Reg(5), Reg(5), Reg(1));
    k.ldg(Reg(2), Reg(5), 0);
    k.ldg(Reg(3), Reg(2), 0);
    k.iadd(Reg(4), Reg(4), Reg(1));
    k.stg(Reg(4), 0, Reg(3));
    k.exit();
    k.finish()
}

/// `copy(dst, src)`: `dst[i] = src[i]`.
fn copy() -> gpu_isa::Kernel {
    let mut k = KernelBuilder::new("copy");
    k.ldc(Reg(4), 0);
    k.ldc(Reg(5), 4);
    k.s2r(Reg(0), SpecialReg::GlobalTidX);
    k.shli(Reg(1), Reg(0), 2);
    k.iadd(Reg(5), Reg(5), Reg(1));
    k.ldg(Reg(2), Reg(5), 0);
    k.iadd(Reg(4), Reg(4), Reg(1));
    k.stg(Reg(4), 0, Reg(2));
    k.exit();
    k.finish()
}

fn module_bytes() -> Vec<u8> {
    encode::encode_module(&Module::new("adversarial", vec![iota(), ptrs(), deref(), copy()]))
}

/// An adversarial host, as a plain function over the runtime.
struct Host(fn(&mut Runtime) -> Result<(), RuntimeError>);

impl Program for Host {
    fn name(&self) -> &str {
        "adversarial"
    }
    fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
        (self.0)(rt)
    }
}

/// Launch kernel `name` of the adversarial module over `N` threads.
fn launch(rt: &mut Runtime, m: ModuleId, name: &str, params: &[u32]) -> Result<(), RuntimeError> {
    let k = rt.get_kernel(m, name)?;
    rt.launch(k, 1u32, N, params)
}

fn print_sum(rt: &mut Runtime, label: &str, buf: DevPtr) -> Result<(), RuntimeError> {
    let v = rt.read_u32s(buf, N as usize)?;
    let sum = v.iter().fold(0u32, |a, b| a.wrapping_add(*b));
    rt.println(format!("{label}: {sum}"));
    Ok(())
}

/// XORs `mask` into thread 0's `reg` after the instruction at `pc` of
/// instance 0 of `kernel`; declines every other launch.
struct Corrupt {
    kernel: &'static str,
    pc: u32,
    reg: Reg,
    mask: u32,
}

impl ExecHook for Corrupt {
    fn after(&mut self, t: &mut ThreadCtx<'_>, site: InstrSite<'_>) {
        if site.pc == self.pc && t.meta.global_tid() == 0 {
            t.corrupt_reg(self.reg, self.mask);
        }
    }
}

impl Tool for Corrupt {
    fn instrument(&mut self, info: &KernelLaunchInfo<'_>) -> Option<InstrMasks> {
        (info.kernel.name() == self.kernel && info.instance == 0)
            .then(|| InstrMasks::all_after(info.kernel.len()))
    }
}

/// Check `host` under `corrupt` both ways, at outcome level too, and
/// return what the replaying run replayed.
fn check(what: &str, host: Host, corrupt: fn() -> Corrupt) -> TailReplay {
    let cfg = RuntimeConfig::default();
    let (golden, capture) = run_program_golden(&host, cfg.clone(), true);
    assert!(golden.termination.is_clean(), "{what}: golden run");
    let store = capture.ledger.into_shared();
    let tool = || -> Box<dyn Tool> { Box::new(corrupt()) };
    let (prefix, tail) = assert_replay_exact(what, &host, &cfg, &store, &tool);
    assert_eq!(prefix, store.instrs_before(first_instrumented(&store, corrupt().kernel)));

    let (golden_out, _) = golden_run_recording(&host, cfg.clone()).expect("golden");
    let n = store.len() as u64;
    let replayed = run_program_fast_forward(&host, cfg.clone(), Some(tool()), store, n);
    let simulated = run_program(&host, cfg, Some(tool()));
    assert_eq!(replayed.tail_replayed, tail);
    assert_eq!(
        classify(&golden_out, &replayed, &ExactDiff),
        classify(&golden_out, &simulated, &ExactDiff),
        "{what}: outcome"
    );
    tail
}

fn first_instrumented(store: &CheckpointStore, kernel: &str) -> u64 {
    store.find_instance(kernel, 0).expect("target launched")
}

/// The adversarial module and four 32-word buffers.
fn setup(rt: &mut Runtime) -> Result<(ModuleId, [DevPtr; 4]), RuntimeError> {
    let m = rt.load_module(&module_bytes())?;
    Ok((m, [rt.alloc(N * 4)?, rt.alloc(N * 4)?, rt.alloc(N * 4)?, rt.alloc(N * 4)?]))
}

/// A pointer table whose entry 0 the fault corrupts, dereferenced by a
/// later launch; launches around it read nothing corrupted.
fn pointer_chase(rt: &mut Runtime) -> Result<(), RuntimeError> {
    let (m, [data, tab, out, other]) = setup(rt)?;
    launch(rt, m, "iota", &[data.addr(), 100])?;
    launch(rt, m, "ptrs", &[tab.addr(), data.addr()])?; // target
    launch(rt, m, "iota", &[other.addr(), 7])?; // reads nothing: replays
    launch(rt, m, "deref", &[out.addr(), tab.addr()])?; // reads the bad pointer
    launch(rt, m, "copy", &[other.addr(), data.addr()])?; // reads golden data: replays
    print_sum(rt, "out", out)?;
    print_sum(rt, "other", other)
}

#[test]
fn a_corrupted_pointer_feeding_later_loads_simulates_them() {
    // The pointer moves one word: still valid, so `deref` reads wrong data.
    let corrupt = || Corrupt { kernel: "ptrs", pc: 4, reg: Reg(2), mask: 4 };
    let tail = check("pointer", Host(pointer_chase), corrupt);
    assert_eq!(tail.launches, 2, "only the launches that never read the pointer replay");
}

#[test]
fn a_trap_only_on_corrupted_input_is_simulated_and_latches() {
    // The pointer leaves the allocation: `deref` traps, and the sticky
    // error drops the last launch.
    let corrupt = || Corrupt { kernel: "ptrs", pc: 4, reg: Reg(2), mask: 0x4000_0000 };
    let tail = check("trap", Host(pointer_chase), corrupt);
    assert_eq!(tail.launches, 1, "the launch before the trap replays");
}

/// The host reads a value the fault corrupted and passes it as a later
/// launch's parameter.
fn value_into_params(rt: &mut Runtime) -> Result<(), RuntimeError> {
    let (m, [a, b, c, _]) = setup(rt)?;
    launch(rt, m, "iota", &[a.addr(), 5])?; // target corrupts a[0]
    launch(rt, m, "iota", &[c.addr(), 9])?; // replays
    let k = rt.read_u32s(a, 1)?[0];
    launch(rt, m, "iota", &[b.addr(), k])?; // params differ from golden's
    launch(rt, m, "copy", &[c.addr(), b.addr()])?; // reads what that wrote
    launch(rt, m, "iota", &[a.addr(), 5])?; // overwrites a, reads nothing: replays
    print_sum(rt, "b", b)?;
    print_sum(rt, "c", c)
}

#[test]
fn a_corrupted_value_the_host_passes_as_params_is_simulated() {
    let corrupt = || Corrupt { kernel: "iota", pc: 3, reg: Reg(2), mask: 1 };
    let tail = check("params", Host(value_into_params), corrupt);
    assert_eq!(tail.launches, 2);
}

/// The host allocates after the target, by a size it read back.
fn alloc_after_target(rt: &mut Runtime) -> Result<(), RuntimeError> {
    let (m, [a, b, _, _]) = setup(rt)?;
    launch(rt, m, "iota", &[a.addr(), 3])?; // target corrupts a[0]
    launch(rt, m, "iota", &[b.addr(), 4])?; // replays
    let extra = rt.read_u32s(a, 1)?[0] & 1;
    let c = rt.alloc(N * 4 + extra * 256)?;
    launch(rt, m, "copy", &[c.addr(), b.addr()])?; // allocated length may differ
    launch(rt, m, "copy", &[b.addr(), c.addr()])?;
    print_sum(rt, "b", b)?;
    print_sum(rt, "c", c)
}

#[test]
fn an_allocation_after_the_target_is_respected() {
    // Flipping bit 0 of a[0] = 3 changes the allocation's size.
    let corrupt = || Corrupt { kernel: "iota", pc: 3, reg: Reg(2), mask: 1 };
    check("alloc", Host(alloc_after_target), corrupt);
    // Flipping bit 4 leaves the size alone: both copies after the
    // allocation read only golden bytes, so they replay.
    let corrupt = || Corrupt { kernel: "iota", pc: 3, reg: Reg(2), mask: 16 };
    let tail = check("alloc, same size", Host(alloc_after_target), corrupt);
    assert_eq!(tail.launches, 3);
}

/// Golden's host copies into device memory between two tail launches — a
/// copy the corrupted run's host skips — and then both hosts overwrite the
/// corrupted buffer, so a later launch reads only golden bytes again.
fn host_copy_between_tail_launches(rt: &mut Runtime) -> Result<(), RuntimeError> {
    let (m, [a, b, c, _]) = setup(rt)?;
    launch(rt, m, "iota", &[a.addr(), 11])?; // target corrupts a[0]
    launch(rt, m, "iota", &[b.addr(), 2])?; // replays
    if rt.read_u32s(a, 1)?[0] == 11 {
        rt.write_u32s(b, &[42; N as usize])?;
    }
    launch(rt, m, "copy", &[c.addr(), b.addr()])?; // b is not golden's
    rt.write_u32s(a, &[1; N as usize])?; // both hosts overwrite the fault
    launch(rt, m, "copy", &[c.addr(), a.addr()])?; // reads golden bytes: replays
    launch(rt, m, "copy", &[b.addr(), c.addr()])?; // so does this
    print_sum(rt, "b", b)?;
    print_sum(rt, "c", c)
}

#[test]
fn a_tail_launch_reading_only_golden_bytes_replays_after_golden_host_writes() {
    let corrupt = || Corrupt { kernel: "iota", pc: 3, reg: Reg(2), mask: 1 };
    let tail = check("host copy", Host(host_copy_between_tail_launches), corrupt);
    assert_eq!(tail.launches, 3, "only the copy that reads the skipped host write simulates");
}
