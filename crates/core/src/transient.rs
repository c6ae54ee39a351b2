//! The transient-fault injector — NVBitFI's `injector.so`.
//!
//! Driven by one or more [`TransientParams`] sites (Figure 1's "one or more
//! injection points"; a single-fault run is a list of one), the injector:
//!
//! 1. instruments *only* the target kernels, and only instructions in the
//!    sites' groups (everything else runs unmodified — the selectivity the
//!    paper credits for NVBitFI's low injection overhead),
//! 2. enables instrumentation only for the target *dynamic instances*
//!    (`kernel count`),
//! 3. counts group instructions as they execute, thread-level, in the
//!    simulator's deterministic order, and
//! 4. when a site's count reaches its `instruction count`, corrupts one
//!    destination register of that dynamic instruction — after its result
//!    is written — using the bit-flip model's XOR mask.

use crate::bitflip::BitFlipModel;
use crate::igid::InstrGroup;
use crate::params::TransientParams;
use gpu_isa::{Instr, Kernel, Opcode, RegSlot};
use gpu_runtime::KernelLaunchInfo;
use gpu_sim::ThreadCtx;
use nvbit::{CallSite, Inserter, NvBit, NvBitTool, When};
use parking_lot::Mutex;
use std::sync::Arc;

/// What the injector corrupted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorruptedTarget {
    /// A general-purpose register was XORed.
    Gpr {
        /// The register.
        reg: u8,
        /// Value before corruption.
        old: u32,
        /// The XOR mask applied.
        mask: u32,
        /// Value after corruption.
        new: u32,
    },
    /// A predicate register was overwritten.
    Pred {
        /// The predicate register.
        reg: u8,
        /// Value before corruption.
        old: bool,
        /// Value after corruption.
        new: bool,
    },
    /// The selected dynamic instruction had no writable destination
    /// (e.g. a `G_NODEST` site, or all destinations were `RZ`).
    NoWritableDest,
}

/// A record of one performed injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionDetail {
    /// Kernel the fault landed in.
    pub kernel: String,
    /// Dynamic instance of the kernel.
    pub instance: u64,
    /// Static instruction index.
    pub pc: u32,
    /// The instruction's opcode.
    pub opcode: Opcode,
    /// Global thread id of the corrupted thread.
    pub global_tid: u64,
    /// What was corrupted.
    pub target: CorruptedTarget,
}

/// Outcome of the injector's attempt at one site (readable after the run).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectionRecord {
    /// `true` once the fault was injected.
    pub injected: bool,
    /// Details, when injected.
    pub detail: Option<InjectionDetail>,
    /// Group instructions observed in the site's target kernel instance
    /// (even if the target index was never reached — diagnostic for
    /// approximate profiles that overestimate a kernel's length).
    pub group_instrs_seen: u64,
}

/// Handle to read the per-site [`InjectionRecord`]s after the run.
#[derive(Debug, Clone)]
pub struct InjectionHandle(Arc<Mutex<Sites>>);

impl InjectionHandle {
    /// Snapshot the first site's record — the whole record of a
    /// single-fault run.
    pub fn get(&self) -> InjectionRecord {
        self.all().into_iter().next().unwrap_or_default()
    }

    /// Snapshot every site's record, in the order the sites were given.
    pub fn all(&self) -> Vec<InjectionRecord> {
        let sites = self.0.lock();
        let mut records = sites.records.clone();
        for (id, seen) in sites.matcher.seen() {
            records[id].group_instrs_seen = seen;
        }
        records
    }
}

/// The destination register unit the *destination register* parameter
/// (Table II) selects for `instr` under `group` targeting, or `None` when
/// the instruction has no writable destination for the group.
///
/// This is the single source of truth shared by the injector (which
/// corrupts the unit) and static dead-fault pruning (which asks whether
/// the unit is dead at the injection point): GPR candidates order before
/// predicate candidates, and `destination_register ∈ [0,1)` indexes the
/// combined list.
pub fn select_destination(
    instr: &Instr,
    group: InstrGroup,
    destination_register: f64,
) -> Option<RegSlot> {
    let slots = destination_candidates(instr, group);
    let last = slots.len().checked_sub(1)?;
    Some(slots[((destination_register * slots.len() as f64) as usize).min(last)])
}

/// Every unit [`select_destination`] can pick for `instr` under `group`
/// targeting: GPR candidates, then predicate candidates.
pub(crate) fn destination_candidates(instr: &Instr, group: InstrGroup) -> Vec<RegSlot> {
    let mut slots = Vec::new();
    if group.targets_gprs() {
        slots.extend(instr.gpr_dests().into_iter().map(RegSlot::Gpr));
    }
    if group.targets_predicates() {
        slots.extend(instr.pred_dests().into_iter().map(RegSlot::Pred));
    }
    slots
}

/// The group-instruction count of one dynamic kernel, and the sites it
/// watches.
#[derive(Debug)]
struct Counter {
    kernel: String,
    instance: u64,
    group: InstrGroup,
    /// Group instructions counted so far.
    seen: u64,
    /// Watched group indices, ascending, each with its site id.
    targets: Vec<(u64, usize)>,
    /// First entry of `targets` not reached yet.
    next: usize,
}

/// Matching state for a list of transient sites — the one home of the rule
/// "site *n* is group instruction *n* of dynamic instance *k*", shared by
/// the injector (which corrupts a matched site) and the static-pruning site
/// resolver (which records its pc).
///
/// Sites with the same kernel, instance and group share one counter, and
/// the counters watching a launch are picked once per launch, so a device
/// call costs one step per watching counter however many sites it carries,
/// and neither hashes nor allocates.
#[derive(Debug)]
pub(crate) struct SiteMatcher {
    counters: Vec<Counter>,
    /// Counters watching the current launch.
    active: Vec<usize>,
}

impl SiteMatcher {
    /// Watch `sites`; a site's id is its index in the slice.
    pub(crate) fn new(sites: &[TransientParams]) -> SiteMatcher {
        let mut counters: Vec<Counter> = Vec::new();
        for (id, s) in sites.iter().enumerate() {
            let same = |c: &Counter| {
                c.kernel == s.kernel_name && c.instance == s.kernel_count && c.group == s.group
            };
            let c = counters.iter().position(same).unwrap_or_else(|| {
                counters.push(Counter {
                    kernel: s.kernel_name.clone(),
                    instance: s.kernel_count,
                    group: s.group,
                    seen: 0,
                    targets: Vec::new(),
                    next: 0,
                });
                counters.len() - 1
            });
            counters[c].targets.push((s.instruction_count, id));
        }
        for c in &mut counters {
            c.targets.sort_unstable();
        }
        SiteMatcher { counters, active: Vec::new() }
    }

    /// Insert an `After` callback at every instruction of `kernel` in the
    /// union of its sites' groups. Returns `false` (inserting nothing) when
    /// no site targets the kernel.
    pub(crate) fn instrument(&self, kernel: &Kernel, inserter: &mut Inserter<'_>) -> bool {
        let groups: Vec<InstrGroup> =
            self.counters.iter().filter(|c| c.kernel == kernel.name()).map(|c| c.group).collect();
        for (pc, instr) in kernel.instrs().iter().enumerate() {
            if groups.iter().any(|g| g.contains(instr.op)) {
                inserter.insert_call(pc, When::After, 0, Vec::new());
            }
        }
        !groups.is_empty()
    }

    /// Pick the counters watching this launch; `true` if there are any.
    pub(crate) fn launch_enabled(&mut self, info: &KernelLaunchInfo<'_>) -> bool {
        self.active.clear();
        self.active.extend((0..self.counters.len()).filter(|&c| {
            let counter = &self.counters[c];
            counter.instance == info.instance && counter.kernel == info.kernel.name()
        }));
        !self.active.is_empty()
    }

    /// Count one executed instruction of the current launch, calling
    /// `on_match` with the id of every site it is.
    #[inline]
    pub(crate) fn step(&mut self, op: Opcode, mut on_match: impl FnMut(usize)) {
        for &c in &self.active {
            let counter = &mut self.counters[c];
            if !counter.group.contains(op) {
                continue;
            }
            let index = counter.seen;
            counter.seen += 1;
            while let Some(&(target, id)) = counter.targets.get(counter.next) {
                if target != index {
                    break;
                }
                counter.next += 1;
                on_match(id);
            }
        }
    }

    /// Every site id with the group instructions counted so far in its
    /// target instance.
    fn seen(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counters.iter().flat_map(|c| c.targets.iter().map(move |&(_, id)| (id, c.seen)))
    }
}

/// The sites of one injection run and what happened to each.
#[derive(Debug)]
struct Sites {
    params: Vec<TransientParams>,
    matcher: SiteMatcher,
    /// Per site; `group_instrs_seen` is read from the matcher.
    records: Vec<InjectionRecord>,
}

/// The transient injector tool (attachable via [`nvbit::NvBit`]).
pub struct TransientInjector(Arc<Mutex<Sites>>);

impl TransientInjector {
    /// Create an injector for one fault, plus the handle to its record.
    pub fn new(params: TransientParams) -> (NvBit<TransientInjector>, InjectionHandle) {
        TransientInjector::with_sites(vec![params])
    }

    /// Create an injector for several faults in one run, plus the handle to
    /// their records. Sites may live in different kernels, different
    /// instances of one kernel, or the same dynamic kernel; each fires at
    /// its own group index, counted as for a single fault.
    pub fn with_sites(sites: Vec<TransientParams>) -> (NvBit<TransientInjector>, InjectionHandle) {
        let sites = Sites {
            matcher: SiteMatcher::new(&sites),
            records: vec![InjectionRecord::default(); sites.len()],
            params: sites,
        };
        let sites = Arc::new(Mutex::new(sites));
        (NvBit::new(TransientInjector(Arc::clone(&sites))), InjectionHandle(sites))
    }
}

/// Corrupt the destination `p` selects in `instr`'s result for `thread`.
fn corrupt(p: &TransientParams, instr: &Instr, thread: &mut ThreadCtx<'_>) -> CorruptedTarget {
    // Table II: destination register ∈ [0,1) selects among candidates.
    match select_destination(instr, p.group, p.destination_register) {
        None => CorruptedTarget::NoWritableDest,
        Some(RegSlot::Gpr(reg)) => {
            let old = thread.read_reg(reg);
            let mask = p.bit_flip.mask(p.bit_pattern, old);
            let new = thread.corrupt_reg(reg, mask) ^ mask;
            CorruptedTarget::Gpr { reg: reg.0, old, mask, new }
        }
        Some(RegSlot::Pred(preg)) => {
            let old = thread.read_pred(preg);
            let new = match p.bit_flip {
                BitFlipModel::ZeroValue => false,
                BitFlipModel::RandomValue => p.bit_pattern >= 0.5,
                BitFlipModel::FlipSingleBit | BitFlipModel::FlipTwoBits => !old,
            };
            if new != old {
                thread.corrupt_pred(preg);
            }
            CorruptedTarget::Pred { reg: preg.0, old, new }
        }
    }
}

impl NvBitTool for TransientInjector {
    fn instrument_kernel(&mut self, kernel: &Kernel, inserter: &mut Inserter<'_>) {
        // Only the target kernels are instrumented, and only the sites'
        // group instructions within them.
        self.0.lock().matcher.instrument(kernel, inserter);
    }

    fn launch_enabled(&mut self, info: &KernelLaunchInfo<'_>) -> bool {
        self.0.lock().matcher.launch_enabled(info)
    }

    fn device_call(&mut self, site: &CallSite<'_>, thread: &mut ThreadCtx<'_>) {
        let mut sites = self.0.lock();
        let Sites { params, matcher, records } = &mut *sites;
        matcher.step(site.instr.opcode(), |id| {
            records[id].injected = true;
            records[id].detail = Some(InjectionDetail {
                kernel: site.kernel.to_string(),
                instance: site.kernel_instance,
                pc: site.instr.pc(),
                opcode: site.instr.opcode(),
                global_tid: thread.meta.global_tid(),
                target: corrupt(&params[id], site.instr.instr(), thread),
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::igid::InstrGroup;
    use gpu_isa::asm::KernelBuilder;
    use gpu_isa::{encode, Module, Reg, SpecialReg};
    use gpu_runtime::{run_program, Program, Runtime, RuntimeConfig, RuntimeError};

    /// out[tid] = tid + 1, launched twice.
    struct App;
    impl Program for App {
        fn name(&self) -> &str {
            "app"
        }
        fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            let mut k = KernelBuilder::new("inc");
            let (out, tid, off) = (Reg(4), Reg(0), Reg(1));
            k.ldc(out, 0);
            k.s2r(tid, SpecialReg::TidX);
            k.iaddi(Reg(2), tid, 1);
            k.shli(off, tid, 2);
            k.iadd(out, out, off);
            k.stg(out, 0, Reg(2));
            k.exit();
            let bytes = encode::encode_module(&Module::new("m", vec![k.finish()]));
            let m = rt.load_module(&bytes)?;
            let k = rt.get_kernel(m, "inc")?;
            let out0 = rt.alloc(32 * 4)?;
            let out1 = rt.alloc(32 * 4)?;
            rt.launch(k, 1u32, 32u32, &[out0.addr()])?;
            rt.launch(k, 1u32, 32u32, &[out1.addr()])?;
            rt.synchronize()?;
            let v0 = rt.read_u32s(out0, 32)?;
            let v1 = rt.read_u32s(out1, 32)?;
            rt.println(format!("sum0={} sum1={}", v0.iter().sum::<u32>(), v1.iter().sum::<u32>()));
            Ok(())
        }
    }

    fn params(kernel_count: u64, instruction_count: u64) -> TransientParams {
        TransientParams {
            group: InstrGroup::Gp,
            bit_flip: BitFlipModel::FlipSingleBit,
            kernel_name: "inc".into(),
            kernel_count,
            instruction_count,
            destination_register: 0.0,
            bit_pattern: 0.0, // flips bit 0
        }
    }

    #[test]
    fn pointer_corruption_becomes_a_detected_error() {
        // Group index 0 is thread 0's LDC — the output *pointer*. A single
        // bit flip there sends the store to a misaligned address: the
        // kernel traps, the checking host sees the sticky error, and the
        // process exits non-zero (an application-detected DUE).
        let (tool, handle) = TransientInjector::new(params(0, 0));
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(handle.get().injected);
        assert_eq!(
            out.termination,
            gpu_runtime::Termination::Normal { exit_code: 1 },
            "{}",
            out.stdout
        );
        assert!(out.has_anomaly());
    }

    #[test]
    fn injects_exactly_one_fault_in_target_instance() {
        // G_GP instructions per thread in `inc`: LDC, S2R, IADD32I, SHL,
        // IADD = 5 of 7 (STG and EXIT are NODEST). 32 threads step in
        // lockstep, so group indices 0..32 are the LDCs, 32..64 the S2Rs,
        // 64..96 the IADD32Is, … Target index 74: thread 10's IADD32I in
        // the second launch (instance 1) — a value, not a pointer, so the
        // program completes and the corruption flows to the output.
        let (tool, handle) = TransientInjector::new(params(1, 74));
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let rec = handle.get();
        assert!(rec.injected);
        let detail = rec.detail.expect("detail");
        assert_eq!(detail.instance, 1);
        assert_eq!(detail.kernel, "inc");
        match detail.target {
            CorruptedTarget::Gpr { mask, old, new, .. } => {
                assert_eq!(mask, 1);
                assert_eq!(new, old ^ 1);
            }
            other => panic!("expected GPR corruption, got {other:?}"),
        }
        // The fault flipped bit 0 of some intermediate — output may or may
        // not change, but the uncorrupted first launch must be identical.
        assert!(out.stdout.contains("sum0=528"), "first launch untouched: {}", out.stdout);
        assert!(!out.stdout.contains("sum1=528"), "bit flip must surface: {}", out.stdout);
    }

    #[test]
    fn unreachable_instruction_count_never_injects() {
        // Only 160 group instructions exist per instance; target #5000.
        let (tool, handle) = TransientInjector::new(params(0, 5000));
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let rec = handle.get();
        assert!(!rec.injected, "site beyond execution must be a no-op");
        assert_eq!(rec.group_instrs_seen, 160);
        assert!(out.stdout.contains("sum0=528 sum1=528"));
    }

    #[test]
    fn wrong_kernel_name_is_never_instrumented() {
        let mut p = params(0, 0);
        p.kernel_name = "other_kernel".into();
        let (tool, handle) = TransientInjector::new(p);
        let stats = tool.stats_handle();
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        assert!(!handle.get().injected);
        assert_eq!(stats.lock().launches_instrumented, 0);
        assert_eq!(stats.lock().device_calls, 0);
    }

    #[test]
    fn non_target_instance_runs_unmodified() {
        let (tool, _handle) = TransientInjector::new(params(1, 70));
        let stats = tool.stats_handle();
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let s = *stats.lock();
        assert_eq!(s.launches_instrumented, 1, "only instance 1");
        assert_eq!(s.launches_unmodified, 1, "instance 0 untouched");
    }

    #[test]
    fn zero_value_model_zeroes_destination() {
        let mut p = params(0, 67); // thread 3's IADD32I result
        p.bit_flip = BitFlipModel::ZeroValue;
        let (tool, handle) = TransientInjector::new(p);
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        match handle.get().detail.expect("detail").target {
            CorruptedTarget::Gpr { new, .. } => assert_eq!(new, 0),
            other => panic!("expected GPR, got {other:?}"),
        }
    }

    /// out[tid] = tid + 1, launched three times into separate buffers.
    struct Thrice;
    impl Program for Thrice {
        fn name(&self) -> &str {
            "app"
        }
        fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            let mut k = KernelBuilder::new("inc");
            let (out, tid, off) = (Reg(4), Reg(0), Reg(1));
            k.ldc(out, 0);
            k.s2r(tid, SpecialReg::TidX);
            k.iaddi(Reg(2), tid, 1);
            k.shli(off, tid, 2);
            k.iadd(out, out, off);
            k.stg(out, 0, Reg(2));
            k.exit();
            let bytes = encode::encode_module(&Module::new("m", vec![k.finish()]));
            let m = rt.load_module(&bytes)?;
            let k = rt.get_kernel(m, "inc")?;
            let mut sums = Vec::new();
            for _ in 0..3 {
                let buf = rt.alloc(32 * 4)?;
                rt.launch(k, 1u32, 32u32, &[buf.addr()])?;
                sums.push(rt.read_u32s(buf, 32)?.iter().sum::<u32>());
            }
            rt.synchronize()?;
            rt.println(format!("{sums:?}"));
            Ok(())
        }
    }

    fn fault(instance: u64, icount: u64) -> TransientParams {
        // IADD32I results occupy group indices 64..96 per instance.
        params(instance, icount)
    }

    fn injected_count(records: &[InjectionRecord]) -> usize {
        records.iter().filter(|r| r.injected).count()
    }

    #[test]
    fn injects_multiple_faults_in_one_run() {
        // Two faults in different instances, one more in the same instance
        // as the first.
        let faults = vec![fault(0, 64), fault(2, 70), fault(0, 80)];
        let (tool, handle) = TransientInjector::with_sites(faults);
        let out = run_program(&Thrice, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean(), "{}", out.stdout);
        let rec = handle.all();
        assert_eq!(injected_count(&rec), 3, "{rec:?}");
        let d0 = rec[0].detail.as_ref().expect("fault 0");
        let d1 = rec[1].detail.as_ref().expect("fault 1");
        let d2 = rec[2].detail.as_ref().expect("fault 2");
        assert_eq!(d0.instance, 0);
        assert_eq!(d1.instance, 2);
        assert_eq!(d2.instance, 0);
        assert_eq!(d0.global_tid, 0, "index 64 is thread 0's IADD32I");
        assert_eq!(d1.global_tid, 6);
        assert_eq!(d2.global_tid, 16);
        // Instance 1 untouched; instances 0 and 2 each off by ±1 per flip.
        assert!(out.stdout.contains(", 528,"), "{}", out.stdout);
    }

    #[test]
    fn unreached_faults_stay_pending() {
        let faults = vec![fault(0, 64), fault(1, 500_000)];
        let (tool, handle) = TransientInjector::with_sites(faults);
        let out = run_program(&Thrice, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let rec = handle.all();
        assert_eq!(injected_count(&rec), 1);
        assert!(rec[0].detail.is_some());
        assert!(rec[1].detail.is_none());
    }

    #[test]
    fn fast_forward_multi_fault_matches_full_run() {
        use gpu_runtime::run_program_fast_forward;

        let golden =
            crate::PreparedGolden::new(&Thrice, RuntimeConfig::default(), true).expect("golden");
        assert_eq!(golden.checkpoints.len(), 3);

        // Faults in instances 1 and 2: launch 0 is pure prefix.
        let faults = vec![fault(1, 64), fault(2, 70)];

        let (tool, full_handle) = TransientInjector::with_sites(faults.clone());
        let full = run_program(&Thrice, RuntimeConfig::default(), Some(Box::new(tool)));

        let (tool, ff_handle) = TransientInjector::with_sites(faults);
        let ff = run_program_fast_forward(
            &Thrice,
            RuntimeConfig::default(),
            Some(Box::new(tool)),
            Arc::clone(&golden.checkpoints),
            golden.checkpoints.len() as u64,
        );
        assert_eq!(ff.stdout, full.stdout);
        assert_eq!(ff.files, full.files);
        assert_eq!(ff_handle.all(), full_handle.all(), "identical architectural events");
        assert_eq!(
            ff.prefix_instrs_skipped,
            golden.checkpoints.instrs_before(1),
            "exactly the prefix launch was replayed"
        );
        assert_eq!(full.prefix_instrs_skipped, 0);
    }

    #[test]
    fn target_launch_bounds() {
        let golden =
            crate::PreparedGolden::new(&Thrice, RuntimeConfig::default(), true).expect("golden");
        let skipped = |sites: Vec<TransientParams>| {
            let (tool, _) = TransientInjector::with_sites(sites);
            golden.inject(&Thrice, &crate::ExactDiff, Box::new(tool)).1.prefix_instrs_skipped
        };
        let store = &golden.checkpoints;
        // No reachable target: the whole run is fast-forwarded.
        assert_eq!(skipped(vec![fault(9, 0)]), store.instrs_before(3));
        assert_eq!(skipped(vec![]), store.instrs_before(3));
        // The earliest target bounds the replayed prefix.
        assert_eq!(skipped(vec![fault(2, 0), fault(1, 0)]), store.instrs_before(1));
    }

    #[test]
    fn one_site_list_matches_single_fault_constructor() {
        let p = fault(1, 64 + 9);
        let (multi_tool, multi_handle) = TransientInjector::with_sites(vec![p.clone()]);
        let multi_out = run_program(&Thrice, RuntimeConfig::default(), Some(Box::new(multi_tool)));
        let (single_tool, single_handle) = TransientInjector::new(p);
        let single_out =
            run_program(&Thrice, RuntimeConfig::default(), Some(Box::new(single_tool)));
        assert_eq!(multi_out.stdout, single_out.stdout);
        let m = multi_handle.all()[0].detail.clone().expect("fired");
        let s = single_handle.get().detail.expect("fired");
        assert_eq!(m, s, "identical architectural event");
    }

    #[test]
    fn sites_with_different_groups_in_one_dynamic_kernel_fire_at_their_own_index() {
        // In `inc`, G_GP covers LDC, S2R, IADD32I, SHL and IADD, and
        // G_NODEST the STG and EXIT. The union of both groups is
        // instrumented, and each site counts only its own group.
        let gp = fault(1, 64 + 5); // thread 5's IADD32I
        let mut nodest = fault(1, 7); // thread 7's STG
        nodest.group = InstrGroup::NoDest;
        let (tool, handle) = TransientInjector::with_sites(vec![gp, nodest]);
        let stats = tool.stats_handle();
        let out = run_program(&Thrice, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean(), "{}", out.stdout);
        let rec = handle.all();
        assert_eq!(injected_count(&rec), 2, "{rec:?}");
        let (gp, nodest) = (rec[0].detail.as_ref().unwrap(), rec[1].detail.as_ref().unwrap());
        assert_eq!((gp.instance, gp.opcode, gp.global_tid), (1, Opcode::IADD32I, 5));
        assert_eq!((nodest.instance, nodest.opcode, nodest.global_tid), (1, Opcode::STG, 7));
        assert_eq!(nodest.target, CorruptedTarget::NoWritableDest);
        assert_eq!(rec[0].group_instrs_seen, 5 * 32);
        assert_eq!(rec[1].group_instrs_seen, 2 * 32);
        assert_eq!(stats.lock().device_calls, 7 * 32, "all seven instructions are call sites");
    }
}
