//! Static dead-fault pruning.
//!
//! The transient fault model corrupts the destination register of one
//! dynamic instruction, *after* its result is written. If that register
//! unit is dead at that point — never read again before being overwritten
//! or the thread exiting, and not readable by a sibling lane through a
//! cross-lane instruction — the injected run is bit-identical to the
//! golden run, so its outcome is **Masked** with no device anomaly, and
//! simulating it is wasted work. `gpu-analysis`' liveness fixpoint answers
//! exactly this question statically.
//!
//! Mapping a fault site's *dynamic* coordinates (`kernel name`, `kernel
//! count`, `instruction count`) back to a *static* program counter needs
//! one extra instrumented run: the `SiteResolver` tool instruments the
//! target kernels exactly as the injector would and records which static
//! pc each watched dynamic index lands on. Because the simulator executes
//! deterministically, this resolution is exact, not approximate.
//!
//! Everything here fails conservative: an unresolved site, a kernel with
//! an imprecise CFG (indirect branches), a mismatched group, or an
//! unclean resolver run all mean "don't prune" — the site is simulated as
//! usual.

use crate::igid::InstrGroup;
use crate::params::TransientParams;
use crate::transient::{select_destination, SiteMatcher};
use gpu_analysis::{cross_lane_uses, Cfg, Liveness, RegSet};
use gpu_isa::{Kernel, RegSlot};
use gpu_runtime::{run_program, KernelLaunchInfo, Program, RuntimeConfig};
use nvbit::{CallSite, Inserter, NvBit, NvBitTool};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The liveness facts needed to decide deadness of an injection site in
/// one kernel.
pub struct KernelAnalysis {
    kernel: Kernel,
    live: Option<Liveness>,
    cross_lane: RegSet,
    precise: bool,
}

impl KernelAnalysis {
    /// Analyze a kernel. Kernels with imprecise CFGs (indirect branches,
    /// call/return) get a `None` liveness and never report sites as dead.
    pub fn new(kernel: &Kernel) -> KernelAnalysis {
        let cfg = Cfg::build(kernel);
        let precise = cfg.precise;
        let live = precise.then(|| Liveness::compute(kernel, &cfg));
        KernelAnalysis {
            kernel: kernel.clone(),
            live,
            cross_lane: cross_lane_uses(kernel),
            precise,
        }
    }

    /// The analyzed kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// `true` if the CFG was statically enumerable (pruning is allowed).
    pub fn precise(&self) -> bool {
        self.precise
    }

    /// `true` if corrupting `slot` right after instruction `pc` completes
    /// provably cannot propagate: the unit is dead in the thread and no
    /// cross-lane instruction in the kernel can read it from a sibling
    /// lane.
    pub fn dest_is_dead(&self, pc: u32, slot: RegSlot) -> bool {
        match &self.live {
            Some(live) => !live.live_out(pc).contains(slot) && !self.cross_lane.contains(slot),
            None => false,
        }
    }
}

/// What the [`SiteResolver`] run found.
#[derive(Default)]
struct ResolverState {
    /// Per site, the static pc its dynamic instruction landed on.
    pcs: Vec<Option<u32>>,
    /// Kernels that carried watched sites, as loaded.
    kernels: HashMap<String, Kernel>,
}

/// An NVBit tool that maps watched dynamic sites to static pcs.
///
/// It instruments and counts through the injector's own [`SiteMatcher`],
/// so the dynamic index sequence observed here is the one the injector
/// counts — resolution is exact for any site the run reaches.
struct SiteResolver {
    matcher: SiteMatcher,
    state: Arc<Mutex<ResolverState>>,
}

impl NvBitTool for SiteResolver {
    fn instrument_kernel(&mut self, kernel: &Kernel, inserter: &mut Inserter<'_>) {
        if self.matcher.instrument(kernel, inserter) {
            self.state.lock().kernels.insert(kernel.name().to_string(), kernel.clone());
        }
    }

    fn launch_enabled(&mut self, info: &KernelLaunchInfo<'_>) -> bool {
        self.matcher.launch_enabled(info)
    }

    fn device_call(&mut self, site: &CallSite<'_>, _thread: &mut gpu_sim::ThreadCtx<'_>) {
        let pc = site.instr.pc();
        self.matcher.step(site.instr.opcode(), |id| self.state.lock().pcs[id] = Some(pc));
    }
}

/// Run `program` once with the [`SiteResolver`] attached; `None` if the
/// run is not clean.
fn resolve(
    program: &dyn Program,
    run_cfg: RuntimeConfig,
    sites: &[TransientParams],
) -> Option<ResolverState> {
    let state = ResolverState { pcs: vec![None; sites.len()], kernels: HashMap::new() };
    let state = Arc::new(Mutex::new(state));
    let resolver = SiteResolver { matcher: SiteMatcher::new(sites), state: Arc::clone(&state) };
    let out = run_program(program, run_cfg, Some(Box::new(NvBit::new(resolver))));
    let clean = out.termination.is_clean() && !out.has_anomaly();
    clean.then(|| std::mem::take(&mut *state.lock()))
}

/// The static pc of the dynamic instruction each site names — the pc the
/// injector would corrupt — found with one run of `program`. `None` for a
/// site the run never reaches, and for every site if the run is not clean.
pub fn resolve_sites(
    program: &dyn Program,
    run_cfg: RuntimeConfig,
    sites: &[TransientParams],
) -> Vec<Option<u32>> {
    resolve(program, run_cfg, sites).map_or_else(|| vec![None; sites.len()], |state| state.pcs)
}

/// Decide, for each selected fault site, whether it is *statically dead*:
/// provably Masked without simulation. Returns one flag per site, in
/// order; a site outside `group` is never dead.
///
/// Runs the program once with the `SiteResolver` tool attached to map dynamic
/// site coordinates to static pcs, then consults per-kernel liveness. The
/// extra run is the entire cost of pruning; it replaces however many
/// injection runs the flags disable.
pub fn prune_dead_sites(
    program: &dyn Program,
    run_cfg: RuntimeConfig,
    group: InstrGroup,
    sites: &[TransientParams],
) -> Vec<bool> {
    if sites.is_empty() {
        return Vec::new();
    }
    let Some(state) = resolve(program, run_cfg, sites) else {
        // The golden run was validated clean, so this is unexpected; fail
        // open and prune nothing.
        return vec![false; sites.len()];
    };
    let analyses: HashMap<&str, KernelAnalysis> =
        state.kernels.iter().map(|(name, k)| (name.as_str(), KernelAnalysis::new(k))).collect();
    sites
        .iter()
        .zip(&state.pcs)
        .map(|(s, pc)| {
            if s.group != group {
                return false;
            }
            let Some(pc) = *pc else {
                // Site beyond the instance's real execution (possible with
                // approximate profiles) — leave it to the simulator.
                return false;
            };
            let Some(analysis) = analyses.get(s.kernel_name.as_str()) else {
                return false;
            };
            if !analysis.precise() {
                return false;
            }
            let instr = &analysis.kernel().instrs()[pc as usize];
            match select_destination(instr, s.group, s.destination_register) {
                // No writable destination: the injector fires but writes
                // nothing — the run is the golden run.
                None => true,
                Some(slot) => analysis.dest_is_dead(pc, slot),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitflip::BitFlipModel;
    use gpu_isa::asm::KernelBuilder;
    use gpu_isa::{encode, Module, Reg, SpecialReg};
    use gpu_runtime::{Runtime, RuntimeError};

    /// out[tid] = tid + 1 — with one write (R7) that is provably dead.
    fn inc_kernel() -> gpu_isa::Kernel {
        let mut k = KernelBuilder::new("inc");
        let (out, tid, off) = (Reg(4), Reg(0), Reg(1));
        k.ldc(out, 0); // out = param — live (read by the IADD)
        k.s2r(tid, SpecialReg::TidX); // live
        k.iaddi(Reg(2), tid, 1); // live (stored)
        k.iaddi(Reg(7), tid, 9); // DEAD — R7 is never read
        k.shli(off, tid, 2); // live (read by the IADD)
        k.iadd(out, out, off); // live (base of the STG)
        k.stg(out, 0, Reg(2));
        k.exit();
        k.finish()
    }

    struct App;
    impl Program for App {
        fn name(&self) -> &str {
            "app"
        }
        fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            let bytes = encode::encode_module(&Module::new("m", vec![inc_kernel()]));
            let m = rt.load_module(&bytes)?;
            let k = rt.get_kernel(m, "inc")?;
            let buf = rt.alloc(32 * 4)?;
            rt.launch(k, 1u32, 32u32, &[buf.addr()])?;
            rt.synchronize()?;
            let v = rt.read_u32s(buf, 32)?;
            rt.println(format!("sum={}", v.iter().sum::<u32>()));
            Ok(())
        }
    }

    /// Group-instruction ordinal of the instruction at `pc`, for a
    /// single-warp straight-line kernel: sites are numbered per lane in
    /// lane order, so ordinal `j` covers dynamic indices `j*32..j*32+32`.
    fn gp_ordinal(kernel: &gpu_isa::Kernel, pc: usize) -> usize {
        kernel.instrs()[..pc].iter().filter(|i| InstrGroup::Gp.contains(i.op)).count()
    }

    fn site(instruction_count: u64) -> TransientParams {
        TransientParams {
            group: InstrGroup::Gp,
            bit_flip: BitFlipModel::FlipSingleBit,
            kernel_name: "inc".into(),
            kernel_count: 0,
            instruction_count,
            destination_register: 0.0,
            bit_pattern: 0.0,
        }
    }

    #[test]
    fn dead_and_live_sites_are_told_apart() {
        let kernel = inc_kernel();
        // Verify the kernel is what the comments claim: pc 3 writes R7.
        assert_eq!(kernel.instrs()[3].gpr_dests(), vec![Reg(7)]);
        let dead = gp_ordinal(&kernel, 3) * 32; // lane 0's dead IADD32I
        let live_shl = gp_ordinal(&kernel, 4) * 32 + 5; // lane 5's SHL
        let live_iadd = gp_ordinal(&kernel, 5) * 32 + 31; // lane 31's IADD
        let sites = vec![site(dead as u64), site(live_shl as u64), site(live_iadd as u64)];
        let flags = prune_dead_sites(&App, RuntimeConfig::default(), InstrGroup::Gp, &sites);
        assert_eq!(flags, vec![true, false, false]);
    }

    #[test]
    fn unresolved_site_is_not_pruned() {
        // An instruction count past what the instance actually executes
        // (possible with approximate profiles) never resolves to a pc, so
        // it must be left to the simulator rather than assumed dead.
        let flags = prune_dead_sites(&App, RuntimeConfig::default(), InstrGroup::Gp, &[site(5000)]);
        assert_eq!(flags, vec![false], "unreachable sites are left to the simulator");
    }

    #[test]
    fn mismatched_group_is_not_pruned() {
        let mut s = site(0);
        s.group = InstrGroup::Ld;
        let flags = prune_dead_sites(&App, RuntimeConfig::default(), InstrGroup::Gp, &[s]);
        assert_eq!(flags, vec![false]);
    }

    #[test]
    fn kernel_analysis_liveness_matches_hand_analysis() {
        let mut k = KernelBuilder::new("t");
        k.movi(Reg(0), 1); // pc 0 — R0 read at pc 1: live
        k.iaddi(Reg(1), Reg(0), 1); // pc 1 — R1 never read: dead
        k.exit(); // pc 2
        let a = KernelAnalysis::new(&k.finish());
        assert!(a.precise());
        assert!(!a.dest_is_dead(0, RegSlot::Gpr(Reg(0))));
        assert!(a.dest_is_dead(1, RegSlot::Gpr(Reg(1))));
    }
}
