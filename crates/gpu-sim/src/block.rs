//! Block execution: warps, divergence, barriers, and cross-lane ops.
//!
//! Scheduling is deterministic by construction: blocks run in linear order,
//! warps within a block are stepped round-robin one instruction-group at a
//! time, and within a warp the group at the minimum program counter issues
//! (a simple model of Volta-style independent thread scheduling). Determinism
//! matters here more than on real hardware: it makes the profiler's
//! dynamic-instruction numbering exactly reproducible, so a fault site
//! `<kernel, instance, instruction index>` always lands on the same
//! architectural event.
//!
//! One [`BlockState`] serves every block of a launch: [`BlockState::arm`]
//! zeroes and re-targets it between blocks, so the per-thread register
//! files are allocated once per launch. A warp's lanes are tracked as `u32`
//! masks (exited, waiting at a barrier, issuing), walked in ascending lane
//! order, and the per-warp-instruction work — decode, latency, hook lookup,
//! budget and deadline accounting — happens once per issue, not per lane.

use crate::cycles::{latency, HOOK_CYCLES};
use crate::exec::{exec_family, ExecEnv, Flow};
use crate::grid::Dim3;
use crate::hooks::{InstrSite, Instrumentation, ThreadCtx, ThreadMeta};
use crate::memory::{GlobalMem, SharedMem};
use crate::regfile::RegFile;
use crate::trap::{TrapInfo, TrapKind};
use gpu_isa::{Dst, ExecFamily, Instr, Kernel, Modifier, Operand, Reg, ShflMode, Space, WARP_SIZE};

pub(crate) struct ThreadState {
    pub regs: RegFile,
    pub ret_stack: Vec<u32>,
    /// Empty unless the kernel has a local-memory operand.
    pub local: Vec<u8>,
    pub meta: ThreadMeta,
}

/// One warp's scheduling state.
struct Warp {
    pcs: [u32; WARP_SIZE],
    /// Lanes that exited, plus the lanes past the end of a partial last warp.
    exited: u32,
    /// Lanes waiting at a block-wide barrier.
    waiting: u32,
}

/// Running totals for one kernel launch.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counters {
    /// Guard-passing thread-level dynamic instructions executed so far.
    pub executed: u64,
    /// Simulated cycles consumed so far.
    pub cycles: u64,
    /// Launch budget: exceeding it raises [`TrapKind::Timeout`].
    pub budget: u64,
    /// Wall-clock deadline: passing it raises [`TrapKind::DeadlineExceeded`].
    /// Polled when the dynamic-instruction index crosses a multiple of
    /// [`DEADLINE_POLL_INTERVAL`], so the common case costs one branch per
    /// warp instruction.
    pub deadline: Option<std::time::Instant>,
}

/// How many dynamic instructions run between wall-clock deadline polls.
/// A power of two so the check is a mask; coarse enough that `Instant::now`
/// never shows up in profiles, fine enough to bound overrun to milliseconds.
pub(crate) const DEADLINE_POLL_INTERVAL: u64 = 1 << 14;

/// Execution state for the blocks of one launch, re-armed per block.
pub(crate) struct BlockState {
    threads: Vec<ThreadState>,
    warps: Vec<Warp>,
    shared: SharedMem,
    grid: Dim3,
    flat_ctaid: u32,
    /// One past the highest GPR the kernel writes: without hooks, registers
    /// from here up stay zero.
    written_regs: usize,
    /// A hook ran in this block and may have written any register.
    hooked: bool,
    /// Threads that have not exited.
    live: usize,
    /// Live threads waiting at a barrier.
    waiting: usize,
}

/// The first `lanes` lanes of a warp.
fn lane_mask(lanes: usize) -> u32 {
    if lanes >= WARP_SIZE {
        u32::MAX
    } else {
        (1u32 << lanes) - 1
    }
}

/// The set lanes of `mask`, in ascending order.
fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// `mask` with only its first `n` set lanes kept.
fn first_lanes(mask: u32, n: u64) -> u32 {
    lanes(mask).take(n as usize).fold(0, |m, lane| m | 1 << lane)
}

impl BlockState {
    /// Allocate the state for every block of a launch of `kernel`. Call
    /// [`BlockState::arm`] before running each block.
    pub fn new(kernel: &Kernel, grid: Dim3, block: Dim3, local_bytes: u32) -> BlockState {
        let nthreads = block.count() as usize;
        let mut uses_local = false;
        let mut written_regs = 0;
        for i in kernel.instrs() {
            uses_local |= i.mem_ref().is_some_and(|m| m.space == Space::Local);
            for d in i.dsts {
                let end = match d {
                    Dst::R(r) => r.index() + 1,
                    Dst::R64(r) => r.index() + 2,
                    _ => 0,
                };
                written_regs = written_regs.max(end.min(Reg::RZ.index()));
            }
        }
        let local_bytes = if uses_local { local_bytes as usize } else { 0 };
        let threads = (0..nthreads as u32)
            .map(|flat_tid| ThreadState {
                regs: RegFile::new(),
                ret_stack: Vec::new(),
                local: vec![0; local_bytes],
                meta: ThreadMeta {
                    tid: block.unflatten(flat_tid),
                    ctaid: Dim3::from(0),
                    ntid: block,
                    nctaid: grid,
                    flat_tid,
                    flat_ctaid: 0,
                    lane: flat_tid % WARP_SIZE as u32,
                    warp: flat_tid / WARP_SIZE as u32,
                    sm: 0,
                },
            })
            .collect();
        let warps = (0..nthreads.div_ceil(WARP_SIZE))
            .map(|_| Warp { pcs: [0; WARP_SIZE], exited: 0, waiting: 0 })
            .collect();
        BlockState {
            threads,
            warps,
            shared: SharedMem::new(kernel.shared_bytes()),
            grid,
            flat_ctaid: 0,
            written_regs,
            hooked: false,
            live: 0,
            waiting: 0,
        }
    }

    /// Reset every thread to the kernel entry of block `flat_ctaid` on SM
    /// `sm`: registers, predicates, local and shared memory zeroed, call
    /// stacks empty, no lane exited or waiting.
    pub fn arm(&mut self, flat_ctaid: u32, sm: u32) {
        let ctaid = self.grid.unflatten(flat_ctaid);
        for t in &mut self.threads {
            if self.hooked {
                t.regs = RegFile::new();
            } else {
                t.regs.clear_low(self.written_regs);
            }
            t.ret_stack.clear();
            // Most kernels have no local memory; an empty `fill` still
            // calls `memset` (see `SharedMem::zero`).
            if !t.local.is_empty() {
                t.local.fill(0);
            }
            t.meta.ctaid = ctaid;
            t.meta.flat_ctaid = flat_ctaid;
            t.meta.sm = sm;
        }
        let nthreads = self.threads.len();
        for (w, warp) in self.warps.iter_mut().enumerate() {
            warp.pcs = [0; WARP_SIZE];
            warp.exited = !lane_mask(nthreads - w * WARP_SIZE);
            warp.waiting = 0;
        }
        self.shared.zero();
        self.flat_ctaid = flat_ctaid;
        self.hooked = false;
        self.live = nthreads;
        self.waiting = 0;
    }

    /// Run the armed block to completion.
    pub fn run(
        &mut self,
        kernel: &Kernel,
        global: &mut GlobalMem,
        cmem: &[u8],
        counters: &mut Counters,
        instrumentation: &mut Option<&mut Instrumentation<'_>>,
    ) -> Result<(), TrapInfo> {
        loop {
            let mut progressed = false;
            for w in 0..self.warps.len() {
                progressed |= self.step_warp(w, kernel, global, cmem, counters, instrumentation)?;
            }
            if self.live == 0 {
                return Ok(());
            }
            if !progressed {
                if self.waiting == self.live {
                    // Barrier release: every live thread arrived.
                    for warp in &mut self.warps {
                        warp.waiting = 0;
                    }
                    self.waiting = 0;
                } else {
                    return Err(TrapInfo {
                        kind: TrapKind::BarrierDeadlock,
                        kernel: kernel.name().to_string(),
                        pc: None,
                        block: Some(self.flat_ctaid),
                        thread: None,
                    });
                }
            }
        }
    }

    /// Issue one instruction group for warp `w`; `false` if no lane could
    /// run.
    fn step_warp(
        &mut self,
        w: usize,
        kernel: &Kernel,
        global: &mut GlobalMem,
        cmem: &[u8],
        counters: &mut Counters,
        instrumentation: &mut Option<&mut Instrumentation<'_>>,
    ) -> Result<bool, TrapInfo> {
        let BlockState { threads, warps, shared, flat_ctaid, hooked, live, waiting, .. } = self;
        let trap = |kind, pc, thread: usize| TrapInfo {
            kind,
            kernel: kernel.name().to_string(),
            pc: Some(pc),
            block: Some(*flat_ctaid),
            thread: Some(thread as u32),
        };
        let warp = &mut warps[w];
        let base = w * WARP_SIZE;
        let runnable = !(warp.exited | warp.waiting);
        if runnable == 0 {
            return Ok(false);
        }
        // The group at the minimum pc issues. Branch-free over all 32 lanes.
        let pc = (0..WARP_SIZE)
            .map(|lane| if runnable >> lane & 1 != 0 { warp.pcs[lane] } else { u32::MAX })
            .min()
            .unwrap_or(u32::MAX);
        let group = runnable
            & (0..WARP_SIZE).fold(0u32, |g, lane| g | u32::from(warp.pcs[lane] == pc) << lane);
        if pc as usize >= kernel.len() {
            let first = runnable.trailing_zeros() as usize;
            return Err(trap(TrapKind::PcOverrun, pc, base + first));
        }
        let instr = &kernel.instrs()[pc as usize];
        let fam = instr.op.family();
        counters.cycles += latency(fam);

        // Guard evaluation: failing threads skip the instruction silently
        // (and are excluded from profiling, per paper §III-A).
        let mut active = group;
        if !instr.guard.is_always() {
            for lane in lanes(group) {
                if !instr.guard.passes(threads[base + lane].regs.read_p(instr.guard.pred)) {
                    active &= !(1 << lane);
                    warp.pcs[lane] += 1;
                }
            }
        }
        if active == 0 {
            return Ok(true);
        }

        // Budget and deadline, once per issue: the lanes run in order until
        // the one whose dynamic index exhausts the budget or lands on an
        // expired deadline poll.
        let first = counters.executed;
        let n = u64::from(active.count_ones());
        let room = counters.budget.saturating_sub(first).min(n);
        let mut stop = (room < n).then_some((room, TrapKind::Timeout));
        if let Some(deadline) = counters.deadline {
            let poll = first.next_multiple_of(DEADLINE_POLL_INTERVAL) - first;
            if poll < room && std::time::Instant::now() >= deadline {
                stop = Some((poll, TrapKind::DeadlineExceeded));
            }
        }
        let run = match stop {
            Some((k, _)) => first_lanes(active, k),
            None => active,
        };

        let cross_lane = matches!(fam, ExecFamily::Shfl | ExecFamily::Vote | ExecFamily::FSwzAdd);
        // Cross-lane ops read other lanes' state as of instruction issue:
        // snapshot the source before any writes.
        let snap = cross_lane.then(|| Snapshot::take(instr, active, &threads[base..]));
        let (before, after) = match instrumentation.as_deref() {
            Some(ins) => (ins.before_mask[pc as usize], ins.after_mask[pc as usize]),
            None => (false, false),
        };
        *hooked |= before || after;
        let site = |ins: &Instrumentation<'_>| InstrSite {
            pc,
            instr,
            kernel_instance: ins.kernel_instance,
        };

        let mut dyn_index = first;
        for lane in lanes(run) {
            let t = &mut threads[base + lane];
            if before {
                if let Some(ins) = instrumentation.as_deref_mut() {
                    counters.cycles += HOOK_CYCLES;
                    let mut ctx = ThreadCtx { regs: &mut t.regs, meta: t.meta, dyn_index };
                    ins.hook.before(&mut ctx, site(ins));
                }
            }
            let flow = match &snap {
                Some(snap) => exec_cross_lane(instr, fam, t, snap),
                None => exec_family(
                    fam,
                    instr,
                    &mut ExecEnv {
                        regs: &mut t.regs,
                        global,
                        shared,
                        local: &mut t.local,
                        cmem,
                        ret_stack: &mut t.ret_stack,
                        meta: &t.meta,
                        clock: counters.cycles,
                        pc,
                        kernel_len: kernel.len() as u32,
                    },
                ),
            };
            match flow {
                Ok(Flow::Next) => warp.pcs[lane] = pc + 1,
                Ok(Flow::Branch(target)) => warp.pcs[lane] = target,
                Ok(Flow::Exit) => {
                    warp.exited |= 1 << lane;
                    *live -= 1;
                }
                Ok(Flow::Barrier) => {
                    warp.waiting |= 1 << lane;
                    *waiting += 1;
                    warp.pcs[lane] = pc + 1;
                }
                Err(kind) => {
                    counters.executed = dyn_index + 1;
                    return Err(trap(kind, pc, base + lane));
                }
            }
            if after {
                if let Some(ins) = instrumentation.as_deref_mut() {
                    counters.cycles += HOOK_CYCLES;
                    let mut ctx = ThreadCtx { regs: &mut t.regs, meta: t.meta, dyn_index };
                    ins.hook.after(&mut ctx, site(ins));
                }
            }
            dyn_index += 1;
        }
        counters.executed = dyn_index;
        if let Some((_, kind)) = stop {
            let lane = (active & !run).trailing_zeros() as usize;
            return Err(trap(kind, pc, base + lane));
        }
        Ok(true)
    }
}

/// A cross-lane instruction's source operand for every active lane of the
/// warp, read at issue.
struct Snapshot {
    values: [u32; WARP_SIZE],
    /// Active lanes whose source predicate holds (for `VOTE`).
    preds: u32,
    active: u32,
}

impl Snapshot {
    /// Read `instr`'s first source for the `active` lanes of the warp whose
    /// threads start at `warp[0]`.
    fn take(instr: &Instr, active: u32, warp: &[ThreadState]) -> Snapshot {
        let mut snap = Snapshot { values: [0; WARP_SIZE], preds: 0, active };
        for lane in lanes(active) {
            let regs = &warp[lane].regs;
            snap.values[lane] = match instr.srcs[0] {
                Operand::R(r) => regs.read(r),
                Operand::Imm(v) => v,
                _ => 0,
            };
            let pred = match instr.srcs[0] {
                Operand::P(p) => regs.read_p(p),
                Operand::NotP(p) => !regs.read_p(p),
                _ => regs.read(Reg(0)) != 0,
            };
            snap.preds |= u32::from(pred) << lane;
        }
        snap
    }

    /// The snapshot value of `lane`, if it is active.
    fn get(&self, lane: u32) -> Option<u32> {
        (lane < WARP_SIZE as u32 && self.active & (1 << lane) != 0)
            .then(|| self.values[lane as usize])
    }
}

/// Execute a cross-lane instruction for one thread, given the warp's
/// issue-time snapshot.
fn exec_cross_lane(
    instr: &Instr,
    fam: ExecFamily,
    t: &mut ThreadState,
    snap: &Snapshot,
) -> Result<Flow, TrapKind> {
    let my_lane = t.meta.lane;
    let my_val = snap.values[my_lane as usize];
    let v = match fam {
        ExecFamily::Shfl => {
            let mode = match instr.modifier {
                Modifier::Shfl(m) => m,
                _ => ShflMode::Idx,
            };
            let operand = match instr.srcs[1] {
                Operand::Imm(v) => v,
                Operand::R(r) => t.regs.read(r),
                _ => 0,
            };
            let src_lane = match mode {
                ShflMode::Idx => Some(operand),
                ShflMode::Up => Some(my_lane.wrapping_sub(operand)),
                ShflMode::Down => my_lane.checked_add(operand),
                ShflMode::Bfly => Some(my_lane ^ operand),
            };
            // Inactive or out-of-range source lane: keep own value
            // (CUDA leaves the destination undefined; "own value" is the
            // common hardware behaviour and is deterministic).
            src_lane.and_then(|l| snap.get(l)).unwrap_or(my_val)
        }
        // VOTE = BALLOT: bit per active lane whose source predicate holds.
        ExecFamily::Vote => snap.preds,
        ExecFamily::FSwzAdd => {
            // Butterfly-partner add: value + partner lane's value.
            let pv = snap.get(my_lane ^ 1).unwrap_or(my_val);
            (f32::from_bits(my_val) + f32::from_bits(pv)).to_bits()
        }
        _ => return Err(TrapKind::IllegalInstruction),
    };
    if let Dst::R(r) = instr.dsts[0] {
        t.regs.write(r, v);
    }
    Ok(Flow::Next)
}
