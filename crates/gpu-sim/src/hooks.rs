//! The instrumentation hook surface — what the NVBit layer builds on.
//!
//! The simulator executes kernels with an optional [`Instrumentation`]
//! attached. Instrumentation names, per *static* instruction, whether a
//! callback fires before and/or after that instruction executes for a
//! thread. Unmarked instructions take a branch-free fast path, so — exactly
//! as with NVBit's selective `insert_call` instrumentation — the overhead a
//! tool pays is proportional to the number of *instrumented dynamic
//! instructions*, not to program length.

use crate::regfile::RegFile;
use gpu_isa::{Instr, PReg, Reg};

/// Immutable identity of the thread a hook fires for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadMeta {
    /// Thread index within its block.
    pub tid: crate::grid::Dim3,
    /// Block index within the grid.
    pub ctaid: crate::grid::Dim3,
    /// Block dimensions.
    pub ntid: crate::grid::Dim3,
    /// Grid dimensions.
    pub nctaid: crate::grid::Dim3,
    /// Linear thread index within the block.
    pub flat_tid: u32,
    /// Linear block index within the grid.
    pub flat_ctaid: u32,
    /// Hardware lane within the warp (`0..32`) — the permanent-fault model's
    /// *lane id*.
    pub lane: u32,
    /// Warp slot within the block.
    pub warp: u32,
    /// Streaming multiprocessor executing the block — the permanent-fault
    /// model's *SM id*.
    pub sm: u32,
}

impl ThreadMeta {
    /// Flat global thread id (`flat_ctaid * block_size + flat_tid`).
    pub fn global_tid(&self) -> u64 {
        self.flat_ctaid as u64 * self.ntid.count() + self.flat_tid as u64
    }
}

/// Mutable view of one thread's architectural state, handed to hooks.
///
/// This is the NVBit "device function" environment: hooks can read and
/// *write* registers and predicates, which is precisely the capability fault
/// injectors need.
pub struct ThreadCtx<'a> {
    /// The thread's register file.
    pub(crate) regs: &'a mut RegFile,
    /// Thread identity.
    pub meta: ThreadMeta,
    /// Zero-based index of this executed instruction in the current kernel
    /// launch's thread-level dynamic instruction stream.
    pub dyn_index: u64,
}

impl std::fmt::Debug for ThreadCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("meta", &self.meta)
            .field("dyn_index", &self.dyn_index)
            .finish_non_exhaustive()
    }
}

impl ThreadCtx<'_> {
    /// Read a 32-bit register.
    pub fn read_reg(&self, r: Reg) -> u32 {
        self.regs.read(r)
    }

    /// Write a 32-bit register.
    pub fn write_reg(&mut self, r: Reg, v: u32) {
        self.regs.write(r, v)
    }

    /// XOR `mask` into register `r`, returning the pre-corruption value.
    pub fn corrupt_reg(&mut self, r: Reg, mask: u32) -> u32 {
        self.regs.corrupt(r, mask)
    }

    /// Read a predicate.
    pub fn read_pred(&self, p: PReg) -> bool {
        self.regs.read_p(p)
    }

    /// Flip a predicate, returning the pre-corruption value.
    pub fn corrupt_pred(&mut self, p: PReg) -> bool {
        self.regs.corrupt_p(p)
    }
}

/// Where in the kernel a hook fired.
#[derive(Debug, Clone, Copy)]
pub struct InstrSite<'a> {
    /// Program counter (static instruction index).
    pub pc: u32,
    /// The decoded instruction.
    pub instr: &'a Instr,
}

/// A tool callback invoked for instrumented instructions.
///
/// Both methods default to no-ops so tools implement only what they need.
pub trait ExecHook {
    /// Fires before an instrumented instruction executes for a thread whose
    /// guard passed.
    fn before(&mut self, thread: &mut ThreadCtx<'_>, site: InstrSite<'_>) {
        let _ = (thread, site);
    }

    /// Fires after the instruction's results are architecturally visible.
    fn after(&mut self, thread: &mut ThreadCtx<'_>, site: InstrSite<'_>) {
        let _ = (thread, site);
    }
}

/// Per-static-instruction instrumentation marks plus the hook to call.
pub struct Instrumentation<'a> {
    /// `before_mask[pc]` — fire [`ExecHook::before`] at this pc.
    pub before_mask: &'a [bool],
    /// `after_mask[pc]` — fire [`ExecHook::after`] at this pc.
    pub after_mask: &'a [bool],
    /// The tool callback.
    pub hook: &'a mut dyn ExecHook,
}

impl std::fmt::Debug for Instrumentation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instrumentation")
            .field("before_marks", &self.before_mask.iter().filter(|b| **b).count())
            .field("after_marks", &self.after_mask.iter().filter(|b| **b).count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Dim3;

    fn meta() -> ThreadMeta {
        ThreadMeta {
            tid: Dim3::from(5),
            ctaid: Dim3::from(2),
            ntid: Dim3::from(64),
            nctaid: Dim3::from(10),
            flat_tid: 5,
            flat_ctaid: 2,
            lane: 5,
            warp: 0,
            sm: 2,
        }
    }

    #[test]
    fn global_tid() {
        assert_eq!(meta().global_tid(), 2 * 64 + 5);
    }

    #[test]
    fn thread_ctx_register_access() {
        let mut rf = RegFile::new();
        let mut ctx = ThreadCtx { regs: &mut rf, meta: meta(), dyn_index: 0 };
        ctx.write_reg(Reg(1), 10);
        assert_eq!(ctx.read_reg(Reg(1)), 10);
        let old = ctx.corrupt_reg(Reg(1), 0b11);
        assert_eq!(old, 10);
        assert_eq!(ctx.read_reg(Reg(1)), 10 ^ 0b11);
        assert!(!ctx.read_pred(PReg(0)));
        ctx.corrupt_pred(PReg(0));
        assert!(ctx.read_pred(PReg(0)));
    }
}
