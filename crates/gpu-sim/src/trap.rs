//! Hardware traps: the ways a kernel launch can die.
//!
//! Traps are the simulator-level raw material for the paper's **DUE** and
//! **potential DUE** outcome categories (Table V): a trapped kernel
//! terminates early and latches an error in the runtime; whether that error
//! becomes a process crash or a silently-swallowed anomaly depends on
//! whether the *host* code checks for it (§IV-A).

use gpu_isa::Space;
use std::fmt;

/// The reason a thread trapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TrapKind {
    /// A memory access outside any allocation (the classic
    /// "illegal address" CUDA error).
    OutOfBounds {
        /// Address space of the faulting access.
        space: Space,
        /// The faulting byte address.
        addr: u32,
        /// Access width in bytes.
        width: u32,
    },
    /// A memory access that is not naturally aligned ("misaligned address").
    Misaligned {
        /// Address space of the faulting access.
        space: Space,
        /// The faulting byte address.
        addr: u32,
        /// Required alignment in bytes.
        align: u32,
    },
    /// An opcode with no implemented semantics reached execution.
    IllegalInstruction,
    /// An indirect branch (`BRX`/`JMX`) targeted a PC outside the kernel.
    InvalidBranch {
        /// The out-of-range target.
        target: u32,
    },
    /// Execution fell off the end of the kernel without `EXIT`.
    PcOverrun,
    /// `RET` executed with an empty call stack.
    RetUnderflow,
    /// The `KILL` opcode executed.
    Killed,
    /// The `BPT` (breakpoint) opcode executed.
    Breakpoint,
    /// The launch exceeded its dynamic-instruction budget — the simulator's
    /// hang detector (the paper's "Timeout, indicating a hang").
    Timeout,
    /// All runnable threads of a block are blocked and the barrier cannot
    /// release (barrier divergence deadlock).
    BarrierDeadlock,
    /// The launch outlived the harness's wall-clock deadline. Unlike
    /// [`TrapKind::Timeout`] this is an *infrastructure* verdict about the
    /// experiment run itself, not an observation about the program: outcome
    /// classification must not count it as a DUE.
    DeadlineExceeded,
    /// The run exceeded a resource-governor cap ([`crate::MAX_SHARED_BYTES`]
    /// or [`crate::MAX_GLOBAL_BYTES`]) — the sandbox analog of a cgroup
    /// OOM-kill. Classified as an OS-detected DUE (the governor terminates
    /// the victim run the way a real sandbox kills the victim process).
    ResourceLimit {
        /// Address space whose cap was breached.
        space: Space,
        /// Bytes the run tried to use.
        requested: u32,
        /// The cap in bytes.
        limit: u32,
    },
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapKind::OutOfBounds { space, addr, width } => {
                write!(f, "out-of-bounds {space} access of {width} bytes at {addr:#x}")
            }
            TrapKind::Misaligned { space, addr, align } => {
                write!(
                    f,
                    "misaligned {space} access at {addr:#x} (requires {align}-byte alignment)"
                )
            }
            TrapKind::IllegalInstruction => write!(f, "illegal instruction"),
            TrapKind::InvalidBranch { target } => write!(f, "invalid branch target {target}"),
            TrapKind::PcOverrun => write!(f, "pc ran off the end of the kernel"),
            TrapKind::RetUnderflow => write!(f, "RET with empty call stack"),
            TrapKind::Killed => write!(f, "KILL executed"),
            TrapKind::Breakpoint => write!(f, "breakpoint trap"),
            TrapKind::Timeout => write!(f, "dynamic-instruction budget exceeded (hang)"),
            TrapKind::BarrierDeadlock => write!(f, "barrier deadlock"),
            TrapKind::DeadlineExceeded => write!(f, "wall-clock run deadline exceeded"),
            TrapKind::ResourceLimit { space, requested, limit } => {
                write!(
                    f,
                    "resource limit exceeded: {requested} bytes of {space} memory \
                     requested, governor cap is {limit}"
                )
            }
        }
    }
}

impl TrapKind {
    /// `true` for the hang-detector trap, which outcome classification
    /// treats differently from crashes (Table V: hangs are monitor-detected
    /// DUEs, crashes are OS-detected DUEs).
    pub fn is_hang(self) -> bool {
        matches!(self, TrapKind::Timeout | TrapKind::BarrierDeadlock)
    }

    /// `true` for the wall-clock deadline trap, a harness-infrastructure
    /// verdict rather than a program outcome.
    pub fn is_deadline(self) -> bool {
        matches!(self, TrapKind::DeadlineExceeded)
    }

    /// `true` for a resource-governor kill, which terminates the victim run
    /// like a sandbox OOM-kill (an OS-detected crash in Table V terms).
    pub fn is_resource_limit(self) -> bool {
        matches!(self, TrapKind::ResourceLimit { .. })
    }
}

/// A trap plus where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrapInfo {
    /// What went wrong.
    pub kind: TrapKind,
    /// Kernel name.
    pub kernel: String,
    /// Program counter (instruction index) of the faulting instruction, if
    /// attributable to one.
    pub pc: Option<u32>,
    /// Linear block id of the faulting thread, if attributable.
    pub block: Option<u32>,
    /// Thread index within the block, if attributable.
    pub thread: Option<u32>,
}

impl fmt::Display for TrapInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in kernel `{}`", self.kind, self.kernel)?;
        if let Some(pc) = self.pc {
            write!(f, " at pc {pc}")?;
        }
        if let (Some(b), Some(t)) = (self.block, self.thread) {
            write!(f, " (block {b}, thread {t})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let t = TrapKind::OutOfBounds { space: Space::Global, addr: 0x1000, width: 4 };
        let s = t.to_string();
        assert!(s.contains("0x1000"));
        assert!(s.contains("global"));
    }

    #[test]
    fn hang_classification() {
        assert!(TrapKind::Timeout.is_hang());
        assert!(TrapKind::BarrierDeadlock.is_hang());
        assert!(!TrapKind::Killed.is_hang());
        assert!(!TrapKind::IllegalInstruction.is_hang());
        assert!(!TrapKind::DeadlineExceeded.is_hang(), "deadline is not a DUE");
        assert!(TrapKind::DeadlineExceeded.is_deadline());
        assert!(!TrapKind::Timeout.is_deadline());
        let rl = TrapKind::ResourceLimit { space: Space::Global, requested: 99, limit: 10 };
        assert!(!rl.is_hang(), "governor kills are crashes, not hangs");
        assert!(!rl.is_deadline(), "governor kills are program outcomes, not infra");
    }

    #[test]
    fn trap_info_display() {
        let info = TrapInfo {
            kind: TrapKind::Timeout,
            kernel: "k".into(),
            pc: Some(7),
            block: Some(1),
            thread: Some(33),
        };
        let s = info.to_string();
        assert!(s.contains("`k`"));
        assert!(s.contains("pc 7"));
        assert!(s.contains("block 1"));
    }
}
