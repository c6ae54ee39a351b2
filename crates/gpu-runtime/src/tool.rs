//! The tool attach point — the `LD_PRELOAD` analog.
//!
//! NVBitFI attaches `profiler.so` / `injector.so` to an *unmodified* target
//! program via `LD_PRELOAD`; the dynamic library observes CUDA driver events
//! and injects device code. Here, a [`Tool`] attached with
//! [`crate::Runtime::attach_tool`] observes the same events:
//!
//! * [`Tool::on_module_load`] — a module binary was loaded (the tool sees
//!   only the *decoded binary*, never builder structures — no source),
//! * [`Tool::instrument`] — a kernel is about to launch; the tool may return
//!   per-instruction instrumentation masks,
//! * device-side callbacks — a tool is also an [`ExecHook`], receiving
//!   before/after callbacks with register access for instructions it marked,
//! * [`Tool::after_launch`] / [`Tool::on_exit`] — completion events.
//!
//! The workload cannot tell whether a tool is attached (unless it times
//! itself) — exactly the transparency property NVBitFI relies on.

use gpu_isa::{Kernel, Module};
use gpu_sim::{Dim3, ExecHook, LaunchStats, TrapKind};

/// Per-static-instruction instrumentation marks returned by a tool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstrMasks {
    /// Fire the tool's `before` callback at these instruction indices.
    pub before: Vec<bool>,
    /// Fire the tool's `after` callback at these instruction indices.
    pub after: Vec<bool>,
}

impl InstrMasks {
    /// Masks instrumenting nothing for a kernel of `len` instructions.
    pub fn none(len: usize) -> InstrMasks {
        InstrMasks { before: vec![false; len], after: vec![false; len] }
    }

    /// Masks firing `after` at every instruction (how profilers and
    /// destination-corrupting injectors instrument).
    pub fn all_after(len: usize) -> InstrMasks {
        InstrMasks { before: vec![false; len], after: vec![true; len] }
    }

    /// Number of marked instructions (before + after).
    pub fn marked(&self) -> usize {
        self.before.iter().filter(|b| **b).count() + self.after.iter().filter(|b| **b).count()
    }
}

/// Information handed to a tool at each dynamic kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct KernelLaunchInfo<'a> {
    /// The kernel being launched.
    pub kernel: &'a Kernel,
    /// Zero-based dynamic instance of this kernel *name* within the process
    /// (the fault-site `kernel count` parameter counts these).
    pub instance: u64,
    /// Grid dimensions.
    pub grid: Dim3,
    /// Block dimensions.
    pub block: Dim3,
}

/// Result record handed to [`Tool::after_launch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchRecord {
    /// Kernel name.
    pub kernel: String,
    /// Dynamic instance of the kernel name.
    pub instance: u64,
    /// Execution statistics (partial if trapped).
    pub stats: LaunchStats,
    /// The trap that ended the launch, if any.
    pub trap: Option<TrapKind>,
    /// `true` if the launch was skipped because the context was already
    /// corrupted by an earlier fault.
    pub skipped: bool,
}

/// End-of-run summary handed to [`Tool::on_exit`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Per-launch records, in launch order.
    pub launches: Vec<LaunchRecord>,
    /// Total guard-passing thread-level dynamic instructions.
    pub dyn_instrs: u64,
    /// Total simulated cycles.
    pub cycles: u64,
}

/// A dynamic instrumentation tool attached to the runtime.
///
/// All methods default to "observe nothing", so tools implement only the
/// events they care about. A tool is also the [`ExecHook`] receiving the
/// device-side callbacks for instructions it instrumented.
pub trait Tool: ExecHook + Send {
    /// A module binary was loaded (after decoding).
    fn on_module_load(&mut self, module: &Module) {
        let _ = module;
    }

    /// A kernel is about to launch. Return `Some` to instrument this launch;
    /// `None` runs it unmodified (the selective-instrumentation fast path),
    /// or replays it from the golden ledger when its inputs are golden's
    /// ([`crate::Runtime::fast_forward`]).
    fn instrument(&mut self, info: &KernelLaunchInfo<'_>) -> Option<InstrMasks> {
        let _ = info;
        None
    }

    /// A launch finished (successfully, trapped, or skipped).
    fn after_launch(&mut self, info: &LaunchRecord) {
        let _ = info;
    }

    /// The program is exiting.
    fn on_exit(&mut self, summary: &RunSummary) {
        let _ = summary;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_constructors() {
        let n = InstrMasks::none(4);
        assert_eq!(n.marked(), 0);
        let a = InstrMasks::all_after(4);
        assert_eq!(a.marked(), 4);
        assert!(a.after.iter().all(|b| *b));
        assert!(a.before.iter().all(|b| !*b));
    }
}
