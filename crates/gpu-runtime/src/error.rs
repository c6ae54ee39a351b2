//! Runtime errors and the CUDA-style sticky kernel fault.

use gpu_isa::IsaError;
use gpu_sim::{MemError, TrapInfo};
use std::fmt;

/// A latched device-side fault, the analog of a sticky CUDA error.
///
/// When a kernel traps, the fault is recorded here and the device context is
/// marked corrupted; whether the *process* notices depends on whether host
/// code checks ([`crate::Runtime::last_error`] /
/// [`crate::Runtime::synchronize`]) — the distinction behind the paper's
/// *potential DUE* category (§IV-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelFault {
    /// The trap that latched the error.
    pub info: TrapInfo,
}

impl fmt::Display for KernelFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sticky device error: {}", self.info)
    }
}

/// Errors surfaced to host code by runtime APIs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A module binary failed to decode.
    ModuleLoad(IsaError),
    /// No kernel with the requested name exists in the module.
    KernelNotFound {
        /// The requested kernel name.
        name: String,
    },
    /// A stale module or kernel handle was used.
    BadHandle,
    /// Device memory operation failed.
    Mem(MemError),
    /// The launch configuration was rejected before execution.
    LaunchConfig(String),
    /// The kernel hung: the external monitor (instruction budget) killed it.
    /// Unlike memory faults this is always fatal to the run.
    Hang(TrapInfo),
    /// The run outlived the harness's wall-clock deadline
    /// ([`crate::RuntimeConfig::wall_deadline`]) and was killed. Always
    /// fatal, and classified as campaign infrastructure failure — never a
    /// DUE.
    Deadline(TrapInfo),
    /// The resource governor killed the run: a fault-corrupted allocation
    /// size or shared-memory declaration breached its cap
    /// ([`gpu_sim::MAX_GLOBAL_BYTES`], [`gpu_sim::MAX_SHARED_BYTES`]). Always fatal, and classified as an OS-detected crash
    /// (DUE) — the sandbox analog of a cgroup OOM-kill.
    ResourceLimit(TrapInfo),
    /// A checked API observed the sticky device fault.
    Sticky(KernelFault),
    /// The application chose to abort the process on a device fault
    /// (`abort-on-error` host style); the OS observes a crash.
    DeviceAbort(KernelFault),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::ModuleLoad(e) => write!(f, "module load failed: {e}"),
            RuntimeError::KernelNotFound { name } => write!(f, "kernel `{name}` not found"),
            RuntimeError::BadHandle => write!(f, "stale module or kernel handle"),
            RuntimeError::Mem(e) => write!(f, "device memory error: {e}"),
            RuntimeError::LaunchConfig(msg) => write!(f, "invalid launch: {msg}"),
            RuntimeError::Hang(info) => write!(f, "kernel hang detected by monitor: {info}"),
            RuntimeError::Deadline(info) => {
                write!(f, "run killed at wall-clock deadline: {info}")
            }
            RuntimeError::ResourceLimit(info) => {
                write!(f, "run killed by resource governor: {info}")
            }
            RuntimeError::Sticky(fault) => write!(f, "{fault}"),
            RuntimeError::DeviceAbort(fault) => {
                write!(f, "process aborted on device fault: {fault}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::ModuleLoad(e) => Some(e),
            RuntimeError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IsaError> for RuntimeError {
    fn from(e: IsaError) -> Self {
        RuntimeError::ModuleLoad(e)
    }
}

impl From<MemError> for RuntimeError {
    fn from(e: MemError) -> Self {
        RuntimeError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::TrapKind;

    #[test]
    fn display_nonempty() {
        let info = TrapInfo {
            kind: TrapKind::Timeout,
            kernel: "k".into(),
            pc: None,
            block: None,
            thread: None,
        };
        for e in [
            RuntimeError::KernelNotFound { name: "x".into() },
            RuntimeError::BadHandle,
            RuntimeError::LaunchConfig("bad".into()),
            RuntimeError::Hang(info.clone()),
            RuntimeError::Sticky(KernelFault { info }),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimeError>();
    }
}
