//! Resource governor limits: caps that turn runaway resource consumption
//! into simulator traps.
//!
//! A fault-corrupted value that later feeds an allocation size (or a print
//! loop bound) must not take down the *campaign* process: on real clusters
//! NVBitFI relies on cgroup/ulimit sandboxes to kill the victim app; here
//! the governor converts the same events into a [`crate::TrapKind`] so the
//! run is classified as a DUE (Table V, OS-detected) and the harness moves
//! on to the next injection.

use serde::{Deserialize, Serialize};

/// Resource caps enforced by the simulator and runtime.
///
/// Defaults are deliberately generous — far above what any of the example
/// workloads' golden runs use — so the governor only ever fires on
/// fault-corrupted executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceLimits {
    /// Maximum bytes of live global-memory allocations per run
    /// (the `cudaMalloc` budget). Must not exceed device capacity to be
    /// meaningful — the governor is supposed to fire *before* the device
    /// reports an out-of-memory condition.
    pub max_global_bytes: u32,
    /// Maximum static shared-memory bytes a single kernel may declare
    /// (CUDA's per-block shared-memory limit).
    pub max_shared_bytes: u32,
    /// Maximum bytes of captured output (stdout plus output files) per run;
    /// excess is truncated with an explicit marker rather than trapped.
    pub max_output_bytes: u64,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            // Below the runtime's 64 MiB device memory so a runaway
            // allocation hits the governor, not the allocator.
            max_global_bytes: 48 << 20,
            // CUDA's classic 48 KiB static shared-memory ceiling.
            max_shared_bytes: 48 << 10,
            max_output_bytes: 16 << 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_generous_and_ordered() {
        let l = ResourceLimits::default();
        assert!(l.max_global_bytes >= 1 << 20);
        assert!(l.max_shared_bytes >= 1 << 10);
        assert!(l.max_output_bytes >= 1 << 20);
    }
}
