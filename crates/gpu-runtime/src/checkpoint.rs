//! Kernel-launch-boundary checkpoints for injection-run fast-forwarding.
//!
//! An injection campaign re-runs the same program hundreds of times, and
//! each run is identical to the golden run up to the targeted dynamic
//! kernel instance — faults cannot fire earlier. NVBitFI pays that prefix
//! on every run; this module makes it (nearly) free:
//!
//! 1. The golden run executes with checkpoint recording enabled
//!    ([`crate::Runtime::record_checkpoints`]), capturing a [`Checkpoint`]
//!    at every launch boundary: the post-launch global-memory state as a
//!    [`MemSnapshot`] (a copy of the allocated bytes) plus the
//!    [`LaunchRecord`]. A store therefore holds launches × allocated bytes;
//!    the suite's largest, `354.cg`, is about 1.7 MB.
//! 2. Each injection run attaches the store with
//!    [`crate::Runtime::fast_forward`], naming the global launch index of
//!    its target. The host application replays unmodified (host logic is
//!    deterministic and cheap), but every launch *before* the target skips
//!    simulation entirely: the runtime restores the recorded post-launch
//!    snapshot, replays the recorded [`LaunchRecord`], and returns. Device
//!    reads the host performs between launches therefore observe exactly
//!    the golden values. The target instance and the genuinely divergent
//!    post-injection tail simulate normally.
//!
//! A store is immutable once recorded and `Send + Sync`, so campaign
//! workers share one store behind an `Arc` — no per-worker copies.

use crate::tool::LaunchRecord;
use gpu_sim::MemSnapshot;
use std::sync::Arc;

/// State captured at one launch boundary: the memory image immediately
/// after the launch completed, plus the launch's record.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Post-launch global memory (a copy of the allocated bytes).
    pub mem: MemSnapshot,
    /// The launch this checkpoint follows.
    pub record: LaunchRecord,
}

/// Launch-boundary checkpoints of one golden run, indexed by *global*
/// launch index (position in the run's launch sequence, counting every
/// kernel name).
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    checkpoints: Vec<Checkpoint>,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> CheckpointStore {
        CheckpointStore::default()
    }

    /// Append the checkpoint for the next launch boundary.
    pub fn push(&mut self, checkpoint: Checkpoint) {
        self.checkpoints.push(checkpoint);
    }

    /// Number of recorded launch boundaries.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// The checkpoint following global launch `idx`.
    pub fn get(&self, idx: u64) -> Option<&Checkpoint> {
        self.checkpoints.get(idx as usize)
    }

    /// The recorded launch records, in launch order.
    pub fn records(&self) -> impl Iterator<Item = &LaunchRecord> {
        self.checkpoints.iter().map(|c| &c.record)
    }

    /// Global launch index of dynamic instance `instance` of kernel
    /// `kernel`, or `None` if the golden run never reached it (a fault
    /// site selected from an approximate profile can lie beyond the real
    /// execution — such a fault never fires).
    pub fn find_instance(&self, kernel: &str, instance: u64) -> Option<u64> {
        self.checkpoints
            .iter()
            .position(|c| c.record.kernel == kernel && c.record.instance == instance)
            .map(|p| p as u64)
    }

    /// Dynamic instructions executed by the first `upto` launches — the
    /// work fast-forwarding to launch `upto` avoids re-simulating.
    pub fn instrs_before(&self, upto: u64) -> u64 {
        self.checkpoints.iter().take(upto as usize).map(|c| c.record.stats.dyn_instrs).sum()
    }

    /// Wrap in an [`Arc`] for sharing across campaign workers.
    pub fn into_shared(self) -> Arc<CheckpointStore> {
        Arc::new(self)
    }
}

/// Fast-forward state a replaying [`crate::Runtime`] carries: the golden
/// store plus the first global launch index that must simulate for real.
#[derive(Debug, Clone)]
pub(crate) struct FastForward {
    /// The golden run's checkpoints.
    pub store: Arc<CheckpointStore>,
    /// Launches with global index below this replay from the store.
    pub upto: u64,
    /// Dynamic instructions skipped so far by replaying from checkpoints.
    pub skipped_instrs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GlobalMem, LaunchStats};

    fn record(kernel: &str, instance: u64, dyn_instrs: u64) -> LaunchRecord {
        LaunchRecord {
            kernel: kernel.to_string(),
            instance,
            stats: LaunchStats { dyn_instrs, ..Default::default() },
            trap: None,
            skipped: false,
        }
    }

    fn store() -> CheckpointStore {
        let mem = GlobalMem::new(1 << 16);
        let mut s = CheckpointStore::new();
        s.push(Checkpoint { mem: mem.snapshot(), record: record("a", 0, 100) });
        s.push(Checkpoint { mem: mem.snapshot(), record: record("b", 0, 200) });
        s.push(Checkpoint { mem: mem.snapshot(), record: record("a", 1, 400) });
        s
    }

    #[test]
    fn find_instance_uses_per_name_instances() {
        let s = store();
        assert_eq!(s.find_instance("a", 0), Some(0));
        assert_eq!(s.find_instance("b", 0), Some(1));
        assert_eq!(s.find_instance("a", 1), Some(2));
        assert_eq!(s.find_instance("a", 2), None);
        assert_eq!(s.find_instance("c", 0), None);
    }

    #[test]
    fn instrs_before_sums_the_prefix() {
        let s = store();
        assert_eq!(s.instrs_before(0), 0);
        assert_eq!(s.instrs_before(1), 100);
        assert_eq!(s.instrs_before(2), 300);
        assert_eq!(s.instrs_before(3), 700);
        assert_eq!(s.instrs_before(99), 700, "saturates at the end");
    }

    #[test]
    fn store_is_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CheckpointStore>();
        let shared = store().into_shared();
        assert_eq!(shared.len(), 3);
        assert!(!shared.is_empty());
        assert_eq!(shared.records().count(), 3);
    }
}
