//! The golden ledger: one entry per launch of a campaign's golden run,
//! and the replay rule injection runs use it for.
//!
//! An injection campaign re-runs the same program hundreds of times, and
//! each run is identical to the golden run up to the targeted dynamic
//! kernel instance — faults cannot fire earlier. After it, most launches
//! still read nothing the fault changed. NVBitFI simulates every launch of
//! every run; this module lets a run skip each launch whose result is
//! already known:
//!
//! 1. The golden run records a [`Checkpoint`] per launch
//!    ([`crate::Runtime::record_ledger`]): the [`LaunchRecord`] and the
//!    executed-opcode counts (the profile's raw material), and — for a run
//!    that records memory — a self-contained [`LaunchCapture`]: "given
//!    these params, this geometry and golden's bytes on R, the launch
//!    writes golden's bytes on W", where R and W are its global read and
//!    write sets. The suite's entries hold 2.4 MB, `354.cg`'s 362 KB.
//! 2. Each injection run attaches the ledger with
//!    [`crate::Runtime::fast_forward`]. The host application runs
//!    unmodified (host logic is deterministic and cheap). Launch `j`, if
//!    the tool declines it, *replays* instead of simulating when its
//!    kernel, instance, params, geometry and allocated length equal entry
//!    `j`'s, no sticky error is latched, and either no launch of the run
//!    has simulated yet (nothing can differ) or the run's bytes on R_j
//!    equal entry `j`'s inputs. Replaying copies entry `j`'s outputs into
//!    memory. That is exact by determinism: a launch whose inputs are
//!    golden's writes golden's values to exactly W_j, whatever differs
//!    elsewhere, host writes included.
//!
//! The pre-injection prefix is this rule with nothing yet differing; the
//! tail after the target replays every launch the corruption never
//! reaches, and simulates the rest. Replays before the run's first
//! simulated launch are counted as the prefix, later ones as the tail.
//!
//! A store is immutable once recorded and `Send + Sync`, so campaign
//! workers share one store behind an `Arc` — no per-worker copies.

use crate::tool::LaunchRecord;
use gpu_isa::Opcode;
use gpu_sim::{Dim3, SetBytes};
use std::sync::Arc;

/// The golden ledger's entry for one launch.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The launch's record.
    pub record: LaunchRecord,
    /// The launch's nonzero `(opcode, executed thread instructions)`
    /// counts.
    pub opcodes: Box<[(Opcode, u64)]>,
    /// What replaying the launch needs, when the run recorded memory.
    pub capture: Option<Box<LaunchCapture>>,
}

/// What a memory-recording golden run keeps of one launch for replay: its
/// inputs besides memory, golden's bytes on its global read set R before
/// it ran, and golden's bytes on its global write set W after it ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchCapture {
    /// The launch's kernel parameters.
    pub params: Box<[u32]>,
    /// Grid dimensions.
    pub grid: Dim3,
    /// Block dimensions.
    pub block: Dim3,
    /// Bytes of global memory allocated at the launch.
    pub allocated: u32,
    /// Golden's bytes on R before the launch.
    pub inputs: SetBytes,
    /// Golden's bytes on W after the launch.
    pub outputs: SetBytes,
}

/// The golden ledger of one run, indexed by *global* launch index
/// (position in the run's launch sequence, counting every kernel name).
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    checkpoints: Vec<Checkpoint>,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> CheckpointStore {
        CheckpointStore::default()
    }

    /// Append the entry for the next launch.
    pub fn push(&mut self, checkpoint: Checkpoint) {
        self.checkpoints.push(checkpoint);
    }

    /// Number of recorded launches.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// The entry of global launch `idx`.
    pub fn get(&self, idx: u64) -> Option<&Checkpoint> {
        self.checkpoints.get(idx as usize)
    }

    /// The entries, in launch order.
    pub fn iter(&self) -> impl Iterator<Item = &Checkpoint> {
        self.checkpoints.iter()
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
    pub fn into_shared(mut self) -> Arc<CheckpointStore> {
        self.checkpoints.shrink_to_fit();
        Arc::new(self)
    }
}

/// Launches, and their dynamic instructions, that a run replayed from the
/// golden ledger after its first simulated launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailReplay {
    /// Launches replayed.
    pub launches: u64,
    /// Their dynamic thread instructions.
    pub instrs: u64,
}

impl std::ops::AddAssign for TailReplay {
    fn add_assign(&mut self, other: TailReplay) {
        self.launches += other.launches;
        self.instrs += other.instrs;
    }
}

/// Replay state a [`crate::Runtime`] carries: the golden ledger, the cap
/// on the global launch indices that may replay, and what replayed.
#[derive(Debug, Clone)]
pub(crate) struct FastForward {
    /// The golden run's ledger.
    pub store: Arc<CheckpointStore>,
    /// Only launches with global index below this may replay.
    pub upto: u64,
    /// `true` once a launch of the run has simulated: from then on the
    /// run's memory may differ from golden's.
    pub simulated: bool,
    /// Dynamic instructions replayed before the first simulated launch.
    pub prefix_instrs: u64,
    /// What replayed after it.
    pub tail: TailReplay,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::LaunchStats;

    fn record(kernel: &str, instance: u64, dyn_instrs: u64) -> LaunchRecord {
        LaunchRecord {
            kernel: kernel.to_string(),
            instance,
            stats: LaunchStats { dyn_instrs, ..Default::default() },
            trap: None,
            skipped: false,
        }
    }

    fn entry(record: LaunchRecord) -> Checkpoint {
        Checkpoint { record, opcodes: Box::new([]), capture: None }
    }

    fn store() -> CheckpointStore {
        let mut s = CheckpointStore::new();
        s.push(entry(record("a", 0, 100)));
        s.push(entry(record("b", 0, 200)));
        s.push(entry(record("a", 1, 400)));
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
