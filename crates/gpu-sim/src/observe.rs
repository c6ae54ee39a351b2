//! What a golden launch observes beside its statistics: executed thread
//! instructions per opcode, the lanes of each SM that executed each opcode
//! and, when asked, the global-memory bytes it read and wrote.
//!
//! The warp loop reports to an [`Observe`] implementation chosen per
//! launch, and is compiled once per implementation, so launches that
//! observe nothing ([`Unobserved`], every injection run) carry no
//! observing code at all. Golden runs report to a [`LaunchObserver`],
//! which records accesses only when asked.

use crate::gpu::{OpcodeCounts, NUM_SMS};
use crate::memory::{ByteRanges, NULL_PAGE};
use gpu_isa::{MemWidth, Opcode, OPCODE_COUNT};

/// Where the warp loop reports what a launch executes and touches.
pub(crate) trait Observe {
    /// The `lanes` of a warp on SM `sm` executed `op`: they passed its
    /// guard and ran it, one thread instruction each.
    fn retire(&mut self, op: Opcode, sm: u32, lanes: u32);

    /// A global load (or the read half of an atomic) at `addr` succeeded.
    #[inline(always)]
    fn read(&mut self, addr: u32, width: MemWidth) {
        let _ = (addr, width);
    }

    /// A global store (or the write half of an atomic) at `addr` succeeded.
    #[inline(always)]
    fn write(&mut self, addr: u32, width: MemWidth) {
        let _ = (addr, width);
    }
}

/// Observes nothing: the observer of injection runs.
#[derive(Debug)]
pub(crate) struct Unobserved;

impl Observe for Unobserved {
    #[inline(always)]
    fn retire(&mut self, _: Opcode, _: u32, _: u32) {}
}

impl Observe for &mut LaunchObserver {
    #[inline(always)]
    fn retire(&mut self, op: Opcode, sm: u32, lanes: u32) {
        self.opcodes[op.encode() as usize] += u64::from(lanes.count_ones());
        self.lanes.0[op.encode() as usize][sm as usize] |= lanes;
    }

    #[inline(always)]
    fn read(&mut self, addr: u32, width: MemWidth) {
        if let Some(words) = &mut self.words {
            mark(&mut words.read, addr, width);
        }
    }

    #[inline(always)]
    fn write(&mut self, addr: u32, width: MemWidth) {
        if let Some(words) = &mut self.words {
            mark(&mut words.written, addr, width);
            // A narrower store leaves the rest of its word as it was:
            // counting the word as read makes a replay that copies the
            // whole word exact.
            if width.bytes() < 4 {
                mark(&mut words.read, addr, width);
            }
        }
    }
}

/// Set the bits of the words an access of `width` at `addr` touches. The
/// access passed its bounds and alignment checks, so they exist.
#[inline(always)]
fn mark(map: &mut [u64], addr: u32, width: MemWidth) {
    let word = (addr - NULL_PAGE) / 4;
    let bits: u64 = if width == MemWidth::B64 { 0b11 } else { 0b1 };
    map[(word / 64) as usize] |= bits << (word % 64);
}

/// Per-word bitmaps of one launch's global reads and writes.
#[derive(Debug, Default)]
struct WordMaps {
    read: Vec<u64>,
    written: Vec<u64>,
    /// Allocated bytes at the launch: ranges end no later.
    allocated: u32,
}

/// Which lanes of each SM executed each opcode, over every launch a
/// [`LaunchObserver`] saw: one `u32` lane mask per (opcode, SM), about
/// 55 KB. A lane counts once it passed the instruction's guard and ran it
/// — exactly the threads an `After` hook on that instruction would see —
/// so a permanent fault at an (opcode, SM, lane) whose bit is clear has
/// nothing to act on.
#[derive(Clone)]
pub struct LaneTable(Box<[[u32; NUM_SMS as usize]]>);

impl LaneTable {
    /// The lanes of SM `sm` that executed `op` (none for an SM beyond the
    /// device's).
    pub fn lanes(&self, op: Opcode, sm: u32) -> u32 {
        self.0[op.encode() as usize].get(sm as usize).copied().unwrap_or(0)
    }

    /// `true` if lane `lane` of SM `sm` executed `op`.
    pub fn executed(&self, op: Opcode, sm: u32, lane: u32) -> bool {
        lane < 32 && self.lanes(op, sm) >> lane & 1 != 0
    }
}

impl Default for LaneTable {
    /// A table in which nothing executed.
    fn default() -> LaneTable {
        LaneTable(vec![[0; NUM_SMS as usize]; OPCODE_COUNT].into_boxed_slice())
    }
}

impl std::fmt::Debug for LaneTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let lanes: u32 = self.0.iter().flatten().map(|m| m.count_ones()).sum();
        f.debug_struct("LaneTable").field("executed_lanes", &lanes).finish()
    }
}

/// A golden run's observations: per-launch ones gathered by
/// [`crate::Gpu::launch_observed`] and drained after each launch, and the
/// run's [`LaneTable`], which spans every launch.
#[derive(Debug)]
pub struct LaunchObserver {
    opcodes: Box<OpcodeCounts>,
    lanes: LaneTable,
    /// `None` unless the launch's read and write sets are recorded.
    words: Option<WordMaps>,
}

impl LaunchObserver {
    /// An observer counting opcodes and executed lanes and, if
    /// `accesses`, recording each launch's global read and write sets.
    pub fn new(accesses: bool) -> LaunchObserver {
        LaunchObserver {
            opcodes: Box::new([0; OPCODE_COUNT]),
            lanes: LaneTable::default(),
            words: accesses.then(WordMaps::default),
        }
    }

    /// Consume the observer, keeping its [`LaneTable`]: the lanes that
    /// executed each opcode on each SM over every launch it observed.
    pub fn into_lanes(self) -> LaneTable {
        self.lanes
    }

    /// The last launch's nonzero `(opcode, thread instructions)` counts,
    /// resetting them.
    pub fn take_opcodes(&mut self) -> Vec<(Opcode, u64)> {
        self.opcodes
            .iter_mut()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(op, n)| (Opcode::ALL[op], std::mem::take(n)))
            .collect()
    }

    /// The last launch's global read and write sets, resetting them. Both
    /// are empty unless accesses are recorded. Sets are kept per 4-byte
    /// word: a narrower access counts its whole word.
    pub fn take_accesses(&mut self) -> (ByteRanges, ByteRanges) {
        match &mut self.words {
            Some(w) => (drain(&mut w.read, w.allocated), drain(&mut w.written, w.allocated)),
            None => Default::default(),
        }
    }

    /// Size the access bitmaps for a launch over `allocated` bytes of
    /// global memory.
    pub(crate) fn start(&mut self, allocated: u32) {
        if let Some(words) = &mut self.words {
            let len = (allocated as usize).div_ceil(4 * 64);
            words.read.resize(len, 0);
            words.written.resize(len, 0);
            words.allocated = allocated;
        }
    }
}

/// The set words of `map` as byte ranges no further than `allocated`
/// bytes into global memory, clearing `map`.
fn drain(map: &mut [u64], allocated: u32) -> ByteRanges {
    let mut ranges = Vec::new();
    let mut open: Option<u32> = None;
    for (i, slot) in map.iter_mut().enumerate() {
        let bits = std::mem::take(slot);
        let base = i as u32 * 64;
        let mut pos = 0;
        while pos < 64 {
            let rest = bits >> pos;
            match open {
                Some(start) => {
                    let ones = rest.trailing_ones();
                    if ones >= 64 - pos {
                        break;
                    }
                    ranges.push(start..base + pos + ones);
                    open = None;
                    pos += ones;
                }
                None => {
                    let zeros = rest.trailing_zeros();
                    if zeros >= 64 - pos {
                        break;
                    }
                    open = Some(base + pos + zeros);
                    pos += zeros;
                }
            }
        }
    }
    if let Some(start) = open {
        ranges.push(start..map.len() as u32 * 64);
    }
    let end = NULL_PAGE + allocated;
    let mut bytes: Vec<_> = ranges
        .into_iter()
        .map(|w| NULL_PAGE + w.start * 4..(NULL_PAGE + w.end * 4).min(end))
        .collect();
    bytes.shrink_to_fit();
    ByteRanges(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(map: &mut [u64], word: u32) {
        map[(word / 64) as usize] |= 1 << (word % 64);
    }

    #[test]
    fn drain_merges_adjacent_words_across_bitmap_words() {
        let mut map = vec![0u64; 3];
        for w in [0, 1, 2, 63, 64, 65, 100, 191] {
            set(&mut map, w);
        }
        let r = drain(&mut map, 192 * 4);
        let a = |w: u32| NULL_PAGE + 4 * w;
        assert_eq!(r.ranges(), &[a(0)..a(3), a(63)..a(66), a(100)..a(101), a(191)..a(192)]);
        assert!(map.iter().all(|w| *w == 0), "drained");
        assert!(drain(&mut map, 192 * 4).is_empty());
    }

    #[test]
    fn drain_clamps_the_last_word_to_the_allocation() {
        let mut map = vec![0u64; 1];
        set(&mut map, 2);
        let r = drain(&mut map, 10);
        assert_eq!(r.ranges(), std::slice::from_ref(&(NULL_PAGE + 8..NULL_PAGE + 10)));
    }

    #[test]
    fn narrow_stores_also_count_their_word_as_read() {
        let mut obs = LaunchObserver::new(true);
        obs.start(64);
        let mut r = &mut obs;
        r.write(NULL_PAGE + 5, MemWidth::B8);
        r.write(NULL_PAGE + 16, MemWidth::B64);
        r.read(NULL_PAGE + 40, MemWidth::B32);
        let (reads, writes) = obs.take_accesses();
        let a = |b: u32| NULL_PAGE + b;
        assert_eq!(writes.ranges(), &[a(4)..a(8), a(16)..a(24)]);
        assert_eq!(reads.ranges(), &[a(4)..a(8), a(40)..a(44)]);
    }
}
