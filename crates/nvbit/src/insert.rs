//! `insert_call`-style instrumentation: attaching device callbacks to
//! instructions.

use gpu_isa::Kernel;
use gpu_runtime::InstrMasks;

/// When an inserted call fires relative to its instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum When {
    /// Before the instruction's effects are visible.
    Before,
    /// After the instruction's results are architecturally visible.
    After,
}

/// One inserted device call: an id the tool dispatches on plus constant
/// arguments bound at instrumentation time (NVBit's `nvbit_add_call_arg_*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertedCall {
    /// Tool-chosen callback id.
    pub id: u32,
    /// Constant arguments bound when the call was inserted.
    pub args: Vec<u64>,
}

/// The instrumentation being built for one static kernel.
///
/// Obtained inside `NvBitTool::instrument_kernel`; every
/// [`Inserter::insert_call`] marks one instruction and registers the device
/// callback that will fire there.
#[derive(Debug)]
pub struct Inserter<'a> {
    kernel: &'a Kernel,
    before: Vec<Vec<InsertedCall>>,
    after: Vec<Vec<InsertedCall>>,
}

impl<'a> Inserter<'a> {
    pub(crate) fn new(kernel: &'a Kernel) -> Inserter<'a> {
        Inserter {
            kernel,
            before: vec![Vec::new(); kernel.len()],
            after: vec![Vec::new(); kernel.len()],
        }
    }

    /// The kernel being instrumented.
    pub fn kernel(&self) -> &Kernel {
        self.kernel
    }

    /// Attach a device call at instruction index `pc`.
    ///
    /// Out-of-range `pc` values are ignored (there is no instruction to
    /// instrument), matching NVBit's tolerance of empty instruction ranges.
    pub fn insert_call(&mut self, pc: usize, when: When, id: u32, args: Vec<u64>) {
        let slot = match when {
            When::Before => self.before.get_mut(pc),
            When::After => self.after.get_mut(pc),
        };
        if let Some(calls) = slot {
            calls.push(InsertedCall { id, args });
        }
    }

    /// Attach a call to *every* instruction (how exhaustive profilers
    /// instrument).
    pub fn insert_call_everywhere(&mut self, when: When, id: u32) {
        for pc in 0..self.kernel.len() {
            self.insert_call(pc, when, id, Vec::new());
        }
    }

    /// Number of instructions with at least one inserted call.
    pub fn instrumented_count(&self) -> usize {
        (0..self.kernel.len())
            .filter(|&pc| !self.before[pc].is_empty() || !self.after[pc].is_empty())
            .count()
    }

    pub(crate) fn finish(self) -> CachedInstrumentation {
        let masks = InstrMasks {
            before: self.before.iter().map(|c| !c.is_empty()).collect(),
            after: self.after.iter().map(|c| !c.is_empty()).collect(),
        };
        CachedInstrumentation { masks, before: self.before, after: self.after }
    }
}

/// The instrumented ("JIT-compiled") variant of a static kernel, cached so
/// subsequent launches reuse it (paper §III-C).
#[derive(Debug, Clone)]
pub struct CachedInstrumentation {
    pub(crate) masks: InstrMasks,
    pub(crate) before: Vec<Vec<InsertedCall>>,
    pub(crate) after: Vec<Vec<InsertedCall>>,
}

impl CachedInstrumentation {
    /// `true` if no instruction carries a call.
    pub fn is_empty(&self) -> bool {
        self.masks.marked() == 0
    }

    /// The per-instruction marks handed to the simulator.
    pub fn masks(&self) -> &InstrMasks {
        &self.masks
    }

    pub(crate) fn calls(&self, when: When, pc: u32) -> &[InsertedCall] {
        let table = match when {
            When::Before => &self.before,
            When::After => &self.after,
        };
        table.get(pc as usize).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::asm::KernelBuilder;
    use gpu_isa::Reg;

    fn kernel() -> Kernel {
        let mut k = KernelBuilder::new("k");
        k.movi(Reg(0), 1);
        k.iaddi(Reg(0), Reg(0), 1);
        k.exit();
        k.finish()
    }

    #[test]
    fn insert_builds_masks_and_registry() {
        let k = kernel();
        let mut ins = Inserter::new(&k);
        ins.insert_call(1, When::After, 7, vec![42]);
        assert_eq!(ins.instrumented_count(), 1);
        let cached = ins.finish();
        assert_eq!(cached.masks().after, vec![false, true, false]);
        assert_eq!(cached.masks().before, vec![false, false, false]);
        let calls = cached.calls(When::After, 1);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].id, 7);
        assert_eq!(calls[0].args, vec![42]);
        assert!(cached.calls(When::Before, 1).is_empty());
        assert!(cached.calls(When::After, 99).is_empty());
    }

    #[test]
    fn insert_everywhere() {
        let k = kernel();
        let mut ins = Inserter::new(&k);
        ins.insert_call_everywhere(When::After, 1);
        assert_eq!(ins.instrumented_count(), 3);
        let cached = ins.finish();
        assert!(cached.masks().after.iter().all(|b| *b));
    }

    #[test]
    fn out_of_range_pc_is_ignored() {
        let k = kernel();
        let mut ins = Inserter::new(&k);
        ins.insert_call(99, When::Before, 1, vec![]);
        assert_eq!(ins.instrumented_count(), 0);
        assert!(ins.finish().is_empty());
    }

    #[test]
    fn multiple_calls_per_site() {
        let k = kernel();
        let mut ins = Inserter::new(&k);
        ins.insert_call(0, When::Before, 1, vec![]);
        ins.insert_call(0, When::Before, 2, vec![]);
        let cached = ins.finish();
        assert_eq!(cached.calls(When::Before, 0).len(), 2);
    }
}
