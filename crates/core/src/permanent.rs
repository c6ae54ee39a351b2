//! The permanent-fault injector — NVBitFI's `pf_injector.so`, and the §V
//! fault models built on it.
//!
//! A permanent fault "affects all dynamic instances of an instruction type"
//! (§III-B): every execution of a target opcode on the target SM and
//! hardware lane is an *opportunity*, and an active opportunity has its
//! destination registers corrupted. The injector holds a per-opcode table
//! of corruption function and activation pattern, so one tool covers
//! Table III's XOR fault ([`PermanentInjector::new`]), the intermittent,
//! stuck-at and multi-opcode faults of §V ([`PermanentInjector::extended`])
//! and a fault dictionary ([`PermanentInjector::dictionary`]). No profile
//! is required, but one makes campaigns efficient by skipping opcodes the
//! program never executes.

use crate::ext::{ActivationPattern, CorruptionFn, ExtFault, FaultDictionary};
use crate::params::PermanentParams;
use gpu_isa::{Kernel, Opcode};
use nvbit::{CallSite, Inserter, NvBit, NvBitTool, When};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// What a permanent-fault run did (readable after the run).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PermanentRecord {
    /// Times a target opcode executed on any SM and lane.
    pub executions: u64,
    /// Times a target opcode executed on the target SM and lane.
    pub opportunities: u64,
    /// Opportunities on which the fault was active (each one corrupted).
    pub activations: u64,
}

/// Handle to read the [`PermanentRecord`] after the run.
#[derive(Debug, Clone)]
pub struct PermanentHandle(Arc<Mutex<PermanentRecord>>);

impl PermanentHandle {
    /// Snapshot the record.
    pub fn get(&self) -> PermanentRecord {
        self.0.lock().clone()
    }
}

type Entry = (Opcode, CorruptionFn, ActivationPattern);

/// The permanent injector tool (attachable via [`nvbit::NvBit`]).
pub struct PermanentInjector {
    sm_id: u32,
    lane_id: u32,
    /// Per target opcode: how it corrupts, and when.
    table: Vec<Entry>,
    /// Table III faults with a non-zero mask also flip predicate
    /// destinations; the §V models corrupt GPRs only.
    flip_predicates: bool,
    rng: StdRng,
    record: Arc<Mutex<PermanentRecord>>,
}

impl PermanentInjector {
    /// Create an injector for one Table III permanent fault — XOR with
    /// `bit_mask`, always active — plus its record handle.
    ///
    /// # Panics
    ///
    /// Panics if `params.opcode_id` is not a valid opcode; call
    /// [`PermanentParams::validate`] first.
    pub fn new(params: PermanentParams) -> (NvBit<PermanentInjector>, PermanentHandle) {
        let entry =
            (params.opcode(), CorruptionFn::Xor(params.bit_mask), ActivationPattern::Always);
        PermanentInjector::build(params.sm_id, params.lane_id, vec![entry], params.bit_mask != 0, 0)
    }

    /// Create an injector for an [`ExtFault`]: its opcodes share one
    /// corruption and activation pattern, and a burst window counts the
    /// opportunities of all of them.
    pub fn extended(fault: ExtFault) -> (NvBit<PermanentInjector>, PermanentHandle) {
        let seed = match fault.activation {
            ActivationPattern::Random { seed, .. } => seed,
            _ => 0,
        };
        let table =
            fault.opcodes.iter().map(|&op| (op, fault.corruption, fault.activation.clone()));
        PermanentInjector::build(fault.sm_id, fault.lane_id, table.collect(), false, seed)
    }

    /// Create an injector for a [`FaultDictionary`] at one (SM, lane): each
    /// entry manifests at random with its own probability, drawn from one
    /// RNG seeded with `seed`.
    pub fn dictionary(
        dict: FaultDictionary,
        sm_id: u32,
        lane_id: u32,
        seed: u64,
    ) -> (NvBit<PermanentInjector>, PermanentHandle) {
        let table = dict.into_iter().map(|(op, e)| {
            (op, e.corruption, ActivationPattern::Random { prob: e.manifest_prob, seed })
        });
        PermanentInjector::build(sm_id, lane_id, table.collect(), false, seed)
    }

    fn build(
        sm_id: u32,
        lane_id: u32,
        table: Vec<(Opcode, CorruptionFn, ActivationPattern)>,
        flip_predicates: bool,
        seed: u64,
    ) -> (NvBit<PermanentInjector>, PermanentHandle) {
        let record = Arc::new(Mutex::new(PermanentRecord::default()));
        let rng = StdRng::seed_from_u64(seed);
        let record_handle = Arc::clone(&record);
        let inj = PermanentInjector { sm_id, lane_id, table, flip_predicates, rng, record };
        (NvBit::new(inj), PermanentHandle(record_handle))
    }
}

impl NvBitTool for PermanentInjector {
    fn instrument_kernel(&mut self, kernel: &Kernel, inserter: &mut Inserter<'_>) {
        for (pc, instr) in kernel.instrs().iter().enumerate() {
            if self.table.iter().any(|&(op, ..)| op == instr.op) {
                inserter.insert_call(pc, When::After, 0, Vec::new());
            }
        }
    }

    fn device_call(&mut self, site: &CallSite<'_>, thread: &mut gpu_sim::ThreadCtx<'_>) {
        let mut rec = self.record.lock();
        rec.executions += 1;
        // The fault lives at one physical (SM, lane): only threads that map
        // there activate it (Table III).
        if thread.meta.sm != self.sm_id || thread.meta.lane != self.lane_id {
            return;
        }
        let opportunity = rec.opportunities;
        rec.opportunities += 1;
        let op = site.instr.opcode();
        let Some((_, corruption, activation)) = self.table.iter().find(|e| e.0 == op) else {
            return;
        };
        if !activation.is_active(opportunity, &mut self.rng) {
            return;
        }
        rec.activations += 1;
        drop(rec);
        // Multi-register corruption: every GPR destination unit is affected.
        for reg in site.instr.instr().dsts.iter().flat_map(|d| d.gpr_units()) {
            let old = thread.read_reg(reg);
            thread.write_reg(reg, corruption.apply(old));
        }
        if self.flip_predicates {
            for p in site.instr.pred_dests() {
                thread.corrupt_pred(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::asm::KernelBuilder;
    use gpu_isa::{encode, Module, Reg, SpecialReg};
    use gpu_runtime::{run_program, Program, Runtime, RuntimeConfig, RuntimeError};

    /// out[gtid] = gtid + 1 across 82 blocks of 32 threads. The device has
    /// 80 SMs, so blocks 0 and 80 share SM 0, and blocks 1 and 81 SM 1.
    const BLOCKS: u32 = 82;
    const THREADS: u32 = BLOCKS * 32;
    struct App;
    impl Program for App {
        fn name(&self) -> &str {
            "app"
        }
        fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            let mut k = KernelBuilder::new("inc");
            let (out, tid, off) = (Reg(4), Reg(0), Reg(1));
            k.ldc(out, 0);
            k.s2r(tid, SpecialReg::GlobalTidX);
            k.iaddi(Reg(2), tid, 1);
            k.shli(off, tid, 2);
            k.iadd(out, out, off);
            k.stg(out, 0, Reg(2));
            k.exit();
            let bytes = encode::encode_module(&Module::new("m", vec![k.finish()]));
            let m = rt.load_module(&bytes)?;
            let k = rt.get_kernel(m, "inc")?;
            let out_buf = rt.alloc(THREADS * 4)?;
            rt.launch(k, BLOCKS, 32u32, &[out_buf.addr()])?;
            rt.synchronize()?;
            let v = rt.read_u32s(out_buf, THREADS as usize)?;
            for (i, x) in v.iter().enumerate() {
                rt.println(format!("{i} {x}"));
            }
            Ok(())
        }
    }

    #[test]
    fn corrupts_every_instance_on_target_sm_and_lane() {
        // Blocks 1 and 81 run on SM 1. Target SM 1, lane 7 → threads 39
        // and 2599 (gtid = block*32 + 7).
        let params = PermanentParams {
            sm_id: 1,
            lane_id: 7,
            bit_mask: 0x1,
            opcode_id: Opcode::IADD32I.encode(),
        };
        let (tool, handle) = PermanentInjector::new(params);
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let rec = handle.get();
        // IADD32I executes once per thread: 2624 executions, 2 activations.
        assert_eq!(rec.executions, THREADS as u64);
        assert_eq!(rec.activations, 2);
        // Affected threads: 1*32+7=39 → (39+1)^1 = 41; 81*32+7=2599 → 2601.
        assert!(out.stdout.contains("\n39 41\n"), "{}", out.stdout);
        assert!(out.stdout.contains("\n2599 2601\n"));
        // An unaffected lane on the same SM is untouched.
        assert!(out.stdout.contains("\n38 39\n"));
    }

    #[test]
    fn unused_opcode_never_activates() {
        let params = PermanentParams {
            sm_id: 0,
            lane_id: 0,
            bit_mask: 0xFFFF_FFFF,
            opcode_id: Opcode::DFMA.encode(),
        };
        let (tool, handle) = PermanentInjector::new(params);
        let stats = tool.stats_handle();
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let rec = handle.get();
        assert_eq!((rec.executions, rec.activations), (0, 0));
        // No DFMA in the kernel → empty instrumentation → unmodified run.
        assert_eq!(stats.lock().launches_instrumented, 0);
    }

    #[test]
    fn zero_mask_records_but_does_not_corrupt() {
        let params = PermanentParams {
            sm_id: 0,
            lane_id: 0,
            bit_mask: 0,
            opcode_id: Opcode::IADD32I.encode(),
        };
        let (tool, handle) = PermanentInjector::new(params);
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let rec = handle.get();
        assert_eq!((rec.executions, rec.activations), (THREADS as u64, 2));
        assert!(out.stdout.starts_with("0 1\n"), "mask 0 leaves values intact");
    }
}
