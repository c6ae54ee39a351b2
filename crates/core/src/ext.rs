//! Fault-model extensions — the paper's §V "future directions", as data
//! for [`PermanentInjector`](crate::PermanentInjector), which injects them
//! all.
//!
//! * **Intermittent faults**: a permanent-style fault that activates only on
//!   a subset of dynamic instances — a random process or a bursty window
//!   ([`ActivationPattern`]).
//! * **More complex fault models**: corruption functions beyond XOR
//!   ([`CorruptionFn`]), multi-register corruption, and permanent faults
//!   spanning *multiple opcodes* (e.g. every opcode sharing an ALU,
//!   [`ExtFault`]).
//! * **Fault dictionary**: a per-opcode table of corruption behaviours
//!   ([`FaultDictionary`]), standing in for a dictionary derived from
//!   circuit/microarchitectural simulation.

use gpu_isa::Opcode;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A corruption function applied to a destination register (§V: "supporting
/// corruption functions beyond the current set of XOR, random, and zero").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorruptionFn {
    /// XOR with a mask (the baseline model).
    Xor(u32),
    /// AND with a mask (models stuck-at-0 bits).
    And(u32),
    /// OR with a mask (models stuck-at-1 bits).
    Or(u32),
    /// Overwrite with a constant.
    Set(u32),
}

impl CorruptionFn {
    /// Apply to a register value.
    #[inline]
    pub fn apply(self, v: u32) -> u32 {
        match self {
            CorruptionFn::Xor(m) => v ^ m,
            CorruptionFn::And(m) => v & m,
            CorruptionFn::Or(m) => v | m,
            CorruptionFn::Set(c) => c,
        }
    }
}

/// When an intermittent/extended fault is active.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ActivationPattern {
    /// Active on every opportunity (a permanent fault).
    Always,
    /// Active independently with probability `prob` per opportunity
    /// (a random intermittent process, seeded for reproducibility).
    Random {
        /// Activation probability in `[0, 1]`.
        prob: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Active for opportunities `start .. start + len` (a burst).
    Burst {
        /// First active opportunity (0-based).
        start: u64,
        /// Number of active opportunities.
        len: u64,
    },
}

impl ActivationPattern {
    /// Whether the fault is active on the 0-based `opportunity`. `Random`
    /// draws from `rng`; the other patterns never touch it.
    pub fn is_active(&self, opportunity: u64, rng: &mut StdRng) -> bool {
        match *self {
            ActivationPattern::Always => true,
            ActivationPattern::Random { prob, .. } => rng.gen_bool(prob.clamp(0.0, 1.0)),
            ActivationPattern::Burst { start, len } => {
                opportunity.checked_sub(start).is_some_and(|k| k < len)
            }
        }
    }
}

/// An extended fault: one or more opcodes at one (SM, lane), with a chosen
/// corruption function and activation pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtFault {
    /// Opcodes affected (§V: "allowing a permanent fault to affect multiple
    /// opcodes").
    pub opcodes: Vec<Opcode>,
    /// Target SM.
    pub sm_id: u32,
    /// Target hardware lane.
    pub lane_id: u32,
    /// How destination registers are corrupted.
    pub corruption: CorruptionFn,
    /// When the fault is active.
    pub activation: ActivationPattern,
}

/// A fault dictionary: per-opcode corruption behaviour (§V).
///
/// Opcodes absent from the dictionary are unaffected. Each entry can carry
/// its own activation probability, modeling an error-manifestation rate
/// derived from lower-level simulation.
pub type FaultDictionary = BTreeMap<Opcode, DictEntry>;

/// One dictionary entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DictEntry {
    /// Corruption applied when the entry fires.
    pub corruption: CorruptionFn,
    /// Probability the fault manifests on a given execution.
    pub manifest_prob: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PermanentInjector;
    use gpu_isa::asm::KernelBuilder;
    use gpu_isa::{encode, Module, Reg, SpecialReg};
    use gpu_runtime::{run_program, Program, Runtime, RuntimeConfig, RuntimeError};
    use gpu_sim::GpuConfig;

    struct App {
        iters: u32,
    }
    impl Program for App {
        fn name(&self) -> &str {
            "app"
        }
        fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            // Each thread repeatedly increments a value: `iters` IADD32I per
            // thread, so one (SM, lane) sees `iters` opportunities.
            let mut k = KernelBuilder::new("loopy");
            let (out, tid, acc, i) = (Reg(4), Reg(0), Reg(2), Reg(3));
            k.ldc(out, 0);
            k.s2r(tid, SpecialReg::GlobalTidX);
            k.movi(acc, 0);
            k.movi(i, 0);
            let top = k.new_label();
            k.bind(top);
            k.iaddi(acc, acc, 1);
            k.iaddi(i, i, 1);
            k.isetp(gpu_isa::PReg(0), gpu_isa::CmpOp::Lt, i, self.iters as i32);
            k.bra_if(gpu_isa::PReg(0), top);
            k.shli(Reg(5), tid, 2);
            k.iadd(out, out, Reg(5));
            k.stg(out, 0, acc);
            k.exit();
            let bytes = encode::encode_module(&Module::new("m", vec![k.finish()]));
            let m = rt.load_module(&bytes)?;
            let h = rt.get_kernel(m, "loopy")?;
            let buf = rt.alloc(32 * 4)?;
            rt.launch(h, 1u32, 32u32, &[buf.addr()])?;
            rt.synchronize()?;
            let v = rt.read_u32s(buf, 32)?;
            rt.println(format!("{v:?}"));
            Ok(())
        }
    }

    fn cfg() -> RuntimeConfig {
        RuntimeConfig {
            gpu: GpuConfig { num_sms: 1, ..GpuConfig::default() },
            // Corrupting a loop counter can livelock the kernel; keep the
            // hang monitor tight so such runs terminate as hangs quickly.
            instr_budget: Some(2_000_000),
            ..RuntimeConfig::default()
        }
    }

    fn fault(activation: ActivationPattern, corruption: CorruptionFn) -> ExtFault {
        ExtFault { opcodes: vec![Opcode::IADD32I], sm_id: 0, lane_id: 3, corruption, activation }
    }

    #[test]
    fn always_pattern_is_permanent() {
        let (tool, handle) =
            PermanentInjector::extended(fault(ActivationPattern::Always, CorruptionFn::Xor(0)));
        let out = run_program(&App { iters: 10 }, cfg(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let rec = handle.get();
        // Lane 3 executes IADD32I 2×10 times in the loop (acc and i).
        assert_eq!(rec.opportunities, 20);
        assert_eq!(rec.activations, 20);
    }

    #[test]
    fn burst_pattern_activates_window_only() {
        let (tool, handle) = PermanentInjector::extended(fault(
            ActivationPattern::Burst { start: 5, len: 4 },
            CorruptionFn::Xor(0),
        ));
        let out = run_program(&App { iters: 10 }, cfg(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let rec = handle.get();
        assert_eq!(rec.opportunities, 20);
        assert_eq!(rec.activations, 4);
    }

    #[test]
    fn burst_reaching_past_the_last_opportunity_does_not_overflow() {
        // `start + len` overflows u64 here; the window still covers every
        // opportunity from `start` on.
        let burst = ActivationPattern::Burst { start: 5, len: u64::MAX };
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        assert!(!burst.is_active(4, &mut rng));
        assert!(burst.is_active(5, &mut rng));
        assert!(burst.is_active(u64::MAX, &mut rng));
        let (tool, handle) = PermanentInjector::extended(fault(burst, CorruptionFn::Xor(0)));
        let out = run_program(&App { iters: 10 }, cfg(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let rec = handle.get();
        assert_eq!((rec.opportunities, rec.activations), (20, 15));
    }

    #[test]
    fn random_pattern_is_reproducible_and_rate_shaped() {
        let run_once = || {
            let (tool, handle) = PermanentInjector::extended(fault(
                ActivationPattern::Random { prob: 0.5, seed: 99 },
                CorruptionFn::Xor(0),
            ));
            let out = run_program(&App { iters: 200 }, cfg(), Some(Box::new(tool)));
            assert!(out.termination.is_clean());
            handle.get()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "seeded activation is reproducible");
        assert_eq!(a.opportunities, 400);
        assert!((120..280).contains(&a.activations), "got {}", a.activations);
    }

    #[test]
    fn stuck_at_one_corruption() {
        // OR with 0x4 forces bit 2 of the loop counters on lane 3; the
        // final accumulator for lane 3 differs from the clean 10.
        let (tool, handle) =
            PermanentInjector::extended(fault(ActivationPattern::Always, CorruptionFn::Or(0x4)));
        let out = run_program(&App { iters: 10 }, cfg(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        assert!(handle.get().activations > 0);
        // Clean output is all 10s; lane 3's accumulator is corrupted.
        let line = out.stdout.lines().next().expect("stdout");
        assert!(line.starts_with("[10, 10, 10, "), "{line}");
        assert!(!line.contains("[10, 10, 10, 10, "), "lane 3 must differ: {line}");
    }

    #[test]
    fn dictionary_injector_respects_entries() {
        let mut dict = FaultDictionary::new();
        // Xor(0) observes every execution without perturbing state — the
        // dictionary analog of a fault that never manifests a bit error.
        dict.insert(
            Opcode::IADD32I,
            DictEntry { corruption: CorruptionFn::Xor(0), manifest_prob: 1.0 },
        );
        assert_eq!(dict.len(), 1);
        assert!(!dict.is_empty());
        let (tool, handle) = PermanentInjector::dictionary(dict, 0, 3, 7);
        let out = run_program(&App { iters: 10 }, cfg(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let rec = handle.get();
        assert_eq!(rec.opportunities, 20);
        assert_eq!(rec.activations, 20);
    }

    #[test]
    fn self_defeating_corruption_hangs_and_is_detected() {
        // XOR(1) on IADD32I undoes the loop counter's `+1` every iteration
        // on the target lane: a livelock. The hang monitor must catch it —
        // this is exactly the paper's "Timeout, indicating a hang" DUE.
        let mut dict = FaultDictionary::new();
        dict.insert(
            Opcode::IADD32I,
            DictEntry { corruption: CorruptionFn::Xor(1), manifest_prob: 1.0 },
        );
        let (tool, handle) = PermanentInjector::dictionary(dict, 0, 3, 7);
        let out = run_program(&App { iters: 10 }, cfg(), Some(Box::new(tool)));
        assert_eq!(out.termination, gpu_runtime::Termination::Hang);
        assert!(handle.get().activations > 0);
    }

    #[test]
    fn dictionary_zero_probability_never_fires() {
        let mut dict = FaultDictionary::new();
        dict.insert(
            Opcode::IADD32I,
            DictEntry { corruption: CorruptionFn::Set(0), manifest_prob: 0.0 },
        );
        let (tool, handle) = PermanentInjector::dictionary(dict, 0, 3, 7);
        let out = run_program(&App { iters: 10 }, cfg(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        assert_eq!(handle.get().activations, 0);
        assert!(out.stdout.contains("[10, 10"), "output clean");
    }

    #[test]
    fn corruption_fns() {
        assert_eq!(CorruptionFn::Xor(0b1010).apply(0b0110), 0b1100);
        assert_eq!(CorruptionFn::And(0b1010).apply(0b0110), 0b0010);
        assert_eq!(CorruptionFn::Or(0b1010).apply(0b0110), 0b1110);
        assert_eq!(CorruptionFn::Set(7).apply(12345), 7);
    }
}
