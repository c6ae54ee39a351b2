//! Permanent-model parity: every fault kind the permanent injector models —
//! Table III's XOR fault, the §V intermittent, bursty and multi-opcode
//! faults, and a fault dictionary — reproduces recorded counts and verdicts
//! on `352.ep` at test scale. The expected values are recorded, not
//! derived: a change to any of them is a change in fault-model behaviour.

use gpu_isa::Opcode;
use gpu_runtime::{run_program, RuntimeConfig};
use nvbit::NvBit;
use nvbitfi::ext::{ActivationPattern, CorruptionFn, DictEntry, ExtFault, FaultDictionary};
use nvbitfi::logfile::outcome_code;
use nvbitfi::{classify, golden_run, PermanentHandle, PermanentInjector, PermanentParams};
use workloads::Scale;

/// Run `tool` on `352.ep` (test scale) and return its record and verdict.
fn run(
    (tool, handle): (NvBit<PermanentInjector>, PermanentHandle),
) -> (nvbitfi::PermanentRecord, String) {
    let program = workloads::ep::Ep { scale: Scale::Test };
    let cfg = RuntimeConfig { instr_budget: Some(10_000_000), ..RuntimeConfig::default() };
    let golden = golden_run(&program, cfg.clone()).expect("golden");
    let out = run_program(&program, cfg, Some(Box::new(tool)));
    (handle.get(), outcome_code(&classify(&golden, &out, &workloads::ep::Ep::check())))
}

fn imul_fault(activation: ActivationPattern) -> ExtFault {
    ExtFault {
        opcodes: vec![Opcode::IMUL],
        sm_id: 0,
        lane_id: 11,
        corruption: CorruptionFn::Xor(1 << 12),
        activation,
    }
}

#[test]
fn extended_faults_match_recorded_opportunities_activations_and_verdicts() {
    let mut cases: Vec<(ExtFault, (u64, u64, &str))> = [0.01, 0.2, 0.9]
        .into_iter()
        .map(|prob| imul_fault(ActivationPattern::Random { prob, seed: 7 }))
        .zip([(4, 0, "MASKED"), (4, 1, "SDC:stdout"), (4, 4, "SDC:stdout")])
        .collect();
    cases.push((imul_fault(ActivationPattern::Burst { start: 2, len: 3 }), (4, 2, "SDC:stdout")));
    let alu = ExtFault {
        opcodes: vec![Opcode::IADD, Opcode::IADD32I, Opcode::IADD3],
        sm_id: 0,
        lane_id: 4,
        corruption: CorruptionFn::Or(1 << 3),
        activation: ActivationPattern::Always,
    };
    cases.push((alu, (63, 63, "SDC:stdout")));
    for (fault, expected) in cases {
        let (rec, code) = run(PermanentInjector::extended(fault.clone()));
        assert_eq!((rec.opportunities, rec.activations, code.as_str()), expected, "{fault:?}");
    }
}

#[test]
fn dictionary_matches_recorded_opportunities_activations_and_verdict() {
    let mut dict = FaultDictionary::new();
    let entry = |corruption, manifest_prob| DictEntry { corruption, manifest_prob };
    dict.insert(Opcode::IMUL, entry(CorruptionFn::Xor(1 << 8), 0.6));
    dict.insert(Opcode::LOP3, entry(CorruptionFn::And(!0x1), 0.3));
    dict.insert(Opcode::SHR, entry(CorruptionFn::Set(0), 0.05));
    let (rec, code) = run(PermanentInjector::dictionary(dict, 0, 21, 99));
    assert_eq!((rec.opportunities, rec.activations, code.as_str()), (17, 7, "SDC:stdout"));
}

#[test]
fn table3_faults_match_recorded_executions_activations_and_verdicts() {
    let cases = [
        (Opcode::IMUL, 0, 11, 1 << 12, (128, 4, "SDC:stdout")),
        (Opcode::IADD32I, 0, 4, 1 << 3, (565, 7, "SDC:stdout")),
        // A predicate-writing opcode: a non-zero mask flips its predicates.
        (Opcode::ISETP, 0, 2, 1, (1741, 36, "SDC:stdout")),
        // A zero mask observes every activation and corrupts nothing.
        (Opcode::LOP3, 0, 21, 0, (288, 9, "MASKED")),
        (Opcode::FFMA, 0, 0, 1 << 30, (320, 10, "MASKED")),
    ];
    for (op, sm_id, lane_id, bit_mask, expected) in cases {
        let params = PermanentParams { sm_id, lane_id, bit_mask, opcode_id: op.encode() };
        let (rec, code) = run(PermanentInjector::new(params));
        assert_eq!((rec.executions, rec.activations, code.as_str()), expected, "{op:?}");
        assert_eq!(rec.opportunities, rec.activations, "Table III faults are always active");
    }
}
