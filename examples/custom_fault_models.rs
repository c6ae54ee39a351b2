//! The paper's §V "future directions", exercised: intermittent faults
//! (random and bursty activation), stuck-at corruption functions, a
//! multi-opcode permanent fault, and a fault dictionary.
//!
//! Run with `cargo run --release --example custom_fault_models`.

use gpu_runtime::{run_program, RuntimeConfig};
use nvbitfi::ext::{ActivationPattern, CorruptionFn, DictEntry, ExtFault, FaultDictionary};
use nvbitfi::{classify, golden_run, PermanentInjector};
use workloads::Scale;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = workloads::ep::Ep { scale: Scale::Test };
    let check = workloads::ep::Ep::check();
    let cfg = RuntimeConfig { instr_budget: Some(10_000_000), ..RuntimeConfig::default() };
    let golden = golden_run(&program, cfg.clone())?;

    println!("§V extensions on 352.ep:\n");

    // 1. Intermittent fault, random activation process.
    for prob in [0.01, 0.2, 0.9] {
        let fault = ExtFault {
            opcodes: vec![gpu_isa::Opcode::IMUL],
            sm_id: 0,
            lane_id: 11,
            corruption: CorruptionFn::Xor(1 << 12),
            activation: ActivationPattern::Random { prob, seed: 7 },
        };
        let (tool, handle) = PermanentInjector::extended(fault);
        let out = run_program(&program, cfg.clone(), Some(Box::new(tool)));
        let rec = handle.get();
        let outcome = classify(&golden, &out, &check);
        println!(
            "intermittent IMUL fault, p={prob:<4}: {}/{} activations -> {outcome}",
            rec.activations, rec.opportunities
        );
    }

    // 2. Bursty activation window.
    let fault = ExtFault {
        opcodes: vec![gpu_isa::Opcode::IMUL],
        sm_id: 0,
        lane_id: 11,
        corruption: CorruptionFn::Xor(1 << 12),
        activation: ActivationPattern::Burst { start: 2, len: 3 },
    };
    let (tool, handle) = PermanentInjector::extended(fault);
    let out = run_program(&program, cfg.clone(), Some(Box::new(tool)));
    let rec = handle.get();
    println!(
        "\nbursty IMUL fault (window [2,5)): {}/{} activations -> {}",
        rec.activations,
        rec.opportunities,
        classify(&golden, &out, &check)
    );

    // 3. Stuck-at-1 bit across multiple opcodes sharing "one ALU".
    let fault = ExtFault {
        opcodes: vec![gpu_isa::Opcode::IADD, gpu_isa::Opcode::IADD32I, gpu_isa::Opcode::IADD3],
        sm_id: 0,
        lane_id: 4,
        corruption: CorruptionFn::Or(1 << 3),
        activation: ActivationPattern::Always,
    };
    let (tool, handle) = PermanentInjector::extended(fault);
    let out = run_program(&program, cfg.clone(), Some(Box::new(tool)));
    println!(
        "\nstuck-at-1 bit 3 on the integer-add ALU (3 opcodes): {} corruptions -> {}",
        handle.get().activations,
        classify(&golden, &out, &check)
    );

    // 4. A fault dictionary: per-opcode corruption with manifestation rates,
    //    as a circuit-level model would provide.
    let mut dict = FaultDictionary::new();
    dict.insert(
        gpu_isa::Opcode::IMUL,
        DictEntry { corruption: CorruptionFn::Xor(1 << 8), manifest_prob: 0.6 },
    );
    dict.insert(
        gpu_isa::Opcode::LOP3,
        DictEntry { corruption: CorruptionFn::And(!0x1), manifest_prob: 0.3 },
    );
    dict.insert(
        gpu_isa::Opcode::SHR,
        DictEntry { corruption: CorruptionFn::Set(0), manifest_prob: 0.05 },
    );
    let (tool, handle) = PermanentInjector::dictionary(dict, 0, 21, 99);
    let out = run_program(&program, cfg, Some(Box::new(tool)));
    let rec = handle.get();
    println!(
        "\nfault dictionary (IMUL/LOP3/SHR): {}/{} manifested -> {}",
        rec.activations,
        rec.opportunities,
        classify(&golden, &out, &check)
    );
    Ok(())
}
