//! Regenerates **Table V**: the error-propagation outcome taxonomy, by
//! *forcing* each outcome with a targeted fault and showing the classifier
//! label it earns:
//!
//! * Masked — a fault landing on an instruction with no writable
//!   destination,
//! * SDC — a single-bit flip in a stencil value that flows to the output,
//! * DUE (timeout) — a fault-dictionary entry that undoes a loop counter's
//!   increment (livelock, caught by the monitor),
//! * DUE (non-zero exit) — a flipped pointer in a program that *checks*
//!   device errors,
//! * potential DUE — the same flipped pointer in a program that never
//!   checks: the run is classified SDC/Masked but carries an unhandled
//!   device anomaly.

use gpu_runtime::{run_program, Program, RuntimeConfig};
use nvbitfi::ext::{CorruptionFn, DictEntry, FaultDictionary};
use nvbitfi::{
    classify, golden_run, BitFlipModel, InstrGroup, Outcome, PermanentInjector, SdcCheck,
    TransientInjector, TransientParams,
};
use workloads::Scale;

fn transient(kernel: &str, group: InstrGroup, icount: u64, dest: f64) -> TransientParams {
    TransientParams {
        group,
        bit_flip: BitFlipModel::FlipSingleBit,
        kernel_name: kernel.into(),
        kernel_count: 0,
        instruction_count: icount,
        destination_register: dest,
        bit_pattern: 0.03, // a low mantissa bit for value targets
    }
}

fn inject(program: &dyn Program, check: &dyn SdcCheck, params: TransientParams) -> Outcome {
    let cfg = RuntimeConfig { instr_budget: Some(20_000_000), ..RuntimeConfig::default() };
    let golden = golden_run(program, cfg.clone()).expect("golden");
    let (tool, _handle) = TransientInjector::new(params);
    let out = run_program(program, cfg, Some(Box::new(tool)));
    classify(&golden, &out, check)
}

fn main() {
    let mut rows = vec![vec![
        "forced scenario".to_string(),
        "symptom (Table V)".to_string(),
        "classified as".to_string(),
    ]];

    // -- Masked: a G_NODEST site has nothing to corrupt. -------------------
    let p = workloads::ostencil::Ostencil { scale: Scale::Test };
    let check = workloads::ostencil::Ostencil::check();
    let o = inject(&p, &check, transient("stencil_step", InstrGroup::NoDest, 40, 0.0));
    rows.push(vec![
        "fault on a no-destination instruction".into(),
        "no difference detected".into(),
        o.to_string(),
    ]);
    assert!(o.is_masked());

    // -- SDC: wreck a stencil value that reaches the output file. -----------
    // A RANDOM_VALUE write into an interior FP32 accumulator late in the
    // run (instance 8), when the whole field is non-trivial. (A single-bit
    // flip on a still-zero cell would turn into a denormal and mask.)
    let mut sdc_params = transient("stencil_step", InstrGroup::Fp32, 95, 0.0);
    sdc_params.kernel_count = 8;
    sdc_params.bit_flip = BitFlipModel::RandomValue;
    sdc_params.bit_pattern = 0.83;
    let o = inject(&p, &check, sdc_params);
    rows.push(vec![
        "bit flip in an interior stencil value".into(),
        "output file is different".into(),
        o.to_string(),
    ]);
    assert!(o.is_sdc(), "got {o}");

    // -- DUE by hang: livelock a device loop counter. -----------------------
    let ep = workloads::ep::Ep { scale: Scale::Test };
    let ep_check = workloads::ep::Ep::check();
    let cfg = RuntimeConfig { instr_budget: Some(2_000_000), ..RuntimeConfig::default() };
    let golden = golden_run(&ep, cfg.clone()).expect("golden");
    let mut dict = FaultDictionary::new();
    dict.insert(
        gpu_isa::Opcode::IADD32I,
        DictEntry { corruption: CorruptionFn::Xor(1), manifest_prob: 1.0 },
    );
    let (tool, _h) = PermanentInjector::dictionary(dict, 0, 3, 7);
    let out = run_program(&ep, cfg, Some(Box::new(tool)));
    let o = classify(&golden, &out, &ep_check);
    rows.push(vec![
        "loop-counter increment undone every iteration".into(),
        "timeout, indicating a hang (monitor detection)".into(),
        o.to_string(),
    ]);
    assert!(o.is_due(), "got {o}");

    // -- DUE by exit status: pointer flip, host checks errors. ---------------
    // Group instruction 0 of ostencil's stencil_step is thread 0's LDC of
    // the output pointer.
    let o = inject(&p, &check, transient("stencil_step", InstrGroup::Ld, 0, 0.0));
    rows.push(vec![
        "flipped pointer, host checks cudaGetLastError".into(),
        "non-zero exit status (application detection)".into(),
        o.to_string(),
    ]);
    assert!(o.is_due(), "got {o}");

    // -- Potential DUE: pointer flip, host never checks. ---------------------
    let olbm = workloads::olbm::Olbm { scale: Scale::Test };
    let olbm_check = workloads::olbm::Olbm::check();
    let o = inject(&olbm, &olbm_check, transient("lbm_collide", InstrGroup::Ld, 0, 0.0));
    rows.push(vec![
        "flipped pointer, host never checks".into(),
        "(SDC or Masked) with CUDA error".into(),
        o.to_string(),
    ]);
    assert!(o.potential_due, "got {o}");

    println!("TABLE V — Possible error propagation outcomes (forced examples)\n");
    print!("{}", nvbitfi::report::table(&rows));
}
