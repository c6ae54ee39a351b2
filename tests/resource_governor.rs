//! Resource-governor calibration and classification: the default caps must
//! be invisible to every workload's golden run, while a fault-corrupted
//! allocation size must trip the governor and classify as a crash DUE —
//! never as an infrastructure error or a harness panic.

use gpu_runtime::{
    run_program, Program, Runtime, RuntimeConfig, RuntimeError, Termination,
    OUTPUT_TRUNCATED_MARKER,
};
use nvbitfi::{classify, golden_run, DueKind, OutcomeClass};
use workloads::{suite, Scale};

/// The governor's caps are calibrated against the whole suite: every
/// golden run completes cleanly, with no resource trap, no anomaly, and
/// no truncated output. The caps are constants (`gpu_sim::MAX_GLOBAL_BYTES`,
/// `gpu_sim::MAX_SHARED_BYTES`, `gpu_runtime::MAX_OUTPUT_BYTES`) and hold
/// on every run.
#[test]
fn default_caps_are_invisible_to_all_golden_runs() {
    let entries = suite(Scale::Test);
    assert_eq!(entries.len(), 15, "the paper's full workload table");
    for entry in entries {
        let name = entry.program.name().to_string();
        let golden = golden_run(entry.program.as_ref(), RuntimeConfig::default())
            .unwrap_or_else(|e| panic!("{name}: golden run trips the governor: {e}"));
        assert!(
            !golden.stdout.contains(OUTPUT_TRUNCATED_MARKER),
            "{name}: governor truncated golden output"
        );
    }
}

/// An MRI-style reduction whose scratch-buffer size lives in a "size
/// register". With `corrupt` set, the program models an injected single-bit
/// flip (bit 30) in that register before the allocation — the classic
/// fault-to-runaway-`cudaMalloc` path the governor exists to contain.
#[derive(Debug, Clone, Copy)]
struct RunawayAlloc {
    corrupt: bool,
}

impl Program for RunawayAlloc {
    fn name(&self) -> &str {
        "runaway-alloc"
    }

    fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
        let mut size: u32 = 4096;
        if self.corrupt {
            size ^= 1 << 30; // the injected bit flip in the size register
        }
        let buf = rt.alloc(size)?;
        let data: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
        rt.write_f32s(buf, &data)?;
        let back = rt.read_f32s(buf, data.len())?;
        let sum: f64 = back.iter().map(|v| *v as f64).sum();
        rt.println(format!("runaway-alloc sum {sum}"));
        Ok(())
    }
}

/// A corrupted size register inflates the allocation past the governor's
/// global-memory cap: the run terminates as a crash (the sandbox kills the
/// victim like an OOM-kill) and classifies as `Due(Crash)` — a program
/// outcome that stays in the paper's denominators, not an `InfraError`.
#[test]
fn corrupted_size_register_classifies_as_crash_due() {
    let clean = RunawayAlloc { corrupt: false };
    let golden = golden_run(&clean, RuntimeConfig::default()).expect("clean run is clean");

    let out = run_program(&RunawayAlloc { corrupt: true }, RuntimeConfig::default(), None);
    assert_eq!(out.termination, Termination::Crash, "governor kill surfaces as a crash");
    assert!(out.has_anomaly(), "the resource trap is logged as a device anomaly");

    let check = workloads::TolerantCheck::f32(1e-6);
    let outcome = classify(&golden, &out, &check);
    assert_eq!(outcome.class, OutcomeClass::Due(DueKind::Crash));
    assert!(!outcome.potential_due, "a DUE is terminal, not merely potential");
}
