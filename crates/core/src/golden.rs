//! The golden (fault-free) reference run — Figure 1's "golden output state".

use crate::error::FiError;
use crate::outcome::{classify, Outcome, SdcCheck};
use crate::params::TransientParams;
use gpu_runtime::{
    run_program, run_program_fast_forward, run_program_recording, CheckpointStore, Program,
    ProgramOutput, RunSummary, RuntimeConfig, Tool,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The reference outputs every injection run is compared against.
#[derive(Debug, Clone)]
pub struct GoldenOutput {
    /// Golden standard output.
    pub stdout: String,
    /// Golden output files.
    pub files: BTreeMap<String, Vec<u8>>,
    /// Launch statistics of the clean run.
    pub summary: RunSummary,
}

impl GoldenOutput {
    /// The largest single-launch dynamic instruction count observed.
    pub fn max_launch_instrs(&self) -> u64 {
        self.summary.launches.iter().map(|l| l.stats.dyn_instrs).max().unwrap_or(0)
    }

    /// A per-launch hang-detection budget: 10× the longest golden launch
    /// (with a floor), the usual timeout-multiplier convention for fault
    /// injection monitors.
    pub fn suggested_budget(&self) -> u64 {
        (self.max_launch_instrs() * 10).max(100_000)
    }
}

/// Run the program with no tool attached and capture its golden output.
///
/// # Errors
///
/// Returns [`FiError::GoldenRunFailed`] if the clean run hangs, exits
/// non-zero, or records any device anomaly — a fault-injection campaign
/// against a program that misbehaves on its own is meaningless.
pub fn golden_run(program: &dyn Program, cfg: RuntimeConfig) -> Result<GoldenOutput, FiError> {
    let out: ProgramOutput = run_program(program, cfg, None);
    validate(program, out)
}

/// Like [`golden_run`], but also record a launch-boundary
/// [`CheckpointStore`] for injection runs to fast-forward from.
///
/// # Errors
///
/// Same as [`golden_run`].
pub fn golden_run_recording(
    program: &dyn Program,
    cfg: RuntimeConfig,
) -> Result<(GoldenOutput, CheckpointStore), FiError> {
    let (out, store) = run_program_recording(program, cfg);
    Ok((validate(program, out)?, store))
}

/// A golden run made ready for injection runs: the reference outputs, the
/// launch-boundary checkpoints injection runs fast-forward from, and the
/// budgeted runtime configuration every injection run uses.
///
/// Without checkpoints the store is empty, so every target launch resolves
/// to index 0 and every injection run is a full replay — the
/// `--no-checkpoint` escape hatch is a parameter of the one run path, not a
/// second path.
#[derive(Debug, Clone)]
pub struct PreparedGolden {
    /// The reference outputs.
    pub(crate) output: GoldenOutput,
    /// Launch-boundary checkpoints (empty when not recorded).
    pub(crate) checkpoints: Arc<CheckpointStore>,
    /// Runtime configuration for injection runs: the golden run's, plus the
    /// hang-detection budget derived from it.
    pub(crate) config: RuntimeConfig,
}

impl PreparedGolden {
    /// Run the golden run under `cfg`, recording checkpoints if asked.
    ///
    /// # Errors
    ///
    /// Same as [`golden_run`].
    pub fn new(
        program: &dyn Program,
        cfg: RuntimeConfig,
        record_checkpoints: bool,
    ) -> Result<PreparedGolden, FiError> {
        let (output, store) = if record_checkpoints {
            golden_run_recording(program, cfg.clone())?
        } else {
            (golden_run(program, cfg.clone())?, CheckpointStore::new())
        };
        let mut config = cfg;
        config.instr_budget = Some(output.suggested_budget());
        Ok(PreparedGolden { output, checkpoints: store.into_shared(), config })
    }

    /// The global launch index a run injecting `sites` fast-forwards to:
    /// the earliest launch any site targets, since launches before it carry
    /// no injection site. A site the golden run never reached (possible
    /// with approximate profiles) can never fire and does not bound the
    /// run; with no reachable site, the run fast-forwards through every
    /// recorded launch.
    pub fn target_launch(&self, sites: &[TransientParams]) -> u64 {
        let store = &self.checkpoints;
        sites
            .iter()
            .filter_map(|p| store.find_instance(&p.kernel_name, p.kernel_count))
            .min()
            .unwrap_or(store.len() as u64)
    }

    /// Run `program` with `tool` attached, launches before global index
    /// `upto` replayed from the checkpoints, and classify the run against
    /// the golden outputs. Returns the outcome and the dynamic instructions
    /// fast-forwarding skipped.
    pub fn inject(
        &self,
        program: &dyn Program,
        check: &dyn SdcCheck,
        tool: Box<dyn Tool>,
        upto: u64,
    ) -> (Outcome, u64) {
        let out = run_program_fast_forward(
            program,
            self.config.clone(),
            Some(tool),
            Arc::clone(&self.checkpoints),
            upto,
        );
        (classify(&self.output, &out, check), out.prefix_instrs_skipped)
    }
}

fn validate(program: &dyn Program, out: ProgramOutput) -> Result<GoldenOutput, FiError> {
    if !out.termination.is_clean() {
        return Err(FiError::GoldenRunFailed {
            program: program.name().to_string(),
            reason: format!("terminated with {:?}", out.termination),
        });
    }
    if out.has_anomaly() {
        return Err(FiError::GoldenRunFailed {
            program: program.name().to_string(),
            reason: format!("clean run recorded {} device anomalies", out.anomalies.len()),
        });
    }
    Ok(GoldenOutput { stdout: out.stdout, files: out.files, summary: out.summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_runtime::{Runtime, RuntimeError};

    struct Good;
    impl gpu_runtime::Program for Good {
        fn name(&self) -> &str {
            "good"
        }
        fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            rt.println("result 42");
            rt.write_file("o.dat", vec![4, 2]);
            Ok(())
        }
    }

    struct Bad;
    impl gpu_runtime::Program for Bad {
        fn name(&self) -> &str {
            "bad"
        }
        fn run(&self, _rt: &mut Runtime) -> Result<(), RuntimeError> {
            Err(RuntimeError::LaunchConfig("broken".into()))
        }
    }

    #[test]
    fn golden_captures_outputs() {
        let g = golden_run(&Good, RuntimeConfig::default()).expect("golden");
        assert_eq!(g.stdout, "result 42\n");
        assert_eq!(g.files["o.dat"], vec![4, 2]);
        assert_eq!(g.max_launch_instrs(), 0);
        assert_eq!(g.suggested_budget(), 100_000, "floor applies");
    }

    #[test]
    fn prepared_golden_without_checkpoints_replays_from_launch_zero() {
        let g = PreparedGolden::new(&Good, RuntimeConfig::default(), false).expect("golden");
        assert!(g.checkpoints.is_empty());
        assert_eq!(g.config.instr_budget, Some(100_000), "budget derived from golden");
        let site = TransientParams {
            group: crate::InstrGroup::Gp,
            bit_flip: crate::BitFlipModel::FlipSingleBit,
            kernel_name: "any".into(),
            kernel_count: 0,
            instruction_count: 0,
            destination_register: 0.0,
            bit_pattern: 0.0,
        };
        assert_eq!(g.target_launch(&[site]), 0, "no checkpoints: every run is a full replay");
        let params = crate::PermanentParams { sm_id: 0, lane_id: 0, bit_mask: 1, opcode_id: 0 };
        let (tool, _) = crate::PermanentInjector::new(params);
        let (outcome, skipped) = g.inject(&Good, &crate::ExactDiff, Box::new(tool), 0);
        assert!(outcome.is_masked());
        assert_eq!(skipped, 0);
    }

    #[test]
    fn golden_rejects_failing_program() {
        let err = golden_run(&Bad, RuntimeConfig::default()).unwrap_err();
        assert!(matches!(err, FiError::GoldenRunFailed { .. }));
    }
}
