//! The golden (fault-free) reference run — Figure 1's "golden output state".

use crate::error::FiError;
use crate::outcome::{classify, Outcome, SdcCheck};
use crate::params::{PermanentParams, TransientParams};
use crate::profile::{Profile, ProfilingMode};
use crate::prune::sites_may_prune;
use gpu_isa::{Kernel, Module, Operand, SpecialReg};
use gpu_runtime::{
    run_program, run_program_fast_forward, run_program_golden, CheckpointStore, Program,
    ProgramOutput, RunSummary, RuntimeConfig, Tool,
};
use gpu_sim::LaneTable;
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
    let (out, capture) = run_program_golden(program, cfg, true);
    Ok((validate(program, out)?, capture.ledger))
}

/// A golden run made ready for injection runs: the reference outputs, the
/// golden ledger injection runs replay from, and the budgeted runtime
/// configuration every injection run uses. The ledger also holds each
/// launch's opcode counts, and the same simulation keeps the loaded
/// modules and the lanes that executed each opcode on each SM, so
/// campaign setup takes its profile ([`PreparedGolden::profile`]), its
/// pruning pre-check ([`PreparedGolden::may_prune`]) and the permanent
/// faults that cannot activate ([`PreparedGolden::may_activate`]) from it
/// instead of simulating the program again.
///
/// Without checkpoints the ledger holds no memory, so nothing replays and
/// every injection run simulates in full — the `--no-checkpoint` escape
/// hatch is a parameter of the one run path, not a second path.
#[derive(Debug, Clone)]
pub struct PreparedGolden {
    /// The reference outputs, without per-launch records: those are the
    /// ledger's ([`PreparedGolden::into_output`] puts them back).
    output: GoldenOutput,
    /// The golden ledger: one entry per launch, with memory only when
    /// checkpoints are recorded.
    pub(crate) checkpoints: Arc<CheckpointStore>,
    /// Runtime configuration for injection runs: the golden run's, plus the
    /// hang-detection budget derived from it.
    pub(crate) config: RuntimeConfig,
    /// The modules the golden run loaded.
    modules: Vec<Arc<Module>>,
    /// The lanes that executed each opcode on each SM in the golden run.
    lanes: LaneTable,
    /// Whether some loaded kernel reads `SR_CLOCKLO`.
    reads_clock: bool,
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
        let (out, capture) = run_program_golden(program, cfg.clone(), record_checkpoints);
        let mut output = validate(program, out)?;
        let mut config = cfg;
        config.instr_budget = Some(output.suggested_budget());
        // The ledger holds the launch records: keep one copy while the
        // campaign runs.
        output.summary.launches = Vec::new();
        let reads_clock = capture.modules.iter().flat_map(|m| m.kernels()).any(reads_clock);
        Ok(PreparedGolden {
            output,
            checkpoints: capture.ledger.into_shared(),
            config,
            modules: capture.modules,
            lanes: capture.lanes,
            reads_clock,
        })
    }

    /// The program's profile, built from the ledger's opcode counts:
    /// identical to what [`crate::profile_program`] measures in `mode`,
    /// without another run.
    pub fn profile(&self, mode: ProfilingMode) -> Profile {
        Profile::from_counts(mode, self.checkpoints.iter().map(|c| (&c.record, &c.opcodes[..])))
    }

    /// The reference outputs, with the ledger's launch records.
    pub(crate) fn into_output(self) -> GoldenOutput {
        let mut output = self.output;
        output.summary.launches = self.checkpoints.records().cloned().collect();
        output
    }

    /// `false` when static pruning is certain to flag none of `sites`, each
    /// judged in its own group from the kernel it targets — so a campaign
    /// can skip its resolver run. `true` means it might.
    pub fn may_prune(&self, sites: &[TransientParams]) -> bool {
        sites_may_prune(&self.modules, sites)
    }

    /// `false` when the permanent fault `params` is certain never to
    /// activate: its opcode never executed on its SM and lane in the golden
    /// run, so the run has no opportunity and is the golden run,
    /// instruction for instruction — Masked, with no activations. A
    /// program that reads `SR_CLOCKLO` always may: the injector's hooks
    /// add cycles wherever its opcode runs, and the clock shows them.
    pub fn may_activate(&self, params: &PermanentParams) -> bool {
        self.reads_clock || self.lanes.executed(params.opcode(), params.sm_id, params.lane_id)
    }

    /// Run `program` with `tool` attached and classify the run against the
    /// golden outputs. Every launch `tool` declines whose inputs are still
    /// golden's replays from the ledger: the whole prefix before the first
    /// launch it instruments, and each later launch the fault has not
    /// reached. Returns the outcome and the run's output, which counts the
    /// replayed work.
    pub fn inject(
        &self,
        program: &dyn Program,
        check: &dyn SdcCheck,
        tool: Box<dyn Tool>,
    ) -> (Outcome, ProgramOutput) {
        let out = run_program_fast_forward(
            program,
            self.config.clone(),
            Some(tool),
            Arc::clone(&self.checkpoints),
            self.checkpoints.len() as u64,
        );
        (classify(&self.output, &out, check), out)
    }
}

/// `true` if some instruction of `kernel` reads `SR_CLOCKLO`.
fn reads_clock(kernel: &Kernel) -> bool {
    kernel.instrs().iter().any(|i| i.srcs.contains(&Operand::Sr(SpecialReg::ClockLo)))
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
        let (tool, _) = crate::TransientInjector::new(site);
        let (outcome, out) = g.inject(&Good, &crate::ExactDiff, Box::new(tool));
        assert!(outcome.is_masked());
        assert_eq!(out.prefix_instrs_skipped, 0, "no checkpoints: every run is a full replay");
        let params = crate::PermanentParams { sm_id: 0, lane_id: 0, bit_mask: 1, opcode_id: 0 };
        let (tool, _) = crate::PermanentInjector::new(params);
        let (outcome, out) = g.inject(&Good, &crate::ExactDiff, Box::new(tool));
        assert!(outcome.is_masked());
        assert_eq!(out.prefix_instrs_skipped, 0);
    }

    #[test]
    fn golden_rejects_failing_program() {
        let err = golden_run(&Bad, RuntimeConfig::default()).unwrap_err();
        assert!(matches!(err, FiError::GoldenRunFailed { .. }));
    }
}
