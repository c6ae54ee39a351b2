//! The program abstraction: a host application driving the runtime.

use crate::checkpoint::{CheckpointStore, TailReplay};
use crate::error::RuntimeError;
use crate::runtime::{Runtime, RuntimeConfig};
use crate::tool::{RunSummary, Tool};
use gpu_isa::Module;
use gpu_sim::{LaneTable, TrapInfo};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a program run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Termination {
    /// The process exited with a status code (0 = success).
    Normal {
        /// The exit status.
        exit_code: i32,
    },
    /// The external monitor killed the process after a detected hang.
    Hang,
    /// The process aborted (OS-detected crash), e.g. an abort-on-error host
    /// observing a device fault.
    Crash,
    /// The harness killed the process at its wall-clock deadline
    /// ([`crate::RuntimeConfig::wall_deadline`]). An infrastructure verdict
    /// about the experiment run, not an observation about the program —
    /// outcome classification must not fold it into the DUE taxonomy.
    DeadlineExceeded,
}

impl Termination {
    /// `true` for a clean, zero-status exit.
    pub fn is_clean(&self) -> bool {
        matches!(self, Termination::Normal { exit_code: 0 })
    }
}

/// Everything observable about one program run — the inputs to outcome
/// classification (paper Table V): standard output, output files, exit
/// status, device anomalies, and execution statistics.
#[derive(Debug, Clone)]
pub struct ProgramOutput {
    /// Captured standard output.
    pub stdout: String,
    /// Output files, keyed by name.
    pub files: BTreeMap<String, Vec<u8>>,
    /// How the process ended.
    pub termination: Termination,
    /// Device anomalies (trap log), whether or not the host checked them.
    pub anomalies: Vec<TrapInfo>,
    /// Launch-level statistics.
    pub summary: RunSummary,
    /// Dynamic instructions the run replayed from the golden ledger
    /// before its first simulated launch — the pre-injection prefix (0 for
    /// ordinary runs).
    pub prefix_instrs_skipped: u64,
    /// Launches, and their dynamic instructions, replayed from the golden
    /// ledger after the run's first simulated launch.
    pub tail_replayed: TailReplay,
}

impl ProgramOutput {
    /// `true` if any device anomaly was recorded — the "CUDA error /
    /// dmesg" signal behind potential-DUE classification.
    pub fn has_anomaly(&self) -> bool {
        !self.anomalies.is_empty()
    }
}

/// A GPU application: host logic that loads module binaries, manages device
/// memory, launches kernels, and emits output.
///
/// Implementations correspond to the paper's SpecACCEL benchmark programs;
/// the fault-injection campaign treats them as opaque (it never sees kernel
/// "source", only the module binaries the program loads).
pub trait Program: Sync {
    /// The program's name (e.g. `"303.ostencil"`).
    fn name(&self) -> &str;

    /// Run the host application to completion against `rt`.
    ///
    /// # Errors
    ///
    /// Any error returned here is the program exiting with non-zero status —
    /// an *application-detected* DUE in the paper's taxonomy.
    fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError>;
}

/// What a campaign's golden run captures beside its output: everything
/// campaign setup needs, from one simulation.
#[derive(Debug, Default)]
pub struct GoldenCapture {
    /// The golden ledger: one entry per launch, with the bytes each launch
    /// read and wrote only if recorded ([`Runtime::record_ledger`]).
    pub ledger: CheckpointStore,
    /// The lanes that executed each opcode on each SM, over the whole run.
    pub lanes: LaneTable,
    /// The modules the program loaded, in load order.
    pub modules: Vec<Arc<Module>>,
}

/// Run a program to termination, optionally with an attached tool, and
/// collect its observable output.
///
/// This is the campaign's unit of execution: one process launch, one
/// [`ProgramOutput`].
pub fn run_program(
    program: &dyn Program,
    cfg: RuntimeConfig,
    tool: Option<Box<dyn Tool>>,
) -> ProgramOutput {
    let mut rt = Runtime::new(cfg);
    if let Some(t) = tool {
        rt.attach_tool(t);
    }
    drive(program, rt).0
}

/// Run a program as a campaign's golden run: record its ledger — each
/// launch's record and executed opcodes, plus, if `record_checkpoints`, the
/// params, geometry and bytes read and written that injection runs replay
/// from — and the run's executed-lane table, and keep the loaded modules.
pub fn run_program_golden(
    program: &dyn Program,
    cfg: RuntimeConfig,
    record_checkpoints: bool,
) -> (ProgramOutput, GoldenCapture) {
    let mut rt = Runtime::new(cfg);
    rt.record_ledger(record_checkpoints);
    drive(program, rt)
}

/// Run a program replaying, from a golden ledger, every launch the replay
/// rule allows below global index `upto` instead of simulating it: the
/// injection-run fast path ([`Runtime::fast_forward`]). That is the
/// prefix before the first launch `tool` instruments, and every later
/// launch `tool` declines whose inputs are still golden's.
/// `out.prefix_instrs_skipped` and `out.tail_replayed` report the avoided
/// work.
pub fn run_program_fast_forward(
    program: &dyn Program,
    cfg: RuntimeConfig,
    tool: Option<Box<dyn Tool>>,
    store: Arc<CheckpointStore>,
    upto: u64,
) -> ProgramOutput {
    let mut rt = Runtime::new(cfg);
    if let Some(t) = tool {
        rt.attach_tool(t);
    }
    rt.fast_forward(store, upto);
    drive(program, rt).0
}

/// Run `program` against the prepared runtime `rt` and collect what it
/// observed and captured.
fn drive(program: &dyn Program, mut rt: Runtime) -> (ProgramOutput, GoldenCapture) {
    let result = program.run(&mut rt);
    let summary = rt.finish();
    let termination = match &result {
        Ok(()) => Termination::Normal { exit_code: 0 },
        Err(RuntimeError::Hang(_)) => Termination::Hang,
        Err(RuntimeError::Deadline(_)) => Termination::DeadlineExceeded,
        Err(RuntimeError::DeviceAbort(_)) => Termination::Crash,
        // Governor kill: the sandbox terminates the victim like an OOM-kill,
        // which the OS (and thus Table V) records as a crash.
        Err(RuntimeError::ResourceLimit(_)) => Termination::Crash,
        Err(e) => {
            rt.println(format!("error: {e}"));
            Termination::Normal { exit_code: 1 }
        }
    };
    let (ledger, lanes) = rt.take_ledger().unwrap_or_default();
    let capture = GoldenCapture { ledger, lanes, modules: rt.modules().to_vec() };
    let prefix_instrs_skipped = rt.prefix_instrs_skipped();
    let tail_replayed = rt.tail_replayed();
    let (stdout, files, anomalies) = rt.into_output();
    let out = ProgramOutput {
        stdout,
        files,
        termination,
        anomalies,
        summary,
        prefix_instrs_skipped,
        tail_replayed,
    };
    (out, capture)
}
