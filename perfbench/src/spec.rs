//! The benchmark's workloads and how a `--seed` becomes their inputs.

use workloads::Scale;

/// Worker slots for every campaign: fixed, so numbers compare across hosts
/// with different core counts (the reference host has two).
pub const WORKERS: usize = 2;

/// Number of distinct input variants. Every repetition of a run with
/// `--seed N` uses variant `N % VARIANTS`, so the inputs do not depend on
/// how many repetitions fit; the verdict reference covers every variant, so
/// every repetition's verdicts are checked.
pub const VARIANTS: u64 = 16;

/// How a workload's campaigns execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Transient campaigns on in-process worker threads.
    Thread,
    /// Transient campaigns on supervised worker processes.
    Process,
    /// Per-opcode permanent campaigns.
    Permanent,
}

/// One workload: which campaigns a repetition runs.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub scale: Scale,
    pub programs: Vec<&'static str>,
    /// Injections per program (transient kinds only).
    pub injections: usize,
    /// Golden runs per program and repetition behind `sim_instrs_per_s`;
    /// more for tiny test-scale programs so the rate is not all timer noise.
    pub golden_reps: usize,
}

/// Names of the workloads, in the order the steadiness mode runs them.
pub const WORKLOADS: [&str; 3] = ["transient-suite", "process-short", "permanent-suite"];

const PROCESS_PROGRAMS: [&str; 3] = ["314.omriq", "359.miniGhost", "370.bt"];

fn all_programs() -> Vec<&'static str> {
    workloads::suite(Scale::Test).iter().map(|e| e.name).collect()
}

/// The workload called `name`; `smoke` shrinks it to test scale and a
/// handful of injections so the whole benchmark path runs in seconds.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let s = match (name, smoke) {
        ("transient-suite", false) => Spec {
            name: "transient-suite",
            kind: Kind::Thread,
            scale: Scale::Paper,
            programs: all_programs(),
            injections: 100,
            golden_reps: 2,
        },
        ("transient-suite", true) => Spec {
            name: "transient-suite",
            kind: Kind::Thread,
            scale: Scale::Test,
            programs: all_programs(),
            injections: 4,
            golden_reps: 1,
        },
        ("process-short", false) => Spec {
            name: "process-short",
            kind: Kind::Process,
            scale: Scale::Test,
            programs: PROCESS_PROGRAMS.to_vec(),
            injections: 400,
            golden_reps: 70,
        },
        ("process-short", true) => Spec {
            name: "process-short",
            kind: Kind::Process,
            scale: Scale::Test,
            programs: PROCESS_PROGRAMS.to_vec(),
            injections: 8,
            golden_reps: 1,
        },
        ("permanent-suite", false) => Spec {
            name: "permanent-suite",
            kind: Kind::Permanent,
            scale: Scale::Paper,
            programs: all_programs(),
            injections: 0,
            golden_reps: 2,
        },
        ("permanent-suite", true) => Spec {
            name: "permanent-suite",
            kind: Kind::Permanent,
            scale: Scale::Test,
            programs: all_programs(),
            injections: 0,
            golden_reps: 1,
        },
        _ => return None,
    };
    Some(s)
}

/// The campaign seed of an input variant.
pub fn campaign_seed(variant: u64) -> u64 {
    0x5EED_0000 + variant
}

/// The scale's name as the worker protocol spells it.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Test => "test",
    }
}

/// The workload name a reference row is filed under.
pub fn reference_key(spec: &Spec, smoke: bool) -> String {
    if smoke {
        format!("smoke/{}", spec.name)
    } else {
        spec.name.to_string()
    }
}
