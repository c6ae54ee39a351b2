#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # workloads — a SpecACCEL-analog benchmark suite
//!
//! Fifteen synthetic HPC programs mirroring the *structure* of the
//! SpecACCEL OpenACC v1.2 suite the NVBitFI paper evaluates on (Table IV):
//! the same static/dynamic kernel-count shape, a comparable mix of domains
//! (stencils, LBM, molecular dynamics, CG, line sweeps, …), per-program
//! golden outputs, and a per-program SDC-checking script — "SDC checking
//! scripts must always be provided by the user" (§IV-A).
//!
//! Each program is an opaque [`gpu_runtime::Program`]: host logic that
//! loads *binary* kernel modules and launches kernels. Fault-injection
//! tools attach to the runtime without the programs' knowledge.
//!
//! Use [`suite::suite`] for the full Table IV registry, or individual
//! program types ([`ostencil::Ostencil`], …) directly.
//!
//! ```
//! use workloads::{suite, Scale};
//! use gpu_runtime::{run_program, RuntimeConfig};
//!
//! let entry = suite::find(Scale::Test, "303.ostencil").expect("program exists");
//! let out = run_program(entry.program.as_ref(), RuntimeConfig::default(), None);
//! assert!(out.termination.is_clean());
//! ```

pub mod bt;
pub mod cg;
pub mod clvrleaf;
mod common;
pub mod ep;
pub mod ilbdc;
pub mod kernels;
pub mod md;
pub mod minighost;
pub mod olbm;
pub mod omriq;
pub mod ostencil;
pub mod palm;
pub mod seismic;
pub mod sp;
pub mod suite;
pub mod swim;

pub use common::{FileElem, Scale, TolerantCheck};
pub use suite::{find, suite, BenchEntry};
