#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # gpu-analysis — static dataflow analysis over `gpu-isa` kernels
//!
//! Classic compiler dataflow, applied to fault injection. NVBitFI corrupts
//! the *destination register* of a dynamic SASS instruction, so whether a
//! flip can ever propagate is a pure dataflow question: if the corrupted
//! register is dead — overwritten or never read before the thread exits —
//! the outcome is provably Masked without simulating anything.
//!
//! The crate provides, over decoded [`gpu_isa::Kernel`]s:
//!
//! * basic-block control-flow graphs ([`Cfg`]) covering branches,
//!   predicated control flow, and EXIT/trap edges,
//! * per-instruction def/use sets (via [`gpu_isa::Instr::defs`] /
//!   [`gpu_isa::Instr::uses`]) packed into [`RegSet`] bitsets,
//! * a backward liveness fixpoint ([`Liveness`]) and a forward
//!   reaching-definitions fixpoint ([`ReachingDefs`]),
//! * dominator and post-dominator trees ([`dom::Dominators`]),
//! * a thread-divergence taint analysis ([`dataflow::divergent_slots`]),
//! * and a kernel linter ([`lint::lint_kernel`]) built on all of the
//!   above: uninitialized reads, unreachable blocks, missing `EXIT`,
//!   writes to `RZ`/`PT`, dead writes, and barriers under divergent
//!   control flow.
//!
//! Soundness contract for pruning: [`Liveness::live_out`] at a program
//! counter is a superset of every register unit any thread can read after
//! that instruction completes, *within the same thread*, along any
//! architecturally possible path. Cross-lane reads (`SHFL`/`VOTE`/
//! `FSWZADD` read other lanes' operands) are covered separately by
//! [`dataflow::cross_lane_uses`], which callers must union into every
//! query. CFGs containing indirect branches or call/return
//! ([`Cfg::precise`] is `false`) must not be used for pruning.

pub mod cfg;
pub mod dataflow;
pub mod dom;
pub mod lint;
pub mod set;

pub use cfg::{BasicBlock, Cfg};
pub use dataflow::{cross_lane_uses, divergent_slots, Liveness, ReachingDefs, UseInit};
pub use dom::Dominators;
pub use lint::{lint_kernel, lint_module, render_json, render_text, Finding, Severity};
pub use set::RegSet;
