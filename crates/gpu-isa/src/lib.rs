#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # gpu-isa — a SASS-like GPU instruction-set architecture
//!
//! This crate defines the instruction-set architecture executed by the
//! [`gpu-sim`](https://docs.rs/gpu-sim) architectural simulator and targeted
//! by the NVBitFI reproduction. It models the *architecturally visible*
//! surface of an NVIDIA-style GPU ISA ("SASS"):
//!
//! * 256 general-purpose 32-bit registers per thread ([`Reg`]), with `R255`
//!   hard-wired to zero (`RZ`),
//! * 8 predicate registers ([`PReg`]), with `P7` hard-wired to true (`PT`),
//! * a table of **171 opcodes** ([`Opcode`]) — the opcode count the NVBitFI
//!   paper reports for the Volta ISA — each tagged with an instruction class
//!   used by fault-injection grouping,
//! * guarded (predicated) instructions ([`Instr`], [`Guard`]),
//! * a fixed-width binary encoding ([`encode`]) so that kernels can be
//!   shipped as *binaries* with no source, which is the usage model NVBitFI
//!   is built around,
//! * an assembler DSL ([`asm::KernelBuilder`]) and a disassembler
//!   ([`disasm`]).
//!
//! The ISA is deliberately simpler than real SASS (32-bit addresses, label
//! branch targets resolved to instruction indices) but preserves everything
//! fault injection at the SASS level observes: opcodes, destination
//! registers, predication, and memory accesses.
//!
//! ## Example
//!
//! ```
//! use gpu_isa::asm::KernelBuilder;
//! use gpu_isa::{Opcode, Reg, SpecialReg};
//!
//! let mut k = KernelBuilder::new("vecadd");
//! let [tid, a, b, c] = [Reg(0), Reg(1), Reg(2), Reg(3)];
//! k.s2r(tid, SpecialReg::TidX);
//! k.ldg(a, Reg(4), 0); // R4 holds the base address (set up by the host ABI)
//! let kernel = k.finish();
//! assert_eq!(kernel.name(), "vecadd");
//! assert!(kernel.instrs().len() >= 2);
//! assert_eq!(kernel.instrs()[1].op, Opcode::LDG);
//! ```

pub mod asm;
pub mod asm_text;
pub mod disasm;
pub mod encode;
mod error;
pub mod half;
mod instr;
mod modifier;
mod opcode;
mod reg;

pub use error::IsaError;
pub use instr::{Dst, Guard, Instr, Kernel, MemRef, Module, Operand, RegSlot, Space};
pub use modifier::{AtomOp, BoolOp, CmpOp, MemWidth, Modifier, MufuFunc, RoundMode, ShflMode};
pub use opcode::{ExecFamily, InstrClass, Opcode};
pub use reg::{PReg, Reg, SpecialReg};

/// Number of hardware lanes in a warp.
///
/// All NVIDIA architectures covered by the paper (Kepler through Ampere) use
/// 32-thread warps, and the permanent-fault model's *lane id* parameter is
/// defined over `0..32` (Table III).
pub const WARP_SIZE: usize = 32;

/// Total number of opcodes in the ISA.
///
/// Matches the paper's statement that "the Volta ISA contains 171 opcodes"
/// (Table III), so a permanent-fault campaign that sweeps every opcode runs
/// exactly 171 experiments per program.
pub const OPCODE_COUNT: usize = opcode::OPCODE_COUNT;
