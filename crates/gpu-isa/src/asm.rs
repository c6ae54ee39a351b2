//! A small assembler DSL for building kernels.
//!
//! [`KernelBuilder`] plays the role of the compiler back-end: workloads are
//! written against it, and [`KernelBuilder::finish`] produces a [`Kernel`]
//! that is then *encoded to bytes* ([`crate::encode`]) before the runtime
//! ever sees it — preserving NVBitFI's "binary only, no source" contract.
//!
//! Labels are forward-referenceable and resolved at `finish` time:
//!
//! ```
//! use gpu_isa::asm::KernelBuilder;
//! use gpu_isa::{CmpOp, Reg, PReg};
//!
//! let mut k = KernelBuilder::new("count_to_ten");
//! let (i, one) = (Reg(0), Reg(1));
//! k.movi(i, 0);
//! k.movi(one, 1);
//! let top = k.new_label();
//! k.bind(top);
//! k.iadd(i, i, one);
//! k.isetp(PReg(0), CmpOp::Lt, i, 10);
//! k.bra_if(PReg(0), top);
//! k.exit();
//! let kernel = k.finish();
//! assert_eq!(kernel.name(), "count_to_ten");
//! ```

use crate::{
    AtomOp, BoolOp, CmpOp, Dst, Guard, Instr, IsaError, Kernel, MemRef, MemWidth, Modifier,
    MufuFunc, Opcode, Operand, PReg, Reg, RoundMode, ShflMode, Space, SpecialReg,
};

/// A forward-referenceable code label.
///
/// Created by [`KernelBuilder::new_label`], placed by [`KernelBuilder::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Builder for a [`Kernel`].
///
/// Every instruction-emitting method returns `&mut Instr` so callers can
/// attach a guard or tweak operands:
///
/// ```
/// use gpu_isa::asm::KernelBuilder;
/// use gpu_isa::{Guard, PReg, Reg};
///
/// let mut k = KernelBuilder::new("guarded");
/// k.movi(Reg(0), 7).guard = Guard::if_true(PReg(1));
/// k.exit();
/// # let _ = k.finish();
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    instrs: Vec<Instr>,
    labels: Vec<Option<u32>>,
    fixups: Vec<(usize, Label)>,
    shared_bytes: u32,
}

impl KernelBuilder {
    /// Start building a kernel with the given name.
    pub fn new(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            name: name.into(),
            instrs: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            shared_bytes: 0,
        }
    }

    /// Declare the amount of per-block shared memory the kernel uses.
    pub fn shared_bytes(&mut self, bytes: u32) -> &mut Self {
        self.shared_bytes = bytes;
        self
    }

    /// Create a new, not-yet-placed label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Place a label at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound (use [`KernelBuilder::try_finish`]
    /// to surface assembler errors as values instead).
    pub fn bind(&mut self, l: Label) {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.instrs.len() as u32);
    }

    /// Current instruction index (useful for size assertions in tests).
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Append a raw instruction.
    pub fn push(&mut self, i: Instr) -> &mut Instr {
        self.instrs.push(i);
        self.instrs.last_mut().expect("just pushed")
    }

    fn emit(&mut self, op: Opcode, dsts: [Dst; 2], srcs: [Operand; 4]) -> &mut Instr {
        let mut i = Instr::new(op);
        i.dsts = dsts;
        i.srcs = srcs;
        self.push(i)
    }

    fn emit_branch(&mut self, op: Opcode, guard: Guard, label: Label) -> &mut Instr {
        let mut i = Instr::new(op);
        i.guard = guard;
        self.fixups.push((self.instrs.len(), label));
        self.push(i)
    }

    // --- data movement ---------------------------------------------------

    /// `MOV Rd, Ra`.
    pub fn mov(&mut self, d: Reg, a: Reg) -> &mut Instr {
        self.emit(
            Opcode::MOV,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::None, Operand::None, Operand::None],
        )
    }

    /// `MOV32I Rd, imm`.
    pub fn movi(&mut self, d: Reg, imm: u32) -> &mut Instr {
        self.emit(
            Opcode::MOV32I,
            [Dst::R(d), Dst::None],
            [Operand::Imm(imm), Operand::None, Operand::None, Operand::None],
        )
    }

    /// `MOV32I Rd, f32-bits`.
    pub fn movf(&mut self, d: Reg, v: f32) -> &mut Instr {
        self.movi(d, v.to_bits())
    }

    /// `S2R Rd, SR` — read a special register.
    pub fn s2r(&mut self, d: Reg, sr: SpecialReg) -> &mut Instr {
        self.emit(
            Opcode::S2R,
            [Dst::R(d), Dst::None],
            [Operand::Sr(sr), Operand::None, Operand::None, Operand::None],
        )
    }

    /// `SEL Rd, Ra, Rb, P` — `Rd = P ? Ra : Rb`.
    pub fn sel(&mut self, d: Reg, a: Reg, b: Reg, p: PReg) -> &mut Instr {
        self.emit(
            Opcode::SEL,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::P(p), Operand::None],
        )
    }

    /// `SHFL.mode Rd, Ra, lanes` — warp shuffle.
    pub fn shfl(&mut self, mode: ShflMode, d: Reg, a: Reg, lanes: u32) -> &mut Instr {
        let i = self.emit(
            Opcode::SHFL,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::Imm(lanes), Operand::None, Operand::None],
        );
        i.modifier = Modifier::Shfl(mode);
        i
    }

    // --- FP32 -------------------------------------------------------------

    /// `FADD Rd, Ra, Rb`.
    pub fn fadd(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Instr {
        self.emit(
            Opcode::FADD,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::None, Operand::None],
        )
    }

    /// `FADD32I Rd, Ra, imm`.
    pub fn faddi(&mut self, d: Reg, a: Reg, v: f32) -> &mut Instr {
        self.emit(
            Opcode::FADD32I,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::imm_f32(v), Operand::None, Operand::None],
        )
    }

    /// `FMUL Rd, Ra, Rb`.
    pub fn fmul(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Instr {
        self.emit(
            Opcode::FMUL,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::None, Operand::None],
        )
    }

    /// `FMUL32I Rd, Ra, imm`.
    pub fn fmuli(&mut self, d: Reg, a: Reg, v: f32) -> &mut Instr {
        self.emit(
            Opcode::FMUL32I,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::imm_f32(v), Operand::None, Operand::None],
        )
    }

    /// `FFMA Rd, Ra, Rb, Rc` — `Rd = Ra*Rb + Rc`.
    pub fn ffma(&mut self, d: Reg, a: Reg, b: Reg, c: Reg) -> &mut Instr {
        self.emit(
            Opcode::FFMA,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::R(c), Operand::None],
        )
    }

    /// `FMNMX Rd, Ra, Rb` (min when `min` is true).
    pub fn fmnmx(&mut self, d: Reg, a: Reg, b: Reg, min: bool) -> &mut Instr {
        let p = if min { Operand::P(PReg::PT) } else { Operand::NotP(PReg::PT) };
        self.emit(
            Opcode::FMNMX,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), p, Operand::None],
        )
    }

    /// `MUFU.func Rd, Ra`.
    pub fn mufu(&mut self, func: MufuFunc, d: Reg, a: Reg) -> &mut Instr {
        let i = self.emit(
            Opcode::MUFU,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::None, Operand::None, Operand::None],
        );
        i.modifier = Modifier::Func(func);
        i
    }

    /// `FSETP.cmp Pd, Ra, Rb`.
    pub fn fsetp(&mut self, p: PReg, cmp: CmpOp, a: Reg, b: Reg) -> &mut Instr {
        let i = self.emit(
            Opcode::FSETP,
            [Dst::P(p), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::None, Operand::None],
        );
        i.modifier = Modifier::Cmp(cmp);
        i
    }

    // --- packed FP16 (half2) --------------------------------------------------

    /// `HADD2 Rd, Ra, Rb` — per-half `f16` add.
    pub fn hadd2(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Instr {
        self.emit(
            Opcode::HADD2,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::None, Operand::None],
        )
    }

    /// `HMUL2 Rd, Ra, Rb` — per-half `f16` multiply.
    pub fn hmul2(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Instr {
        self.emit(
            Opcode::HMUL2,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::None, Operand::None],
        )
    }

    /// `HFMA2 Rd, Ra, Rb, Rc` — per-half `f16` fused multiply-add.
    pub fn hfma2(&mut self, d: Reg, a: Reg, b: Reg, c: Reg) -> &mut Instr {
        self.emit(
            Opcode::HFMA2,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::R(c), Operand::None],
        )
    }

    /// `HSETP2.cmp Pd, Ra, Rb` — compare both halves, AND-combined.
    pub fn hsetp2(&mut self, p: PReg, cmp: CmpOp, a: Reg, b: Reg) -> &mut Instr {
        let i = self.emit(
            Opcode::HSETP2,
            [Dst::P(p), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::None, Operand::None],
        );
        i.modifier = Modifier::Cmp(cmp);
        i
    }

    // --- FP64 (register pairs) ---------------------------------------------

    /// `DADD Rd.64, Ra.64, Rb.64`.
    pub fn dadd(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Instr {
        self.emit(
            Opcode::DADD,
            [Dst::R64(d), Dst::None],
            [Operand::R64(a), Operand::R64(b), Operand::None, Operand::None],
        )
    }

    /// `DMUL Rd.64, Ra.64, Rb.64`.
    pub fn dmul(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Instr {
        self.emit(
            Opcode::DMUL,
            [Dst::R64(d), Dst::None],
            [Operand::R64(a), Operand::R64(b), Operand::None, Operand::None],
        )
    }

    /// `DFMA Rd.64, Ra.64, Rb.64, Rc.64`.
    pub fn dfma(&mut self, d: Reg, a: Reg, b: Reg, c: Reg) -> &mut Instr {
        self.emit(
            Opcode::DFMA,
            [Dst::R64(d), Dst::None],
            [Operand::R64(a), Operand::R64(b), Operand::R64(c), Operand::None],
        )
    }

    // --- integer -------------------------------------------------------------

    /// `IADD Rd, Ra, Rb`.
    pub fn iadd(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Instr {
        self.emit(
            Opcode::IADD,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::None, Operand::None],
        )
    }

    /// `IADD32I Rd, Ra, imm`.
    pub fn iaddi(&mut self, d: Reg, a: Reg, imm: i32) -> &mut Instr {
        self.emit(
            Opcode::IADD32I,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::imm_i32(imm), Operand::None, Operand::None],
        )
    }

    /// `ISUB Rd, Ra, Rb`.
    pub fn isub(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Instr {
        self.emit(
            Opcode::ISUB,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::None, Operand::None],
        )
    }

    /// `IADD3 Rd, Ra, Rb, Rc`.
    pub fn iadd3(&mut self, d: Reg, a: Reg, b: Reg, c: Reg) -> &mut Instr {
        self.emit(
            Opcode::IADD3,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::R(c), Operand::None],
        )
    }

    /// `IMAD Rd, Ra, Rb, Rc` — `Rd = Ra*Rb + Rc` (low 32 bits).
    pub fn imad(&mut self, d: Reg, a: Reg, b: Reg, c: Reg) -> &mut Instr {
        self.emit(
            Opcode::IMAD,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::R(c), Operand::None],
        )
    }

    /// `IMUL Rd, Ra, Rb` (low 32 bits).
    pub fn imul(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Instr {
        self.emit(
            Opcode::IMUL,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::None, Operand::None],
        )
    }

    /// `SHL Rd, Ra, imm`.
    pub fn shli(&mut self, d: Reg, a: Reg, sh: u32) -> &mut Instr {
        self.emit(
            Opcode::SHL,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::Imm(sh), Operand::None, Operand::None],
        )
    }

    /// `SHR Rd, Ra, imm` (logical).
    pub fn shri(&mut self, d: Reg, a: Reg, sh: u32) -> &mut Instr {
        self.emit(
            Opcode::SHR,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::Imm(sh), Operand::None, Operand::None],
        )
    }

    /// `LOP3.LUT Rd, Ra, Rb, Rc` with an explicit truth table.
    pub fn lop3(&mut self, d: Reg, a: Reg, b: Reg, c: Reg, lut: u8) -> &mut Instr {
        let i = self.emit(
            Opcode::LOP3,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::R(c), Operand::None],
        );
        i.modifier = Modifier::Lut(lut);
        i
    }

    /// `LOP3` configured as bitwise AND of `Ra` and `Rb`.
    pub fn and(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Instr {
        self.lop3(d, a, b, Reg::RZ, 0xC0)
    }

    /// `LOP3` configured as bitwise OR of `Ra` and `Rb`.
    pub fn or(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Instr {
        self.lop3(d, a, b, Reg::RZ, 0xFC)
    }

    /// `LOP3` configured as bitwise XOR of `Ra` and `Rb`.
    pub fn xor(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Instr {
        self.lop3(d, a, b, Reg::RZ, 0x3C)
    }

    /// `ISETP.cmp Pd, Ra, imm`.
    pub fn isetp(&mut self, p: PReg, cmp: CmpOp, a: Reg, imm: i32) -> &mut Instr {
        let i = self.emit(
            Opcode::ISETP,
            [Dst::P(p), Dst::None],
            [Operand::R(a), Operand::imm_i32(imm), Operand::None, Operand::None],
        );
        i.modifier = Modifier::Cmp(cmp);
        i
    }

    /// `ISETP.cmp Pd, Ra, Rb` (register compare).
    pub fn isetp_r(&mut self, p: PReg, cmp: CmpOp, a: Reg, b: Reg) -> &mut Instr {
        let i = self.emit(
            Opcode::ISETP,
            [Dst::P(p), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::None, Operand::None],
        );
        i.modifier = Modifier::Cmp(cmp);
        i
    }

    /// `ISETP.cmp.bool Pd, Ra, Rb, Pc` (compare combined with a predicate).
    pub fn isetp_bool(
        &mut self,
        p: PReg,
        cmp: CmpOp,
        boolop: BoolOp,
        a: Reg,
        b: Reg,
        c: PReg,
    ) -> &mut Instr {
        let i = self.emit(
            Opcode::ISETP,
            [Dst::P(p), Dst::None],
            [Operand::R(a), Operand::R(b), Operand::P(c), Operand::None],
        );
        i.modifier = Modifier::CmpBool(cmp, boolop);
        i
    }

    // --- conversions -----------------------------------------------------------

    /// `I2F Rd, Ra` — `f32` from signed `i32`.
    pub fn i2f(&mut self, d: Reg, a: Reg) -> &mut Instr {
        self.emit(
            Opcode::I2F,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::None, Operand::None, Operand::None],
        )
    }

    /// `I2F.64 Rd.64, Ra` — `f64` from signed `i32`.
    pub fn i2d(&mut self, d: Reg, a: Reg) -> &mut Instr {
        let i = self.emit(
            Opcode::I2F,
            [Dst::R64(d), Dst::None],
            [Operand::R(a), Operand::None, Operand::None, Operand::None],
        );
        i.modifier = Modifier::Width(MemWidth::B64);
        i
    }

    /// `F2I.round Rd, Ra` — signed `i32` from `f32`.
    pub fn f2i(&mut self, d: Reg, a: Reg, round: RoundMode) -> &mut Instr {
        let i = self.emit(
            Opcode::F2I,
            [Dst::R(d), Dst::None],
            [Operand::R(a), Operand::None, Operand::None, Operand::None],
        );
        i.modifier = Modifier::Round(round);
        i
    }

    /// `F2F.64 Rd.64, Ra` — widen `f32` to `f64`.
    pub fn f2d(&mut self, d: Reg, a: Reg) -> &mut Instr {
        let i = self.emit(
            Opcode::F2F,
            [Dst::R64(d), Dst::None],
            [Operand::R(a), Operand::None, Operand::None, Operand::None],
        );
        i.modifier = Modifier::Width(MemWidth::B64);
        i
    }

    /// `F2F.32 Rd, Ra.64` — narrow `f64` to `f32`.
    pub fn d2f(&mut self, d: Reg, a: Reg) -> &mut Instr {
        let i = self.emit(
            Opcode::F2F,
            [Dst::R(d), Dst::None],
            [Operand::R64(a), Operand::None, Operand::None, Operand::None],
        );
        i.modifier = Modifier::Width(MemWidth::B32);
        i
    }

    // --- memory -------------------------------------------------------------

    fn mem(base: Reg, offset: i16, space: Space) -> Operand {
        Operand::Mem(MemRef { base, offset, space })
    }

    /// `LDG Rd, [Ra+off]` — 32-bit global load.
    pub fn ldg(&mut self, d: Reg, base: Reg, off: i16) -> &mut Instr {
        let i = self.emit(
            Opcode::LDG,
            [Dst::R(d), Dst::None],
            [Self::mem(base, off, Space::Global), Operand::None, Operand::None, Operand::None],
        );
        i.modifier = Modifier::Width(MemWidth::B32);
        i
    }

    /// `LDG.64 Rd.64, [Ra+off]` — 64-bit global load into a register pair.
    pub fn ldg64(&mut self, d: Reg, base: Reg, off: i16) -> &mut Instr {
        let i = self.emit(
            Opcode::LDG,
            [Dst::R64(d), Dst::None],
            [Self::mem(base, off, Space::Global), Operand::None, Operand::None, Operand::None],
        );
        i.modifier = Modifier::Width(MemWidth::B64);
        i
    }

    /// `STG [Ra+off], Rb` — 32-bit global store.
    pub fn stg(&mut self, base: Reg, off: i16, v: Reg) -> &mut Instr {
        let i = self.emit(
            Opcode::STG,
            [Dst::None, Dst::None],
            [Self::mem(base, off, Space::Global), Operand::R(v), Operand::None, Operand::None],
        );
        i.modifier = Modifier::Width(MemWidth::B32);
        i
    }

    /// `STG.64 [Ra+off], Rb.64` — 64-bit global store of a register pair.
    pub fn stg64(&mut self, base: Reg, off: i16, v: Reg) -> &mut Instr {
        let i = self.emit(
            Opcode::STG,
            [Dst::None, Dst::None],
            [Self::mem(base, off, Space::Global), Operand::R64(v), Operand::None, Operand::None],
        );
        i.modifier = Modifier::Width(MemWidth::B64);
        i
    }

    /// `LDS Rd, [Ra+off]` — 32-bit shared-memory load.
    pub fn lds(&mut self, d: Reg, base: Reg, off: i16) -> &mut Instr {
        let i = self.emit(
            Opcode::LDS,
            [Dst::R(d), Dst::None],
            [Self::mem(base, off, Space::Shared), Operand::None, Operand::None, Operand::None],
        );
        i.modifier = Modifier::Width(MemWidth::B32);
        i
    }

    /// `STS [Ra+off], Rb` — 32-bit shared-memory store.
    pub fn sts(&mut self, base: Reg, off: i16, v: Reg) -> &mut Instr {
        let i = self.emit(
            Opcode::STS,
            [Dst::None, Dst::None],
            [Self::mem(base, off, Space::Shared), Operand::R(v), Operand::None, Operand::None],
        );
        i.modifier = Modifier::Width(MemWidth::B32);
        i
    }

    /// `LDC Rd, [off]` — 32-bit constant load (kernel parameters).
    pub fn ldc(&mut self, d: Reg, off: i16) -> &mut Instr {
        let i = self.emit(
            Opcode::LDC,
            [Dst::R(d), Dst::None],
            [Self::mem(Reg::RZ, off, Space::Const), Operand::None, Operand::None, Operand::None],
        );
        i.modifier = Modifier::Width(MemWidth::B32);
        i
    }

    /// `ATOMG.op Rd, [Ra+off], Rb` — global atomic returning the old value.
    pub fn atomg(&mut self, op: AtomOp, d: Reg, base: Reg, off: i16, v: Reg) -> &mut Instr {
        let i = self.emit(
            Opcode::ATOMG,
            [Dst::R(d), Dst::None],
            [Self::mem(base, off, Space::Global), Operand::R(v), Operand::None, Operand::None],
        );
        i.modifier = Modifier::AtomOp(op);
        i
    }

    /// `RED.op [Ra+off], Rb` — global reduction, no return value.
    pub fn red(&mut self, op: AtomOp, base: Reg, off: i16, v: Reg) -> &mut Instr {
        let i = self.emit(
            Opcode::RED,
            [Dst::None, Dst::None],
            [Self::mem(base, off, Space::Global), Operand::R(v), Operand::None, Operand::None],
        );
        i.modifier = Modifier::AtomOp(op);
        i
    }

    // --- control flow ------------------------------------------------------

    /// Unconditional `BRA label`.
    pub fn bra(&mut self, label: Label) -> &mut Instr {
        self.emit_branch(Opcode::BRA, Guard::ALWAYS, label)
    }

    /// `@P BRA label`.
    pub fn bra_if(&mut self, p: PReg, label: Label) -> &mut Instr {
        self.emit_branch(Opcode::BRA, Guard::if_true(p), label)
    }

    /// `@!P BRA label`.
    pub fn bra_ifnot(&mut self, p: PReg, label: Label) -> &mut Instr {
        self.emit_branch(Opcode::BRA, Guard::if_false(p), label)
    }

    /// `BAR.SYNC` — block-wide barrier.
    pub fn bar(&mut self) -> &mut Instr {
        self.push(Instr::new(Opcode::BAR))
    }

    /// `EXIT` — thread termination.
    pub fn exit(&mut self) -> &mut Instr {
        self.push(Instr::new(Opcode::EXIT))
    }

    /// `NOP`.
    pub fn nop(&mut self) -> &mut Instr {
        self.push(Instr::new(Opcode::NOP))
    }

    // --- finishing -----------------------------------------------------------

    /// Resolve labels and produce the [`Kernel`].
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnresolvedLabel`] if a referenced label was never
    /// bound and propagates [`Kernel::new`] validation errors.
    pub fn try_finish(self) -> Result<Kernel, IsaError> {
        let KernelBuilder { name, mut instrs, labels, fixups, shared_bytes } = self;
        for (idx, label) in fixups {
            let target = labels[label.0]
                .ok_or_else(|| IsaError::UnresolvedLabel { label: format!("L{}", label.0) })?;
            instrs[idx].target = target;
        }
        Kernel::new(name, instrs, shared_bytes)
    }

    /// Resolve labels and produce the [`Kernel`].
    ///
    /// # Panics
    ///
    /// Panics on unresolved labels or invalid kernels; use
    /// [`KernelBuilder::try_finish`] to handle these as errors.
    pub fn finish(self) -> Kernel {
        match self.try_finish() {
            Ok(k) => k,
            Err(e) => panic!("kernel assembly failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Opcode;

    #[test]
    fn forward_branch_resolves() {
        let mut k = KernelBuilder::new("fwd");
        let end = k.new_label();
        k.bra(end);
        k.movi(Reg(0), 1);
        k.bind(end);
        k.exit();
        let kernel = k.finish();
        assert_eq!(kernel.instrs()[0].op, Opcode::BRA);
        assert_eq!(kernel.instrs()[0].target, 2);
    }

    #[test]
    fn backward_branch_resolves() {
        let mut k = KernelBuilder::new("bwd");
        let top = k.new_label();
        k.bind(top);
        k.iaddi(Reg(0), Reg(0), 1);
        k.bra(top);
        k.exit();
        let kernel = k.finish();
        assert_eq!(kernel.instrs()[1].target, 0);
    }

    #[test]
    fn unresolved_label_is_an_error() {
        let mut k = KernelBuilder::new("bad");
        let nowhere = k.new_label();
        k.bra(nowhere);
        k.exit();
        assert!(matches!(k.try_finish(), Err(IsaError::UnresolvedLabel { .. })));
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut k = KernelBuilder::new("dup");
        let l = k.new_label();
        k.bind(l);
        k.bind(l);
    }

    #[test]
    fn ldc_reads_const_space() {
        let mut k = KernelBuilder::new("params");
        k.ldc(Reg(4), 0);
        k.exit();
        let kernel = k.finish();
        let m = kernel.instrs()[0].mem_ref().expect("mem ref");
        assert_eq!(m.space, Space::Const);
        assert_eq!(m.base, Reg::RZ);
    }

    #[test]
    fn shared_bytes_recorded() {
        let mut k = KernelBuilder::new("sh");
        k.shared_bytes(256);
        k.exit();
        assert_eq!(k.finish().shared_bytes(), 256);
    }

    #[test]
    fn guard_via_returned_instr() {
        let mut k = KernelBuilder::new("g");
        k.movi(Reg(0), 7).guard = Guard::if_true(PReg(2));
        k.exit();
        let kernel = k.finish();
        assert_eq!(kernel.instrs()[0].guard, Guard::if_true(PReg(2)));
    }

    #[test]
    fn logical_helpers_use_expected_luts() {
        let mut k = KernelBuilder::new("lut");
        k.and(Reg(0), Reg(1), Reg(2));
        k.or(Reg(0), Reg(1), Reg(2));
        k.xor(Reg(0), Reg(1), Reg(2));
        k.exit();
        let kernel = k.finish();
        assert_eq!(kernel.instrs()[0].modifier, Modifier::Lut(0xC0));
        assert_eq!(kernel.instrs()[1].modifier, Modifier::Lut(0xFC));
        assert_eq!(kernel.instrs()[2].modifier, Modifier::Lut(0x3C));
    }
}
