//! Scalar (per-thread) instruction semantics.
//!
//! [`exec_scalar`] executes one guard-passing instruction for one thread.
//! Cross-lane families (`SHFL`, `VOTE`, `FSWZADD`) are handled by the block
//! scheduler, which can see the whole warp; everything else is defined here.

use crate::hooks::ThreadMeta;
use crate::memory::{const_load, local_load, local_store, GlobalMem, SharedMem};
use crate::regfile::RegFile;
use crate::trap::TrapKind;
use gpu_isa::{
    AtomOp, BoolOp, CmpOp, Dst, ExecFamily, Instr, MemRef, MemWidth, Modifier, MufuFunc, Operand,
    RoundMode, Space, SpecialReg,
};

/// What the thread does next after executing an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to `pc + 1`.
    Next,
    /// Jump to an instruction index.
    Branch(u32),
    /// The thread has exited.
    Exit,
    /// The thread arrived at a block-wide barrier.
    Barrier,
}

/// Execution environment for one thread: registers, all memory spaces, and
/// thread identity.
pub struct ExecEnv<'a> {
    /// The thread's register file.
    pub regs: &'a mut RegFile,
    /// Device global memory.
    pub global: &'a mut GlobalMem,
    /// The block's shared memory.
    pub shared: &'a mut SharedMem,
    /// The thread's local memory.
    pub local: &'a mut Vec<u8>,
    /// Constant memory (kernel parameters at offset 0).
    pub cmem: &'a [u8],
    /// The thread's per-launch call stack (for `CALL`/`RET`).
    pub ret_stack: &'a mut Vec<u32>,
    /// Thread identity.
    pub meta: &'a ThreadMeta,
    /// Current simulated cycle (for `SR_CLOCKLO`).
    pub clock: u64,
    /// Current program counter (needed by `CALL`).
    pub pc: u32,
    /// Number of static instructions in the kernel (for indirect-branch
    /// validation).
    pub kernel_len: u32,
}

impl ExecEnv<'_> {
    fn read_sr(&self, sr: SpecialReg) -> u32 {
        let m = self.meta;
        match sr {
            SpecialReg::TidX => m.tid.x,
            SpecialReg::TidY => m.tid.y,
            SpecialReg::TidZ => m.tid.z,
            SpecialReg::CtaIdX => m.ctaid.x,
            SpecialReg::CtaIdY => m.ctaid.y,
            SpecialReg::CtaIdZ => m.ctaid.z,
            SpecialReg::NTidX => m.ntid.x,
            SpecialReg::NTidY => m.ntid.y,
            SpecialReg::NTidZ => m.ntid.z,
            SpecialReg::NCtaIdX => m.nctaid.x,
            SpecialReg::NCtaIdY => m.nctaid.y,
            SpecialReg::NCtaIdZ => m.nctaid.z,
            SpecialReg::LaneId => m.lane,
            SpecialReg::WarpId => m.warp,
            SpecialReg::SmId => m.sm,
            SpecialReg::ClockLo => self.clock as u32,
            SpecialReg::GlobalTidX => (m.global_tid() & 0xFFFF_FFFF) as u32,
        }
    }

    // Read for nearly every operand of every lane; LLVM leaves it out of
    // line in `exec_family` without the hint.
    #[inline(always)]
    fn rd_u32(&self, op: Operand) -> u32 {
        match op {
            Operand::R(r) => self.regs.read(r),
            Operand::R64(r) => self.regs.read(r),
            Operand::Imm(v) => v,
            Operand::P(p) => self.regs.read_p(p) as u32,
            Operand::NotP(p) => !self.regs.read_p(p) as u32,
            Operand::Sr(sr) => self.read_sr(sr),
            Operand::None | Operand::Mem(_) => 0,
        }
    }

    fn rd_u64(&self, op: Operand) -> u64 {
        match op {
            Operand::R64(r) => self.regs.read64(r),
            Operand::R(r) => self.regs.read(r) as u64,
            // A 32-bit immediate used by an FP64 op carries f32 bits,
            // widened to f64.
            Operand::Imm(v) => (f32::from_bits(v) as f64).to_bits(),
            _ => 0,
        }
    }

    fn rd_f32(&self, op: Operand) -> f32 {
        f32::from_bits(self.rd_u32(op))
    }

    fn rd_f64(&self, op: Operand) -> f64 {
        f64::from_bits(self.rd_u64(op))
    }

    fn rd_bool(&self, op: Operand) -> bool {
        match op {
            Operand::P(p) => self.regs.read_p(p),
            Operand::NotP(p) => !self.regs.read_p(p),
            Operand::Imm(v) => v != 0,
            Operand::R(r) => self.regs.read(r) != 0,
            _ => true,
        }
    }

    fn effective_addr(&self, m: MemRef) -> u32 {
        self.regs.read(m.base).wrapping_add(m.offset as i32 as u32)
    }

    fn mem_load(&mut self, m: MemRef, width: MemWidth) -> Result<u64, TrapKind> {
        let addr = self.effective_addr(m);
        match m.space {
            Space::Global => self.global.load(addr, width),
            Space::Shared => self.shared.load(addr, width),
            Space::Local => local_load(self.local, addr, width),
            Space::Const => const_load(self.cmem, addr, width),
        }
    }

    fn mem_store(&mut self, m: MemRef, width: MemWidth, v: u64) -> Result<(), TrapKind> {
        let addr = self.effective_addr(m);
        match m.space {
            Space::Global => self.global.store(addr, width, v),
            Space::Shared => self.shared.store(addr, width, v),
            Space::Local => local_store(self.local, addr, width, v),
            Space::Const => {
                Err(TrapKind::OutOfBounds { space: Space::Const, addr, width: width.bytes() })
            }
        }
    }

    fn write_dst_u32(&mut self, i: &Instr, v: u32) {
        if let Dst::R(r) = i.dsts[0] {
            self.regs.write(r, v);
        } else if let Dst::R64(r) = i.dsts[0] {
            self.regs.write(r, v);
        }
    }

    fn write_dst_u64(&mut self, i: &Instr, v: u64) {
        match i.dsts[0] {
            Dst::R64(r) => self.regs.write64(r, v),
            Dst::R(r) => self.regs.write(r, v as u32),
            _ => {}
        }
    }

    fn write_dst_pred(&mut self, i: &Instr, v: bool) {
        if let Dst::P(p) = i.dsts[0] {
            self.regs.write_p(p, v);
        }
    }
}

fn cmp_f(c: CmpOp, a: f32, b: f32) -> bool {
    match a.partial_cmp(&b) {
        Some(ord) => c.eval(ord),
        None => c == CmpOp::Ne, // unordered: only NE holds
    }
}

fn cmp_d(c: CmpOp, a: f64, b: f64) -> bool {
    match a.partial_cmp(&b) {
        Some(ord) => c.eval(ord),
        None => c == CmpOp::Ne,
    }
}

fn cmp_i(c: CmpOp, a: i32, b: i32) -> bool {
    c.eval(a.cmp(&b))
}

fn modifier_cmp(m: Modifier) -> (CmpOp, BoolOp) {
    match m {
        Modifier::Cmp(c) => (c, BoolOp::And),
        Modifier::CmpBool(c, b) => (c, b),
        _ => (CmpOp::Eq, BoolOp::And),
    }
}

fn mem_width(m: Modifier) -> MemWidth {
    match m {
        Modifier::Width(w) => w,
        _ => MemWidth::B32,
    }
}

fn round_mode(m: Modifier) -> RoundMode {
    match m {
        Modifier::Round(r) => r,
        _ => RoundMode::Rn,
    }
}

fn lut(m: Modifier) -> u8 {
    match m {
        Modifier::Lut(l) => l,
        _ => 0xC0, // default to AND(a, b)
    }
}

fn lop3(a: u32, b: u32, c: u32, lut: u8) -> u32 {
    let mut out = 0u32;
    for bit in 0..32 {
        let idx = (((a >> bit) & 1) << 2) | (((b >> bit) & 1) << 1) | ((c >> bit) & 1);
        out |= (((lut >> idx) & 1) as u32) << bit;
    }
    out
}

fn f2i_sat(x: f64) -> i32 {
    if x.is_nan() {
        0
    } else if x >= i32::MAX as f64 {
        i32::MAX
    } else if x <= i32::MIN as f64 {
        i32::MIN
    } else {
        x as i32
    }
}

fn apply_atom(op: AtomOp, old: u64, v: u64, v2: u64, width: MemWidth) -> u64 {
    match (op, width) {
        (AtomOp::Add, MemWidth::B64) => old.wrapping_add(v),
        (AtomOp::Add, _) => (old as u32).wrapping_add(v as u32) as u64,
        (AtomOp::Min, _) => (old as u32 as i32).min(v as u32 as i32) as u32 as u64,
        (AtomOp::Max, _) => (old as u32 as i32).max(v as u32 as i32) as u32 as u64,
        (AtomOp::Exch, _) => v,
        (AtomOp::Cas, _) => {
            if old == v {
                v2
            } else {
                old
            }
        }
        (AtomOp::And, _) => old & v,
        (AtomOp::Or, _) => old | v,
        (AtomOp::Xor, _) => old ^ v,
        (AtomOp::FAdd, _) => {
            (f32::from_bits(old as u32) + f32::from_bits(v as u32)).to_bits() as u64
        }
    }
}

/// Execute one instruction for one thread whose guard already passed.
///
/// Cross-lane opcodes (`SHFL`, `VOTE`, `FSWZADD`) must be handled by the
/// caller; reaching them here raises [`TrapKind::IllegalInstruction`].
///
/// # Errors
///
/// Returns the [`TrapKind`] the instruction raised, if any.
pub fn exec_scalar(i: &Instr, env: &mut ExecEnv<'_>) -> Result<Flow, TrapKind> {
    exec_family(i.op.family(), i, env)
}

/// [`exec_scalar`] with the opcode's family already decoded (`fam` must be
/// `i.op.family()`), so a warp decodes it once per issue, not per lane.
pub(crate) fn exec_family(
    fam: ExecFamily,
    i: &Instr,
    env: &mut ExecEnv<'_>,
) -> Result<Flow, TrapKind> {
    use ExecFamily::*;
    match fam {
        // ---- FP32 -----------------------------------------------------
        FAdd => {
            let v = env.rd_f32(i.srcs[0]) + env.rd_f32(i.srcs[1]);
            env.write_dst_u32(i, v.to_bits());
        }
        FMul => {
            let v = env.rd_f32(i.srcs[0]) * env.rd_f32(i.srcs[1]);
            env.write_dst_u32(i, v.to_bits());
        }
        FFma => {
            let v = env.rd_f32(i.srcs[0]).mul_add(env.rd_f32(i.srcs[1]), env.rd_f32(i.srcs[2]));
            env.write_dst_u32(i, v.to_bits());
        }
        FMnMx => {
            let (a, b) = (env.rd_f32(i.srcs[0]), env.rd_f32(i.srcs[1]));
            let min = env.rd_bool(i.srcs[2]);
            env.write_dst_u32(i, if min { a.min(b) } else { a.max(b) }.to_bits());
        }
        FSel => {
            let v =
                if env.rd_bool(i.srcs[2]) { env.rd_u32(i.srcs[0]) } else { env.rd_u32(i.srcs[1]) };
            env.write_dst_u32(i, v);
        }
        FSet => {
            let (c, _) = modifier_cmp(i.modifier);
            let hit = cmp_f(c, env.rd_f32(i.srcs[0]), env.rd_f32(i.srcs[1]));
            env.write_dst_u32(i, if hit { u32::MAX } else { 0 });
        }
        FSetP => {
            let (c, b) = modifier_cmp(i.modifier);
            let hit = cmp_f(c, env.rd_f32(i.srcs[0]), env.rd_f32(i.srcs[1]));
            let combined = b.eval(hit, env.rd_bool(i.srcs[2]));
            env.write_dst_pred(i, combined);
        }
        FChk => {
            let q = env.rd_f32(i.srcs[0]) / env.rd_f32(i.srcs[1]);
            env.write_dst_pred(i, !q.is_finite());
        }
        Mufu => {
            let f = match i.modifier {
                Modifier::Func(f) => f,
                _ => MufuFunc::Rcp,
            };
            env.write_dst_u32(i, f.eval(env.rd_f32(i.srcs[0])).to_bits());
        }
        FCmp => {
            let (c, _) = modifier_cmp(i.modifier);
            let hit = cmp_f(c, env.rd_f32(i.srcs[2]), 0.0);
            let v = if hit { env.rd_u32(i.srcs[0]) } else { env.rd_u32(i.srcs[1]) };
            env.write_dst_u32(i, v);
        }
        FRnd => {
            let v = round_mode(i.modifier).round_f64(env.rd_f32(i.srcs[0]) as f64) as f32;
            env.write_dst_u32(i, v.to_bits());
        }
        // ---- Packed FP16 (two halves per register, computed in f32) -----
        HAdd2 | HMul2 | HFma2 | HMnMx2 => {
            use gpu_isa::half::{pack, unpack_hi, unpack_lo};
            let a = env.rd_u32(i.srcs[0]);
            let b = env.rd_u32(i.srcs[1]);
            let (lo, hi) = match fam {
                HAdd2 => (unpack_lo(a) + unpack_lo(b), unpack_hi(a) + unpack_hi(b)),
                HMul2 => (unpack_lo(a) * unpack_lo(b), unpack_hi(a) * unpack_hi(b)),
                HFma2 => {
                    let c = env.rd_u32(i.srcs[2]);
                    (
                        unpack_lo(a).mul_add(unpack_lo(b), unpack_lo(c)),
                        unpack_hi(a).mul_add(unpack_hi(b), unpack_hi(c)),
                    )
                }
                HMnMx2 => {
                    let min = env.rd_bool(i.srcs[2]);
                    if min {
                        (unpack_lo(a).min(unpack_lo(b)), unpack_hi(a).min(unpack_hi(b)))
                    } else {
                        (unpack_lo(a).max(unpack_lo(b)), unpack_hi(a).max(unpack_hi(b)))
                    }
                }
                _ => unreachable!("covered by the outer match arm"),
            };
            env.write_dst_u32(i, pack(lo, hi));
        }
        HSet2 => {
            use gpu_isa::half::{unpack_hi, unpack_lo};
            let (c, _) = modifier_cmp(i.modifier);
            let a = env.rd_u32(i.srcs[0]);
            let b = env.rd_u32(i.srcs[1]);
            let lo = cmp_f(c, unpack_lo(a), unpack_lo(b));
            let hi = cmp_f(c, unpack_hi(a), unpack_hi(b));
            let v = (if lo { 0xFFFFu32 } else { 0 }) | (if hi { 0xFFFF_0000 } else { 0 });
            env.write_dst_u32(i, v);
        }
        HSetP2 => {
            use gpu_isa::half::{unpack_hi, unpack_lo};
            // Both halves compared; the modifier's boolean op combines the
            // two half-results into the single predicate destination.
            let (c, b_op) = modifier_cmp(i.modifier);
            let a = env.rd_u32(i.srcs[0]);
            let b = env.rd_u32(i.srcs[1]);
            let lo = cmp_f(c, unpack_lo(a), unpack_lo(b));
            let hi = cmp_f(c, unpack_hi(a), unpack_hi(b));
            env.write_dst_pred(i, b_op.eval(lo, hi));
        }
        // ---- FP64 ------------------------------------------------------
        DAdd => {
            let v = env.rd_f64(i.srcs[0]) + env.rd_f64(i.srcs[1]);
            env.write_dst_u64(i, v.to_bits());
        }
        DMul => {
            let v = env.rd_f64(i.srcs[0]) * env.rd_f64(i.srcs[1]);
            env.write_dst_u64(i, v.to_bits());
        }
        DFma => {
            let v = env.rd_f64(i.srcs[0]).mul_add(env.rd_f64(i.srcs[1]), env.rd_f64(i.srcs[2]));
            env.write_dst_u64(i, v.to_bits());
        }
        DMnMx => {
            let (a, b) = (env.rd_f64(i.srcs[0]), env.rd_f64(i.srcs[1]));
            let min = env.rd_bool(i.srcs[2]);
            env.write_dst_u64(i, if min { a.min(b) } else { a.max(b) }.to_bits());
        }
        DSet => {
            let (c, _) = modifier_cmp(i.modifier);
            let hit = cmp_d(c, env.rd_f64(i.srcs[0]), env.rd_f64(i.srcs[1]));
            env.write_dst_u32(i, if hit { u32::MAX } else { 0 });
        }
        DSetP => {
            let (c, b) = modifier_cmp(i.modifier);
            let hit = cmp_d(c, env.rd_f64(i.srcs[0]), env.rd_f64(i.srcs[1]));
            env.write_dst_pred(i, b.eval(hit, env.rd_bool(i.srcs[2])));
        }
        // ---- Integer ------------------------------------------------------
        IAdd => {
            let v = env.rd_u32(i.srcs[0]).wrapping_add(env.rd_u32(i.srcs[1]));
            env.write_dst_u32(i, v);
        }
        ISub => {
            let v = env.rd_u32(i.srcs[0]).wrapping_sub(env.rd_u32(i.srcs[1]));
            env.write_dst_u32(i, v);
        }
        IAdd3 => {
            let v = env
                .rd_u32(i.srcs[0])
                .wrapping_add(env.rd_u32(i.srcs[1]))
                .wrapping_add(env.rd_u32(i.srcs[2]));
            env.write_dst_u32(i, v);
        }
        IMad => {
            let v = env
                .rd_u32(i.srcs[0])
                .wrapping_mul(env.rd_u32(i.srcs[1]))
                .wrapping_add(env.rd_u32(i.srcs[2]));
            env.write_dst_u32(i, v);
        }
        IMul => {
            let v = env.rd_u32(i.srcs[0]).wrapping_mul(env.rd_u32(i.srcs[1]));
            env.write_dst_u32(i, v);
        }
        IMnMx => {
            let (a, b) = (env.rd_u32(i.srcs[0]) as i32, env.rd_u32(i.srcs[1]) as i32);
            let min = env.rd_bool(i.srcs[2]);
            env.write_dst_u32(i, if min { a.min(b) } else { a.max(b) } as u32);
        }
        IScAdd | Lea => {
            let sh = env.rd_u32(i.srcs[2]) & 31;
            let v = (env.rd_u32(i.srcs[0]) << sh).wrapping_add(env.rd_u32(i.srcs[1]));
            env.write_dst_u32(i, v);
        }
        ISet => {
            let (c, _) = modifier_cmp(i.modifier);
            let hit = cmp_i(c, env.rd_u32(i.srcs[0]) as i32, env.rd_u32(i.srcs[1]) as i32);
            env.write_dst_u32(i, if hit { u32::MAX } else { 0 });
        }
        ISetP => {
            let (c, b) = modifier_cmp(i.modifier);
            let hit = cmp_i(c, env.rd_u32(i.srcs[0]) as i32, env.rd_u32(i.srcs[1]) as i32);
            env.write_dst_pred(i, b.eval(hit, env.rd_bool(i.srcs[2])));
        }
        ICmp => {
            let (c, _) = modifier_cmp(i.modifier);
            let hit = cmp_i(c, env.rd_u32(i.srcs[2]) as i32, 0);
            let v = if hit { env.rd_u32(i.srcs[0]) } else { env.rd_u32(i.srcs[1]) };
            env.write_dst_u32(i, v);
        }
        ISad => {
            let (a, b) = (env.rd_u32(i.srcs[0]) as i32, env.rd_u32(i.srcs[1]) as i32);
            let v = (a.wrapping_sub(b)).unsigned_abs().wrapping_add(env.rd_u32(i.srcs[2]));
            env.write_dst_u32(i, v);
        }
        IAbs => {
            env.write_dst_u32(i, (env.rd_u32(i.srcs[0]) as i32).wrapping_abs() as u32);
        }
        Lop | Lop3 => {
            let v = lop3(
                env.rd_u32(i.srcs[0]),
                env.rd_u32(i.srcs[1]),
                env.rd_u32(i.srcs[2]),
                lut(i.modifier),
            );
            env.write_dst_u32(i, v);
        }
        Popc => env.write_dst_u32(i, env.rd_u32(i.srcs[0]).count_ones()),
        Flo => {
            let a = env.rd_u32(i.srcs[0]);
            env.write_dst_u32(i, if a == 0 { u32::MAX } else { 31 - a.leading_zeros() });
        }
        Brev => env.write_dst_u32(i, env.rd_u32(i.srcs[0]).reverse_bits()),
        Bmsk => {
            let pos = env.rd_u32(i.srcs[0]) & 31;
            let width = env.rd_u32(i.srcs[1]).min(32);
            let mask = (((1u64 << width) - 1) << pos) as u32;
            env.write_dst_u32(i, mask);
        }
        Bfe => {
            let a = env.rd_u32(i.srcs[0]);
            let ctl = env.rd_u32(i.srcs[1]);
            let pos = ctl & 31;
            let len = (ctl >> 8) & 63;
            let mask = if len >= 32 { u32::MAX } else { (1u32 << len).wrapping_sub(1) };
            env.write_dst_u32(i, (a >> pos) & mask);
        }
        Bfi => {
            let a = env.rd_u32(i.srcs[0]);
            let ctl = env.rd_u32(i.srcs[1]);
            let c = env.rd_u32(i.srcs[2]);
            let pos = ctl & 31;
            let len = (ctl >> 8) & 63;
            let field = if len >= 32 { u32::MAX } else { (1u32 << len).wrapping_sub(1) };
            let mask = field << pos;
            env.write_dst_u32(i, (c & !mask) | ((a << pos) & mask));
        }
        Shf => {
            let lo = env.rd_u32(i.srcs[0]) as u64;
            let hi = env.rd_u32(i.srcs[1]) as u64;
            let sh = env.rd_u32(i.srcs[2]) & 31;
            env.write_dst_u32(i, (((hi << 32) | lo) >> sh) as u32);
        }
        Shl => {
            let s = env.rd_u32(i.srcs[1]);
            let v = if s >= 32 { 0 } else { env.rd_u32(i.srcs[0]) << s };
            env.write_dst_u32(i, v);
        }
        Shr => {
            let s = env.rd_u32(i.srcs[1]);
            let v = if s >= 32 { 0 } else { env.rd_u32(i.srcs[0]) >> s };
            env.write_dst_u32(i, v);
        }
        Xmad => {
            let v = (env.rd_u32(i.srcs[0]) & 0xFFFF)
                .wrapping_mul(env.rd_u32(i.srcs[1]) & 0xFFFF)
                .wrapping_add(env.rd_u32(i.srcs[2]));
            env.write_dst_u32(i, v);
        }
        // ---- Conversions ---------------------------------------------------
        F2F => match i.dsts[0] {
            Dst::R64(_) => {
                let v = env.rd_f32(i.srcs[0]) as f64;
                env.write_dst_u64(i, v.to_bits());
            }
            _ => {
                let v = env.rd_f64(i.srcs[0]) as f32;
                env.write_dst_u32(i, v.to_bits());
            }
        },
        F2I => {
            let x = match i.srcs[0] {
                Operand::R64(_) => env.rd_f64(i.srcs[0]),
                _ => env.rd_f32(i.srcs[0]) as f64,
            };
            let v = f2i_sat(round_mode(i.modifier).round_f64(x));
            env.write_dst_u32(i, v as u32);
        }
        I2F => {
            let a = env.rd_u32(i.srcs[0]) as i32;
            match i.dsts[0] {
                Dst::R64(_) => env.write_dst_u64(i, (a as f64).to_bits()),
                _ => env.write_dst_u32(i, (a as f32).to_bits()),
            }
        }
        I2I => env.write_dst_u32(i, env.rd_u32(i.srcs[0])),
        // ---- Data movement ----------------------------------------------------
        Mov => match i.dsts[0] {
            Dst::R64(_) => {
                let v = env.rd_u64(i.srcs[0]);
                env.write_dst_u64(i, v);
            }
            _ => {
                let v = env.rd_u32(i.srcs[0]);
                env.write_dst_u32(i, v);
            }
        },
        Sel => {
            let v =
                if env.rd_bool(i.srcs[2]) { env.rd_u32(i.srcs[0]) } else { env.rd_u32(i.srcs[1]) };
            env.write_dst_u32(i, v);
        }
        Prmt => {
            let pool = ((env.rd_u32(i.srcs[1]) as u64) << 32) | env.rd_u32(i.srcs[0]) as u64;
            let sel = env.rd_u32(i.srcs[2]);
            let mut out = 0u32;
            for byte in 0..4 {
                let nib = ((sel >> (4 * byte)) & 0x7) as u64;
                let b = (pool >> (8 * nib)) & 0xFF;
                out |= (b as u32) << (8 * byte);
            }
            env.write_dst_u32(i, out);
        }
        Sgxt => {
            let a = env.rd_u32(i.srcs[0]);
            let bits = env.rd_u32(i.srcs[1]).min(32);
            let v = if bits == 0 {
                0
            } else if bits >= 32 {
                a
            } else {
                let shift = 32 - bits;
                (((a << shift) as i32) >> shift) as u32
            };
            env.write_dst_u32(i, v);
        }
        S2R => {
            let v = match i.srcs[0] {
                Operand::Sr(sr) => env.read_sr(sr),
                _ => 0,
            };
            env.write_dst_u32(i, v);
        }
        P2R => env.write_dst_u32(i, env.regs.pred_bits()),
        R2P => {
            let bits = env.rd_u32(i.srcs[0]);
            let mask = env.rd_u32(i.srcs[1]);
            env.regs.set_pred_bits(bits, mask);
        }
        PSet => {
            let (_, b) = modifier_cmp(i.modifier);
            let v = b.eval(env.rd_bool(i.srcs[0]), env.rd_bool(i.srcs[1]));
            env.write_dst_u32(i, if v { u32::MAX } else { 0 });
        }
        PSetP => {
            let (_, b) = modifier_cmp(i.modifier);
            env.write_dst_pred(i, b.eval(env.rd_bool(i.srcs[0]), env.rd_bool(i.srcs[1])));
        }
        PLop3 => {
            let idx = ((env.rd_bool(i.srcs[0]) as u8) << 2)
                | ((env.rd_bool(i.srcs[1]) as u8) << 1)
                | env.rd_bool(i.srcs[2]) as u8;
            env.write_dst_pred(i, (lut(i.modifier) >> idx) & 1 != 0);
        }
        // ---- Memory ---------------------------------------------------------
        Ld => {
            let m = i.mem_ref().ok_or(TrapKind::IllegalInstruction)?;
            let w = mem_width(i.modifier);
            let v = env.mem_load(m, w)?;
            if w == MemWidth::B64 {
                env.write_dst_u64(i, v);
            } else {
                env.write_dst_u32(i, v as u32);
            }
        }
        St => {
            let m = i.mem_ref().ok_or(TrapKind::IllegalInstruction)?;
            let w = mem_width(i.modifier);
            let v = if w == MemWidth::B64 {
                env.rd_u64(i.srcs[1])
            } else {
                env.rd_u32(i.srcs[1]) as u64
            };
            env.mem_store(m, w, v)?;
        }
        Atom | Red => {
            let m = i.mem_ref().ok_or(TrapKind::IllegalInstruction)?;
            let w = mem_width(i.modifier);
            let op = match i.modifier {
                Modifier::AtomOp(a) => a,
                _ => AtomOp::Add,
            };
            let v = env.rd_u32(i.srcs[1]) as u64;
            let v2 = env.rd_u32(i.srcs[2]) as u64;
            let old = env.mem_load(m, w)?;
            let new = apply_atom(op, old, v, v2, w);
            env.mem_store(m, w, new)?;
            if fam == Atom {
                env.write_dst_u32(i, old as u32);
            }
        }
        // ---- Control flow ------------------------------------------------------
        Bra => return Ok(Flow::Branch(i.target)),
        Brx => {
            let t = env.rd_u32(i.srcs[0]);
            if t >= env.kernel_len {
                return Err(TrapKind::InvalidBranch { target: t });
            }
            return Ok(Flow::Branch(t));
        }
        Call => {
            if i.target >= env.kernel_len {
                return Err(TrapKind::InvalidBranch { target: i.target });
            }
            env.ret_stack.push(env.pc + 1);
            return Ok(Flow::Branch(i.target));
        }
        Ret => {
            let t = env.ret_stack.pop().ok_or(TrapKind::RetUnderflow)?;
            if t >= env.kernel_len {
                return Err(TrapKind::InvalidBranch { target: t });
            }
            return Ok(Flow::Branch(t));
        }
        Exit => return Ok(Flow::Exit),
        Bar => return Ok(Flow::Barrier),
        Kill => return Err(TrapKind::Killed),
        Bpt => return Err(TrapKind::Breakpoint),
        Nop | MemFence | NanoSleep | ReconvHint => {}
        // Cross-lane families are the block scheduler's job.
        Shfl | Vote | FSwzAdd => return Err(TrapKind::IllegalInstruction),
        Unimplemented => return Err(TrapKind::IllegalInstruction),
    }
    Ok(Flow::Next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Dim3;
    use gpu_isa::{Guard, Opcode, PReg, Reg};

    fn meta() -> ThreadMeta {
        ThreadMeta {
            tid: Dim3::from(3),
            ctaid: Dim3::from(1),
            ntid: Dim3::from(32),
            nctaid: Dim3::from(4),
            flat_tid: 3,
            flat_ctaid: 1,
            lane: 3,
            warp: 0,
            sm: 1,
        }
    }

    struct Fixture {
        regs: RegFile,
        global: GlobalMem,
        shared: SharedMem,
        local: Vec<u8>,
        cmem: Vec<u8>,
        ret: Vec<u32>,
        meta: ThreadMeta,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture {
                regs: RegFile::new(),
                global: GlobalMem::new(1 << 16),
                shared: SharedMem::new(1024),
                local: vec![0; 256],
                cmem: vec![0; 64],
                ret: Vec::new(),
                meta: meta(),
            }
        }

        fn run(&mut self, i: &Instr) -> Result<Flow, TrapKind> {
            let mut env = ExecEnv {
                regs: &mut self.regs,
                global: &mut self.global,
                shared: &mut self.shared,
                local: &mut self.local,
                cmem: &self.cmem,
                ret_stack: &mut self.ret,
                meta: &self.meta,
                clock: 0,
                pc: 0,
                kernel_len: 16,
            };
            exec_scalar(i, &mut env)
        }
    }

    fn instr(op: Opcode) -> Instr {
        Instr::new(op)
    }

    #[test]
    fn fadd_adds() {
        let mut f = Fixture::new();
        f.regs.write_f32(Reg(1), 1.5);
        f.regs.write_f32(Reg(2), 2.25);
        let mut i = instr(Opcode::FADD);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs[0] = Operand::R(Reg(1));
        i.srcs[1] = Operand::R(Reg(2));
        assert_eq!(f.run(&i), Ok(Flow::Next));
        assert_eq!(f.regs.read_f32(Reg(0)), 3.75);
    }

    #[test]
    fn ffma_fuses() {
        let mut f = Fixture::new();
        f.regs.write_f32(Reg(1), 2.0);
        f.regs.write_f32(Reg(2), 3.0);
        f.regs.write_f32(Reg(3), 4.0);
        let mut i = instr(Opcode::FFMA);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::R(Reg(3)), Operand::None];
        f.run(&i).expect("exec");
        assert_eq!(f.regs.read_f32(Reg(0)), 10.0);
    }

    #[test]
    fn dfma_uses_pairs() {
        let mut f = Fixture::new();
        f.regs.write_f64(Reg(2), 2.0);
        f.regs.write_f64(Reg(4), 3.0);
        f.regs.write_f64(Reg(6), 0.5);
        let mut i = instr(Opcode::DFMA);
        i.dsts[0] = Dst::R64(Reg(8));
        i.srcs = [Operand::R64(Reg(2)), Operand::R64(Reg(4)), Operand::R64(Reg(6)), Operand::None];
        f.run(&i).expect("exec");
        assert_eq!(f.regs.read_f64(Reg(8)), 6.5);
    }

    #[test]
    fn isetp_with_bool_combine() {
        let mut f = Fixture::new();
        f.regs.write(Reg(1), 5);
        f.regs.write_p(PReg(1), true);
        let mut i = instr(Opcode::ISETP);
        i.modifier = Modifier::CmpBool(CmpOp::Lt, BoolOp::And);
        i.dsts[0] = Dst::P(PReg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::Imm(10), Operand::P(PReg(1)), Operand::None];
        f.run(&i).expect("exec");
        assert!(f.regs.read_p(PReg(0)));
    }

    #[test]
    fn nan_compares_unordered() {
        let mut f = Fixture::new();
        f.regs.write_f32(Reg(1), f32::NAN);
        f.regs.write_f32(Reg(2), 1.0);
        for (cmp, expect) in [(CmpOp::Lt, false), (CmpOp::Eq, false), (CmpOp::Ne, true)] {
            let mut i = instr(Opcode::FSETP);
            i.modifier = Modifier::Cmp(cmp);
            i.dsts[0] = Dst::P(PReg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::P(PReg::PT), Operand::None];
            f.run(&i).expect("exec");
            assert_eq!(f.regs.read_p(PReg(0)), expect, "{cmp:?}");
        }
    }

    #[test]
    fn lop3_truth_tables() {
        let mut f = Fixture::new();
        f.regs.write(Reg(1), 0b1100);
        f.regs.write(Reg(2), 0b1010);
        for (lut_v, expect) in [(0xC0u8, 0b1000u32), (0xFC, 0b1110), (0x3C, 0b0110)] {
            let mut i = instr(Opcode::LOP3);
            i.modifier = Modifier::Lut(lut_v);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::R(Reg::RZ), Operand::None];
            f.run(&i).expect("exec");
            assert_eq!(f.regs.read(Reg(0)), expect, "lut {lut_v:#x}");
        }
    }

    #[test]
    fn shift_clamps_at_32() {
        let mut f = Fixture::new();
        f.regs.write(Reg(1), 0xFFFF_FFFF);
        let mut i = instr(Opcode::SHL);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::Imm(33), Operand::None, Operand::None];
        f.run(&i).expect("exec");
        assert_eq!(f.regs.read(Reg(0)), 0);
    }

    #[test]
    fn global_load_store() {
        let mut f = Fixture::new();
        let p = f.global.alloc(64).expect("alloc");
        f.regs.write(Reg(4), p.0);
        f.regs.write(Reg(5), 0xABCD);
        let mut st = instr(Opcode::STG);
        st.modifier = Modifier::Width(MemWidth::B32);
        st.srcs = [
            Operand::Mem(MemRef { base: Reg(4), offset: 8, space: Space::Global }),
            Operand::R(Reg(5)),
            Operand::None,
            Operand::None,
        ];
        f.run(&st).expect("store");
        let mut ld = instr(Opcode::LDG);
        ld.modifier = Modifier::Width(MemWidth::B32);
        ld.dsts[0] = Dst::R(Reg(6));
        ld.srcs[0] = Operand::Mem(MemRef { base: Reg(4), offset: 8, space: Space::Global });
        f.run(&ld).expect("load");
        assert_eq!(f.regs.read(Reg(6)), 0xABCD);
    }

    #[test]
    fn corrupted_pointer_traps() {
        let mut f = Fixture::new();
        f.regs.write(Reg(4), 0); // null
        let mut ld = instr(Opcode::LDG);
        ld.modifier = Modifier::Width(MemWidth::B32);
        ld.dsts[0] = Dst::R(Reg(6));
        ld.srcs[0] = Operand::Mem(MemRef { base: Reg(4), offset: 0, space: Space::Global });
        assert!(matches!(f.run(&ld), Err(TrapKind::OutOfBounds { .. })));
    }

    #[test]
    fn atomic_add_returns_old() {
        let mut f = Fixture::new();
        let p = f.global.alloc(16).expect("alloc");
        f.global.write_u32s(p, &[100]).expect("write");
        f.regs.write(Reg(4), p.0);
        f.regs.write(Reg(5), 7);
        let mut a = instr(Opcode::ATOMG);
        a.modifier = Modifier::AtomOp(AtomOp::Add);
        a.dsts[0] = Dst::R(Reg(6));
        a.srcs = [
            Operand::Mem(MemRef { base: Reg(4), offset: 0, space: Space::Global }),
            Operand::R(Reg(5)),
            Operand::None,
            Operand::None,
        ];
        f.run(&a).expect("atom");
        assert_eq!(f.regs.read(Reg(6)), 100);
        assert_eq!(f.global.read_u32s(p, 1).expect("read"), vec![107]);
    }

    #[test]
    fn call_ret_flow() {
        let mut f = Fixture::new();
        let mut call = instr(Opcode::CALL);
        call.target = 5;
        assert_eq!(f.run(&call), Ok(Flow::Branch(5)));
        let ret = instr(Opcode::RET);
        assert_eq!(f.run(&ret), Ok(Flow::Branch(1)));
        assert_eq!(f.run(&ret), Err(TrapKind::RetUnderflow));
    }

    #[test]
    fn brx_validates_target() {
        let mut f = Fixture::new();
        f.regs.write(Reg(1), 99);
        let mut b = instr(Opcode::BRX);
        b.srcs[0] = Operand::R(Reg(1));
        assert_eq!(f.run(&b), Err(TrapKind::InvalidBranch { target: 99 }));
        f.regs.write(Reg(1), 3);
        assert_eq!(f.run(&b), Ok(Flow::Branch(3)));
    }

    #[test]
    fn control_flow_basics() {
        let mut f = Fixture::new();
        assert_eq!(f.run(&instr(Opcode::EXIT)), Ok(Flow::Exit));
        assert_eq!(f.run(&instr(Opcode::BAR)), Ok(Flow::Barrier));
        assert_eq!(f.run(&instr(Opcode::NOP)), Ok(Flow::Next));
        assert_eq!(f.run(&instr(Opcode::KILL)), Err(TrapKind::Killed));
        assert_eq!(f.run(&instr(Opcode::BPT)), Err(TrapKind::Breakpoint));
    }

    #[test]
    fn unimplemented_opcode_traps() {
        let mut f = Fixture::new();
        assert_eq!(f.run(&instr(Opcode::TEX)), Err(TrapKind::IllegalInstruction));
        assert_eq!(f.run(&instr(Opcode::HMMA)), Err(TrapKind::IllegalInstruction));
    }

    #[test]
    fn s2r_reads_identity() {
        let mut f = Fixture::new();
        let mut i = instr(Opcode::S2R);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs[0] = Operand::Sr(SpecialReg::LaneId);
        f.run(&i).expect("exec");
        assert_eq!(f.regs.read(Reg(0)), 3);
        i.srcs[0] = Operand::Sr(SpecialReg::SmId);
        f.run(&i).expect("exec");
        assert_eq!(f.regs.read(Reg(0)), 1);
    }

    #[test]
    fn conversions_roundtrip() {
        let mut f = Fixture::new();
        f.regs.write(Reg(1), (-7i32) as u32);
        let mut i2f = instr(Opcode::I2F);
        i2f.dsts[0] = Dst::R(Reg(2));
        i2f.srcs[0] = Operand::R(Reg(1));
        f.run(&i2f).expect("exec");
        assert_eq!(f.regs.read_f32(Reg(2)), -7.0);

        let mut f2i = instr(Opcode::F2I);
        f2i.modifier = Modifier::Round(RoundMode::Rz);
        f2i.dsts[0] = Dst::R(Reg(3));
        f2i.srcs[0] = Operand::R(Reg(2));
        f.run(&f2i).expect("exec");
        assert_eq!(f.regs.read(Reg(3)) as i32, -7);
    }

    #[test]
    fn f2i_saturates_nan_and_range() {
        assert_eq!(f2i_sat(f64::NAN), 0);
        assert_eq!(f2i_sat(1e300), i32::MAX);
        assert_eq!(f2i_sat(-1e300), i32::MIN);
    }

    #[test]
    fn predicated_guard_not_checked_here() {
        // exec_scalar assumes the guard already passed; guard handling is
        // the scheduler's job. A guarded instruction still executes.
        let mut f = Fixture::new();
        let mut i = instr(Opcode::MOV32I);
        i.guard = Guard::if_true(PReg(0)); // P0 is false
        i.dsts[0] = Dst::R(Reg(1));
        i.srcs[0] = Operand::Imm(9);
        f.run(&i).expect("exec");
        assert_eq!(f.regs.read(Reg(1)), 9);
    }
}

#[cfg(test)]
mod fp16_tests {
    use super::*;
    use crate::grid::Dim3;
    use gpu_isa::half::pack;
    use gpu_isa::{Opcode, PReg, Reg};

    fn meta() -> ThreadMeta {
        ThreadMeta {
            tid: Dim3::from(0),
            ctaid: Dim3::from(0),
            ntid: Dim3::from(32),
            nctaid: Dim3::from(1),
            flat_tid: 0,
            flat_ctaid: 0,
            lane: 0,
            warp: 0,
            sm: 0,
        }
    }

    fn run_one(i: &Instr, regs: &mut RegFile) -> Result<Flow, TrapKind> {
        let mut global = GlobalMem::new(4096);
        let mut shared = SharedMem::new(64);
        let mut local = vec![0u8; 64];
        let cmem = [0u8; 16];
        let mut ret = Vec::new();
        let m = meta();
        let mut env = ExecEnv {
            regs,
            global: &mut global,
            shared: &mut shared,
            local: &mut local,
            cmem: &cmem,
            ret_stack: &mut ret,
            meta: &m,
            clock: 0,
            pc: 0,
            kernel_len: 8,
        };
        exec_scalar(i, &mut env)
    }

    #[test]
    fn hadd2_adds_both_halves() {
        let mut rf = RegFile::new();
        rf.write(Reg(1), pack(1.5, -2.0));
        rf.write(Reg(2), pack(0.25, 10.0));
        let mut i = Instr::new(Opcode::HADD2);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::None, Operand::None];
        run_one(&i, &mut rf).expect("exec");
        assert_eq!(rf.read(Reg(0)), pack(1.75, 8.0));
    }

    #[test]
    fn hfma2_fuses_both_halves() {
        let mut rf = RegFile::new();
        rf.write(Reg(1), pack(2.0, 3.0));
        rf.write(Reg(2), pack(4.0, 0.5));
        rf.write(Reg(3), pack(1.0, -1.0));
        let mut i = Instr::new(Opcode::HFMA2);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::R(Reg(3)), Operand::None];
        run_one(&i, &mut rf).expect("exec");
        assert_eq!(rf.read(Reg(0)), pack(9.0, 0.5));
    }

    #[test]
    fn hmul2_saturates_to_f16_range() {
        let mut rf = RegFile::new();
        rf.write(Reg(1), pack(60000.0, 2.0));
        rf.write(Reg(2), pack(2.0, 2.0));
        let mut i = Instr::new(Opcode::HMUL2);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::None, Operand::None];
        run_one(&i, &mut rf).expect("exec");
        // 60000 rounds to the nearest representable f16 first; ×2 overflows
        // to +inf in the low half, 4.0 in the high half.
        let lo = gpu_isa::half::unpack_lo(rf.read(Reg(0)));
        assert!(lo.is_infinite() && lo > 0.0);
        assert_eq!(gpu_isa::half::unpack_hi(rf.read(Reg(0))), 4.0);
    }

    #[test]
    fn hset2_masks_per_half() {
        let mut rf = RegFile::new();
        rf.write(Reg(1), pack(1.0, 5.0));
        rf.write(Reg(2), pack(2.0, 4.0));
        let mut i = Instr::new(Opcode::HSET2);
        i.modifier = Modifier::Cmp(CmpOp::Lt);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::None, Operand::None];
        run_one(&i, &mut rf).expect("exec");
        assert_eq!(rf.read(Reg(0)), 0x0000_FFFF, "lo: 1<2 true, hi: 5<4 false");
    }

    #[test]
    fn hsetp2_combines_halves_with_boolop() {
        let mut rf = RegFile::new();
        rf.write(Reg(1), pack(1.0, 5.0));
        rf.write(Reg(2), pack(2.0, 4.0));
        let mut i = Instr::new(Opcode::HSETP2);
        i.modifier = Modifier::Cmp(CmpOp::Lt); // AND-combined by default
        i.dsts[0] = Dst::P(PReg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::None, Operand::None];
        run_one(&i, &mut rf).expect("exec");
        assert!(!rf.read_p(PReg(0)), "true AND false");
        i.modifier = Modifier::CmpBool(CmpOp::Lt, BoolOp::Or);
        run_one(&i, &mut rf).expect("exec");
        assert!(rf.read_p(PReg(0)), "true OR false");
    }

    #[test]
    fn hmnmx2_selects_per_half() {
        let mut rf = RegFile::new();
        rf.write(Reg(1), pack(1.0, 5.0));
        rf.write(Reg(2), pack(2.0, 4.0));
        let mut i = Instr::new(Opcode::HMNMX2);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs =
            [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::P(gpu_isa::PReg::PT), Operand::None];
        run_one(&i, &mut rf).expect("exec");
        assert_eq!(rf.read(Reg(0)), pack(1.0, 4.0), "min per half");
    }
}
