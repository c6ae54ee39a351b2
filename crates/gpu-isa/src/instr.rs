//! The instruction, kernel, and module model.

use crate::{ExecFamily, IsaError, Modifier, Opcode, PReg, Reg, SpecialReg};
use std::fmt;

/// Memory address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Space {
    /// Device-global memory, shared by all blocks.
    Global = 0,
    /// Per-block shared memory (scratchpad).
    Shared = 1,
    /// Per-thread local memory (register spills).
    Local = 2,
    /// Read-only constant memory (kernel parameters live here).
    Const = 3,
}

impl Space {
    /// All spaces in encoding order.
    pub const ALL: [Space; 4] = [Space::Global, Space::Shared, Space::Local, Space::Const];
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Space::Global => "global",
            Space::Shared => "shared",
            Space::Local => "local",
            Space::Const => "const",
        };
        f.write_str(s)
    }
}

/// A memory operand `[Rbase + offset]` in a given address space.
///
/// Addresses are 32-bit in this ISA (a documented simplification over real
/// SASS's 64-bit register pairs); the effective address is
/// `regs[base].wrapping_add(offset as u32)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base address register.
    pub base: Reg,
    /// Signed byte offset added to the base.
    pub offset: i16,
    /// Address space accessed.
    pub space: Space,
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset == 0 {
            write!(f, "[{}]", self.base)
        } else if self.offset > 0 {
            write!(f, "[{}+{:#x}]", self.base, self.offset)
        } else {
            write!(f, "[{}-{:#x}]", self.base, -(self.offset as i32))
        }
    }
}

/// A source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Operand {
    /// Unused source slot.
    #[default]
    None,
    /// General-purpose register.
    R(Reg),
    /// 64-bit register pair starting at an (even) register.
    R64(Reg),
    /// Predicate register read as 0/1.
    P(PReg),
    /// Negated predicate register.
    NotP(PReg),
    /// 32-bit immediate (also carries `f32` bit patterns).
    Imm(u32),
    /// Memory reference (loads, stores, atomics).
    Mem(MemRef),
    /// Special register (for `S2R`).
    Sr(SpecialReg),
}

impl Operand {
    /// `true` for [`Operand::None`].
    #[inline]
    pub fn is_none(self) -> bool {
        self == Operand::None
    }

    /// An `f32` immediate, stored as its bit pattern.
    #[inline]
    pub fn imm_f32(v: f32) -> Operand {
        Operand::Imm(v.to_bits())
    }

    /// An `i32` immediate, stored two's-complement.
    #[inline]
    pub fn imm_i32(v: i32) -> Operand {
        Operand::Imm(v as u32)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::None => write!(f, "<none>"),
            Operand::R(r) => write!(f, "{r}"),
            Operand::R64(r) => write!(f, "{r}.64"),
            Operand::P(p) => write!(f, "{p}"),
            Operand::NotP(p) => write!(f, "!{p}"),
            Operand::Imm(v) => write!(f, "{:#x}", v),
            Operand::Mem(m) => write!(f, "{m}"),
            Operand::Sr(sr) => write!(f, "{sr}"),
        }
    }
}

/// A destination operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dst {
    /// Unused destination slot.
    #[default]
    None,
    /// 32-bit general-purpose register.
    R(Reg),
    /// 64-bit register pair starting at an (even) register.
    R64(Reg),
    /// Predicate register.
    P(PReg),
}

impl Dst {
    /// `true` for [`Dst::None`].
    #[inline]
    pub fn is_none(self) -> bool {
        self == Dst::None
    }

    /// The 32-bit general-purpose registers this destination writes
    /// (a register pair contributes both halves), excluding `RZ`.
    pub fn gpr_units(self) -> impl Iterator<Item = Reg> {
        let (a, b) = match self {
            Dst::R(r) if !r.is_zero_reg() => (Some(r), None),
            Dst::R64(r) if !r.is_zero_reg() => (Some(r), Some(r.pair_hi())),
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// The predicate register this destination writes, excluding `PT`.
    pub fn pred_unit(self) -> Option<PReg> {
        match self {
            Dst::P(p) if !p.is_true_reg() => Some(p),
            _ => None,
        }
    }
}

impl fmt::Display for Dst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dst::None => write!(f, "<none>"),
            Dst::R(r) => write!(f, "{r}"),
            Dst::R64(r) => write!(f, "{r}.64"),
            Dst::P(p) => write!(f, "{p}"),
        }
    }
}

/// A predicate guard: `@P3` or `@!P3`.
///
/// Instructions whose guard evaluates false are skipped *and excluded from
/// the fault-injection profile* (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// Guarding predicate register.
    pub pred: PReg,
    /// If `true`, the guard passes when the predicate is *false* (`@!P`).
    pub negated: bool,
}

impl Guard {
    /// The unconditional guard `@PT`.
    pub const ALWAYS: Guard = Guard { pred: PReg::PT, negated: false };

    /// A positive guard `@P`.
    #[inline]
    pub fn if_true(pred: PReg) -> Guard {
        Guard { pred, negated: false }
    }

    /// A negative guard `@!P`.
    #[inline]
    pub fn if_false(pred: PReg) -> Guard {
        Guard { pred, negated: true }
    }

    /// `true` if the guard is statically unconditional (`@PT`).
    #[inline]
    pub fn is_always(self) -> bool {
        self.pred.is_true_reg() && !self.negated
    }

    /// Evaluate against a predicate value.
    #[inline]
    pub fn passes(self, pred_value: bool) -> bool {
        pred_value != self.negated
    }

    /// Encode into one byte for the module binary format.
    pub fn encode(self) -> u8 {
        (self.pred.0 & 0x7) | if self.negated { 0x8 } else { 0 }
    }

    /// Decode from the byte produced by [`Guard::encode`].
    pub fn decode(b: u8) -> Guard {
        Guard { pred: PReg(b & 0x7), negated: b & 0x8 != 0 }
    }
}

impl Default for Guard {
    fn default() -> Self {
        Guard::ALWAYS
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "@!{}", self.pred)
        } else {
            write!(f, "@{}", self.pred)
        }
    }
}

/// One architectural register unit an instruction reads or writes: a
/// 32-bit GPR unit or a predicate register.
///
/// Register pairs contribute both halves; `RZ` and `PT` never appear in
/// def/use sets (reads of them are constants, writes to them are
/// discarded). This is the vocabulary of the dataflow analyses in
/// `gpu-analysis`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegSlot {
    /// A general-purpose 32-bit register unit (`R0`–`R254`).
    Gpr(Reg),
    /// A predicate register (`P0`–`P6`).
    Pred(PReg),
}

impl fmt::Display for RegSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegSlot::Gpr(r) => write!(f, "{r}"),
            RegSlot::Pred(p) => write!(f, "{p}"),
        }
    }
}

fn push_slot(out: &mut Vec<RegSlot>, slot: RegSlot) {
    let hardwired = match slot {
        RegSlot::Gpr(r) => r.is_zero_reg(),
        RegSlot::Pred(p) => p.is_true_reg(),
    };
    if !hardwired && !out.contains(&slot) {
        out.push(slot);
    }
}

/// Maximum number of source operands per instruction.
pub const MAX_SRCS: usize = 4;

/// Maximum number of destination operands per instruction.
pub const MAX_DSTS: usize = 2;

/// A single SASS-like instruction.
///
/// Branch targets ([`Instr::target`]) are instruction indices within the
/// kernel, resolved by the assembler from labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instr {
    /// Predicate guard (`@PT` when unconditional).
    pub guard: Guard,
    /// The opcode.
    pub op: Opcode,
    /// Opcode modifier (comparison, width, function, …).
    pub modifier: Modifier,
    /// Destination operands.
    pub dsts: [Dst; MAX_DSTS],
    /// Source operands.
    pub srcs: [Operand; MAX_SRCS],
    /// Branch target (instruction index) for control-flow opcodes.
    pub target: u32,
}

impl Instr {
    /// A new unguarded instruction with no operands.
    pub fn new(op: Opcode) -> Instr {
        Instr {
            guard: Guard::ALWAYS,
            op,
            modifier: Modifier::None,
            dsts: [Dst::None; MAX_DSTS],
            srcs: [Operand::None; MAX_SRCS],
            target: 0,
        }
    }

    /// All 32-bit GPR destination units (register pairs expand to both
    /// halves; `RZ` writes are excluded because they are discarded).
    ///
    /// This is the set the transient injector's *destination register*
    /// parameter (Table II) selects from for GPR-targeting groups.
    pub fn gpr_dests(&self) -> Vec<Reg> {
        self.dsts.iter().flat_map(|d| d.gpr_units()).collect()
    }

    /// All predicate destination units (excluding `PT`).
    pub fn pred_dests(&self) -> Vec<PReg> {
        self.dsts.iter().filter_map(|d| d.pred_unit()).collect()
    }

    /// `true` if the instruction has at least one architecturally visible
    /// destination (GPR or predicate).
    pub fn has_dest(&self) -> bool {
        !self.gpr_dests().is_empty() || !self.pred_dests().is_empty()
    }

    /// The memory reference, if any source is a [`Operand::Mem`].
    #[inline]
    pub fn mem_ref(&self) -> Option<MemRef> {
        self.srcs.iter().find_map(|s| match s {
            Operand::Mem(m) => Some(*m),
            _ => None,
        })
    }

    /// The register units this instruction *writes* (its def set):
    /// GPR destinations with pairs expanded plus predicate destinations,
    /// excluding the hard-wired `RZ`/`PT`, deduplicated.
    pub fn defs(&self) -> Vec<RegSlot> {
        let mut out = Vec::new();
        for d in self.dsts {
            for r in d.gpr_units() {
                push_slot(&mut out, RegSlot::Gpr(r));
            }
            if let Some(p) = d.pred_unit() {
                push_slot(&mut out, RegSlot::Pred(p));
            }
        }
        out
    }

    /// The register units this instruction *reads* (its use set):
    /// source registers (pairs expanded), predicate sources, memory base
    /// addresses, and the guard predicate when the instruction is
    /// predicated — excluding `RZ`/`PT`, deduplicated.
    ///
    /// A 64-bit source contributes both pair halves even where an opcode's
    /// semantics only consume the low word, so the set over-approximates:
    /// it is a superset of the units any execution actually reads, which is
    /// the sound direction for liveness-based dead-fault pruning. `VOTE`
    /// without a predicate source contributes `R0`, matching the
    /// simulator's cross-lane fallback read.
    pub fn uses(&self) -> Vec<RegSlot> {
        let mut out = Vec::new();
        if !self.guard.is_always() {
            push_slot(&mut out, RegSlot::Pred(self.guard.pred));
        }
        for s in self.srcs {
            match s {
                Operand::R(r) => push_slot(&mut out, RegSlot::Gpr(r)),
                Operand::R64(r) => {
                    push_slot(&mut out, RegSlot::Gpr(r));
                    push_slot(&mut out, RegSlot::Gpr(r.pair_hi()));
                }
                Operand::P(p) | Operand::NotP(p) => push_slot(&mut out, RegSlot::Pred(p)),
                Operand::Mem(m) => push_slot(&mut out, RegSlot::Gpr(m.base)),
                Operand::Imm(_) | Operand::Sr(_) | Operand::None => {}
            }
        }
        if self.op.family() == ExecFamily::Vote
            && !matches!(self.srcs[0], Operand::P(_) | Operand::NotP(_))
        {
            push_slot(&mut out, RegSlot::Gpr(Reg(0)));
        }
        out
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.guard.is_always() {
            write!(f, "{} ", self.guard)?;
        }
        write!(f, "{}{}", self.op, self.modifier)?;
        let mut first = true;
        for d in self.dsts.iter().filter(|d| !d.is_none()) {
            write!(f, "{} {d}", if first { "" } else { "," })?;
            first = false;
        }
        for s in self.srcs.iter().filter(|s| !s.is_none()) {
            write!(f, "{} {s}", if first { "" } else { "," })?;
            first = false;
        }
        if matches!(self.op, Opcode::BRA | Opcode::JMP | Opcode::CALL | Opcode::JCAL) {
            write!(f, "{} ->{}", if first { "" } else { "," }, self.target)?;
        }
        Ok(())
    }
}

/// A compiled kernel: a name, an instruction stream, and resource needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: String,
    instrs: Vec<Instr>,
    shared_bytes: u32,
}

impl Kernel {
    /// Assemble a kernel from parts.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadKernelName`] for an empty name and
    /// [`IsaError::BranchOutOfRange`] if any branch target exceeds the
    /// instruction count.
    pub fn new(
        name: impl Into<String>,
        instrs: Vec<Instr>,
        shared_bytes: u32,
    ) -> Result<Kernel, IsaError> {
        let name = name.into();
        if name.is_empty() {
            return Err(IsaError::BadKernelName);
        }
        for i in &instrs {
            if matches!(i.op, Opcode::BRA | Opcode::JMP) && i.target as usize >= instrs.len() {
                return Err(IsaError::BranchOutOfRange { target: i.target, len: instrs.len() });
            }
        }
        Ok(Kernel { name, instrs, shared_bytes })
    }

    /// The kernel's (mangled) name — the identity used by the fault
    /// injector's *kernel name* parameter.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction stream.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Bytes of shared memory the kernel requires per block.
    pub fn shared_bytes(&self) -> u32 {
        self.shared_bytes
    }

    /// Number of *static* instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` if the kernel has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// A loadable module: a named collection of kernels, the unit shipped as a
/// binary (the analog of a `cubin`).
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    name: String,
    kernels: Vec<Kernel>,
}

impl Module {
    /// Create a module from kernels.
    pub fn new(name: impl Into<String>, kernels: Vec<Kernel>) -> Module {
        Module { name: name.into(), kernels }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernels in the module.
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Find a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Opcode;

    fn fadd(dst: u8, a: u8, b: u8) -> Instr {
        let mut i = Instr::new(Opcode::FADD);
        i.dsts[0] = Dst::R(Reg(dst));
        i.srcs[0] = Operand::R(Reg(a));
        i.srcs[1] = Operand::R(Reg(b));
        i
    }

    #[test]
    fn gpr_dests_for_scalar_and_pair() {
        let i = fadd(3, 1, 2);
        assert_eq!(i.gpr_dests(), vec![Reg(3)]);

        let mut d = Instr::new(Opcode::DADD);
        d.dsts[0] = Dst::R64(Reg(4));
        assert_eq!(d.gpr_dests(), vec![Reg(4), Reg(5)]);
    }

    #[test]
    fn rz_dest_is_not_injectable() {
        let mut i = Instr::new(Opcode::FADD);
        i.dsts[0] = Dst::R(Reg::RZ);
        assert!(i.gpr_dests().is_empty());
        assert!(!i.has_dest());
    }

    #[test]
    fn pred_dests() {
        let mut i = Instr::new(Opcode::ISETP);
        i.dsts[0] = Dst::P(PReg(2));
        assert_eq!(i.pred_dests(), vec![PReg(2)]);
        assert!(i.gpr_dests().is_empty());
        assert!(i.has_dest());
    }

    #[test]
    fn defs_cover_gpr_and_pred_dests() {
        let i = fadd(3, 1, 2);
        assert_eq!(i.defs(), vec![RegSlot::Gpr(Reg(3))]);

        let mut d = Instr::new(Opcode::DADD);
        d.dsts[0] = Dst::R64(Reg(6));
        d.dsts[1] = Dst::P(PReg(1));
        assert_eq!(
            d.defs(),
            vec![RegSlot::Gpr(Reg(6)), RegSlot::Gpr(Reg(7)), RegSlot::Pred(PReg(1))]
        );

        let mut z = Instr::new(Opcode::FADD);
        z.dsts[0] = Dst::R(Reg::RZ);
        z.dsts[1] = Dst::P(PReg::PT);
        assert!(z.defs().is_empty());
    }

    #[test]
    fn uses_cover_sources_guard_and_mem_base() {
        let mut i = fadd(3, 1, 2);
        i.guard = Guard::if_false(PReg(2));
        assert_eq!(
            i.uses(),
            vec![RegSlot::Pred(PReg(2)), RegSlot::Gpr(Reg(1)), RegSlot::Gpr(Reg(2))]
        );

        // Pair source expands; RZ and PT never appear; duplicates collapse.
        let mut d = Instr::new(Opcode::DMUL);
        d.srcs[0] = Operand::R64(Reg(4));
        d.srcs[1] = Operand::R64(Reg(4));
        d.srcs[2] = Operand::R(Reg::RZ);
        d.srcs[3] = Operand::P(PReg::PT);
        assert_eq!(d.uses(), vec![RegSlot::Gpr(Reg(4)), RegSlot::Gpr(Reg(5))]);

        let mut l = Instr::new(Opcode::LDG);
        l.srcs[0] = Operand::Mem(MemRef { base: Reg(9), offset: 4, space: Space::Global });
        assert_eq!(l.uses(), vec![RegSlot::Gpr(Reg(9))]);
    }

    #[test]
    fn vote_without_pred_source_reads_r0() {
        // The simulator's cross-lane snapshot reads R0 as the vote
        // predicate when srcs[0] is not a predicate operand.
        let v = Instr::new(Opcode::VOTE);
        assert_eq!(v.uses(), vec![RegSlot::Gpr(Reg(0))]);

        let mut vp = Instr::new(Opcode::VOTE);
        vp.srcs[0] = Operand::NotP(PReg(3));
        assert_eq!(vp.uses(), vec![RegSlot::Pred(PReg(3))]);
    }

    #[test]
    fn guard_eval() {
        assert!(Guard::ALWAYS.passes(true));
        assert!(Guard::if_true(PReg(0)).passes(true));
        assert!(!Guard::if_true(PReg(0)).passes(false));
        assert!(Guard::if_false(PReg(0)).passes(false));
        assert!(!Guard::if_false(PReg(0)).passes(true));
    }

    #[test]
    fn guard_encode_roundtrip() {
        for p in 0..8u8 {
            for neg in [false, true] {
                let g = Guard { pred: PReg(p), negated: neg };
                assert_eq!(Guard::decode(g.encode()), g);
            }
        }
    }

    #[test]
    fn kernel_rejects_empty_name() {
        assert_eq!(Kernel::new("", vec![], 0), Err(IsaError::BadKernelName));
    }

    #[test]
    fn kernel_rejects_wild_branch() {
        let mut b = Instr::new(Opcode::BRA);
        b.target = 42;
        let err = Kernel::new("k", vec![b], 0).unwrap_err();
        assert!(matches!(err, IsaError::BranchOutOfRange { target: 42, len: 1 }));
    }

    #[test]
    fn module_lookup() {
        let k = Kernel::new("k1", vec![fadd(0, 1, 2)], 0).expect("kernel");
        let m = Module::new("m", vec![k]);
        assert!(m.kernel("k1").is_some());
        assert!(m.kernel("nope").is_none());
    }

    #[test]
    fn instr_display_contains_operands() {
        let i = fadd(3, 1, 2);
        let s = i.to_string();
        assert!(s.contains("FADD"), "{s}");
        assert!(s.contains("R3"), "{s}");
        assert!(s.contains("R1"), "{s}");
    }

    #[test]
    fn guarded_instr_display() {
        let mut i = fadd(3, 1, 2);
        i.guard = Guard::if_false(PReg(1));
        assert!(i.to_string().starts_with("@!P1 "));
    }
}
