//! Instruction inspection — NVBit's `Instr` API.
//!
//! Tools never see assembler structures; they inspect decoded binary
//! instructions through this view, mirroring `Instr::getOpcode()`,
//! destination queries, and SASS printing from NVBit.

use gpu_isa::{disasm, Instr, InstrClass, Opcode, PReg, Reg};

/// Read-only view of one decoded instruction at a known program counter.
#[derive(Debug, Clone, Copy)]
pub struct InstrView<'a> {
    pc: u32,
    instr: &'a Instr,
}

impl<'a> InstrView<'a> {
    /// Wrap an instruction at a program counter.
    pub fn new(pc: u32, instr: &'a Instr) -> InstrView<'a> {
        InstrView { pc, instr }
    }

    /// The instruction index within the kernel.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The raw instruction.
    pub fn instr(&self) -> &'a Instr {
        self.instr
    }

    /// The opcode.
    pub fn opcode(&self) -> Opcode {
        self.instr.op
    }

    /// The opcode mnemonic, e.g. `"FFMA"`.
    pub fn opcode_str(&self) -> &'static str {
        self.instr.op.mnemonic()
    }

    /// The destination-based instruction class.
    pub fn class(&self) -> InstrClass {
        self.instr.op.class()
    }

    /// General-purpose destination register units (pairs expanded, `RZ`
    /// excluded) — the candidates the transient injector's *destination
    /// register* parameter selects among.
    pub fn gpr_dests(&self) -> Vec<Reg> {
        self.instr.gpr_dests()
    }

    /// Predicate destination registers (excluding `PT`).
    pub fn pred_dests(&self) -> Vec<PReg> {
        self.instr.pred_dests()
    }

    /// `true` if the instruction has any architecturally visible
    /// destination.
    pub fn has_dest(&self) -> bool {
        self.instr.has_dest()
    }

    /// `true` if the instruction reads memory.
    pub fn is_load(&self) -> bool {
        self.class() == InstrClass::Ld
    }

    /// The SASS-style listing line (`/*0007*/  FFMA R4, R2, R3, R4`).
    pub fn sass(&self) -> String {
        disasm::line(self.pc as usize, self.instr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::asm::KernelBuilder;
    use gpu_isa::{CmpOp, Reg};

    #[test]
    fn view_reports_instruction_facts() {
        let mut k = KernelBuilder::new("k");
        k.ffma(Reg(4), Reg(1), Reg(2), Reg(3));
        k.isetp(PReg(0), CmpOp::Lt, Reg(4), 10);
        k.ldg(Reg(5), Reg(6), 0);
        k.stg(Reg(6), 0, Reg(5));
        k.exit();
        let kernel = k.finish();
        let views: Vec<InstrView<'_>> = kernel
            .instrs()
            .iter()
            .enumerate()
            .map(|(pc, i)| InstrView::new(pc as u32, i))
            .collect();

        assert_eq!(views[0].opcode_str(), "FFMA");
        assert_eq!(views[0].gpr_dests(), vec![Reg(4)]);
        assert!(views[0].has_dest());
        assert!(!views[0].is_load());

        assert_eq!(views[1].pred_dests(), vec![PReg(0)]);
        assert!(views[1].gpr_dests().is_empty());

        assert!(views[2].is_load());
        assert!(!views[3].has_dest());
        assert!(views[4].sass().contains("EXIT"));
        assert!(views[0].sass().starts_with("/*0000*/"));
    }
}
