//! Instruction groups — the *arch state id* parameter of Table II.
//!
//! The transient fault model injects into a chosen subset of instructions.
//! The paper defines eight groups; the first six partition the ISA by
//! destination kind, and the last two are derived unions:
//!
//! | id | group     | contents                                            |
//! |----|-----------|-----------------------------------------------------|
//! | 1  | G_FP64    | FP64 arithmetic                                      |
//! | 2  | G_FP32    | FP32 arithmetic                                      |
//! | 3  | G_LD      | instructions that read memory                        |
//! | 4  | G_PR      | instructions writing predicate registers only        |
//! | 5  | G_NODEST  | instructions with no destination register            |
//! | 6  | G_OTHERS  | everything else                                      |
//! | 7  | G_GPPR    | all − G_NODEST (writes GP *or* predicate registers)  |
//! | 8  | G_GP      | all − G_NODEST − G_PR (writes GP registers)          |

use gpu_isa::{InstrClass, Opcode};
use std::fmt;

/// An instruction group (Table II *arch state id*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum InstrGroup {
    /// FP64 arithmetic instructions.
    Fp64 = 1,
    /// FP32 arithmetic instructions.
    Fp32 = 2,
    /// Instructions that read from memory.
    Ld = 3,
    /// Instructions that write to predicate registers only.
    Pr = 4,
    /// Instructions with no destination register.
    NoDest = 5,
    /// All remaining instructions.
    Others = 6,
    /// Instructions that write general-purpose *or* predicate registers
    /// (`all − G_NODEST`).
    GpPr = 7,
    /// Instructions that write general-purpose registers
    /// (`all − G_NODEST − G_PR`).
    Gp = 8,
}

impl InstrGroup {
    /// All groups, in Table II order.
    pub const ALL: [InstrGroup; 8] = [
        InstrGroup::Fp64,
        InstrGroup::Fp32,
        InstrGroup::Ld,
        InstrGroup::Pr,
        InstrGroup::NoDest,
        InstrGroup::Others,
        InstrGroup::GpPr,
        InstrGroup::Gp,
    ];

    /// The integer *arch state id* (1-based, Table II).
    #[inline]
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Decode a Table II *arch state id*.
    pub fn from_id(id: u8) -> Option<InstrGroup> {
        InstrGroup::ALL.get((id as usize).wrapping_sub(1)).copied()
    }

    /// The paper's group name, e.g. `G_FP32`.
    pub fn name(self) -> &'static str {
        match self {
            InstrGroup::Fp64 => "G_FP64",
            InstrGroup::Fp32 => "G_FP32",
            InstrGroup::Ld => "G_LD",
            InstrGroup::Pr => "G_PR",
            InstrGroup::NoDest => "G_NODEST",
            InstrGroup::Others => "G_OTHERS",
            InstrGroup::GpPr => "G_GPPR",
            InstrGroup::Gp => "G_GP",
        }
    }

    /// Does `op` belong to this group?
    pub fn contains(self, op: Opcode) -> bool {
        let c = op.class();
        match self {
            InstrGroup::Fp64 => c == InstrClass::Fp64,
            InstrGroup::Fp32 => c == InstrClass::Fp32,
            InstrGroup::Ld => c == InstrClass::Ld,
            InstrGroup::Pr => c == InstrClass::Pr,
            InstrGroup::NoDest => c == InstrClass::NoDest,
            InstrGroup::Others => c == InstrClass::Other,
            InstrGroup::GpPr => c != InstrClass::NoDest,
            InstrGroup::Gp => c != InstrClass::NoDest && c != InstrClass::Pr,
        }
    }

    /// `true` if injections in this group may target predicate registers.
    pub fn targets_predicates(self) -> bool {
        matches!(self, InstrGroup::Pr | InstrGroup::GpPr)
    }

    /// `true` if injections in this group may target general-purpose
    /// registers.
    pub fn targets_gprs(self) -> bool {
        !matches!(self, InstrGroup::Pr | InstrGroup::NoDest)
    }
}

impl fmt::Display for InstrGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_table_ii() {
        assert_eq!(InstrGroup::Fp64.id(), 1);
        assert_eq!(InstrGroup::Gp.id(), 8);
        for g in InstrGroup::ALL {
            assert_eq!(InstrGroup::from_id(g.id()), Some(g));
        }
        assert_eq!(InstrGroup::from_id(0), None);
        assert_eq!(InstrGroup::from_id(9), None);
    }

    #[test]
    fn first_six_groups_partition_the_isa() {
        for op in Opcode::ALL {
            let n = InstrGroup::ALL[..6].iter().filter(|g| g.contains(op)).count();
            assert_eq!(n, 1, "{op} must be in exactly one base group");
        }
    }

    #[test]
    fn derived_groups_match_formulas() {
        for op in Opcode::ALL {
            // G_GPPR = all − G_NODEST
            assert_eq!(InstrGroup::GpPr.contains(op), !InstrGroup::NoDest.contains(op), "{op}");
            // G_GP = all − G_NODEST − G_PR
            assert_eq!(
                InstrGroup::Gp.contains(op),
                !InstrGroup::NoDest.contains(op) && !InstrGroup::Pr.contains(op),
                "{op}"
            );
        }
    }

    #[test]
    fn spot_check_membership() {
        let op = |m: &str| Opcode::from_mnemonic(m).expect(m);
        assert!(InstrGroup::Fp64.contains(op("DFMA")));
        assert!(InstrGroup::Fp32.contains(op("FFMA")));
        assert!(InstrGroup::Ld.contains(op("LDG")));
        assert!(InstrGroup::Pr.contains(op("ISETP")));
        assert!(InstrGroup::NoDest.contains(op("STG")));
        assert!(InstrGroup::NoDest.contains(op("BRA")));
        assert!(InstrGroup::Others.contains(op("IADD")));
        assert!(InstrGroup::Gp.contains(op("LDG")));
        assert!(!InstrGroup::Gp.contains(op("ISETP")));
        assert!(InstrGroup::GpPr.contains(op("ISETP")));
    }
}
