//! The opcode table: 171 opcodes, their classes, and execution families.
//!
//! The NVBitFI paper (Table III) states that "the Volta ISA contains 171
//! opcodes", and its permanent-fault campaign runs one experiment per opcode.
//! This table therefore enumerates exactly 171 opcodes modeled after the
//! public Volta/Maxwell/Kepler SASS mnemonic lists. Each opcode carries:
//!
//! * an [`InstrClass`] — the destination-based classification that the
//!   transient-fault *instruction group id* (Table II) is built from, and
//! * an [`ExecFamily`] — the semantic family the simulator dispatches on.
//!   Opcodes the synthetic workloads never use map to
//!   [`ExecFamily::Unimplemented`]; executing one raises an
//!   illegal-instruction trap, exactly like running an unsupported encoding
//!   on real hardware.

use std::fmt;

/// Destination-based instruction classification.
///
/// This mirrors the grouping the paper's Table II builds its *arch state id*
/// (instruction group) parameter from: FP64 and FP32 arithmetic, memory
/// reads, predicate-only writers, instructions with no destination, and
/// everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// FP64 arithmetic writing a general-purpose register pair.
    Fp64,
    /// FP32 (or packed FP16) arithmetic writing a general-purpose register.
    Fp32,
    /// Instructions that read from memory (loads, atomics, texture reads).
    Ld,
    /// Instructions that write *only* predicate registers.
    Pr,
    /// Instructions with no destination register (stores, branches, barriers).
    NoDest,
    /// All remaining GPR-writing instructions (integer, moves, conversions).
    Other,
}

impl InstrClass {
    /// All classes, in a stable order.
    pub const ALL: [InstrClass; 6] = [
        InstrClass::Fp64,
        InstrClass::Fp32,
        InstrClass::Ld,
        InstrClass::Pr,
        InstrClass::NoDest,
        InstrClass::Other,
    ];
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstrClass::Fp64 => "FP64",
            InstrClass::Fp32 => "FP32",
            InstrClass::Ld => "LD",
            InstrClass::Pr => "PR",
            InstrClass::NoDest => "NODEST",
            InstrClass::Other => "OTHER",
        };
        f.write_str(s)
    }
}

/// Semantic family an opcode executes as.
///
/// The simulator implements one interpreter routine per family; several
/// opcodes (e.g. `FADD` and `FADD32I`) share a family and differ only in
/// their operand kinds. Families the synthetic workloads cannot reach are
/// collapsed into [`ExecFamily::Unimplemented`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// The variant names *are* the semantics (FAdd = FP32 add, …); per-variant
// doc comments would only repeat them.
#[allow(missing_docs)]
pub enum ExecFamily {
    // FP32
    FAdd,
    FMul,
    FFma,
    FMnMx,
    FSel,
    FSet,
    FSetP,
    FChk,
    Mufu,
    FSwzAdd,
    FCmp,
    FRnd,
    // Packed FP16 (two halves per 32-bit register)
    HAdd2,
    HMul2,
    HFma2,
    HSet2,
    HSetP2,
    HMnMx2,
    // FP64 (register pairs)
    DAdd,
    DMul,
    DFma,
    DMnMx,
    DSet,
    DSetP,
    // Integer
    IAdd,
    ISub,
    IAdd3,
    IMad,
    IMul,
    IMnMx,
    IScAdd,
    Lea,
    ISet,
    ISetP,
    ICmp,
    ISad,
    IAbs,
    Lop,
    Lop3,
    Popc,
    Flo,
    Brev,
    Bmsk,
    Bfe,
    Bfi,
    Shf,
    Shl,
    Shr,
    Xmad,
    // Conversions
    F2F,
    F2I,
    I2F,
    I2I,
    // Data movement / predicates
    Mov,
    Sel,
    Prmt,
    Sgxt,
    Shfl,
    S2R,
    P2R,
    R2P,
    PSet,
    PSetP,
    PLop3,
    Vote,
    // Memory
    Ld,
    Atom,
    St,
    Red,
    // Control
    Bra,
    Brx,
    Exit,
    Bar,
    Call,
    Ret,
    Kill,
    Bpt,
    Nop,
    MemFence,
    NanoSleep,
    /// Convergence-management hints (`BSSY`, `SSY`, `WARPSYNC`, …): no-ops in
    /// this per-thread-PC execution model.
    ReconvHint,
    /// Executing this opcode raises an illegal-instruction trap.
    Unimplemented,
}

macro_rules! opcodes {
    ($(($variant:ident, $mnemonic:literal, $class:ident, $family:ident)),+ $(,)?) => {
        /// A SASS-like opcode. See the module documentation for the
        /// table's provenance; there are exactly `OPCODE_COUNT` (171)
        /// opcodes.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        // Variants are the SASS mnemonics themselves; see the table below.
        #[allow(non_camel_case_types, missing_docs)]
        #[repr(u16)]
        pub enum Opcode {
            $($variant),+
        }

        /// Number of opcodes in the ISA (the paper's Volta count: 171).
        pub const OPCODE_COUNT: usize = [$(Opcode::$variant),+].len();

        impl Opcode {
            /// Every opcode, ordered by encoding value.
            pub const ALL: [Opcode; OPCODE_COUNT] = [$(Opcode::$variant),+];

            /// The SASS mnemonic, e.g. `"FADD"`.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(Opcode::$variant => $mnemonic),+
                }
            }

            /// Destination-based class used for fault-injection grouping.
            pub fn class(self) -> InstrClass {
                match self {
                    $(Opcode::$variant => InstrClass::$class),+
                }
            }

            /// Semantic family the simulator dispatches on.
            pub fn family(self) -> ExecFamily {
                match self {
                    $(Opcode::$variant => ExecFamily::$family),+
                }
            }
        }
    };
}

opcodes! {
    // --- FP32 arithmetic ------------------------------------------------
    (FADD, "FADD", Fp32, FAdd),
    (FADD32I, "FADD32I", Fp32, FAdd),
    (FCMP, "FCMP", Fp32, FCmp),
    (FFMA, "FFMA", Fp32, FFma),
    (FFMA32I, "FFMA32I", Fp32, FFma),
    (FMNMX, "FMNMX", Fp32, FMnMx),
    (FMUL, "FMUL", Fp32, FMul),
    (FMUL32I, "FMUL32I", Fp32, FMul),
    (FSEL, "FSEL", Fp32, FSel),
    (FSET, "FSET", Fp32, FSet),
    (FSWZADD, "FSWZADD", Fp32, FSwzAdd),
    (MUFU, "MUFU", Fp32, Mufu),
    (RRO, "RRO", Fp32, Unimplemented),
    (IPA, "IPA", Fp32, Unimplemented),
    (FRND, "FRND", Fp32, FRnd),
    // Packed FP16 (unused by the synthetic workloads)
    (HADD2, "HADD2", Fp32, HAdd2),
    (HADD2_32I, "HADD2_32I", Fp32, HAdd2),
    (HFMA2, "HFMA2", Fp32, HFma2),
    (HFMA2_32I, "HFMA2_32I", Fp32, HFma2),
    (HMNMX2, "HMNMX2", Fp32, HMnMx2),
    (HMUL2, "HMUL2", Fp32, HMul2),
    (HMUL2_32I, "HMUL2_32I", Fp32, HMul2),
    (HSET2, "HSET2", Fp32, HSet2),
    (HMMA, "HMMA", Fp32, Unimplemented),
    // --- FP64 arithmetic ------------------------------------------------
    (DADD, "DADD", Fp64, DAdd),
    (DFMA, "DFMA", Fp64, DFma),
    (DMUL, "DMUL", Fp64, DMul),
    (DMNMX, "DMNMX", Fp64, DMnMx),
    (DSET, "DSET", Fp64, DSet),
    // --- Predicate-only writers ------------------------------------------
    (FCHK, "FCHK", Pr, FChk),
    (FSETP, "FSETP", Pr, FSetP),
    (HSETP2, "HSETP2", Pr, HSetP2),
    (DSETP, "DSETP", Pr, DSetP),
    (ISETP, "ISETP", Pr, ISetP),
    (VSETP, "VSETP", Pr, Unimplemented),
    (R2P, "R2P", Pr, R2P),
    (PLOP3, "PLOP3", Pr, PLop3),
    (PSETP, "PSETP", Pr, PSetP),
    // --- Integer arithmetic / bit manipulation ---------------------------
    (BMSK, "BMSK", Other, Bmsk),
    (BREV, "BREV", Other, Brev),
    (BFE, "BFE", Other, Bfe),
    (BFI, "BFI", Other, Bfi),
    (FLO, "FLO", Other, Flo),
    (IABS, "IABS", Other, IAbs),
    (IADD, "IADD", Other, IAdd),
    (IADD3, "IADD3", Other, IAdd3),
    (IADD32I, "IADD32I", Other, IAdd),
    (ISUB, "ISUB", Other, ISub),
    (ICMP, "ICMP", Other, ICmp),
    (IDP, "IDP", Other, Unimplemented),
    (IDP4A, "IDP4A", Other, Unimplemented),
    (IMAD, "IMAD", Other, IMad),
    (IMAD32I, "IMAD32I", Other, IMad),
    (IMADSP, "IMADSP", Other, Unimplemented),
    (IMNMX, "IMNMX", Other, IMnMx),
    (IMUL, "IMUL", Other, IMul),
    (IMUL32I, "IMUL32I", Other, IMul),
    (ISAD, "ISAD", Other, ISad),
    (ISCADD, "ISCADD", Other, IScAdd),
    (ISCADD32I, "ISCADD32I", Other, IScAdd),
    (ISET, "ISET", Other, ISet),
    (LEA, "LEA", Other, Lea),
    (LOP, "LOP", Other, Lop),
    (LOP3, "LOP3", Other, Lop3),
    (LOP32I, "LOP32I", Other, Lop),
    (POPC, "POPC", Other, Popc),
    (SHF, "SHF", Other, Shf),
    (SHL, "SHL", Other, Shl),
    (SHR, "SHR", Other, Shr),
    (VABSDIFF, "VABSDIFF", Other, Unimplemented),
    (VABSDIFF4, "VABSDIFF4", Other, Unimplemented),
    (VADD, "VADD", Other, Unimplemented),
    (VMAD, "VMAD", Other, Unimplemented),
    (VMNMX, "VMNMX", Other, Unimplemented),
    (VSET, "VSET", Other, Unimplemented),
    (VSHL, "VSHL", Other, Unimplemented),
    (VSHR, "VSHR", Other, Unimplemented),
    (XMAD, "XMAD", Other, Xmad),
    (IMMA, "IMMA", Other, Unimplemented),
    (BMMA, "BMMA", Other, Unimplemented),
    // --- Conversions ------------------------------------------------------
    (F2F, "F2F", Other, F2F),
    (F2I, "F2I", Other, F2I),
    (I2F, "I2F", Other, I2F),
    (I2I, "I2I", Other, I2I),
    (I2IP, "I2IP", Other, Unimplemented),
    // --- Data movement ----------------------------------------------------
    (MOV, "MOV", Other, Mov),
    (MOV32I, "MOV32I", Other, Mov),
    (MOVM, "MOVM", Other, Unimplemented),
    (PRMT, "PRMT", Other, Prmt),
    (SEL, "SEL", Other, Sel),
    (SGXT, "SGXT", Other, Sgxt),
    (SHFL, "SHFL", Other, Shfl),
    (CS2R, "CS2R", Other, S2R),
    (S2R, "S2R", Other, S2R),
    (B2R, "B2R", Other, Unimplemented),
    (GETLMEMBASE, "GETLMEMBASE", Other, Unimplemented),
    (LEPC, "LEPC", Other, Unimplemented),
    (P2R, "P2R", Other, P2R),
    (PSET, "PSET", Other, PSet),
    (MATCH, "MATCH", Other, Unimplemented),
    (QSPC, "QSPC", Other, Unimplemented),
    (VOTE, "VOTE", Other, Vote),
    (AL2P, "AL2P", Other, Unimplemented),
    (OUT, "OUT", Other, Unimplemented),
    (SUQ, "SUQ", Other, Unimplemented),
    // --- Memory reads -------------------------------------------------------
    (LD, "LD", Ld, Ld),
    (LDC, "LDC", Ld, Ld),
    (LDG, "LDG", Ld, Ld),
    (LDL, "LDL", Ld, Ld),
    (LDS, "LDS", Ld, Ld),
    (LDU, "LDU", Ld, Ld),
    (LDSM, "LDSM", Ld, Unimplemented),
    (ATOM, "ATOM", Ld, Atom),
    (ATOMS, "ATOMS", Ld, Atom),
    (ATOMG, "ATOMG", Ld, Atom),
    (TEX, "TEX", Ld, Unimplemented),
    (TLD, "TLD", Ld, Unimplemented),
    (TLD4, "TLD4", Ld, Unimplemented),
    (TMML, "TMML", Ld, Unimplemented),
    (TXA, "TXA", Ld, Unimplemented),
    (TXD, "TXD", Ld, Unimplemented),
    (TXQ, "TXQ", Ld, Unimplemented),
    (SUATOM, "SUATOM", Ld, Unimplemented),
    (SULD, "SULD", Ld, Unimplemented),
    (PIXLD, "PIXLD", Ld, Unimplemented),
    // --- Memory writes / cache control (no destination) --------------------
    (ST, "ST", NoDest, St),
    (STG, "STG", NoDest, St),
    (STL, "STL", NoDest, St),
    (STS, "STS", NoDest, St),
    (RED, "RED", NoDest, Red),
    (CCTL, "CCTL", NoDest, Nop),
    (CCTLL, "CCTLL", NoDest, Nop),
    (CCTLT, "CCTLT", NoDest, Nop),
    (ERRBAR, "ERRBAR", NoDest, Nop),
    (MEMBAR, "MEMBAR", NoDest, MemFence),
    (SURED, "SURED", NoDest, Unimplemented),
    (SUST, "SUST", NoDest, Unimplemented),
    (R2B, "R2B", NoDest, Unimplemented),
    // --- Control flow -------------------------------------------------------
    (BMOV, "BMOV", NoDest, Nop),
    (BPT, "BPT", NoDest, Bpt),
    (BRA, "BRA", NoDest, Bra),
    (BREAK, "BREAK", NoDest, ReconvHint),
    (BRX, "BRX", NoDest, Brx),
    (BSSY, "BSSY", NoDest, ReconvHint),
    (BSYNC, "BSYNC", NoDest, ReconvHint),
    (CALL, "CALL", NoDest, Call),
    (EXIT, "EXIT", NoDest, Exit),
    (JMP, "JMP", NoDest, Bra),
    (JMX, "JMX", NoDest, Brx),
    (KILL, "KILL", NoDest, Kill),
    (NANOSLEEP, "NANOSLEEP", NoDest, NanoSleep),
    (RET, "RET", NoDest, Ret),
    (RPCMOV, "RPCMOV", NoDest, Unimplemented),
    (RTT, "RTT", NoDest, Unimplemented),
    (WARPSYNC, "WARPSYNC", NoDest, ReconvHint),
    (YIELD, "YIELD", NoDest, ReconvHint),
    (SSY, "SSY", NoDest, ReconvHint),
    (PBK, "PBK", NoDest, ReconvHint),
    (PCNT, "PCNT", NoDest, ReconvHint),
    (CONT, "CONT", NoDest, ReconvHint),
    (SYNC, "SYNC", NoDest, ReconvHint),
    (PRET, "PRET", NoDest, Unimplemented),
    (PLONGJMP, "PLONGJMP", NoDest, Unimplemented),
    (JCAL, "JCAL", NoDest, Call),
    // --- Miscellaneous --------------------------------------------------------
    (BAR, "BAR", NoDest, Bar),
    (DEPBAR, "DEPBAR", NoDest, Nop),
    (NOP, "NOP", NoDest, Nop),
    (PMTRIG, "PMTRIG", NoDest, Nop),
    (SETCTAID, "SETCTAID", NoDest, Unimplemented),
    (SETLMEMBASE, "SETLMEMBASE", NoDest, Unimplemented),
    (VOTE_VTG, "VOTE_VTG", NoDest, Unimplemented),
}

impl Opcode {
    /// Decode from the `u16` produced by [`Opcode::encode`].
    ///
    /// Returns `None` for out-of-range values, which the module loader
    /// reports as a malformed binary.
    pub fn decode(v: u16) -> Option<Opcode> {
        Opcode::ALL.get(v as usize).copied()
    }

    /// Stable `u16` encoding used by the module binary format and by the
    /// permanent-fault *opcode id* parameter (Table III).
    #[inline]
    pub fn encode(self) -> u16 {
        self as u16
    }

    /// Look an opcode up by its mnemonic, e.g. `"FADD"`.
    pub fn from_mnemonic(m: &str) -> Option<Opcode> {
        Opcode::ALL.iter().copied().find(|op| op.mnemonic() == m)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn exactly_171_opcodes() {
        // The paper's Volta opcode count (Table III).
        assert_eq!(OPCODE_COUNT, 171);
        assert_eq!(Opcode::ALL.len(), 171);
    }

    #[test]
    fn mnemonics_are_unique() {
        let set: HashSet<_> = Opcode::ALL.iter().map(|o| o.mnemonic()).collect();
        assert_eq!(set.len(), OPCODE_COUNT);
    }

    #[test]
    fn encode_decode_roundtrip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::decode(op.encode()), Some(op));
        }
        assert_eq!(Opcode::decode(OPCODE_COUNT as u16), None);
        assert_eq!(Opcode::decode(u16::MAX), None);
    }

    #[test]
    fn from_mnemonic_roundtrip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Opcode::from_mnemonic("NOT_AN_OPCODE"), None);
    }

    #[test]
    fn every_class_is_populated() {
        for class in InstrClass::ALL {
            assert!(Opcode::ALL.iter().any(|o| o.class() == class), "no opcode in class {class}");
        }
    }

    #[test]
    fn core_workload_opcodes_are_implemented() {
        // The opcodes the synthetic SpecACCEL-like workloads rely on must
        // have real semantics.
        for m in [
            "FADD", "FMUL", "FFMA", "FSETP", "DADD", "DMUL", "DFMA", "DSETP", "IADD", "IADD3",
            "IMAD", "ISETP", "MOV", "S2R", "LDG", "STG", "LDS", "STS", "BRA", "EXIT", "BAR", "SHL",
            "SHR", "LOP3", "MUFU", "I2F", "F2I", "SEL", "SHFL", "ATOMG",
        ] {
            let op = Opcode::from_mnemonic(m).expect(m);
            assert_ne!(op.family(), ExecFamily::Unimplemented, "{m} must be implemented");
        }
    }

    #[test]
    fn class_counts_match_design() {
        let count = |c: InstrClass| Opcode::ALL.iter().filter(|o| o.class() == c).count();
        assert_eq!(count(InstrClass::Fp32), 24);
        assert_eq!(count(InstrClass::Fp64), 5);
        assert_eq!(count(InstrClass::Pr), 9);
        assert_eq!(count(InstrClass::Ld), 20);
        assert_eq!(count(InstrClass::NoDest), 46);
        assert_eq!(count(InstrClass::Other), 67);
    }
}
