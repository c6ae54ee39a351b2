//! Architectural registers: general-purpose, predicate, and special registers.

use std::fmt;

/// A general-purpose 32-bit register, `R0`–`R255`.
///
/// `R255` is the zero register [`Reg::RZ`]: reads return `0` and writes are
/// discarded, mirroring real SASS. Fault injectors must therefore never pick
/// `RZ` as a destination (corrupting it is architecturally impossible).
///
/// ```
/// use gpu_isa::Reg;
/// assert!(Reg::RZ.is_zero_reg());
/// assert!(!Reg(0).is_zero_reg());
/// assert_eq!(Reg(13).to_string(), "R13");
/// assert_eq!(Reg::RZ.to_string(), "RZ");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// The zero register `R255`: reads as zero, writes are discarded.
    pub const RZ: Reg = Reg(255);

    /// Returns `true` for the hard-wired zero register.
    #[inline]
    pub fn is_zero_reg(self) -> bool {
        self.0 == 255
    }

    /// The odd register of the 64-bit pair starting at `self`.
    ///
    /// FP64 values occupy an aligned even/odd register pair, as on real
    /// hardware. For `RZ` the pair register is `RZ` itself.
    #[inline]
    pub fn pair_hi(self) -> Reg {
        if self.is_zero_reg() {
            Reg::RZ
        } else {
            Reg(self.0 + 1)
        }
    }

    /// Register index as `usize`, for register-file addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero_reg() {
            write!(f, "RZ")
        } else {
            write!(f, "R{}", self.0)
        }
    }
}

impl From<u8> for Reg {
    fn from(v: u8) -> Self {
        Reg(v)
    }
}

/// A 1-bit predicate register, `P0`–`P7`.
///
/// `P7` is the true predicate [`PReg::PT`]: reads return `true` and writes
/// are discarded. Guards of the form `@PT` are unconditional.
///
/// ```
/// use gpu_isa::PReg;
/// assert!(PReg::PT.is_true_reg());
/// assert_eq!(PReg(2).to_string(), "P2");
/// assert_eq!(PReg::PT.to_string(), "PT");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PReg(pub u8);

impl PReg {
    /// The hard-wired true predicate `P7`.
    pub const PT: PReg = PReg(7);

    /// Returns `true` for the hard-wired true predicate.
    #[inline]
    pub fn is_true_reg(self) -> bool {
        self.0 == 7
    }

    /// Predicate index as `usize` (always `< 8`).
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & 0x7) as usize
    }
}

impl fmt::Display for PReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_true_reg() {
            write!(f, "PT")
        } else {
            write!(f, "P{}", self.0)
        }
    }
}

impl From<u8> for PReg {
    fn from(v: u8) -> Self {
        PReg(v & 0x7)
    }
}

/// Special (read-only) registers exposed through `S2R`/`CS2R`.
///
/// These give kernels access to their position in the launch grid and to the
/// physical placement (lane, warp, SM) that the permanent-fault model keys
/// its *SM id* / *lane id* parameters on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpecialReg {
    /// Thread index within the block, x dimension.
    TidX = 0,
    /// Thread index within the block, y dimension.
    TidY = 1,
    /// Thread index within the block, z dimension.
    TidZ = 2,
    /// Block index within the grid, x dimension.
    CtaIdX = 3,
    /// Block index within the grid, y dimension.
    CtaIdY = 4,
    /// Block index within the grid, z dimension.
    CtaIdZ = 5,
    /// Block dimension, x.
    NTidX = 6,
    /// Block dimension, y.
    NTidY = 7,
    /// Block dimension, z.
    NTidZ = 8,
    /// Grid dimension, x.
    NCtaIdX = 9,
    /// Grid dimension, y.
    NCtaIdY = 10,
    /// Grid dimension, z.
    NCtaIdZ = 11,
    /// Hardware lane within the warp (`0..32`).
    LaneId = 12,
    /// Warp slot within the SM.
    WarpId = 13,
    /// Streaming-multiprocessor id.
    SmId = 14,
    /// Monotonic cycle counter (low 32 bits).
    ClockLo = 15,
    /// Flat global thread id `blockIdx.x * blockDim.x + threadIdx.x`,
    /// a convenience not present on real hardware.
    GlobalTidX = 16,
}

impl SpecialReg {
    /// All special registers, in encoding order.
    pub const ALL: [SpecialReg; 17] = [
        SpecialReg::TidX,
        SpecialReg::TidY,
        SpecialReg::TidZ,
        SpecialReg::CtaIdX,
        SpecialReg::CtaIdY,
        SpecialReg::CtaIdZ,
        SpecialReg::NTidX,
        SpecialReg::NTidY,
        SpecialReg::NTidZ,
        SpecialReg::NCtaIdX,
        SpecialReg::NCtaIdY,
        SpecialReg::NCtaIdZ,
        SpecialReg::LaneId,
        SpecialReg::WarpId,
        SpecialReg::SmId,
        SpecialReg::ClockLo,
        SpecialReg::GlobalTidX,
    ];

    /// Decode from the byte produced by [`SpecialReg::encode`].
    pub fn decode(v: u8) -> Option<SpecialReg> {
        Self::ALL.get(v as usize).copied()
    }

    /// Stable byte encoding used by the module binary format.
    #[inline]
    pub fn encode(self) -> u8 {
        self as u8
    }

    /// The SASS-style mnemonic, e.g. `SR_TID.X`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            SpecialReg::TidX => "SR_TID.X",
            SpecialReg::TidY => "SR_TID.Y",
            SpecialReg::TidZ => "SR_TID.Z",
            SpecialReg::CtaIdX => "SR_CTAID.X",
            SpecialReg::CtaIdY => "SR_CTAID.Y",
            SpecialReg::CtaIdZ => "SR_CTAID.Z",
            SpecialReg::NTidX => "SR_NTID.X",
            SpecialReg::NTidY => "SR_NTID.Y",
            SpecialReg::NTidZ => "SR_NTID.Z",
            SpecialReg::NCtaIdX => "SR_NCTAID.X",
            SpecialReg::NCtaIdY => "SR_NCTAID.Y",
            SpecialReg::NCtaIdZ => "SR_NCTAID.Z",
            SpecialReg::LaneId => "SR_LANEID",
            SpecialReg::WarpId => "SR_WARPID",
            SpecialReg::SmId => "SR_SMID",
            SpecialReg::ClockLo => "SR_CLOCKLO",
            SpecialReg::GlobalTidX => "SR_GTID.X",
        }
    }
}

impl fmt::Display for SpecialReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rz_is_zero_reg() {
        assert!(Reg::RZ.is_zero_reg());
        assert!(!Reg(0).is_zero_reg());
        assert!(!Reg(254).is_zero_reg());
    }

    #[test]
    fn reg_pair_hi() {
        assert_eq!(Reg(4).pair_hi(), Reg(5));
        assert_eq!(Reg::RZ.pair_hi(), Reg::RZ);
    }

    #[test]
    fn reg_display() {
        assert_eq!(Reg(0).to_string(), "R0");
        assert_eq!(Reg(99).to_string(), "R99");
        assert_eq!(Reg::RZ.to_string(), "RZ");
    }

    #[test]
    fn preg_display_and_truth() {
        assert_eq!(PReg(0).to_string(), "P0");
        assert_eq!(PReg::PT.to_string(), "PT");
        assert!(PReg::PT.is_true_reg());
        assert!(!PReg(6).is_true_reg());
    }

    #[test]
    fn preg_from_masks_to_three_bits() {
        assert_eq!(PReg::from(15u8), PReg(7));
        assert_eq!(PReg::from(9u8), PReg(1));
    }

    #[test]
    fn special_reg_roundtrip() {
        for sr in SpecialReg::ALL {
            assert_eq!(SpecialReg::decode(sr.encode()), Some(sr));
        }
        assert_eq!(SpecialReg::decode(200), None);
    }

    #[test]
    fn special_reg_mnemonics_unique() {
        let mut seen = std::collections::HashSet::new();
        for sr in SpecialReg::ALL {
            assert!(seen.insert(sr.mnemonic()), "duplicate mnemonic {}", sr);
        }
    }
}
