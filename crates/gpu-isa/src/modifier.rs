//! Instruction modifiers: comparison operators, boolean combiners, memory
//! widths, MUFU functions, and rounding modes.
//!
//! Real SASS packs these into opcode suffixes (`ISETP.GE.AND`,
//! `LDG.E.64`, `MUFU.RCP`). We model them as a single [`Modifier`] value per
//! instruction with a compact, stable binary encoding.

use crate::IsaError;
use std::fmt;

/// Comparison operator for `*SETP` / `*SET` / `*CMP` / `*MNMX` instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CmpOp {
    /// Less than.
    Lt = 0,
    /// Equal.
    Eq = 1,
    /// Less than or equal.
    Le = 2,
    /// Greater than.
    Gt = 3,
    /// Not equal.
    Ne = 4,
    /// Greater than or equal.
    Ge = 5,
}

impl CmpOp {
    /// All comparison operators in encoding order.
    pub const ALL: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Eq, CmpOp::Le, CmpOp::Gt, CmpOp::Ne, CmpOp::Ge];

    /// Evaluate on a pre-computed three-way ordering.
    #[inline]
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Eq => ord == Equal,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ne => ord != Equal,
            CmpOp::Ge => ord != Less,
        }
    }

    /// SASS-style suffix, e.g. `GE`.
    pub fn suffix(self) -> &'static str {
        match self {
            CmpOp::Lt => "LT",
            CmpOp::Eq => "EQ",
            CmpOp::Le => "LE",
            CmpOp::Gt => "GT",
            CmpOp::Ne => "NE",
            CmpOp::Ge => "GE",
        }
    }
}

/// Boolean combiner for `SETP`-style instructions (`result = cmp BOOL pred`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BoolOp {
    /// Logical AND.
    And = 0,
    /// Logical OR.
    Or = 1,
    /// Logical XOR.
    Xor = 2,
}

impl BoolOp {
    /// All boolean combiners in encoding order.
    pub const ALL: [BoolOp; 3] = [BoolOp::And, BoolOp::Or, BoolOp::Xor];

    /// Apply the combiner.
    #[inline]
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            BoolOp::And => a && b,
            BoolOp::Or => a || b,
            BoolOp::Xor => a != b,
        }
    }

    /// SASS-style suffix, e.g. `AND`.
    pub fn suffix(self) -> &'static str {
        match self {
            BoolOp::And => "AND",
            BoolOp::Or => "OR",
            BoolOp::Xor => "XOR",
        }
    }
}

/// Access width for memory instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MemWidth {
    /// 8-bit (zero-extended on load).
    B8 = 0,
    /// 16-bit (zero-extended on load).
    B16 = 1,
    /// 32-bit.
    B32 = 2,
    /// 64-bit (register pair).
    B64 = 3,
}

impl MemWidth {
    /// All widths in encoding order.
    pub const ALL: [MemWidth; 4] = [MemWidth::B8, MemWidth::B16, MemWidth::B32, MemWidth::B64];

    /// Width in bytes.
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::B8 => 1,
            MemWidth::B16 => 2,
            MemWidth::B32 => 4,
            MemWidth::B64 => 8,
        }
    }

    /// SASS-style suffix, e.g. `64` in `LDG.E.64`.
    pub fn suffix(self) -> &'static str {
        match self {
            MemWidth::B8 => "U8",
            MemWidth::B16 => "U16",
            MemWidth::B32 => "32",
            MemWidth::B64 => "64",
        }
    }
}

/// Transcendental function selector for `MUFU` (multi-function unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MufuFunc {
    /// Reciprocal `1/x`.
    Rcp = 0,
    /// Reciprocal square root.
    Rsq = 1,
    /// Square root.
    Sqrt = 2,
    /// Base-2 exponential.
    Ex2 = 3,
    /// Base-2 logarithm.
    Lg2 = 4,
    /// Sine (argument in radians).
    Sin = 5,
    /// Cosine (argument in radians).
    Cos = 6,
}

impl MufuFunc {
    /// All functions in encoding order.
    pub const ALL: [MufuFunc; 7] = [
        MufuFunc::Rcp,
        MufuFunc::Rsq,
        MufuFunc::Sqrt,
        MufuFunc::Ex2,
        MufuFunc::Lg2,
        MufuFunc::Sin,
        MufuFunc::Cos,
    ];

    /// Apply the function to an `f32`.
    #[inline]
    pub fn eval(self, x: f32) -> f32 {
        match self {
            MufuFunc::Rcp => 1.0 / x,
            MufuFunc::Rsq => 1.0 / x.sqrt(),
            MufuFunc::Sqrt => x.sqrt(),
            MufuFunc::Ex2 => x.exp2(),
            MufuFunc::Lg2 => x.log2(),
            MufuFunc::Sin => x.sin(),
            MufuFunc::Cos => x.cos(),
        }
    }

    /// SASS-style suffix, e.g. `RCP`.
    pub fn suffix(self) -> &'static str {
        match self {
            MufuFunc::Rcp => "RCP",
            MufuFunc::Rsq => "RSQ",
            MufuFunc::Sqrt => "SQRT",
            MufuFunc::Ex2 => "EX2",
            MufuFunc::Lg2 => "LG2",
            MufuFunc::Sin => "SIN",
            MufuFunc::Cos => "COS",
        }
    }
}

/// Rounding / conversion mode for `FRND`, `F2I`, `I2F` and `F2F`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RoundMode {
    /// Round to nearest even.
    Rn = 0,
    /// Round toward zero (truncate).
    Rz = 1,
    /// Round toward negative infinity (floor).
    Rm = 2,
    /// Round toward positive infinity (ceiling).
    Rp = 3,
}

impl RoundMode {
    /// All rounding modes in encoding order.
    pub const ALL: [RoundMode; 4] = [RoundMode::Rn, RoundMode::Rz, RoundMode::Rm, RoundMode::Rp];

    /// Round an `f64` to an integral `f64` using this mode.
    #[inline]
    pub fn round_f64(self, x: f64) -> f64 {
        match self {
            RoundMode::Rn => {
                // round-half-to-even
                let r = x.round();
                if (x - x.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
                    r - (r - x).signum()
                } else {
                    r
                }
            }
            RoundMode::Rz => x.trunc(),
            RoundMode::Rm => x.floor(),
            RoundMode::Rp => x.ceil(),
        }
    }

    /// SASS-style suffix, e.g. `TRUNC` for round-toward-zero.
    pub fn suffix(self) -> &'static str {
        match self {
            RoundMode::Rn => "RN",
            RoundMode::Rz => "TRUNC",
            RoundMode::Rm => "FLOOR",
            RoundMode::Rp => "CEIL",
        }
    }
}

/// The full modifier attached to an instruction.
///
/// Most instructions carry [`Modifier::None`]. Comparison instructions carry
/// a [`CmpOp`] and optionally a [`BoolOp`]; memory instructions carry a
/// [`MemWidth`]; `MUFU` a [`MufuFunc`]; conversions a [`RoundMode`]; `LOP3` /
/// `PLOP3` an 8-bit truth table; `SHFL` a shuffle mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Modifier {
    /// No modifier.
    #[default]
    None,
    /// Comparison with an implicit `AND PT` combiner.
    Cmp(CmpOp),
    /// Comparison with an explicit boolean combiner.
    CmpBool(CmpOp, BoolOp),
    /// Memory access width.
    Width(MemWidth),
    /// Transcendental function selector.
    Func(MufuFunc),
    /// Rounding mode for conversions.
    Round(RoundMode),
    /// `LOP3`/`PLOP3` 8-bit truth table (`immLut`).
    Lut(u8),
    /// Warp-shuffle mode.
    Shfl(ShflMode),
    /// Atomic read-modify-write operation.
    AtomOp(AtomOp),
}

/// Warp shuffle source-lane computation for `SHFL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ShflMode {
    /// Source lane = absolute lane index.
    Idx = 0,
    /// Source lane = own lane − delta.
    Up = 1,
    /// Source lane = own lane + delta.
    Down = 2,
    /// Source lane = own lane XOR mask (butterfly).
    Bfly = 3,
}

impl ShflMode {
    /// All shuffle modes in encoding order.
    pub const ALL: [ShflMode; 4] = [ShflMode::Idx, ShflMode::Up, ShflMode::Down, ShflMode::Bfly];

    /// SASS-style suffix, e.g. `BFLY`.
    pub fn suffix(self) -> &'static str {
        match self {
            ShflMode::Idx => "IDX",
            ShflMode::Up => "UP",
            ShflMode::Down => "DOWN",
            ShflMode::Bfly => "BFLY",
        }
    }
}

/// Read-modify-write operation for `ATOM`/`ATOMS`/`ATOMG`/`RED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AtomOp {
    /// Integer add.
    Add = 0,
    /// Integer minimum.
    Min = 1,
    /// Integer maximum.
    Max = 2,
    /// Exchange.
    Exch = 3,
    /// Compare-and-swap (`srcs[1]` compare, `srcs[2]` swap).
    Cas = 4,
    /// Bitwise AND.
    And = 5,
    /// Bitwise OR.
    Or = 6,
    /// Bitwise XOR.
    Xor = 7,
    /// FP32 add.
    FAdd = 8,
}

impl AtomOp {
    /// All atomic operations in encoding order.
    pub const ALL: [AtomOp; 9] = [
        AtomOp::Add,
        AtomOp::Min,
        AtomOp::Max,
        AtomOp::Exch,
        AtomOp::Cas,
        AtomOp::And,
        AtomOp::Or,
        AtomOp::Xor,
        AtomOp::FAdd,
    ];

    /// SASS-style suffix, e.g. `CAS`.
    pub fn suffix(self) -> &'static str {
        match self {
            AtomOp::Add => "ADD",
            AtomOp::Min => "MIN",
            AtomOp::Max => "MAX",
            AtomOp::Exch => "EXCH",
            AtomOp::Cas => "CAS",
            AtomOp::And => "AND",
            AtomOp::Or => "OR",
            AtomOp::Xor => "XOR",
            AtomOp::FAdd => "FADD",
        }
    }
}

impl Modifier {
    /// Encode into a `(tag, payload)` pair for the module binary format.
    pub fn encode(self) -> (u8, u16) {
        match self {
            Modifier::None => (0, 0),
            Modifier::Cmp(c) => (1, c as u16),
            Modifier::CmpBool(c, b) => (2, (c as u16) | ((b as u16) << 8)),
            Modifier::Width(w) => (3, w as u16),
            Modifier::Func(f) => (4, f as u16),
            Modifier::Round(r) => (5, r as u16),
            Modifier::Lut(l) => (6, l as u16),
            Modifier::Shfl(m) => (7, m as u16),
            Modifier::AtomOp(a) => (8, a as u16),
        }
    }

    /// Decode from the `(tag, payload)` pair produced by [`Modifier::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::MalformedModifier`] if the tag or payload is out
    /// of range.
    pub fn decode(tag: u8, payload: u16) -> Result<Modifier, IsaError> {
        let bad = || IsaError::MalformedModifier { tag, payload };
        Ok(match tag {
            0 => Modifier::None,
            1 => Modifier::Cmp(*CmpOp::ALL.get(payload as usize).ok_or_else(bad)?),
            2 => {
                let c = *CmpOp::ALL.get((payload & 0xff) as usize).ok_or_else(bad)?;
                let b = *BoolOp::ALL.get((payload >> 8) as usize).ok_or_else(bad)?;
                Modifier::CmpBool(c, b)
            }
            3 => Modifier::Width(*MemWidth::ALL.get(payload as usize).ok_or_else(bad)?),
            4 => Modifier::Func(*MufuFunc::ALL.get(payload as usize).ok_or_else(bad)?),
            5 => Modifier::Round(*RoundMode::ALL.get(payload as usize).ok_or_else(bad)?),
            6 => Modifier::Lut(u8::try_from(payload).map_err(|_| bad())?),
            7 => Modifier::Shfl(*ShflMode::ALL.get(payload as usize).ok_or_else(bad)?),
            8 => Modifier::AtomOp(*AtomOp::ALL.get(payload as usize).ok_or_else(bad)?),
            _ => return Err(bad()),
        })
    }
}

impl fmt::Display for Modifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Modifier::None => Ok(()),
            Modifier::Cmp(c) => write!(f, ".{}", c.suffix()),
            Modifier::CmpBool(c, b) => write!(f, ".{}.{}", c.suffix(), b.suffix()),
            Modifier::Width(w) => write!(f, ".{}", w.suffix()),
            Modifier::Func(m) => write!(f, ".{}", m.suffix()),
            Modifier::Round(r) => write!(f, ".{}", r.suffix()),
            Modifier::Lut(l) => write!(f, ".LUT{l:#04x}"),
            Modifier::Shfl(m) => write!(f, ".{}", m.suffix()),
            Modifier::AtomOp(a) => write!(f, ".{}", a.suffix()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn cmp_op_eval() {
        assert!(CmpOp::Lt.eval(Ordering::Less));
        assert!(!CmpOp::Lt.eval(Ordering::Equal));
        assert!(CmpOp::Le.eval(Ordering::Equal));
        assert!(CmpOp::Ge.eval(Ordering::Greater));
        assert!(CmpOp::Ne.eval(Ordering::Less));
        assert!(!CmpOp::Eq.eval(Ordering::Greater));
    }

    #[test]
    fn bool_op_eval() {
        assert!(BoolOp::And.eval(true, true));
        assert!(!BoolOp::And.eval(true, false));
        assert!(BoolOp::Or.eval(false, true));
        assert!(BoolOp::Xor.eval(true, false));
        assert!(!BoolOp::Xor.eval(true, true));
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B8.bytes(), 1);
        assert_eq!(MemWidth::B16.bytes(), 2);
        assert_eq!(MemWidth::B32.bytes(), 4);
        assert_eq!(MemWidth::B64.bytes(), 8);
    }

    #[test]
    fn mufu_eval_sanity() {
        assert!((MufuFunc::Rcp.eval(4.0) - 0.25).abs() < 1e-6);
        assert!((MufuFunc::Sqrt.eval(9.0) - 3.0).abs() < 1e-6);
        assert!((MufuFunc::Ex2.eval(3.0) - 8.0).abs() < 1e-6);
        assert!((MufuFunc::Lg2.eval(8.0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn round_modes() {
        assert_eq!(RoundMode::Rz.round_f64(2.7), 2.0);
        assert_eq!(RoundMode::Rz.round_f64(-2.7), -2.0);
        assert_eq!(RoundMode::Rm.round_f64(2.7), 2.0);
        assert_eq!(RoundMode::Rm.round_f64(-2.1), -3.0);
        assert_eq!(RoundMode::Rp.round_f64(2.1), 3.0);
        assert_eq!(RoundMode::Rn.round_f64(2.5), 2.0);
        assert_eq!(RoundMode::Rn.round_f64(3.5), 4.0);
    }

    #[test]
    fn modifier_encode_decode_roundtrip() {
        let all = [
            Modifier::None,
            Modifier::Cmp(CmpOp::Ge),
            Modifier::CmpBool(CmpOp::Ne, BoolOp::Xor),
            Modifier::Width(MemWidth::B64),
            Modifier::Func(MufuFunc::Rsq),
            Modifier::Round(RoundMode::Rm),
            Modifier::Lut(0xE8),
            Modifier::Shfl(ShflMode::Bfly),
            Modifier::AtomOp(AtomOp::Cas),
        ];
        for m in all {
            let (tag, payload) = m.encode();
            assert_eq!(Modifier::decode(tag, payload).expect("roundtrip"), m);
        }
    }

    #[test]
    fn modifier_decode_rejects_garbage() {
        assert!(Modifier::decode(99, 0).is_err());
        assert!(Modifier::decode(1, 999).is_err());
        assert!(Modifier::decode(2, 0x0F0F).is_err());
        assert!(Modifier::decode(6, 0x1FF).is_err());
    }

    #[test]
    fn modifier_display() {
        assert_eq!(Modifier::Cmp(CmpOp::Ge).to_string(), ".GE");
        assert_eq!(Modifier::CmpBool(CmpOp::Lt, BoolOp::And).to_string(), ".LT.AND");
        assert_eq!(Modifier::Func(MufuFunc::Rcp).to_string(), ".RCP");
        assert_eq!(Modifier::None.to_string(), "");
    }
}
