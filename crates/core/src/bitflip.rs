//! Bit-flip models — the bit-level corruption patterns of Table II.
//!
//! Each model turns the *bit-pattern value* (a float in `[0, 1)`) into an
//! XOR mask, using the paper's formulas verbatim:
//!
//! 1. `FLIP_SINGLE_BIT`: `0x1 << (32 × value)`
//! 2. `FLIP_TWO_BITS`:   `0x3 << (31 × value)`
//! 3. `RANDOM_VALUE`:    `0xffffffff × value`
//! 4. `ZERO_VALUE`:      mask = the original register value, so the XOR
//!    produces `0x0`

use std::fmt;

/// A bit-level corruption pattern (Table II *bit-flip model*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BitFlipModel {
    /// Flip a single bit.
    FlipSingleBit = 1,
    /// Flip two adjacent bits.
    FlipTwoBits = 2,
    /// Write a (value-derived) random value.
    RandomValue = 3,
    /// Write zero.
    ZeroValue = 4,
}

impl BitFlipModel {
    /// All models, in Table II order.
    pub const ALL: [BitFlipModel; 4] = [
        BitFlipModel::FlipSingleBit,
        BitFlipModel::FlipTwoBits,
        BitFlipModel::RandomValue,
        BitFlipModel::ZeroValue,
    ];

    /// The integer id (1-based, Table II).
    #[inline]
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Decode a Table II id.
    pub fn from_id(id: u8) -> Option<BitFlipModel> {
        BitFlipModel::ALL.get((id as usize).wrapping_sub(1)).copied()
    }

    /// The paper's name, e.g. `FLIP_SINGLE_BIT`.
    pub fn name(self) -> &'static str {
        match self {
            BitFlipModel::FlipSingleBit => "FLIP_SINGLE_BIT",
            BitFlipModel::FlipTwoBits => "FLIP_TWO_BITS",
            BitFlipModel::RandomValue => "RANDOM_VALUE",
            BitFlipModel::ZeroValue => "ZERO_VALUE",
        }
    }

    /// The XOR mask for a register currently holding `original`, driven by
    /// the bit-pattern `value`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `value` is outside `[0, 1)`; release builds
    /// clamp.
    pub fn mask(self, value: f64, original: u32) -> u32 {
        debug_assert!((0.0..1.0).contains(&value), "bit-pattern value must be in [0,1)");
        let v = value.clamp(0.0, f64::from_bits((1.0f64).to_bits() - 1));
        match self {
            BitFlipModel::FlipSingleBit => 0x1u32 << ((32.0 * v) as u32).min(31),
            BitFlipModel::FlipTwoBits => 0x3u32 << ((31.0 * v) as u32).min(30),
            BitFlipModel::RandomValue => (u32::MAX as f64 * v) as u32,
            BitFlipModel::ZeroValue => original,
        }
    }

    /// Apply the corruption: the post-fault register value.
    pub fn corrupt(self, value: f64, original: u32) -> u32 {
        original ^ self.mask(value, original)
    }
}

impl fmt::Display for BitFlipModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip() {
        for m in BitFlipModel::ALL {
            assert_eq!(BitFlipModel::from_id(m.id()), Some(m));
        }
        assert_eq!(BitFlipModel::from_id(0), None);
        assert_eq!(BitFlipModel::from_id(5), None);
    }

    #[test]
    fn single_bit_covers_all_positions() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..32 {
            let v = (i as f64 + 0.5) / 32.0;
            let mask = BitFlipModel::FlipSingleBit.mask(v, 0);
            assert_eq!(mask.count_ones(), 1);
            seen.insert(mask);
        }
        assert_eq!(seen.len(), 32, "every bit position reachable");
    }

    #[test]
    fn two_bits_are_adjacent() {
        for i in 0..31 {
            let v = (i as f64 + 0.5) / 31.0;
            let mask = BitFlipModel::FlipTwoBits.mask(v, 0);
            assert_eq!(mask.count_ones(), 2);
            let low = mask.trailing_zeros();
            assert_eq!(mask, 0b11 << low, "bits adjacent");
        }
    }

    #[test]
    fn zero_value_produces_zero() {
        for original in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            assert_eq!(BitFlipModel::ZeroValue.corrupt(0.5, original), 0);
        }
    }

    #[test]
    fn random_value_scales() {
        assert_eq!(BitFlipModel::RandomValue.mask(0.0, 7), 0);
        let hi = BitFlipModel::RandomValue.mask(0.999_999_9, 7);
        assert!(hi > 0xFFFF_0000, "{hi:#x}");
    }

    #[test]
    fn corruption_changes_value_except_degenerate() {
        // A single-bit flip always changes the value.
        let c = BitFlipModel::FlipSingleBit.corrupt(0.4, 123);
        assert_ne!(c, 123);
        // ZERO_VALUE on an already-zero register is the identity.
        assert_eq!(BitFlipModel::ZeroValue.corrupt(0.4, 0), 0);
    }

    #[test]
    fn boundary_values_do_not_overshift() {
        // value arbitrarily close to 1.0 must not shift past the word.
        let v = 0.999_999_999;
        assert_eq!(BitFlipModel::FlipSingleBit.mask(v, 0).count_ones(), 1);
        assert_eq!(BitFlipModel::FlipTwoBits.mask(v, 0).count_ones(), 2);
    }
}
