//! Fault parameter files — Tables II and III.
//!
//! NVBitFI drives each injection experiment from a small text parameter
//! file, one value per line. This module defines both parameter sets and
//! their (de)serialization, preserving the paper's conventions:
//!
//! * `kernel count` / `instruction count` are **0-based**: the value `n`
//!   names the *(n+1)-th* dynamic instance,
//! * `destination register` and `bit-pattern value` are floats in `[0, 1)`
//!   mapped onto the candidate set at injection time.

use crate::bitflip::BitFlipModel;
use crate::error::FiError;
use crate::igid::InstrGroup;
use crate::logfile::{parse_bit_flip, parse_group};
use std::fmt;

/// Parameters for one transient fault (Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct TransientParams {
    /// Instruction subset to inject (*arch state id*).
    pub group: InstrGroup,
    /// Bit-level corruption pattern.
    pub bit_flip: BitFlipModel,
    /// Target kernel name.
    pub kernel_name: String,
    /// 0-based dynamic instance of the kernel name.
    pub kernel_count: u64,
    /// 0-based dynamic instance of the target instruction, counted over the
    /// group's instructions within the target kernel instance.
    pub instruction_count: u64,
    /// Selects which destination register to corrupt, in `[0, 1)`.
    pub destination_register: f64,
    /// Drives the bit-error mask, in `[0, 1)`.
    pub bit_pattern: f64,
}

/// Trim and parse the next of `fields`, which sits on line `line`; an error
/// names the field (`what`) and reports that line.
fn field<'a, T>(
    fields: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, FiError> {
    let bad = |reason| FiError::BadParamFile { line, reason };
    let raw = fields.next().ok_or_else(|| bad(format!("missing {what}")))?.trim();
    parse(raw).ok_or_else(|| bad(format!("bad {what} `{raw}`")))
}

impl TransientParams {
    /// Validate value ranges.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::BadParam`] if a float parameter is outside
    /// `[0, 1)` or the kernel name is empty.
    pub fn validate(&self) -> Result<(), FiError> {
        match self.out_of_range() {
            Some((_, name, reason)) => Err(FiError::BadParam { name, reason }),
            None => Ok(()),
        }
    }

    /// The first out-of-range field: its 1-based number, its name and why.
    fn out_of_range(&self) -> Option<(usize, &'static str, String)> {
        if self.kernel_name.is_empty() {
            return Some((3, "kernel name", "empty".into()));
        }
        [
            (6, "destination register", self.destination_register),
            (7, "bit-pattern value", self.bit_pattern),
        ]
        .into_iter()
        .find(|&(_, _, v)| !(0.0..1.0).contains(&v))
        .map(|(n, name, v)| (n, name, format!("{v} outside [0,1)")))
    }

    /// The seven Table II fields in file order, separated by `sep`: the one
    /// writer behind parameter files, injection lists and results-log rows.
    pub(crate) fn write_fields(&self, sep: char) -> String {
        format!(
            "{}{sep}{}{sep}{}{sep}{}{sep}{}{sep}{}{sep}{}",
            self.group.id(),
            self.bit_flip.id(),
            self.kernel_name,
            self.kernel_count,
            self.instruction_count,
            self.destination_register,
            self.bit_pattern,
        )
    }

    /// Parse and validate the seven Table II fields in file order, each
    /// trimmed: the one reader behind parameter files, injection lists and
    /// results-log rows. An error names the field and reports the line
    /// `line_of` gives for its 1-based number.
    pub(crate) fn parse_fields<'a>(
        fields: impl IntoIterator<Item = &'a str>,
        line_of: impl Fn(usize) -> usize,
    ) -> Result<TransientParams, FiError> {
        let f = &mut fields.into_iter();
        let p = TransientParams {
            group: field(f, line_of(1), "arch state id", parse_group)?,
            bit_flip: field(f, line_of(2), "bit-flip model", parse_bit_flip)?,
            kernel_name: field(f, line_of(3), "kernel name", |s| Some(s.to_string()))?,
            kernel_count: field(f, line_of(4), "kernel count", |s| s.parse().ok())?,
            instruction_count: field(f, line_of(5), "instruction count", |s| s.parse().ok())?,
            destination_register: field(f, line_of(6), "destination register", |s| s.parse().ok())?,
            bit_pattern: field(f, line_of(7), "bit-pattern value", |s| s.parse().ok())?,
        };
        match p.out_of_range() {
            Some((n, name, reason)) => {
                Err(FiError::BadParamFile { line: line_of(n), reason: format!("{name} {reason}") })
            }
            None => Ok(p),
        }
    }

    /// Serialize in the one-parameter-per-line file format.
    pub fn to_file(&self) -> String {
        self.write_fields('\n') + "\n"
    }

    /// Parse the one-parameter-per-line file format.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::BadParamFile`] naming the first offending line.
    pub fn from_file(text: &str) -> Result<TransientParams, FiError> {
        Self::parse_fields(text.lines(), |n| n)
    }
}

impl fmt::Display for TransientParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} into `{}` instance {} instruction {} (dst {:.4}, pattern {:.4})",
            self.group,
            self.bit_flip,
            self.kernel_name,
            self.kernel_count,
            self.instruction_count,
            self.destination_register,
            self.bit_pattern
        )
    }
}

/// Parameters for one permanent fault (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermanentParams {
    /// Which SM to inject (`0..`[`gpu_sim::NUM_SMS`]).
    pub sm_id: u32,
    /// Which hardware lane to inject (`0..32`).
    pub lane_id: u32,
    /// The XOR bit mask applied to destination registers.
    pub bit_mask: u32,
    /// The opcode to corrupt, as its stable encoding (`0..171`).
    pub opcode_id: u16,
}

impl PermanentParams {
    /// Validate value ranges against the simulated device
    /// ([`gpu_sim::NUM_SMS`] SMs of [`gpu_isa::WARP_SIZE`] lanes).
    ///
    /// # Errors
    ///
    /// Returns [`FiError::BadParam`] if the lane, SM, or opcode id is out of
    /// range.
    pub fn validate(&self) -> Result<(), FiError> {
        if self.sm_id >= gpu_sim::NUM_SMS {
            return Err(FiError::BadParam {
                name: "SM id",
                reason: format!("{} >= {}", self.sm_id, gpu_sim::NUM_SMS),
            });
        }
        if self.lane_id >= gpu_isa::WARP_SIZE as u32 {
            return Err(FiError::BadParam {
                name: "lane id",
                reason: format!("{} >= 32", self.lane_id),
            });
        }
        if gpu_isa::Opcode::decode(self.opcode_id).is_none() {
            return Err(FiError::BadParam {
                name: "opcode id",
                reason: format!("{} >= {}", self.opcode_id, gpu_isa::OPCODE_COUNT),
            });
        }
        Ok(())
    }

    /// The targeted opcode.
    ///
    /// # Panics
    ///
    /// Panics if the opcode id is invalid; call
    /// [`PermanentParams::validate`] first.
    pub fn opcode(&self) -> gpu_isa::Opcode {
        gpu_isa::Opcode::decode(self.opcode_id).expect("validated opcode id")
    }

    /// Serialize in the one-parameter-per-line file format.
    pub fn to_file(&self) -> String {
        format!("{}\n{}\n{:#010x}\n{}\n", self.sm_id, self.lane_id, self.bit_mask, self.opcode_id)
    }

    /// Parse the one-parameter-per-line file format.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::BadParamFile`] naming the first offending line.
    pub fn from_file(text: &str) -> Result<PermanentParams, FiError> {
        let l = &mut text.lines();
        Ok(PermanentParams {
            sm_id: field(l, 1, "SM id", |s| s.parse().ok())?,
            lane_id: field(l, 2, "lane id", |s| s.parse().ok())?,
            bit_mask: field(l, 3, "bit mask", |s| match s.strip_prefix("0x") {
                Some(hex) => u32::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            })?,
            opcode_id: field(l, 4, "opcode id", |s| s.parse().ok())?,
        })
    }
}

impl fmt::Display for PermanentParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op =
            gpu_isa::Opcode::decode(self.opcode_id).map(|o| o.mnemonic()).unwrap_or("<invalid>");
        write!(
            f,
            "permanent fault on {op} (opcode {}) at SM {}, lane {}, mask {:#010x}",
            self.opcode_id, self.sm_id, self.lane_id, self.bit_mask
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TransientParams {
        TransientParams {
            group: InstrGroup::Gp,
            bit_flip: BitFlipModel::FlipSingleBit,
            kernel_name: "stencil_step".into(),
            kernel_count: 3,
            instruction_count: 12345,
            destination_register: 0.25,
            bit_pattern: 0.75,
        }
    }

    #[test]
    fn transient_file_roundtrip() {
        let p = sample();
        let text = p.to_file();
        assert_eq!(TransientParams::from_file(&text).expect("parse"), p);
        // One parameter per line, 7 lines (Table II's "specific target" +
        // "fault type" parameters).
        assert_eq!(text.lines().count(), 7);
    }

    #[test]
    fn transient_file_errors_name_the_line() {
        let mut lines: Vec<String> = sample().to_file().lines().map(String::from).collect();
        lines[1] = "99".into(); // invalid bit-flip model
        let err = TransientParams::from_file(&lines.join("\n")).unwrap_err();
        assert!(matches!(err, FiError::BadParamFile { line: 2, .. }));

        let err = TransientParams::from_file("1\n1\nk\n0\n").unwrap_err();
        assert!(matches!(err, FiError::BadParamFile { line: 5, .. }));

        // Range checks name the field's own line.
        let err = TransientParams::from_file("1\n1\n \n0\n0\n0.5\n0.5\n").unwrap_err();
        assert!(matches!(err, FiError::BadParamFile { line: 3, .. }), "{err}");
        let err = TransientParams::from_file("1\n1\nk\n0\n0\n0.5\n1.5\n").unwrap_err();
        assert!(matches!(err, FiError::BadParamFile { line: 7, .. }), "{err}");
    }

    #[test]
    fn transient_validation() {
        let mut p = sample();
        p.destination_register = 1.5;
        assert!(p.validate().is_err());
        p.destination_register = 0.0;
        p.kernel_name.clear();
        assert!(p.validate().is_err());
    }

    #[test]
    fn permanent_file_roundtrip() {
        let p = PermanentParams { sm_id: 7, lane_id: 31, bit_mask: 0x0000_8000, opcode_id: 42 };
        let text = p.to_file();
        assert_eq!(PermanentParams::from_file(&text).expect("parse"), p);
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn permanent_validation() {
        let ok = PermanentParams { sm_id: 0, lane_id: 0, bit_mask: 1, opcode_id: 0 };
        ok.validate().expect("valid");
        assert!(PermanentParams { sm_id: 80, ..ok }.validate().is_err());
        assert!(PermanentParams { lane_id: 32, ..ok }.validate().is_err());
        assert!(PermanentParams { opcode_id: 171, ..ok }.validate().is_err());
    }

    #[test]
    fn permanent_accepts_decimal_mask() {
        let p = PermanentParams::from_file("0\n0\n255\n1\n").expect("parse");
        assert_eq!(p.bit_mask, 255);
    }
}
