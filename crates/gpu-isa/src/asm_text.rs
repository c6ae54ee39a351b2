//! Text assembler: parse SASS-like listings back into kernels.
//!
//! The inverse of [`crate::disasm`]: the listing a tool dumps with
//! `nvbitfi disasm` (or [`disasm::kernel`](crate::disasm::kernel)) can be
//! edited and reassembled. Memory-operand address spaces are inferred from
//! the opcode (`LDG`→global, `LDS`→shared, `LDC`→const, `LDL`→local, …) —
//! exactly as in real SASS, where the space is part of the opcode, not the
//! operand.
//!
//! ```
//! use gpu_isa::{asm_text, disasm};
//! use gpu_isa::asm::KernelBuilder;
//! use gpu_isa::Reg;
//!
//! let mut k = KernelBuilder::new("roundtrip");
//! k.ldg(Reg(2), Reg(4), 8);
//! k.fadd(Reg(3), Reg(2), Reg(2));
//! k.stg(Reg(4), 8, Reg(3));
//! k.exit();
//! let kernel = k.finish();
//!
//! let listing = disasm::kernel(&kernel);
//! let back = asm_text::parse_kernel(&listing)?;
//! assert_eq!(back, kernel);
//! # Ok::<(), gpu_isa::IsaError>(())
//! ```

use crate::modifier::{AtomOp, BoolOp, CmpOp, MemWidth, MufuFunc, RoundMode, ShflMode};
use crate::{
    Dst, Guard, Instr, IsaError, Kernel, MemRef, Modifier, Module, Opcode, Operand, PReg, Reg,
    Space, SpecialReg,
};

fn err(line: usize, reason: impl Into<String>) -> IsaError {
    IsaError::ParseError { line, reason: reason.into() }
}

fn parse_preg(s: &str, line: usize) -> Result<PReg, IsaError> {
    if s == "PT" {
        return Ok(PReg::PT);
    }
    s.strip_prefix('P')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|n| *n < 8)
        .map(PReg)
        .ok_or_else(|| err(line, format!("bad predicate register `{s}`")))
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, IsaError> {
    if s == "RZ" {
        return Ok(Reg::RZ);
    }
    s.strip_prefix('R')
        .and_then(|n| n.parse::<u8>().ok())
        .map(Reg)
        .ok_or_else(|| err(line, format!("bad register `{s}`")))
}

fn parse_imm(s: &str, line: usize) -> Result<u32, IsaError> {
    let v = if let Some(hex) = s.strip_prefix("0x") {
        u32::from_str_radix(hex, 16).ok()
    } else {
        s.parse::<u32>().ok()
    };
    v.ok_or_else(|| err(line, format!("bad immediate `{s}`")))
}

/// The address space an opcode's memory operands live in (as in real SASS,
/// where the space is part of the opcode).
fn opcode_space(op: Opcode) -> Space {
    use Opcode::*;
    match op {
        LDS | STS | ATOMS => Space::Shared,
        LDL | STL => Space::Local,
        LDC => Space::Const,
        _ => Space::Global,
    }
}

fn parse_operand(s: &str, op: Opcode, line: usize) -> Result<Operand, IsaError> {
    let s = s.trim();
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or_else(|| err(line, "unterminated `[`"))?;
        let (base_s, offset) = if let Some(pos) = inner.find('+') {
            (&inner[..pos], parse_imm(&inner[pos + 1..], line)? as i64)
        } else if let Some(pos) = inner.find('-') {
            (&inner[..pos], -(parse_imm(&inner[pos + 1..], line)? as i64))
        } else {
            (inner, 0)
        };
        let offset = i16::try_from(offset)
            .map_err(|_| err(line, format!("memory offset {offset} out of range")))?;
        return Ok(Operand::Mem(MemRef {
            base: parse_reg(base_s, line)?,
            offset,
            space: opcode_space(op),
        }));
    }
    if let Some(p) = s.strip_prefix('!') {
        return Ok(Operand::NotP(parse_preg(p, line)?));
    }
    if let Some(r) = s.strip_suffix(".64") {
        return Ok(Operand::R64(parse_reg(r, line)?));
    }
    let all_digits = |t: &str| !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit());
    if s == "PT" || (s.starts_with('P') && all_digits(&s[1..])) {
        return Ok(Operand::P(parse_preg(s, line)?));
    }
    if s == "RZ" || (s.starts_with('R') && all_digits(&s[1..])) {
        return Ok(Operand::R(parse_reg(s, line)?));
    }
    if s.starts_with("SR_") {
        return SpecialReg::ALL
            .iter()
            .copied()
            .find(|sr| sr.mnemonic() == s)
            .map(Operand::Sr)
            .ok_or_else(|| err(line, format!("unknown special register `{s}`")));
    }
    Ok(Operand::Imm(parse_imm(s, line)?))
}

fn parse_modifier(suffixes: &[&str], line: usize) -> Result<Modifier, IsaError> {
    let one = |s: &str| -> Option<Modifier> {
        if let Some(c) = CmpOp::ALL.iter().find(|c| c.suffix() == s) {
            return Some(Modifier::Cmp(*c));
        }
        if let Some(w) = MemWidth::ALL.iter().find(|w| w.suffix() == s) {
            return Some(Modifier::Width(*w));
        }
        if let Some(f) = MufuFunc::ALL.iter().find(|f| f.suffix() == s) {
            return Some(Modifier::Func(*f));
        }
        if let Some(r) = RoundMode::ALL.iter().find(|r| r.suffix() == s) {
            return Some(Modifier::Round(*r));
        }
        if let Some(m) = ShflMode::ALL.iter().find(|m| m.suffix() == s) {
            return Some(Modifier::Shfl(*m));
        }
        if let Some(a) = AtomOp::ALL.iter().find(|a| a.suffix() == s) {
            return Some(Modifier::AtomOp(*a));
        }
        if let Some(hex) = s.strip_prefix("LUT0x") {
            if let Ok(l) = u8::from_str_radix(hex, 16) {
                return Some(Modifier::Lut(l));
            }
        }
        None
    };
    match suffixes {
        [] => Ok(Modifier::None),
        [a] => one(a).ok_or_else(|| err(line, format!("unknown modifier `.{a}`"))),
        [a, b] => {
            // CMP.BOOL combination.
            let c = CmpOp::ALL
                .iter()
                .find(|c| c.suffix() == *a)
                .ok_or_else(|| err(line, format!("unknown comparison `.{a}`")))?;
            let bo = BoolOp::ALL
                .iter()
                .find(|x| x.suffix() == *b)
                .ok_or_else(|| err(line, format!("unknown boolean op `.{b}`")))?;
            Ok(Modifier::CmpBool(*c, *bo))
        }
        more => Err(err(line, format!("too many modifiers: {more:?}"))),
    }
}

/// How many leading operands of a listing line are destinations, given the
/// opcode. This mirrors how the builder emits code: at most one destination
/// in slot 0 (plus the implied high half of a pair).
fn dst_count(op: Opcode) -> usize {
    use crate::InstrClass::*;
    match op.class() {
        NoDest => 0,
        _ => 1,
    }
}

/// Parse one listing line (with or without the `/*NNNN*/` prefix).
///
/// # Errors
///
/// Returns [`IsaError::ParseError`] describing the malformed field, with
/// `line` as the reported location.
pub fn parse_line(text: &str, line: usize) -> Result<Instr, IsaError> {
    let mut s = text.trim();
    // optional /*NNNN*/ index prefix
    if let Some(rest) = s.strip_prefix("/*") {
        let end = rest.find("*/").ok_or_else(|| err(line, "unterminated /* index"))?;
        s = rest[end + 2..].trim();
    }
    // optional guard
    let mut guard = Guard::ALWAYS;
    if let Some(rest) = s.strip_prefix("@!") {
        let (p, rest) = rest.split_once(' ').ok_or_else(|| err(line, "guard without opcode"))?;
        guard = Guard::if_false(parse_preg(p, line)?);
        s = rest.trim();
    } else if let Some(rest) = s.strip_prefix('@') {
        let (p, rest) = rest.split_once(' ').ok_or_else(|| err(line, "guard without opcode"))?;
        guard = Guard::if_true(parse_preg(p, line)?);
        s = rest.trim();
    }
    // opcode + dotted modifiers
    let (mnem_full, rest) = match s.find(' ') {
        Some(pos) => (&s[..pos], s[pos + 1..].trim()),
        None => (s, ""),
    };
    let mut parts = mnem_full.split('.');
    let mnemonic = parts.next().ok_or_else(|| err(line, "missing opcode"))?;
    let op = Opcode::from_mnemonic(mnemonic)
        .ok_or_else(|| err(line, format!("unknown opcode `{mnemonic}`")))?;
    let suffixes: Vec<&str> = parts.collect();
    let modifier = parse_modifier(&suffixes, line)?;

    // operands and optional ->target
    let (operand_text, target) = match rest.find("->") {
        Some(pos) => {
            let t = rest[pos + 2..]
                .trim()
                .parse::<u32>()
                .map_err(|e| err(line, format!("bad branch target: {e}")))?;
            (rest[..pos].trim_end().trim_end_matches(','), Some(t))
        }
        None => (rest, None),
    };
    let mut operands = Vec::new();
    if !operand_text.is_empty() {
        for piece in operand_text.split(',') {
            operands.push(parse_operand(piece, op, line)?);
        }
    }

    let mut instr = Instr::new(op);
    instr.guard = guard;
    instr.modifier = modifier;
    instr.target = target.unwrap_or(0);
    let ndst = dst_count(op).min(operands.len());
    for (slot, operand) in operands.drain(..ndst).enumerate() {
        instr.dsts[slot] = match operand {
            Operand::R(r) => Dst::R(r),
            Operand::R64(r) => Dst::R64(r),
            Operand::P(p) => Dst::P(p),
            other => return Err(err(line, format!("operand `{other}` cannot be a destination"))),
        };
    }
    if operands.len() > crate::instr::MAX_SRCS {
        return Err(err(line, format!("too many source operands ({})", operands.len())));
    }
    for (slot, operand) in operands.into_iter().enumerate() {
        instr.srcs[slot] = operand;
    }
    Ok(instr)
}

/// Parse a kernel listing produced by [`disasm::kernel`](crate::disasm::kernel).
///
/// # Errors
///
/// Returns [`IsaError::ParseError`] for malformed headers or lines, and
/// propagates [`Kernel::new`] validation (e.g. out-of-range branches).
pub fn parse_kernel(text: &str) -> Result<Kernel, IsaError> {
    let mut lines = text.lines().enumerate();
    let (_, header) =
        lines.find(|(_, l)| !l.trim().is_empty()).ok_or_else(|| err(1, "empty kernel listing"))?;
    let header = header.trim();
    let rest = header.strip_prefix(".kernel ").ok_or_else(|| err(1, "missing `.kernel` header"))?;
    let (name, meta) = match rest.find("//") {
        Some(pos) => (rest[..pos].trim(), &rest[pos + 2..]),
        None => (rest.trim(), ""),
    };
    let shared_bytes = meta
        .split(',')
        .find_map(|part| {
            part.trim().strip_suffix(" shared bytes").and_then(|n| n.trim().parse::<u32>().ok())
        })
        .unwrap_or(0);

    let mut instrs = Vec::new();
    for (idx, l) in lines {
        if l.trim().is_empty() {
            continue;
        }
        instrs.push(parse_line(l, idx + 1)?);
    }
    Kernel::new(name, instrs, shared_bytes)
}

/// Parse a module listing produced by [`disasm::module`](crate::disasm::module).
///
/// # Errors
///
/// Returns [`IsaError::ParseError`] for malformed headers or lines.
pub fn parse_module(text: &str) -> Result<Module, IsaError> {
    let mut lines = text.lines().peekable();
    let header = loop {
        match lines.next() {
            Some(l) if l.trim().is_empty() => continue,
            Some(l) => break l.trim().to_string(),
            None => return Err(err(1, "empty module listing")),
        }
    };
    let rest = header.strip_prefix(".module ").ok_or_else(|| err(1, "missing `.module` header"))?;
    let name = match rest.find("//") {
        Some(pos) => rest[..pos].trim().to_string(),
        None => rest.trim().to_string(),
    };

    let mut kernels = Vec::new();
    let mut current: Vec<String> = Vec::new();
    for l in lines {
        if l.trim().starts_with(".kernel ") {
            if !current.is_empty() {
                kernels.push(parse_kernel(&current.join("\n"))?);
            }
            current = vec![l.to_string()];
        } else if !l.trim().is_empty() {
            if current.is_empty() {
                return Err(err(1, format!("instruction before any `.kernel` header: `{l}`")));
            }
            current.push(l.to_string());
        }
    }
    if !current.is_empty() {
        kernels.push(parse_kernel(&current.join("\n"))?);
    }
    Ok(Module::new(name, kernels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::KernelBuilder;
    use crate::disasm;

    #[test]
    fn parse_single_lines() {
        let i = parse_line("/*0001*/  FADD R3, R1, R2", 1).expect("parse");
        assert_eq!(i.op, Opcode::FADD);
        assert_eq!(i.dsts[0], Dst::R(Reg(3)));
        assert_eq!(i.srcs[0], Operand::R(Reg(1)));

        let i = parse_line("@!P1 ISETP.LT.AND P0, R5, 0x64, PT", 1).expect("parse");
        assert_eq!(i.guard, Guard::if_false(PReg(1)));
        assert_eq!(i.modifier, Modifier::CmpBool(CmpOp::Lt, BoolOp::And));
        assert_eq!(i.dsts[0], Dst::P(PReg(0)));
        assert_eq!(i.srcs[1], Operand::Imm(0x64));
        assert_eq!(i.srcs[2], Operand::P(PReg::PT));

        let i = parse_line("LDG.64 R10.64, [R4+0x8]", 3).expect("parse");
        assert_eq!(i.dsts[0], Dst::R64(Reg(10)));
        assert_eq!(
            i.srcs[0],
            Operand::Mem(MemRef { base: Reg(4), offset: 8, space: Space::Global })
        );

        let i = parse_line("LDS R1, [R2-0x10]", 4).expect("parse");
        assert_eq!(
            i.srcs[0],
            Operand::Mem(MemRef { base: Reg(2), offset: -16, space: Space::Shared })
        );

        let i = parse_line("BRA ->7", 5).expect("parse");
        assert_eq!(i.op, Opcode::BRA);
        assert_eq!(i.target, 7);

        let i = parse_line("S2R R0, SR_TID.X", 6).expect("parse");
        assert_eq!(i.srcs[0], Operand::Sr(SpecialReg::TidX));
    }

    #[test]
    fn parse_errors_are_located() {
        for (text, needle) in [
            ("WAT R0, R1", "unknown opcode"),
            ("FADD R0, R999", "bad register"),
            ("FADD.ZOOM R0, R1, R2", "unknown modifier"),
            ("STG [R4", "unterminated"),
            ("BRA ->banana", "bad branch target"),
            ("S2R R0, SR_NOPE", "unknown special register"),
        ] {
            let e = parse_line(text, 42).unwrap_err();
            match e {
                IsaError::ParseError { line, reason } => {
                    assert_eq!(line, 42, "{text}");
                    assert!(reason.contains(needle), "{text}: {reason}");
                }
                other => panic!("{text}: wrong error {other:?}"),
            }
        }
    }

    #[test]
    fn kernel_listing_roundtrip() {
        let mut k = KernelBuilder::new("rt");
        k.shared_bytes(128);
        let (a, b) = (Reg(2), Reg(4));
        k.ldc(a, 0);
        k.s2r(b, SpecialReg::GlobalTidX);
        k.isetp(PReg(0), CmpOp::Ge, b, 100);
        let end = k.new_label();
        k.bra_if(PReg(0), end);
        k.ldg(Reg(6), a, 4);
        k.ffma(Reg(6), Reg(6), Reg(6), Reg(6));
        k.stg(a, 4, Reg(6));
        k.bind(end);
        k.exit();
        let kernel = k.finish();
        let listing = disasm::kernel(&kernel);
        let back = parse_kernel(&listing).expect("parse");
        assert_eq!(back, kernel);
    }

    #[test]
    fn module_listing_roundtrip() {
        let mut k1 = KernelBuilder::new("alpha");
        k1.dadd(Reg(2), Reg(4), Reg(6));
        k1.exit();
        let mut k2 = KernelBuilder::new("beta");
        k2.mufu(MufuFunc::Sqrt, Reg(1), Reg(0));
        k2.exit();
        let module = Module::new("m", vec![k1.finish(), k2.finish()]);
        let listing = disasm::module(&module);
        let back = parse_module(&listing).expect("parse");
        assert_eq!(back, module);
    }

    #[test]
    fn shared_bytes_survive_roundtrip() {
        let mut k = KernelBuilder::new("sh");
        k.shared_bytes(4096);
        k.exit();
        let kernel = k.finish();
        let back = parse_kernel(&disasm::kernel(&kernel)).expect("parse");
        assert_eq!(back.shared_bytes(), 4096);
    }

    #[test]
    fn rejects_headerless_input() {
        assert!(parse_kernel("FADD R0, R1, R2").is_err());
        assert!(parse_module("FADD R0, R1, R2").is_err());
        assert!(parse_kernel("").is_err());
    }
}
