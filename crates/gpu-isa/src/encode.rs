//! Binary encoding of modules, kernels, and instructions.
//!
//! NVBitFI's central usability claim is that it needs *no source code*: it
//! operates on the binary the driver loads. To reproduce that usage model,
//! kernels in this workspace are shipped between the "compiler" (the
//! [`asm`](crate::asm) builder) and the runtime as opaque byte blobs in the
//! format defined here, and the NVBit layer *decodes those bytes* at kernel
//! launch — it never sees builder structures.
//!
//! The format is fixed-width per instruction (34 bytes) for simplicity; real
//! Volta SASS is 16 bytes per instruction, but nothing in the fault-injection
//! pipeline depends on encoding density.
//!
//! ```text
//! module  := magic:[u8;8] version:u16 name:str kernel_count:u32 kernel*
//! kernel  := name:str shared_bytes:u32 instr_count:u32 instr*
//! str     := len:u16 utf8-bytes
//! instr   := opcode:u16 guard:u8 mod_tag:u8 mod_payload:u16
//!            (dst_tag:u8 dst_payload:u8)*2 (src_tag:u8 src_payload:u32)*4
//!            target:u32
//! ```
//!
//! All integers are little-endian.

use crate::{
    Dst, Guard, Instr, IsaError, Kernel, MemRef, Modifier, Module, Opcode, Operand, PReg, Reg,
    Space, SpecialReg,
};

/// Magic bytes at the start of every module binary.
pub const MAGIC: [u8; 8] = *b"GSASSMOD";

/// Current format version.
pub const VERSION: u16 = 1;

/// Encoded size of one instruction record, in bytes.
pub const INSTR_BYTES: usize = 34;

/// Encoded size of a kernel with an empty name and no instructions.
const MIN_KERNEL_BYTES: usize = 2 + 4 + 4;

/// Split the next `N` bytes off the front of `buf`, or report truncation.
fn take<const N: usize>(buf: &mut &[u8], context: &'static str) -> Result<[u8; N], IsaError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(IsaError::Truncated { context })?;
    *buf = rest;
    Ok(*head)
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8], context: &'static str) -> Result<String, IsaError> {
    let len = u16::from_le_bytes(take(buf, context)?) as usize;
    if buf.len() < len {
        return Err(IsaError::Truncated { context });
    }
    let (raw, rest) = buf.split_at(len);
    *buf = rest;
    String::from_utf8(raw.to_vec()).map_err(|_| IsaError::BadKernelName)
}

fn encode_dst(d: Dst) -> (u8, u8) {
    match d {
        Dst::None => (0, 0),
        Dst::R(r) => (1, r.0),
        Dst::R64(r) => (2, r.0),
        Dst::P(p) => (3, p.0),
    }
}

fn decode_dst(tag: u8, payload: u8) -> Result<Dst, IsaError> {
    Ok(match tag {
        0 => Dst::None,
        1 => Dst::R(Reg(payload)),
        2 => Dst::R64(Reg(payload)),
        3 => Dst::P(PReg(payload & 0x7)),
        _ => return Err(IsaError::MalformedDest { tag }),
    })
}

fn encode_src(s: Operand) -> (u8, u32) {
    match s {
        Operand::None => (0, 0),
        Operand::R(r) => (1, r.0 as u32),
        Operand::R64(r) => (2, r.0 as u32),
        Operand::P(p) => (3, p.0 as u32),
        Operand::NotP(p) => (4, p.0 as u32),
        Operand::Imm(v) => (5, v),
        Operand::Mem(m) => {
            (6, (m.base.0 as u32) | ((m.space as u32) << 8) | ((m.offset as u16 as u32) << 16))
        }
        Operand::Sr(sr) => (7, sr.encode() as u32),
    }
}

fn decode_src(tag: u8, payload: u32) -> Result<Operand, IsaError> {
    Ok(match tag {
        0 => Operand::None,
        1 => Operand::R(Reg(payload as u8)),
        2 => Operand::R64(Reg(payload as u8)),
        3 => Operand::P(PReg(payload as u8 & 0x7)),
        4 => Operand::NotP(PReg(payload as u8 & 0x7)),
        5 => Operand::Imm(payload),
        6 => {
            let base = Reg(payload as u8);
            let space = *Space::ALL
                .get(((payload >> 8) & 0xff) as usize)
                .ok_or(IsaError::MalformedOperand { tag })?;
            let offset = (payload >> 16) as u16 as i16;
            Operand::Mem(MemRef { base, offset, space })
        }
        7 => Operand::Sr(
            SpecialReg::decode(payload as u8).ok_or(IsaError::MalformedOperand { tag })?,
        ),
        _ => return Err(IsaError::MalformedOperand { tag }),
    })
}

/// Encode a single instruction onto the end of `buf`.
pub fn encode_instr(i: &Instr, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&i.op.encode().to_le_bytes());
    buf.push(i.guard.encode());
    let (mtag, mpayload) = i.modifier.encode();
    buf.push(mtag);
    buf.extend_from_slice(&mpayload.to_le_bytes());
    for d in i.dsts {
        let (t, p) = encode_dst(d);
        buf.extend_from_slice(&[t, p]);
    }
    for s in i.srcs {
        let (t, p) = encode_src(s);
        buf.push(t);
        buf.extend_from_slice(&p.to_le_bytes());
    }
    buf.extend_from_slice(&i.target.to_le_bytes());
}

/// Decode a single instruction from the front of `buf`, advancing it past
/// the record.
///
/// # Errors
///
/// Returns [`IsaError::Truncated`] if fewer than [`INSTR_BYTES`] bytes remain
/// and other [`IsaError`] variants for malformed fields.
pub fn decode_instr(buf: &mut &[u8]) -> Result<Instr, IsaError> {
    let rec: [u8; INSTR_BYTES] = take(buf, "instruction record")?;
    let u16_at = |o: usize| u16::from_le_bytes([rec[o], rec[o + 1]]);
    let u32_at = |o: usize| u32::from_le_bytes([rec[o], rec[o + 1], rec[o + 2], rec[o + 3]]);
    let raw_op = u16_at(0);
    let op = Opcode::decode(raw_op).ok_or(IsaError::UnknownOpcode { value: raw_op })?;
    let guard = Guard::decode(rec[2]);
    let modifier = Modifier::decode(rec[3], u16_at(4))?;
    let mut dsts = [Dst::None; crate::instr::MAX_DSTS];
    for (k, d) in dsts.iter_mut().enumerate() {
        *d = decode_dst(rec[6 + 2 * k], rec[7 + 2 * k])?;
    }
    let src_base = 6 + 2 * crate::instr::MAX_DSTS;
    let mut srcs = [Operand::None; crate::instr::MAX_SRCS];
    for (k, s) in srcs.iter_mut().enumerate() {
        let o = src_base + 5 * k;
        *s = decode_src(rec[o], u32_at(o + 1))?;
    }
    let target = u32_at(src_base + 5 * crate::instr::MAX_SRCS);
    Ok(Instr { guard, op, modifier, dsts, srcs, target })
}

/// Encode a whole module into a byte vector (the "cubin").
pub fn encode_module(m: &Module) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        64 + m.kernels().iter().map(|k| 32 + k.len() * INSTR_BYTES).sum::<usize>(),
    );
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    put_str(&mut buf, m.name());
    buf.extend_from_slice(&(m.kernels().len() as u32).to_le_bytes());
    for k in m.kernels() {
        put_str(&mut buf, k.name());
        buf.extend_from_slice(&k.shared_bytes().to_le_bytes());
        buf.extend_from_slice(&(k.len() as u32).to_le_bytes());
        for i in k.instrs() {
            encode_instr(i, &mut buf);
        }
    }
    buf
}

/// Decode a module binary produced by [`encode_module`].
///
/// # Errors
///
/// Returns an [`IsaError`] describing the first malformed field: bad magic,
/// unsupported version, truncation, unknown opcodes, or malformed operands.
pub fn decode_module(bytes: &[u8]) -> Result<Module, IsaError> {
    let mut buf = bytes;
    let magic = take::<8>(&mut buf, "module magic")?;
    if magic != MAGIC {
        return Err(IsaError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes(take(&mut buf, "module version")?);
    if version != VERSION {
        return Err(IsaError::BadVersion { found: version });
    }
    let mod_name = get_str(&mut buf, "module name")?;
    let nkernels = u32::from_le_bytes(take(&mut buf, "kernel count")?);
    // Counts come from the binary: reserve no more than the bytes left can
    // hold, so a corrupt count fails when the bytes run out instead of allocating.
    let mut kernels = Vec::with_capacity((nkernels as usize).min(buf.len() / MIN_KERNEL_BYTES));
    for _ in 0..nkernels {
        let name = get_str(&mut buf, "kernel name")?;
        let shared_bytes = u32::from_le_bytes(take(&mut buf, "kernel header")?);
        let ninstr = u32::from_le_bytes(take(&mut buf, "kernel header")?);
        let mut instrs = Vec::with_capacity((ninstr as usize).min(buf.len() / INSTR_BYTES));
        for _ in 0..ninstr {
            instrs.push(decode_instr(&mut buf)?);
        }
        kernels.push(Kernel::new(name, instrs, shared_bytes)?);
    }
    Ok(Module::new(mod_name, kernels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, Modifier};

    fn sample_instr() -> Instr {
        let mut i = Instr::new(Opcode::ISETP);
        i.guard = Guard::if_false(PReg(3));
        i.modifier = Modifier::Cmp(CmpOp::Ge);
        i.dsts[0] = Dst::P(PReg(0));
        i.srcs[0] = Operand::R(Reg(5));
        i.srcs[1] = Operand::Imm(100);
        i
    }

    fn sample_module() -> Module {
        let mut load = Instr::new(Opcode::LDG);
        load.dsts[0] = Dst::R(Reg(2));
        load.srcs[0] = Operand::Mem(MemRef { base: Reg(4), offset: -8, space: Space::Global });
        let mut exit = Instr::new(Opcode::EXIT);
        exit.target = 0;
        let k1 = Kernel::new("alpha", vec![sample_instr(), load, exit], 128).expect("k1");
        let k2 = Kernel::new("beta", vec![Instr::new(Opcode::EXIT)], 0).expect("k2");
        Module::new("mymod", vec![k1, k2])
    }

    #[test]
    fn instr_record_is_fixed_width() {
        let mut buf = Vec::new();
        encode_instr(&sample_instr(), &mut buf);
        assert_eq!(buf.len(), INSTR_BYTES);
    }

    #[test]
    fn instr_roundtrip() {
        let i = sample_instr();
        let mut buf = Vec::new();
        encode_instr(&i, &mut buf);
        let mut bytes = buf.as_slice();
        let back = decode_instr(&mut bytes).expect("decode");
        assert_eq!(back, i);
        assert!(bytes.is_empty(), "the reader advances past the record");
    }

    #[test]
    fn module_roundtrip() {
        let m = sample_module();
        let bytes = encode_module(&m);
        let back = decode_module(&bytes).expect("decode");
        assert_eq!(back, m);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode_module(&sample_module());
        bytes[0] = b'X';
        assert!(matches!(decode_module(&bytes), Err(IsaError::BadMagic { .. })));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = encode_module(&sample_module());
        bytes[8] = 0xFF;
        assert!(matches!(decode_module(&bytes), Err(IsaError::BadVersion { .. })));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = encode_module(&sample_module());
        for cut in 0..bytes.len() {
            let res = decode_module(&bytes[..cut]);
            assert!(res.is_err(), "decode of {cut}-byte prefix should fail");
        }
        assert!(decode_module(&bytes).is_ok());
    }

    #[test]
    fn corrupt_counts_fail_without_reserving_their_size() {
        let bytes = encode_module(&sample_module());
        // Kernel count, then the first kernel's instruction count.
        for off in [8 + 2 + 7, 8 + 2 + 7 + 4 + 7 + 4] {
            let mut bad = bytes.clone();
            bad[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode_module(&bad).is_err(), "{off}");
        }
    }

    #[test]
    fn rejects_unknown_opcode() {
        let mut bytes = encode_module(&sample_module());
        // The first instruction record starts after magic(8)+version(2)+
        // modname(2+5)+kcount(4)+kname(2+5)+shared(4)+ninstr(4).
        let off = 8 + 2 + 7 + 4 + 7 + 4 + 4;
        bytes[off] = 0xFF;
        bytes[off + 1] = 0xFF;
        assert!(matches!(decode_module(&bytes), Err(IsaError::UnknownOpcode { value: 0xFFFF })));
    }

    #[test]
    fn mem_operand_negative_offset_roundtrip() {
        let m = MemRef { base: Reg(9), offset: -1234, space: Space::Shared };
        let (t, p) = encode_src(Operand::Mem(m));
        assert_eq!(decode_src(t, p).expect("decode"), Operand::Mem(m));
    }
}
