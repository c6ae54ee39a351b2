//! The per-thread register file: 256 32-bit GPRs and 8 predicates.
//!
//! This is the state fault injection corrupts: the transient model XORs one
//! GPR or flips one predicate of one dynamic instruction; the permanent
//! model XORs the destination of every instance of an opcode.

use gpu_isa::{PReg, Reg};

/// A thread's architectural register state.
///
/// `R255` (`RZ`) reads as zero and discards writes; `P7` (`PT`) reads as
/// true and discards writes.
#[derive(Debug, Clone)]
pub struct RegFile {
    r: [u32; 256],
    p: u8,
}

impl Default for RegFile {
    fn default() -> Self {
        RegFile::new()
    }
}

impl RegFile {
    /// A zero-initialized register file.
    pub fn new() -> RegFile {
        RegFile { r: [0; 256], p: 0 }
    }

    /// Zero `R0..Rn` and every predicate: a cheaper [`RegFile::new`] for a
    /// file whose registers from `Rn` up are already zero.
    #[inline]
    pub(crate) fn clear_low(&mut self, n: usize) {
        self.r[..n].fill(0);
        self.p = 0;
    }

    /// Read a 32-bit GPR.
    #[inline]
    pub fn read(&self, r: Reg) -> u32 {
        if r.is_zero_reg() {
            0
        } else {
            self.r[r.index()]
        }
    }

    /// Write a 32-bit GPR (writes to `RZ` are discarded).
    #[inline]
    pub fn write(&mut self, r: Reg, v: u32) {
        if !r.is_zero_reg() {
            self.r[r.index()] = v;
        }
    }

    /// XOR a mask into a GPR — the fault injector's corruption primitive.
    /// Returns the value before corruption.
    #[inline]
    pub fn corrupt(&mut self, r: Reg, mask: u32) -> u32 {
        let old = self.read(r);
        self.write(r, old ^ mask);
        old
    }

    /// Read a 64-bit register pair (`r`, `r+1`), little-halves-first.
    #[inline]
    pub fn read64(&self, r: Reg) -> u64 {
        let lo = self.read(r) as u64;
        let hi = self.read(r.pair_hi()) as u64;
        lo | (hi << 32)
    }

    /// Write a 64-bit register pair.
    #[inline]
    pub fn write64(&mut self, r: Reg, v: u64) {
        self.write(r, v as u32);
        self.write(r.pair_hi(), (v >> 32) as u32);
    }

    /// Read a GPR as `f32`.
    #[inline]
    pub fn read_f32(&self, r: Reg) -> f32 {
        f32::from_bits(self.read(r))
    }

    /// Write a GPR as `f32`.
    #[inline]
    pub fn write_f32(&mut self, r: Reg, v: f32) {
        self.write(r, v.to_bits());
    }

    /// Read a register pair as `f64`.
    #[inline]
    pub fn read_f64(&self, r: Reg) -> f64 {
        f64::from_bits(self.read64(r))
    }

    /// Write a register pair as `f64`.
    #[inline]
    pub fn write_f64(&mut self, r: Reg, v: f64) {
        self.write64(r, v.to_bits());
    }

    /// Read a predicate.
    #[inline]
    pub fn read_p(&self, p: PReg) -> bool {
        if p.is_true_reg() {
            true
        } else {
            self.p & (1 << p.index()) != 0
        }
    }

    /// Write a predicate (writes to `PT` are discarded).
    #[inline]
    pub fn write_p(&mut self, p: PReg, v: bool) {
        if !p.is_true_reg() {
            if v {
                self.p |= 1 << p.index();
            } else {
                self.p &= !(1 << p.index());
            }
        }
    }

    /// Flip a predicate — the fault injector's predicate corruption.
    /// Returns the value before corruption.
    #[inline]
    pub fn corrupt_p(&mut self, p: PReg) -> bool {
        let old = self.read_p(p);
        self.write_p(p, !old);
        old
    }

    /// The 7 writable predicates packed into bits `0..7` (for `P2R`).
    #[inline]
    pub fn pred_bits(&self) -> u32 {
        (self.p & 0x7f) as u32
    }

    /// Overwrite writable predicates from packed bits, honouring `mask`
    /// (for `R2P`).
    #[inline]
    pub fn set_pred_bits(&mut self, bits: u32, mask: u32) {
        let m = (mask & 0x7f) as u8;
        self.p = (self.p & !m) | ((bits as u8) & m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rz_semantics() {
        let mut rf = RegFile::new();
        rf.write(Reg::RZ, 123);
        assert_eq!(rf.read(Reg::RZ), 0);
    }

    #[test]
    fn pt_semantics() {
        let mut rf = RegFile::new();
        assert!(rf.read_p(PReg::PT));
        rf.write_p(PReg::PT, false);
        assert!(rf.read_p(PReg::PT));
    }

    #[test]
    fn gpr_roundtrip() {
        let mut rf = RegFile::new();
        rf.write(Reg(10), 0xDEADBEEF);
        assert_eq!(rf.read(Reg(10)), 0xDEADBEEF);
    }

    #[test]
    fn pair_roundtrip() {
        let mut rf = RegFile::new();
        rf.write64(Reg(4), 0x0123_4567_89AB_CDEF);
        assert_eq!(rf.read(Reg(4)), 0x89AB_CDEF);
        assert_eq!(rf.read(Reg(5)), 0x0123_4567);
        assert_eq!(rf.read64(Reg(4)), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn float_views() {
        let mut rf = RegFile::new();
        rf.write_f32(Reg(1), 3.5);
        assert_eq!(rf.read_f32(Reg(1)), 3.5);
        rf.write_f64(Reg(2), -2.25);
        assert_eq!(rf.read_f64(Reg(2)), -2.25);
    }

    #[test]
    fn corrupt_xors() {
        let mut rf = RegFile::new();
        rf.write(Reg(3), 0b1010);
        let old = rf.corrupt(Reg(3), 0b0110);
        assert_eq!(old, 0b1010);
        assert_eq!(rf.read(Reg(3)), 0b1100);
        // ZERO_VALUE model: XOR with the original value produces zero.
        let old = rf.corrupt(Reg(3), rf.read(Reg(3)));
        assert_eq!(old, 0b1100);
        assert_eq!(rf.read(Reg(3)), 0);
    }

    #[test]
    fn corrupt_rz_is_noop() {
        let mut rf = RegFile::new();
        rf.corrupt(Reg::RZ, 0xFFFF_FFFF);
        assert_eq!(rf.read(Reg::RZ), 0);
    }

    #[test]
    fn predicate_bits() {
        let mut rf = RegFile::new();
        rf.write_p(PReg(0), true);
        rf.write_p(PReg(3), true);
        assert_eq!(rf.pred_bits(), 0b1001);
        rf.set_pred_bits(0b0110, 0b0111);
        assert!(!rf.read_p(PReg(0)));
        assert!(rf.read_p(PReg(1)));
        assert!(rf.read_p(PReg(2)));
        assert!(rf.read_p(PReg(3)), "outside mask, unchanged");
    }

    #[test]
    fn corrupt_predicate_flips() {
        let mut rf = RegFile::new();
        assert!(!rf.read_p(PReg(2)));
        rf.corrupt_p(PReg(2));
        assert!(rf.read_p(PReg(2)));
        rf.corrupt_p(PReg(2));
        assert!(!rf.read_p(PReg(2)));
    }
}
