//! Device memory: global, shared, local, and constant spaces.
//!
//! Global memory uses a bump allocator with a reserved null page, so that
//! fault-corrupted pointers near zero fault instead of silently aliasing the
//! first allocation — mirroring how corrupted addresses on real GPUs usually
//! produce "illegal address" errors.

use crate::trap::TrapKind;
use gpu_isa::{MemWidth, Space};
use std::fmt;
use std::ops::Range;

/// A device pointer into global memory (32-bit address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevPtr(pub u32);

impl DevPtr {
    /// The byte address as `u32` (what kernels receive as a parameter).
    #[inline]
    pub fn addr(self) -> u32 {
        self.0
    }

    /// Pointer displaced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u32) -> DevPtr {
        DevPtr(self.0 + bytes)
    }
}

impl fmt::Display for DevPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev:{:#x}", self.0)
    }
}

/// Errors from host-side memory operations (allocation, copies).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemError {
    /// A host copy touched unallocated memory.
    BadCopy {
        /// Faulting byte address.
        addr: u32,
        /// Length of the attempted copy.
        len: u32,
    },
    /// The allocation would push total live allocations past the resource
    /// governor's cap ([`MAX_GLOBAL_BYTES`]), so a fault-corrupted
    /// allocation size becomes a sandbox kill rather than a host OOM.
    LimitExceeded {
        /// Bytes requested by this allocation.
        requested: u32,
        /// The cap in bytes.
        limit: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::BadCopy { addr, len } => {
                write!(f, "host copy of {len} bytes at {addr:#x} touches unallocated memory")
            }
            MemError::LimitExceeded { requested, limit } => {
                write!(
                    f,
                    "allocation of {requested} bytes exceeds the resource governor's \
                     {limit}-byte global-memory cap"
                )
            }
        }
    }
}

impl std::error::Error for MemError {}

pub(crate) const NULL_PAGE: u32 = 4096;

/// Most bytes of global memory one run may allocate (the `cudaMalloc`
/// budget): the resource governor's allocation cap, and the device's only
/// bound. Golden runs use far less, so only a fault-corrupted allocation
/// size reaches it, and [`GlobalMem::alloc`] refuses it with
/// [`MemError::LimitExceeded`] — a sandbox kill, classified as a DUE
/// (Table V, OS-detected), not a host out-of-memory.
pub const MAX_GLOBAL_BYTES: u32 = 48 << 20;

/// A set of global-memory byte addresses, as ascending, disjoint and
/// non-adjacent half-open ranges — how a golden launch's read and write
/// sets are kept.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteRanges(pub(crate) Vec<Range<u32>>);

impl ByteRanges {
    /// The ranges, ascending.
    pub fn ranges(&self) -> &[Range<u32>] {
        &self.0
    }

    /// `true` if the set holds no byte.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Global memory's bytes on a [`ByteRanges`] set, packed in address order:
/// how a golden ledger entry keeps a launch's inputs and outputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SetBytes {
    set: ByteRanges,
    bytes: Box<[u8]>,
}

impl SetBytes {
    /// `mem`'s bytes on `set`. Panics if `set` reaches past what `mem` has
    /// allocated.
    pub fn capture(mem: &GlobalMem, set: ByteRanges) -> SetBytes {
        let bytes = set.0.iter().flat_map(|r| &mem.bytes[span(r)]).copied().collect();
        SetBytes { set, bytes }
    }

    /// The addresses the bytes are on.
    pub fn set(&self) -> &ByteRanges {
        &self.set
    }

    /// `true` if `mem` holds these bytes at every address of the set. An
    /// address `mem` has not allocated disagrees.
    pub fn agree(&self, mem: &GlobalMem) -> bool {
        self.pieces().all(|(span, piece)| mem.bytes.get(span) == Some(piece))
    }

    /// Write these bytes into `mem`. Panics if the set reaches past what
    /// `mem` has allocated.
    pub fn apply(&self, mem: &mut GlobalMem) {
        for (span, piece) in self.pieces() {
            mem.bytes[span].copy_from_slice(piece);
        }
    }

    /// Each range's span of the memory buffer, with its bytes.
    fn pieces(&self) -> impl Iterator<Item = (Range<usize>, &[u8])> {
        let mut rest = &self.bytes[..];
        self.set.0.iter().map(move |r| {
            let (piece, tail) = rest.split_at(r.len());
            rest = tail;
            (span(r), piece)
        })
    }
}

/// The span of [`GlobalMem`]'s buffer that holds addresses `r`.
fn span(r: &Range<u32>) -> Range<usize> {
    (r.start - NULL_PAGE) as usize..(r.end - NULL_PAGE) as usize
}

/// Device global memory: a bump-allocated, bounds-checked address space.
///
/// One buffer holds exactly the allocated bytes, `[null page, brk)`:
/// [`GlobalMem::alloc`] grows it with zeros, so a fresh device costs
/// nothing until programs allocate.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct GlobalMem {
    /// Bytes at addresses `NULL_PAGE..brk`; `brk` is `NULL_PAGE + len`.
    bytes: Vec<u8>,
}

impl Clone for GlobalMem {
    fn clone(&self) -> GlobalMem {
        GlobalMem { bytes: self.bytes.clone() }
    }

    fn clone_from(&mut self, source: &GlobalMem) {
        self.bytes.clone_from(&source.bytes); // reuses the buffer
    }
}

impl GlobalMem {
    /// Create an empty device memory: nothing allocated, up to
    /// [`MAX_GLOBAL_BYTES`] allocatable.
    pub fn new() -> GlobalMem {
        GlobalMem::default()
    }

    /// One past the highest allocated address.
    #[inline]
    fn brk(&self) -> u32 {
        NULL_PAGE + self.bytes.len() as u32
    }

    /// Allocate `size` bytes aligned to 256 (like `cudaMalloc`).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::LimitExceeded`] when the allocation would end
    /// past [`MAX_GLOBAL_BYTES`].
    pub fn alloc(&mut self, size: u32) -> Result<DevPtr, MemError> {
        let aligned = self.brk().next_multiple_of(256);
        let end = aligned as u64 + size as u64;
        if end - NULL_PAGE as u64 > MAX_GLOBAL_BYTES as u64 {
            return Err(MemError::LimitExceeded { requested: size, limit: MAX_GLOBAL_BYTES });
        }
        self.bytes.resize((end - NULL_PAGE as u64) as usize, 0);
        Ok(DevPtr(aligned))
    }

    /// Bytes currently allocated (excluding the null page).
    pub fn allocated(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// The buffer range of a host copy of `len` bytes at `addr`.
    fn check(&self, addr: u32, len: usize) -> Result<std::ops::Range<usize>, MemError> {
        let end = addr as u64 + len as u64;
        if addr < NULL_PAGE || end > self.brk() as u64 {
            Err(MemError::BadCopy { addr, len: len as u32 })
        } else {
            let off = (addr - NULL_PAGE) as usize;
            Ok(off..off + len)
        }
    }

    /// Host-side copy into device memory (`cudaMemcpy` host→device).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn copy_from_host(&mut self, dst: DevPtr, src: &[u8]) -> Result<(), MemError> {
        let range = self.check(dst.0, src.len())?;
        self.bytes[range].copy_from_slice(src);
        Ok(())
    }

    /// Host-side copy out of device memory (`cudaMemcpy` device→host).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn copy_to_host(&self, src: DevPtr, dst: &mut [u8]) -> Result<(), MemError> {
        let range = self.check(src.0, dst.len())?;
        dst.copy_from_slice(&self.bytes[range]);
        Ok(())
    }

    /// Host-side typed write of an `f32` slice.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn write_f32s(&mut self, dst: DevPtr, values: &[f32]) -> Result<(), MemError> {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.copy_from_host(dst, &bytes)
    }

    /// Host-side typed read of an `f32` slice.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn read_f32s(&self, src: DevPtr, count: usize) -> Result<Vec<f32>, MemError> {
        let mut bytes = vec![0u8; count * 4];
        self.copy_to_host(src, &mut bytes)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Host-side typed write of a `u32` slice.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn write_u32s(&mut self, dst: DevPtr, values: &[u32]) -> Result<(), MemError> {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.copy_from_host(dst, &bytes)
    }

    /// Host-side typed read of a `u32` slice.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn read_u32s(&self, src: DevPtr, count: usize) -> Result<Vec<u32>, MemError> {
        let mut bytes = vec![0u8; count * 4];
        self.copy_to_host(src, &mut bytes)?;
        Ok(bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Host-side typed write of an `f64` slice.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn write_f64s(&mut self, dst: DevPtr, values: &[f64]) -> Result<(), MemError> {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.copy_from_host(dst, &bytes)
    }

    /// Host-side typed read of an `f64` slice.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn read_f64s(&self, src: DevPtr, count: usize) -> Result<Vec<f64>, MemError> {
        let mut bytes = vec![0u8; count * 8];
        self.copy_to_host(src, &mut bytes)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// Device-side load (bounds- and alignment-checked).
    ///
    /// # Errors
    ///
    /// Returns the [`TrapKind`] a faulting access raises on device.
    #[inline]
    pub fn load(&self, addr: u32, width: MemWidth) -> Result<u64, TrapKind> {
        let w = width.bytes();
        device_check(Space::Global, addr, w, NULL_PAGE, self.brk())?;
        Ok(load_le(&self.bytes, (addr - NULL_PAGE) as usize, w))
    }

    /// Device-side store (bounds- and alignment-checked).
    ///
    /// # Errors
    ///
    /// Returns the [`TrapKind`] a faulting access raises on device.
    #[inline]
    pub fn store(&mut self, addr: u32, width: MemWidth, value: u64) -> Result<(), TrapKind> {
        let w = width.bytes();
        device_check(Space::Global, addr, w, NULL_PAGE, self.brk())?;
        store_le(&mut self.bytes, (addr - NULL_PAGE) as usize, w, value);
        Ok(())
    }
}

/// Per-block shared memory (scratchpad).
#[derive(Debug, Clone)]
pub(crate) struct SharedMem {
    data: Vec<u8>,
}

impl SharedMem {
    /// Create a shared memory of `size` bytes, zero-initialized.
    pub fn new(size: u32) -> SharedMem {
        SharedMem { data: vec![0; size as usize] }
    }

    /// Zero every byte, for the next block of a launch.
    pub(crate) fn zero(&mut self) {
        // An empty `fill` still calls `memset`, which costs ~150 ns on some
        // hosts even for zero bytes.
        if !self.data.is_empty() {
            self.data.fill(0);
        }
    }

    /// Device-side load.
    ///
    /// # Errors
    ///
    /// Returns the [`TrapKind`] a faulting access raises on device.
    #[inline]
    pub fn load(&self, addr: u32, width: MemWidth) -> Result<u64, TrapKind> {
        let w = width.bytes();
        device_check(Space::Shared, addr, w, 0, self.data.len() as u32)?;
        Ok(load_le(&self.data, addr as usize, w))
    }

    /// Device-side store.
    ///
    /// # Errors
    ///
    /// Returns the [`TrapKind`] a faulting access raises on device.
    #[inline]
    pub fn store(&mut self, addr: u32, width: MemWidth, value: u64) -> Result<(), TrapKind> {
        let w = width.bytes();
        device_check(Space::Shared, addr, w, 0, self.data.len() as u32)?;
        store_le(&mut self.data, addr as usize, w, value);
        Ok(())
    }
}

/// Bounds + alignment check shared by all spaces.
#[inline]
fn device_check(space: Space, addr: u32, width: u32, lo: u32, hi: u32) -> Result<(), TrapKind> {
    if !addr.is_multiple_of(width) {
        return Err(TrapKind::Misaligned { space, addr, align: width });
    }
    let end = addr as u64 + width as u64;
    if addr < lo || end > hi as u64 {
        return Err(TrapKind::OutOfBounds { space, addr, width });
    }
    Ok(())
}

/// Little-endian load of `width` bytes (width ∈ {1,2,4,8}).
#[inline]
fn load_le(data: &[u8], off: usize, width: u32) -> u64 {
    let mut v = 0u64;
    for i in 0..width as usize {
        v |= (data[off + i] as u64) << (8 * i);
    }
    v
}

/// Little-endian store of `width` bytes (width ∈ {1,2,4,8}).
#[inline]
fn store_le(data: &mut [u8], off: usize, width: u32, value: u64) {
    for i in 0..width as usize {
        data[off + i] = (value >> (8 * i)) as u8;
    }
}

/// Device-side load from per-thread local memory.
///
/// # Errors
///
/// Returns the [`TrapKind`] a faulting access raises on device.
#[inline]
pub(crate) fn local_load(local: &[u8], addr: u32, width: MemWidth) -> Result<u64, TrapKind> {
    let w = width.bytes();
    device_check(Space::Local, addr, w, 0, local.len() as u32)?;
    Ok(load_le(local, addr as usize, w))
}

/// Device-side store to per-thread local memory.
///
/// # Errors
///
/// Returns the [`TrapKind`] a faulting access raises on device.
#[inline]
pub(crate) fn local_store(
    local: &mut [u8],
    addr: u32,
    width: MemWidth,
    value: u64,
) -> Result<(), TrapKind> {
    let w = width.bytes();
    device_check(Space::Local, addr, w, 0, local.len() as u32)?;
    store_le(local, addr as usize, w, value);
    Ok(())
}

/// Device-side load from constant memory (kernel parameters).
///
/// # Errors
///
/// Returns the [`TrapKind`] a faulting access raises on device.
#[inline]
pub(crate) fn const_load(cmem: &[u8], addr: u32, width: MemWidth) -> Result<u64, TrapKind> {
    let w = width.bytes();
    device_check(Space::Const, addr, w, 0, cmem.len() as u32)?;
    Ok(load_le(cmem, addr as usize, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_nonnull() {
        let mut m = GlobalMem::new();
        let p = m.alloc(100).expect("alloc");
        assert_eq!(p.0 % 256, 0);
        assert!(p.0 >= NULL_PAGE);
        let q = m.alloc(4).expect("alloc");
        assert!(q.0 >= p.0 + 100);
    }

    #[test]
    fn alloc_exhaustion() {
        let mut m = GlobalMem::new();
        assert!(m.alloc(512).is_ok());
        let err = m.alloc(MAX_GLOBAL_BYTES).unwrap_err();
        assert_eq!(
            err,
            MemError::LimitExceeded { requested: MAX_GLOBAL_BYTES, limit: MAX_GLOBAL_BYTES }
        );
        assert_eq!(m.allocated(), 512, "a refused allocation leaves the break alone");
    }

    #[test]
    fn alloc_limit_fires_before_capacity() {
        let mut m = GlobalMem::new();
        let p = m.alloc(MAX_GLOBAL_BYTES - 256).expect("below the cap");
        assert_eq!(p.0, NULL_PAGE);
        m.alloc(256).expect("an allocation ending exactly at the cap");
        assert_eq!(m.allocated(), MAX_GLOBAL_BYTES);
        let err = m.alloc(1).unwrap_err();
        assert_eq!(err, MemError::LimitExceeded { requested: 1, limit: MAX_GLOBAL_BYTES });
    }

    #[test]
    fn capacity_saturates_at_the_address_space() {
        let mut m = GlobalMem::new();
        // A request past the whole 32-bit address space is refused, not
        // wrapped, on a fresh device and with the break near the cap.
        let err = m.alloc(u32::MAX).unwrap_err();
        assert_eq!(err, MemError::LimitExceeded { requested: u32::MAX, limit: MAX_GLOBAL_BYTES });
        m.alloc(MAX_GLOBAL_BYTES - 4096).expect("below the cap");
        let err = m.alloc(u32::MAX - 4096).unwrap_err();
        assert_eq!(
            err,
            MemError::LimitExceeded { requested: u32::MAX - 4096, limit: MAX_GLOBAL_BYTES }
        );
        assert_eq!(m.allocated(), MAX_GLOBAL_BYTES - 4096);
    }

    #[test]
    fn host_roundtrip_f32() {
        let mut m = GlobalMem::new();
        let p = m.alloc(16).expect("alloc");
        m.write_f32s(p, &[1.0, 2.5, -3.0, 0.0]).expect("write");
        assert_eq!(m.read_f32s(p, 4).expect("read"), vec![1.0, 2.5, -3.0, 0.0]);
    }

    #[test]
    fn host_roundtrip_f64_u32() {
        let mut m = GlobalMem::new();
        let p = m.alloc(32).expect("alloc");
        m.write_f64s(p, &[1.25, -9.5]).expect("write");
        assert_eq!(m.read_f64s(p, 2).expect("read"), vec![1.25, -9.5]);
        let q = m.alloc(8).expect("alloc");
        m.write_u32s(q, &[7, 8]).expect("write");
        assert_eq!(m.read_u32s(q, 2).expect("read"), vec![7, 8]);
    }

    #[test]
    fn host_copy_out_of_range_fails() {
        let mut m = GlobalMem::new();
        let p = m.alloc(8).expect("alloc");
        assert!(m.write_u32s(p.offset(8), &[1]).is_err());
        assert!(m.read_u32s(DevPtr(0), 1).is_err(), "null page is not readable by host");
    }

    #[test]
    fn device_null_deref_traps() {
        let m = GlobalMem::new();
        assert!(matches!(
            m.load(0, MemWidth::B32),
            Err(TrapKind::OutOfBounds { space: Space::Global, .. })
        ));
    }

    #[test]
    fn device_misaligned_traps() {
        let mut m = GlobalMem::new();
        let p = m.alloc(64).expect("alloc");
        assert!(matches!(m.load(p.0 + 2, MemWidth::B32), Err(TrapKind::Misaligned { .. })));
        assert!(matches!(m.load(p.0 + 4, MemWidth::B64), Err(TrapKind::Misaligned { .. })));
    }

    #[test]
    fn device_load_store_roundtrip_all_widths() {
        let mut m = GlobalMem::new();
        let p = m.alloc(64).expect("alloc");
        for (w, v) in [
            (MemWidth::B8, 0xABu64),
            (MemWidth::B16, 0xBEEF),
            (MemWidth::B32, 0xDEAD_BEEF),
            (MemWidth::B64, 0x0123_4567_89AB_CDEF),
        ] {
            m.store(p.0, w, v).expect("store");
            assert_eq!(m.load(p.0, w).expect("load"), v);
        }
    }

    #[test]
    fn device_store_beyond_brk_traps() {
        let mut m = GlobalMem::new();
        let p = m.alloc(8).expect("alloc");
        assert!(m.store(p.0 + 256, MemWidth::B32, 1).is_err());
    }

    #[test]
    fn shared_mem_bounds() {
        let mut s = SharedMem::new(64);
        s.store(60, MemWidth::B32, 5).expect("store");
        assert_eq!(s.load(60, MemWidth::B32).expect("load"), 5);
        assert!(s.store(64, MemWidth::B32, 5).is_err());
        assert!(s.load(61, MemWidth::B32).is_err(), "misaligned");
    }

    #[test]
    fn untouched_memory_reads_zero_without_materializing() {
        let mut m = GlobalMem::new();
        let p = m.alloc(64 * 1024).expect("alloc");
        assert_eq!(m.load(p.0, MemWidth::B64).expect("load"), 0);
        assert_eq!(m.read_u32s(p, 4).expect("read"), vec![0; 4]);
    }

    #[test]
    fn host_copy_spans_page_boundary() {
        let mut m = GlobalMem::new();
        let p = m.alloc(4 * 4096).expect("alloc");
        // 256-aligned base, offset so the copy straddles two page edges.
        let data: Vec<u8> = (0..2 * 4096 + 100).map(|i| (i % 251) as u8).collect();
        let dst = p.offset(4096 - 50);
        m.copy_from_host(dst, &data).expect("write");
        let mut back = vec![0u8; data.len()];
        m.copy_to_host(dst, &mut back).expect("read");
        assert_eq!(back, data);
    }

    /// The set of the `n` bytes at `p`.
    fn set(p: DevPtr, n: u32) -> ByteRanges {
        ByteRanges(std::iter::once(p.0..p.0 + n).collect())
    }

    #[test]
    fn set_bytes_agree_and_apply_only_on_their_set() {
        let mut m = GlobalMem::new();
        let p = m.alloc(4096).expect("alloc");
        m.write_u32s(p, &[1, 2, 3, 4]).expect("write");
        let ends = SetBytes::capture(&m, ByteRanges(vec![p.0..p.0 + 4, p.0 + 12..p.0 + 16]));
        let middle = SetBytes::capture(&m, set(p.offset(4), 8));
        assert_eq!(middle.set(), &set(p.offset(4), 8));

        m.write_u32s(p, &[9, 9, 9, 9]).expect("overwrite");
        assert!(!ends.agree(&m) && !middle.agree(&m));
        middle.apply(&mut m);
        assert_eq!(m.read_u32s(p, 4).expect("read"), vec![9, 2, 3, 9], "only the set is written");
        assert!(middle.agree(&m) && !ends.agree(&m));
        ends.apply(&mut m);
        assert_eq!(m.read_u32s(p, 4).expect("read"), vec![1, 2, 3, 4], "pieces land in order");
        assert!(ends.agree(&m));

        let q = m.alloc(4096).expect("alloc");
        let fresh = SetBytes::capture(&m, set(q, 4));
        assert!(fresh.agree(&m));
        assert!(!fresh.agree(&GlobalMem::new()), "bytes the memory lacks disagree");
        assert!(SetBytes::default().agree(&GlobalMem::new()), "the empty set agrees");
    }

    #[test]
    fn set_bytes_are_isolated_from_later_writes() {
        let mut m = GlobalMem::new();
        let p = m.alloc(64).expect("alloc");
        m.write_u32s(p, &[42]).expect("write");
        let kept = SetBytes::capture(&m, set(p, 4));
        let mut copy = GlobalMem::new();
        copy.clone_from(&m);
        assert_eq!(copy, m);
        m.write_u32s(p, &[77]).expect("write");
        assert_ne!(copy, m, "the copy kept the old value");

        let mut other = GlobalMem::new();
        other.alloc(64).expect("alloc");
        kept.apply(&mut other);
        assert_eq!(other.read_u32s(p, 1).expect("read"), vec![42], "captured bytes kept old value");
        assert_eq!(m.read_u32s(p, 1).expect("read"), vec![77], "live memory kept new value");
    }

    #[test]
    fn local_and_const_helpers() {
        let mut local = vec![0u8; 32];
        local_store(&mut local, 8, MemWidth::B64, 42).expect("store");
        assert_eq!(local_load(&local, 8, MemWidth::B64).expect("load"), 42);
        assert!(local_load(&local, 32, MemWidth::B8).is_err());

        let cmem = [1u8, 0, 0, 0, 2, 0, 0, 0];
        assert_eq!(const_load(&cmem, 0, MemWidth::B32).expect("load"), 1);
        assert_eq!(const_load(&cmem, 4, MemWidth::B32).expect("load"), 2);
        assert!(const_load(&cmem, 8, MemWidth::B32).is_err());
    }
}
