//! Kernel templates shared by the benchmark programs.
//!
//! SpecACCEL's OpenACC compiler lowers parallel loops into many small
//! kernels; the fifteen programs here are composed from the templates in
//! this module, instantiated under program-specific names (the suite's
//! static-kernel counts in Table IV come from those instantiations).
//!
//! All kernels use the same ABI: parameters are 32-bit words in constant
//! memory at byte offsets 0, 4, 8, …; element index is derived from the
//! launch geometry via special registers.

use gpu_isa::asm::KernelBuilder;
use gpu_isa::{AtomOp, BoolOp, CmpOp, Kernel, MufuFunc, PReg, Reg, ShflMode, SpecialReg};

const P0: PReg = PReg(0);

/// `y[i] = a*x[i] + y[i]` over `n` elements (FP32).
///
/// Params: `[y, x, a_bits, n]`.
pub fn saxpy_f32(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (y, x, a, n, gtid, off, xv, yv) =
        (Reg(4), Reg(5), Reg(6), Reg(7), Reg(0), Reg(1), Reg(2), Reg(3));
    k.ldc(y, 0);
    k.ldc(x, 4);
    k.ldc(a, 8);
    k.ldc(n, 12);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.shli(off, gtid, 2);
    k.iadd(y, y, off);
    k.iadd(x, x, off);
    k.ldg(xv, x, 0);
    k.ldg(yv, y, 0);
    k.ffma(yv, xv, a, yv);
    k.stg(y, 0, yv);
    k.bind(end);
    k.exit();
    k.finish()
}

/// `y[i] = a*x[i] + y[i]` over `n` elements (FP64 register pairs).
///
/// Params: `[y, x, a_lo, a_hi, n]`.
pub fn daxpy_f64(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (y, x, n, gtid, off) = (Reg(4), Reg(5), Reg(7), Reg(0), Reg(1));
    let (a, xv, yv) = (Reg(8), Reg(10), Reg(12)); // even pairs
    k.ldc(y, 0);
    k.ldc(x, 4);
    k.ldc(a, 8);
    k.ldc(Reg(9), 12);
    k.ldc(n, 16);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.shli(off, gtid, 3);
    k.iadd(y, y, off);
    k.iadd(x, x, off);
    k.ldg64(xv, x, 0);
    k.ldg64(yv, y, 0);
    k.dfma(yv, xv, a, yv);
    k.stg64(y, 0, yv);
    k.bind(end);
    k.exit();
    k.finish()
}

/// `dst[i] = src[i]` over `n` elements.
///
/// Params: `[dst, src, n]`.
pub fn copy_f32(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (d, s, n, gtid, off, v) = (Reg(4), Reg(5), Reg(6), Reg(0), Reg(1), Reg(2));
    k.ldc(d, 0);
    k.ldc(s, 4);
    k.ldc(n, 8);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.shli(off, gtid, 2);
    k.iadd(d, d, off);
    k.iadd(s, s, off);
    k.ldg(v, s, 0);
    k.stg(d, 0, v);
    k.bind(end);
    k.exit();
    k.finish()
}

/// `a[i] = b[i] * c[i]` (elementwise product) over `n` elements — the
/// building block of device-side dot products.
///
/// Params: `[a, b, c, n]`.
pub fn mul_f32(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (pa, pb, pc, n) = (Reg(4), Reg(5), Reg(6), Reg(7));
    let (gtid, off, bv, cv) = (Reg(0), Reg(1), Reg(2), Reg(3));
    k.ldc(pa, 0);
    k.ldc(pb, 4);
    k.ldc(pc, 8);
    k.ldc(n, 12);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.shli(off, gtid, 2);
    k.iadd(pa, pa, off);
    k.iadd(pb, pb, off);
    k.iadd(pc, pc, off);
    k.ldg(bv, pb, 0);
    k.ldg(cv, pc, 0);
    k.fmul(bv, bv, cv);
    k.stg(pa, 0, bv);
    k.bind(end);
    k.exit();
    k.finish()
}

/// `a[i] = b[i] + s*c[i]` (STREAM triad) over `n` elements.
///
/// Params: `[a, b, c, s_bits, n]`.
pub fn triad_f32(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (pa, pb, pc, s, n) = (Reg(4), Reg(5), Reg(6), Reg(7), Reg(8));
    let (gtid, off, bv, cv) = (Reg(0), Reg(1), Reg(2), Reg(3));
    k.ldc(pa, 0);
    k.ldc(pb, 4);
    k.ldc(pc, 8);
    k.ldc(s, 12);
    k.ldc(n, 16);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.shli(off, gtid, 2);
    k.iadd(pa, pa, off);
    k.iadd(pb, pb, off);
    k.iadd(pc, pc, off);
    k.ldg(bv, pb, 0);
    k.ldg(cv, pc, 0);
    k.ffma(cv, cv, s, bv);
    k.stg(pa, 0, cv);
    k.bind(end);
    k.exit();
    k.finish()
}

/// Five-point stencil: interior cells get
/// `out = in + c*(left+right+up+down − 4·in)`, boundary cells copy through.
///
/// Launch geometry: `block = (w, 1, 1)`, `grid = (h, 1, 1)`.
/// Params: `[out, in, c_bits]`.
pub fn stencil5_f32(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (out, inp, c) = (Reg(4), Reg(5), Reg(6));
    let (x, y, w, h) = (Reg(0), Reg(1), Reg(2), Reg(3));
    let (idx, off, pin, pout, center) = (Reg(8), Reg(9), Reg(10), Reg(11), Reg(12));
    let (acc, t, rowoff) = (Reg(13), Reg(14), Reg(15));
    k.ldc(out, 0);
    k.ldc(inp, 4);
    k.ldc(c, 8);
    k.s2r(x, SpecialReg::TidX);
    k.s2r(y, SpecialReg::CtaIdX);
    k.s2r(w, SpecialReg::NTidX);
    k.s2r(h, SpecialReg::NCtaIdX);
    // idx = y*w + x; byte offset
    k.imad(idx, y, w, x);
    k.shli(off, idx, 2);
    k.iadd(pin, inp, off);
    k.iadd(pout, out, off);
    k.ldg(center, pin, 0);
    // interior = x>0 && x<w-1 && y>0 && y<h-1
    k.isetp(P0, CmpOp::Gt, x, 0);
    k.iaddi(t, w, -1);
    k.isetp_bool(P0, CmpOp::Lt, BoolOp::And, x, t, P0);
    k.movi(t, 0);
    k.isetp_bool(P0, CmpOp::Gt, BoolOp::And, y, t, P0);
    k.iaddi(t, h, -1);
    k.isetp_bool(P0, CmpOp::Lt, BoolOp::And, y, t, P0);
    let copy = k.new_label();
    let end = k.new_label();
    k.bra_ifnot(P0, copy);
    // acc = left + right
    k.ldg(acc, pin, -4);
    k.ldg(t, pin, 4);
    k.fadd(acc, acc, t);
    // up/down at ±w*4 bytes
    k.shli(rowoff, w, 2);
    k.isub(t, pin, rowoff);
    k.ldg(t, t, 0);
    k.fadd(acc, acc, t);
    k.iadd(t, pin, rowoff);
    k.ldg(t, t, 0);
    k.fadd(acc, acc, t);
    // acc -= 4*center ; out = center + c*acc
    k.fmuli(t, center, -4.0);
    k.fadd(acc, acc, t);
    k.ffma(acc, acc, c, center);
    k.stg(pout, 0, acc);
    k.bra(end);
    k.bind(copy);
    k.stg(pout, 0, center);
    k.bind(end);
    k.exit();
    k.finish()
}

/// One-dimensional three-point wave step:
/// `next[i] = 2·cur[i] − prev[i] + c·(cur[i−1] − 2·cur[i] + cur[i+1])` for
/// interior points, copy-through at the ends.
///
/// Params: `[next, cur, prev, c_bits, n]`.
pub fn wave_step_f32(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (nx, cu, pv, c, n) = (Reg(4), Reg(5), Reg(6), Reg(7), Reg(16));
    let (gtid, off, center, acc, t) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(8));
    let (pn, pc, pp) = (Reg(9), Reg(10), Reg(11));
    k.ldc(nx, 0);
    k.ldc(cu, 4);
    k.ldc(pv, 8);
    k.ldc(c, 12);
    k.ldc(n, 16);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.shli(off, gtid, 2);
    k.iadd(pn, nx, off);
    k.iadd(pc, cu, off);
    k.iadd(pp, pv, off);
    k.ldg(center, pc, 0);
    // interior = gtid>0 && gtid<n-1
    k.isetp(P0, CmpOp::Gt, gtid, 0);
    k.iaddi(t, n, -1);
    k.isetp_bool(P0, CmpOp::Lt, BoolOp::And, gtid, t, P0);
    let copy = k.new_label();
    k.bra_ifnot(P0, copy);
    k.ldg(acc, pc, -4);
    k.ldg(t, pc, 4);
    k.fadd(acc, acc, t);
    k.fmuli(t, center, -2.0);
    k.fadd(acc, acc, t);
    k.fmul(acc, acc, c);
    k.fmuli(t, center, 2.0);
    k.fadd(acc, acc, t);
    // float negation: acc = acc - prev ⇒ FADD with prev multiplied by -1.
    k.ldg(t, pp, 0);
    k.fmuli(t, t, -1.0);
    k.fadd(acc, acc, t);
    k.stg(pn, 0, acc);
    k.bra(end);
    k.bind(copy);
    k.stg(pn, 0, center);
    k.bind(end);
    k.exit();
    k.finish()
}

/// Block-wise sum reduction: `out[block] = Σ in[block·blockDim + tid]`
/// (shared-memory tree, then warp shuffle for the final 32).
///
/// Launch with power-of-two block size ≥ 32 and `shared = blockDim·4`.
/// Params: `[out, in, n]` — out-of-range elements contribute 0.
pub fn reduce_sum_f32(name: &str, block_size: u32) -> Kernel {
    assert!(block_size.is_power_of_two() && (32..=1024).contains(&block_size));
    let mut k = KernelBuilder::new(name);
    k.shared_bytes(block_size * 4);
    let (out, inp, n) = (Reg(4), Reg(5), Reg(6));
    let (gtid, tid, off, v, t, sa) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(8), Reg(9));
    k.ldc(out, 0);
    k.ldc(inp, 4);
    k.ldc(n, 8);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.s2r(tid, SpecialReg::TidX);
    // v = gtid < n ? in[gtid] : 0
    k.movi(v, 0);
    k.isetp_r(P0, CmpOp::Lt, gtid, n);
    let skip = k.new_label();
    k.bra_ifnot(P0, skip);
    k.shli(off, gtid, 2);
    k.iadd(off, inp, off);
    k.ldg(v, off, 0);
    k.bind(skip);
    // shared[tid] = v; tree-reduce halves down to one warp
    k.shli(sa, tid, 2);
    k.sts(sa, 0, v);
    k.bar();
    let mut stride = block_size / 2;
    while stride >= 32 {
        // if tid < stride { sh[tid] += sh[tid+stride] }
        k.isetp(P0, CmpOp::Lt, tid, stride as i32);
        let skip2 = k.new_label();
        k.bra_ifnot(P0, skip2);
        k.lds(v, sa, 0);
        k.lds(t, sa, (stride * 4) as i16);
        k.fadd(v, v, t);
        k.sts(sa, 0, v);
        k.bind(skip2);
        k.bar();
        stride /= 2;
    }
    // first warp: shuffle reduction of sh[tid] (tid < 32)
    k.isetp(P0, CmpOp::Lt, tid, 32);
    let done = k.new_label();
    k.bra_ifnot(P0, done);
    k.lds(v, sa, 0);
    for sh in [16u32, 8, 4, 2, 1] {
        k.shfl(ShflMode::Bfly, t, v, sh);
        k.fadd(v, v, t);
    }
    // lane 0 writes out[block]
    k.isetp(P0, CmpOp::Eq, tid, 0);
    k.bra_ifnot(P0, done);
    k.s2r(t, SpecialReg::CtaIdX);
    k.shli(t, t, 2);
    k.iadd(t, out, t);
    k.stg(t, 0, v);
    k.bind(done);
    k.exit();
    k.finish()
}

/// MRI-Q-style transcendental transform:
/// `out[i] = sin(in[i])·w + cos(in[i]·k)` (MUFU heavy).
///
/// Params: `[out, in, w_bits, k_bits, n]`.
pub fn mufu_transform(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (out, inp, w, kk, n) = (Reg(4), Reg(5), Reg(6), Reg(7), Reg(16));
    let (gtid, off, v, s, c) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(8));
    k.ldc(out, 0);
    k.ldc(inp, 4);
    k.ldc(w, 8);
    k.ldc(kk, 12);
    k.ldc(n, 16);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.shli(off, gtid, 2);
    k.iadd(inp, inp, off);
    k.iadd(out, out, off);
    k.ldg(v, inp, 0);
    k.mufu(MufuFunc::Sin, s, v);
    k.fmul(c, v, kk);
    k.mufu(MufuFunc::Cos, c, c);
    k.ffma(s, s, w, c);
    k.stg(out, 0, s);
    k.bind(end);
    k.exit();
    k.finish()
}

/// Lennard-Jones-style FP64 force sweep: each thread loops over all `n`
/// atoms and accumulates `Σ (1/r²)·(1/r⁶ − 0.5)·dx` against its own
/// position (1-D positions; self-interaction excluded).
///
/// Params: `[force, pos, n]` (`force`, `pos` are f64 arrays).
pub fn lj_force_f64(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (force, pos, n) = (Reg(4), Reg(5), Reg(6));
    let (gtid, i, off) = (Reg(0), Reg(1), Reg(2));
    let (xi, xj, dx, r2, inv, acc, t) =
        (Reg(8), Reg(10), Reg(12), Reg(14), Reg(16), Reg(18), Reg(20));
    let (half, one) = (Reg(22), Reg(24));
    k.ldc(force, 0);
    k.ldc(pos, 4);
    k.ldc(n, 8);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    // xi = pos[gtid]
    k.shli(off, gtid, 3);
    k.iadd(t, pos, off);
    k.ldg64(xi, t, 0);
    // constants: one = i2d(1), half = one * 0.5f (widened imm)
    k.movi(t, 1);
    k.i2d(one, t);
    k.movi(t, 0);
    k.i2d(acc, t); // acc = 0.0
                   // half = 0.5: build from one via dmul with f32 imm 0.5 (widened)
    let mut half_i = gpu_isa::Instr::new(gpu_isa::Opcode::DMUL);
    half_i.dsts[0] = gpu_isa::Dst::R64(half);
    half_i.srcs[0] = gpu_isa::Operand::R64(one);
    half_i.srcs[1] = gpu_isa::Operand::imm_f32(0.5);
    k.push(half_i);
    k.movi(i, 0);
    let top = k.new_label();
    k.bind(top);
    // skip self
    k.isetp_r(PReg(1), CmpOp::Eq, i, gtid);
    let skip = k.new_label();
    k.bra_if(PReg(1), skip);
    // xj = pos[i]; dx = xi - xj
    k.shli(off, i, 3);
    k.iadd(t, pos, off);
    k.ldg64(xj, t, 0);
    // dx = xi - xj: negate xj by multiplying with -1.0 then add
    let mut neg = gpu_isa::Instr::new(gpu_isa::Opcode::DMUL);
    neg.dsts[0] = gpu_isa::Dst::R64(dx);
    neg.srcs[0] = gpu_isa::Operand::R64(xj);
    neg.srcs[1] = gpu_isa::Operand::imm_f32(-1.0);
    k.push(neg);
    k.dadd(dx, xi, dx);
    // r2 = dx*dx + 1 (softening); inv = 1/r2 via f32 rcp refined once
    k.dfma(r2, dx, dx, one);
    k.d2f(t, r2);
    k.mufu(MufuFunc::Rcp, t, t);
    k.f2d(inv, t);
    // one Newton step: inv = inv*(2 - r2*inv)
    {
        let two = Reg(26);
        let mut mk2 = gpu_isa::Instr::new(gpu_isa::Opcode::DMUL);
        mk2.dsts[0] = gpu_isa::Dst::R64(two);
        mk2.srcs[0] = gpu_isa::Operand::R64(one);
        mk2.srcs[1] = gpu_isa::Operand::imm_f32(2.0);
        k.push(mk2);
        let prod = Reg(28);
        k.dmul(prod, r2, inv);
        let mut negp = gpu_isa::Instr::new(gpu_isa::Opcode::DMUL);
        negp.dsts[0] = gpu_isa::Dst::R64(prod);
        negp.srcs[0] = gpu_isa::Operand::R64(prod);
        negp.srcs[1] = gpu_isa::Operand::imm_f32(-1.0);
        k.push(negp);
        k.dadd(prod, two, prod);
        k.dmul(inv, inv, prod);
    }
    // inv6 = inv^3; term = inv*(inv6 - half)*dx ; acc += term
    {
        let inv6 = Reg(26);
        k.dmul(inv6, inv, inv);
        k.dmul(inv6, inv6, inv);
        let mut negh = gpu_isa::Instr::new(gpu_isa::Opcode::DMUL);
        negh.dsts[0] = gpu_isa::Dst::R64(Reg(28));
        negh.srcs[0] = gpu_isa::Operand::R64(half);
        negh.srcs[1] = gpu_isa::Operand::imm_f32(-1.0);
        k.push(negh);
        k.dadd(inv6, inv6, Reg(28));
        k.dmul(inv6, inv6, inv);
        k.dfma(acc, inv6, dx, acc);
    }
    k.bind(skip);
    k.iaddi(i, i, 1);
    k.isetp_r(PReg(1), CmpOp::Lt, i, n);
    k.bra_if(PReg(1), top);
    // force[gtid] = acc
    k.shli(off, gtid, 3);
    k.iadd(t, force, off);
    k.stg64(t, 0, acc);
    k.bind(end);
    k.exit();
    k.finish()
}

/// FP64 leapfrog integration: `pos[i] += vel[i]·dt`.
///
/// Params: `[pos, vel, dt_bits_f32, n]` (`dt` is widened from f32).
pub fn integrate_f64(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (pos, vel, dt32, n) = (Reg(4), Reg(5), Reg(6), Reg(7));
    let (gtid, off, p, v, dt) = (Reg(0), Reg(1), Reg(8), Reg(10), Reg(12));
    k.ldc(pos, 0);
    k.ldc(vel, 4);
    k.ldc(dt32, 8);
    k.ldc(n, 12);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.f2d(dt, dt32);
    k.shli(off, gtid, 3);
    k.iadd(pos, pos, off);
    k.iadd(vel, vel, off);
    k.ldg64(p, pos, 0);
    k.ldg64(v, vel, 0);
    k.dfma(p, v, dt, p);
    k.stg64(pos, 0, p);
    k.bind(end);
    k.exit();
    k.finish()
}

/// Integer LCG scrambler: `iters` rounds of
/// `s = s·1664525 + 1013904223; s ^= s >> 13` per element.
///
/// Params: `[data, n, iters]`.
pub fn lcg_scramble(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (data, n, iters) = (Reg(4), Reg(5), Reg(6));
    let (gtid, off, s, i, t) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(8));
    k.ldc(data, 0);
    k.ldc(n, 4);
    k.ldc(iters, 8);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.shli(off, gtid, 2);
    k.iadd(data, data, off);
    k.ldg(s, data, 0);
    k.movi(i, 0);
    let top = k.new_label();
    k.bind(top);
    k.movi(t, 1664525);
    k.imul(s, s, t);
    k.iaddi(s, s, 1013904223);
    k.shri(t, s, 13);
    k.xor(s, s, t);
    k.iaddi(i, i, 1);
    k.isetp_r(P0, CmpOp::Lt, i, iters);
    k.bra_if(P0, top);
    k.stg(data, 0, s);
    k.bind(end);
    k.exit();
    k.finish()
}

/// Atomic histogram: `bins[value[i] & (nbins−1)] += 1` via `ATOMG.ADD`.
///
/// Params: `[bins, values, nbins_mask, n]`.
pub fn atomic_histogram(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (bins, vals, mask, n) = (Reg(4), Reg(5), Reg(6), Reg(7));
    let (gtid, off, v, one) = (Reg(0), Reg(1), Reg(2), Reg(3));
    k.ldc(bins, 0);
    k.ldc(vals, 4);
    k.ldc(mask, 8);
    k.ldc(n, 12);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.shli(off, gtid, 2);
    k.iadd(vals, vals, off);
    k.ldg(v, vals, 0);
    k.and(v, v, mask);
    k.shli(v, v, 2);
    k.iadd(v, bins, v);
    k.movi(one, 1);
    k.atomg(AtomOp::Add, Reg(8), v, 0, one);
    k.bind(end);
    k.exit();
    k.finish()
}

/// Indexed gather (SpMV-flavoured): `out[i] = Σ_{j<deg} val[i·deg+j] ·
/// x[idx[i·deg+j]]`.
///
/// Params: `[out, val, idx, x, deg, n]`.
pub fn spmv_gather(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (out, val, idx, x, deg, n) = (Reg(4), Reg(5), Reg(6), Reg(7), Reg(16), Reg(17));
    let (gtid, j, base, acc, t, a, xi) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(8), Reg(9), Reg(10));
    k.ldc(out, 0);
    k.ldc(val, 4);
    k.ldc(idx, 8);
    k.ldc(x, 12);
    k.ldc(deg, 16);
    k.ldc(n, 20);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.movi(acc, 0);
    k.imul(base, gtid, deg);
    k.movi(j, 0);
    let top = k.new_label();
    k.bind(top);
    // t = (base + j) * 4
    k.iadd(t, base, j);
    k.shli(t, t, 2);
    // a = val[base+j]
    k.iadd(a, val, t);
    k.ldg(a, a, 0);
    // xi = x[idx[base+j]]
    k.iadd(xi, idx, t);
    k.ldg(xi, xi, 0);
    k.shli(xi, xi, 2);
    k.iadd(xi, x, xi);
    k.ldg(xi, xi, 0);
    k.ffma(acc, a, xi, acc);
    k.iaddi(j, j, 1);
    k.isetp_r(P0, CmpOp::Lt, j, deg);
    k.bra_if(P0, top);
    k.shli(t, gtid, 2);
    k.iadd(t, out, t);
    k.stg(t, 0, acc);
    k.bind(end);
    k.exit();
    k.finish()
}

/// Threshold-guarded update: elements with `data[i] > threshold` take an
/// expensive path (several FMAs); others are left untouched. The dynamic
/// instruction count therefore varies with the data — the pattern that
/// makes approximate profiling drift from exact profiling (Figure 2).
///
/// Params: `[data, threshold_bits, n]`.
pub fn guarded_update(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (data, th, n) = (Reg(4), Reg(5), Reg(6));
    let (gtid, off, v, t) = (Reg(0), Reg(1), Reg(2), Reg(3));
    k.ldc(data, 0);
    k.ldc(th, 4);
    k.ldc(n, 8);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.shli(off, gtid, 2);
    k.iadd(data, data, off);
    k.ldg(v, data, 0);
    k.fsetp(PReg(1), CmpOp::Gt, v, th);
    let skip = k.new_label();
    k.bra_ifnot(PReg(1), skip);
    // expensive damped update: v = v*0.8 + 0.05 three times
    for _ in 0..3 {
        k.fmuli(t, v, 0.8);
        k.faddi(v, t, 0.05);
    }
    k.stg(data, 0, v);
    k.bind(skip);
    k.bind(end);
    k.exit();
    k.finish()
}

/// Per-thread forward/backward recurrence over a row of length `rowlen`
/// (the line-sweep at the heart of the SP/BT penta/tri-diagonal solvers):
/// forward `x[j] += a·x[j−1]`, then backward `x[j] += b·x[j+1]`.
///
/// Params: `[data, a_bits, b_bits, rowlen, nrows]`; thread `i` owns row `i`.
pub fn line_sweep_f32(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (data, a, b, rowlen, nrows) = (Reg(4), Reg(5), Reg(6), Reg(7), Reg(16));
    let (gtid, j, p, prev, cur) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(8));
    k.ldc(data, 0);
    k.ldc(a, 4);
    k.ldc(b, 8);
    k.ldc(rowlen, 12);
    k.ldc(nrows, 16);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, nrows);
    let end = k.new_label();
    k.bra_if(P0, end);
    // p = &data[gtid*rowlen]
    k.imul(p, gtid, rowlen);
    k.shli(p, p, 2);
    k.iadd(p, data, p);
    // forward sweep
    k.ldg(prev, p, 0);
    k.movi(j, 1);
    let fwd = k.new_label();
    k.bind(fwd);
    k.shli(cur, j, 2);
    k.iadd(cur, p, cur);
    k.ldg(Reg(9), cur, 0);
    k.ffma(prev, prev, a, Reg(9));
    k.stg(cur, 0, prev);
    k.iaddi(j, j, 1);
    k.isetp_r(P0, CmpOp::Lt, j, rowlen);
    k.bra_if(P0, fwd);
    // backward sweep
    k.iaddi(j, rowlen, -2);
    let bwd = k.new_label();
    k.bind(bwd);
    k.shli(cur, j, 2);
    k.iadd(cur, p, cur);
    k.ldg(Reg(9), cur, 4); // x[j+1]
    k.ldg(Reg(10), cur, 0);
    k.ffma(Reg(10), Reg(9), b, Reg(10));
    k.stg(cur, 0, Reg(10));
    k.iaddi(j, j, -1);
    k.isetp(P0, CmpOp::Ge, j, 0);
    k.bra_if(P0, bwd);
    k.bind(end);
    k.exit();
    k.finish()
}

/// D2Q9-flavoured LBM collide: relax each of 9 per-cell distributions
/// toward their cell average: `f_d = f_d + ω·(avg − f_d)`.
///
/// Layout: `f[d·ncells + i]` (structure of arrays).
/// Params: `[f, omega_bits, ncells]`.
pub fn lbm_collide(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (f, omega, ncells) = (Reg(4), Reg(5), Reg(6));
    let (gtid, d, acc, t, addr, stride, avg) =
        (Reg(0), Reg(1), Reg(2), Reg(3), Reg(8), Reg(9), Reg(10));
    k.ldc(f, 0);
    k.ldc(omega, 4);
    k.ldc(ncells, 8);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, ncells);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.shli(stride, ncells, 2);
    // avg = (Σ_d f[d]) / 9
    k.movi(acc, 0);
    k.shli(addr, gtid, 2);
    k.iadd(addr, f, addr);
    k.movi(d, 0);
    let sum = k.new_label();
    k.bind(sum);
    k.ldg(t, addr, 0);
    k.fadd(acc, acc, t);
    k.iadd(addr, addr, stride);
    k.iaddi(d, d, 1);
    k.isetp(P0, CmpOp::Lt, d, 9);
    k.bra_if(P0, sum);
    k.fmuli(avg, acc, 1.0 / 9.0);
    // relax every direction
    k.shli(addr, gtid, 2);
    k.iadd(addr, f, addr);
    k.movi(d, 0);
    let relax = k.new_label();
    k.bind(relax);
    k.ldg(t, addr, 0);
    k.fmuli(Reg(11), t, -1.0);
    k.fadd(Reg(11), avg, Reg(11)); // avg - f
    k.ffma(t, Reg(11), omega, t);
    k.stg(addr, 0, t);
    k.iadd(addr, addr, stride);
    k.iaddi(d, d, 1);
    k.isetp(P0, CmpOp::Lt, d, 9);
    k.bra_if(P0, relax);
    k.bind(end);
    k.exit();
    k.finish()
}

/// LBM stream step for one direction: `dst[d·n + i] = src[d·n + shift(i)]`
/// with a per-direction circular shift.
///
/// Params: `[dst, src, d, shift, ncells]`.
pub fn lbm_stream(name: &str) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (dst, src, dir, shift, ncells) = (Reg(4), Reg(5), Reg(6), Reg(7), Reg(16));
    let (gtid, t, sidx, v) = (Reg(0), Reg(1), Reg(2), Reg(3));
    k.ldc(dst, 0);
    k.ldc(src, 4);
    k.ldc(dir, 8);
    k.ldc(shift, 12);
    k.ldc(ncells, 16);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, ncells);
    let end = k.new_label();
    k.bra_if(P0, end);
    // sidx = (gtid + shift) mod ncells  (ncells is a power of two: mask)
    k.iaddi(t, ncells, -1);
    k.iadd(sidx, gtid, shift);
    k.and(sidx, sidx, t);
    // linear offsets include d·ncells
    k.imul(t, dir, ncells);
    k.iadd(sidx, sidx, t);
    k.shli(sidx, sidx, 2);
    k.iadd(sidx, src, sidx);
    k.ldg(v, sidx, 0);
    k.imul(t, dir, ncells);
    k.iadd(t, t, gtid);
    k.shli(t, t, 2);
    k.iadd(t, dst, t);
    k.stg(t, 0, v);
    k.bind(end);
    k.exit();
    k.finish()
}

/// Program-specific variant of a template: perturbs the damping
/// coefficients *and the instruction selection* so each generated static
/// kernel is distinct (the analog of a compiler emitting one kernel per
/// parallel loop, with different codegen per loop shape). Four codegen
/// flavors rotate by variant index:
///
/// * flavor 0 — immediate-form FP32 (`FMUL32I`/`FADD32I`/`FFMA`),
/// * flavor 1 — register constants with an `FMNMX` clamp,
/// * flavor 2 — `IMAD`/`ISCADD` addressing instead of `SHL`+`IADD`,
/// * flavor 3 — an `FSETP`/`FSEL` overload guard and `IADD3` addressing.
///
/// All flavors are numerically tame (damped toward a small fixed point).
pub fn damped_update_variant(name: &str, variant: u32) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let (data, n) = (Reg(4), Reg(5));
    let (gtid, off, v, t) = (Reg(0), Reg(1), Reg(2), Reg(3));
    let c = 0.90 + 0.0008 * (variant % 100) as f32;
    let d = 0.01 + 0.0001 * (variant % 64) as f32;
    k.ldc(data, 0);
    k.ldc(n, 4);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    match variant % 4 {
        2 => {
            // IMAD/ISCADD addressing: addr = gtid*4 + base.
            k.movi(off, 4);
            k.imad(data, gtid, off, data);
        }
        3 => {
            // IADD3 addressing: base + off + RZ.
            k.shli(off, gtid, 2);
            k.iadd3(data, data, off, Reg::RZ);
        }
        _ => {
            k.shli(off, gtid, 2);
            k.iadd(data, data, off);
        }
    }
    k.ldg(v, data, 0);
    match variant % 4 {
        1 => {
            // Register constants + FMNMX clamp to [., 8.0].
            k.movf(t, c);
            k.fmul(t, v, t);
            k.movf(Reg(8), d);
            k.fadd(v, t, Reg(8));
            k.movf(Reg(8), 8.0);
            k.fmnmx(v, v, Reg(8), true);
        }
        3 => {
            // Overload guard: halve when v > 2, else damp.
            k.movf(Reg(8), 2.0);
            k.fsetp(gpu_isa::PReg(1), CmpOp::Gt, v, Reg(8));
            k.fmuli(t, v, 0.5);
            k.fmuli(Reg(8), v, c);
            k.faddi(Reg(8), Reg(8), d);
            let mut sel = gpu_isa::Instr::new(gpu_isa::Opcode::FSEL);
            sel.dsts[0] = gpu_isa::Dst::R(v);
            sel.srcs = [
                gpu_isa::Operand::R(t),
                gpu_isa::Operand::R(Reg(8)),
                gpu_isa::Operand::P(gpu_isa::PReg(1)),
                gpu_isa::Operand::None,
            ];
            k.push(sel);
        }
        _ => {
            k.fmuli(t, v, c);
            k.faddi(v, t, d);
            k.fmul(t, v, v);
            k.ffma(v, t, Reg::RZ, v); // t*0 + v keeps an FFMA in the mix
        }
    }
    k.stg(data, 0, v);
    k.bind(end);
    k.exit();
    k.finish()
}

/// Integer bit-mixing round: a hash-like scramble exercising the
/// bit-manipulation datapath (`BREV`, `BFE`, `BFI`, `PRMT`, `SHF`, `POPC`):
/// for each element, `iters` rounds of
/// `s = bfi(bfe(s,8,16), brev(s), 8, 16); s = prmt(s, shf(s, s, 7)); s += popc(s)`.
///
/// Params: `[data, n, iters]`.
pub fn bitmix_u32(name: &str) -> Kernel {
    use gpu_isa::{Dst, Instr, Opcode, Operand};
    let mut k = KernelBuilder::new(name);
    let (data, n, iters) = (Reg(4), Reg(5), Reg(6));
    let (gtid, off, s, i, t, u) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(8), Reg(9));
    k.ldc(data, 0);
    k.ldc(n, 4);
    k.ldc(iters, 8);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.isetp_r(P0, CmpOp::Ge, gtid, n);
    let end = k.new_label();
    k.bra_if(P0, end);
    k.shli(off, gtid, 2);
    k.iadd(data, data, off);
    k.ldg(s, data, 0);
    k.movi(i, 0);
    let top = k.new_label();
    k.bind(top);
    // t = brev(s)
    let mut brev = Instr::new(Opcode::BREV);
    brev.dsts[0] = Dst::R(t);
    brev.srcs[0] = Operand::R(s);
    k.push(brev);
    // u = bfe(s, pos=8 len=16)
    let mut bfe = Instr::new(Opcode::BFE);
    bfe.dsts[0] = Dst::R(u);
    bfe.srcs = [Operand::R(s), Operand::Imm(8 | (16 << 8)), Operand::None, Operand::None];
    k.push(bfe);
    // s = bfi(u -> t at pos=8 len=16)
    let mut bfi = Instr::new(Opcode::BFI);
    bfi.dsts[0] = Dst::R(s);
    bfi.srcs = [Operand::R(u), Operand::Imm(8 | (16 << 8)), Operand::R(t), Operand::None];
    k.push(bfi);
    // t = shf(s, s, 7); s = prmt(s, t, 0x6240)
    let mut shf = Instr::new(Opcode::SHF);
    shf.dsts[0] = Dst::R(t);
    shf.srcs = [Operand::R(s), Operand::R(s), Operand::Imm(7), Operand::None];
    k.push(shf);
    let mut prmt = Instr::new(Opcode::PRMT);
    prmt.dsts[0] = Dst::R(s);
    prmt.srcs = [Operand::R(s), Operand::R(t), Operand::Imm(0x6240), Operand::None];
    k.push(prmt);
    // s += popc(s)
    let mut popc = Instr::new(Opcode::POPC);
    popc.dsts[0] = Dst::R(t);
    popc.srcs[0] = Operand::R(s);
    k.push(popc);
    k.iadd(s, s, t);
    k.iaddi(i, i, 1);
    k.isetp_r(P0, CmpOp::Lt, i, iters);
    k.bra_if(P0, top);
    k.stg(data, 0, s);
    k.bind(end);
    k.exit();
    k.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Dim3, GlobalMem, Gpu, Launch};

    fn gpu() -> Gpu {
        Gpu::new()
    }

    fn launch(
        kernel: &Kernel,
        grid: u32,
        block: u32,
        params: &[u32],
        mem: &mut GlobalMem,
    ) -> gpu_sim::LaunchStats {
        gpu()
            .launch(
                &Launch {
                    kernel,
                    grid: Dim3::from(grid),
                    block: Dim3::from(block),
                    params,
                    instr_budget: Some(50_000_000),
                },
                mem,
                None,
            )
            .expect("launch")
    }

    #[test]
    fn saxpy_matches_reference() {
        let k = saxpy_f32("saxpy");
        let mut mem = GlobalMem::new();
        let n = 100usize;
        let y = mem.alloc((n * 4) as u32).expect("y");
        let x = mem.alloc((n * 4) as u32).expect("x");
        let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let ys: Vec<f32> = (0..n).map(|i| 1.0 + i as f32).collect();
        mem.write_f32s(x, &xs).expect("w");
        mem.write_f32s(y, &ys).expect("w");
        launch(&k, 4, 32, &[y.addr(), x.addr(), 2.0f32.to_bits(), n as u32], &mut mem);
        let out = mem.read_f32s(y, n).expect("r");
        for i in 0..n {
            assert_eq!(out[i], 2.0f32.mul_add(xs[i], ys[i]), "i={i}");
        }
    }

    #[test]
    fn daxpy_matches_reference() {
        let k = daxpy_f64("daxpy");
        let mut mem = GlobalMem::new();
        let n = 64usize;
        let y = mem.alloc((n * 8) as u32).expect("y");
        let x = mem.alloc((n * 8) as u32).expect("x");
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        let ys: Vec<f64> = (0..n).map(|i| 3.0 - i as f64).collect();
        mem.write_f64s(x, &xs).expect("w");
        mem.write_f64s(y, &ys).expect("w");
        let a = 1.5f64;
        let bits = a.to_bits();
        launch(
            &k,
            2,
            32,
            &[y.addr(), x.addr(), bits as u32, (bits >> 32) as u32, n as u32],
            &mut mem,
        );
        let out = mem.read_f64s(y, n).expect("r");
        for i in 0..n {
            assert_eq!(out[i], a.mul_add(xs[i], ys[i]), "i={i}");
        }
    }

    #[test]
    fn stencil_diffuses_and_preserves_boundary() {
        let k = stencil5_f32("st");
        let (w, h) = (16u32, 8u32);
        let n = (w * h) as usize;
        let mut mem = GlobalMem::new();
        let out = mem.alloc((n * 4) as u32).expect("out");
        let inp = mem.alloc((n * 4) as u32).expect("in");
        let mut init = vec![0.0f32; n];
        init[(h / 2 * w + w / 2) as usize] = 100.0; // hot spot
        mem.write_f32s(inp, &init).expect("w");
        launch(&k, h, w, &[out.addr(), inp.addr(), 0.2f32.to_bits()], &mut mem);
        let res = mem.read_f32s(out, n).expect("r");
        let c = (h / 2 * w + w / 2) as usize;
        let near = |a: f32, b: f32| (a - b).abs() <= 1e-4 * b.abs().max(1.0);
        assert!(near(res[c], 100.0 + 0.2 * (0.0 - 400.0)), "{}", res[c]);
        assert!(near(res[c + 1], 0.2 * 100.0), "right neighbour heated: {}", res[c + 1]);
        assert_eq!(res[0], 0.0, "corner copied through");
        // reference check all interior cells (FMA vs separate rounding can
        // differ in the last ulp)
        for y in 1..h - 1 {
            for x in 1..w - 1 {
                let i = (y * w + x) as usize;
                let expect = init[i]
                    + 0.2
                        * (init[i - 1] + init[i + 1] + init[i - w as usize] + init[i + w as usize]
                            - 4.0 * init[i]);
                assert!(near(res[i], expect), "cell ({x},{y}): {} vs {expect}", res[i]);
            }
        }
    }

    #[test]
    fn reduce_sum_matches_reference() {
        for block in [32u32, 64, 128] {
            let k = reduce_sum_f32("red", block);
            let n = (block * 3 + 5) as usize; // ragged tail
            let blocks = (n as u32).div_ceil(block);
            let mut mem = GlobalMem::new();
            let out = mem.alloc(blocks * 4).expect("out");
            let inp = mem.alloc((n * 4) as u32).expect("in");
            let xs: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
            mem.write_f32s(inp, &xs).expect("w");
            launch(&k, blocks, block, &[out.addr(), inp.addr(), n as u32], &mut mem);
            let partials = mem.read_f32s(out, blocks as usize).expect("r");
            for (b, got) in partials.iter().enumerate() {
                let lo = b * block as usize;
                let hi = (lo + block as usize).min(n);
                let expect: f32 = xs[lo..hi].iter().sum();
                assert_eq!(*got, expect, "block {b} of size {block}");
            }
        }
    }

    #[test]
    fn mufu_transform_matches_reference() {
        let k = mufu_transform("mriq");
        let n = 64usize;
        let mut mem = GlobalMem::new();
        let out = mem.alloc((n * 4) as u32).expect("out");
        let inp = mem.alloc((n * 4) as u32).expect("in");
        let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.1).collect();
        mem.write_f32s(inp, &xs).expect("w");
        let (w, kk) = (1.5f32, 2.0f32);
        launch(&k, 2, 32, &[out.addr(), inp.addr(), w.to_bits(), kk.to_bits(), n as u32], &mut mem);
        let res = mem.read_f32s(out, n).expect("r");
        for i in 0..n {
            let expect = xs[i].sin().mul_add(w, (xs[i] * kk).cos());
            assert!((res[i] - expect).abs() < 1e-5, "i={i}: {} vs {expect}", res[i]);
        }
    }

    #[test]
    fn lcg_scramble_matches_reference() {
        let k = lcg_scramble("lcg");
        let n = 50usize;
        let iters = 8u32;
        let mut mem = GlobalMem::new();
        let data = mem.alloc((n * 4) as u32).expect("d");
        let init: Vec<u32> = (0..n as u32).collect();
        mem.write_u32s(data, &init).expect("w");
        launch(&k, 2, 32, &[data.addr(), n as u32, iters], &mut mem);
        let res = mem.read_u32s(data, n).expect("r");
        for i in 0..n {
            let mut s = init[i];
            for _ in 0..iters {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                s ^= s >> 13;
            }
            assert_eq!(res[i], s, "i={i}");
        }
    }

    #[test]
    fn histogram_counts_all_elements() {
        let k = atomic_histogram("hist");
        let n = 200usize;
        let nbins = 16u32;
        let mut mem = GlobalMem::new();
        let bins = mem.alloc(nbins * 4).expect("bins");
        let vals = mem.alloc((n * 4) as u32).expect("vals");
        let vs: Vec<u32> = (0..n as u32).map(|i| i * 7 + 3).collect();
        mem.write_u32s(vals, &vs).expect("w");
        launch(&k, 7, 32, &[bins.addr(), vals.addr(), nbins - 1, n as u32], &mut mem);
        let res = mem.read_u32s(bins, nbins as usize).expect("r");
        assert_eq!(res.iter().sum::<u32>(), n as u32);
        let mut expect = vec![0u32; nbins as usize];
        for v in &vs {
            expect[(v & (nbins - 1)) as usize] += 1;
        }
        assert_eq!(res, expect);
    }

    #[test]
    fn spmv_gather_matches_reference() {
        let k = spmv_gather("spmv");
        let n = 40usize;
        let deg = 4usize;
        let mut mem = GlobalMem::new();
        let out = mem.alloc((n * 4) as u32).expect("out");
        let val = mem.alloc((n * deg * 4) as u32).expect("val");
        let idx = mem.alloc((n * deg * 4) as u32).expect("idx");
        let x = mem.alloc((n * 4) as u32).expect("x");
        let vals: Vec<f32> = (0..n * deg).map(|i| (i % 5) as f32 * 0.5).collect();
        let idxs: Vec<u32> = (0..n * deg).map(|i| ((i * 13) % n) as u32).collect();
        let xs: Vec<f32> = (0..n).map(|i| 1.0 + i as f32 * 0.1).collect();
        mem.write_f32s(val, &vals).expect("w");
        mem.write_u32s(idx, &idxs).expect("w");
        mem.write_f32s(x, &xs).expect("w");
        launch(
            &k,
            2,
            32,
            &[out.addr(), val.addr(), idx.addr(), x.addr(), deg as u32, n as u32],
            &mut mem,
        );
        let res = mem.read_f32s(out, n).expect("r");
        for i in 0..n {
            let mut acc = 0.0f32;
            for j in 0..deg {
                acc = vals[i * deg + j].mul_add(xs[idxs[i * deg + j] as usize], acc);
            }
            assert!((res[i] - acc).abs() < 1e-5, "row {i}");
        }
    }

    #[test]
    fn guarded_update_only_touches_above_threshold() {
        let k = guarded_update("gu");
        let n = 64usize;
        let mut mem = GlobalMem::new();
        let data = mem.alloc((n * 4) as u32).expect("d");
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        mem.write_f32s(data, &xs).expect("w");
        let stats = launch(&k, 2, 32, &[data.addr(), 31.5f32.to_bits(), n as u32], &mut mem);
        let res = mem.read_f32s(data, n).expect("r");
        for i in 0..n {
            if xs[i] > 31.5 {
                let mut v = xs[i];
                for _ in 0..3 {
                    v = v * 0.8 + 0.05;
                }
                assert!((res[i] - v).abs() < 1e-6, "i={i}");
            } else {
                assert_eq!(res[i], xs[i], "i={i} untouched");
            }
        }
        // Data-dependent dynamic count: lowering the threshold must execute
        // more instructions.
        let mut mem2 = GlobalMem::new();
        let d2 = mem2.alloc((n * 4) as u32).expect("d");
        mem2.write_f32s(d2, &xs).expect("w");
        let stats_low = launch(&k, 2, 32, &[d2.addr(), 1.5f32.to_bits(), n as u32], &mut mem2);
        assert!(stats_low.dyn_instrs > stats.dyn_instrs);
    }

    #[test]
    fn line_sweep_matches_reference() {
        let k = line_sweep_f32("sweep");
        let (nrows, rowlen) = (8usize, 16usize);
        let mut mem = GlobalMem::new();
        let data = mem.alloc((nrows * rowlen * 4) as u32).expect("d");
        let init: Vec<f32> = (0..nrows * rowlen).map(|i| ((i % 11) as f32) * 0.1).collect();
        mem.write_f32s(data, &init).expect("w");
        let (a, b) = (0.5f32, 0.25f32);
        launch(
            &k,
            1,
            32,
            &[data.addr(), a.to_bits(), b.to_bits(), rowlen as u32, nrows as u32],
            &mut mem,
        );
        let res = mem.read_f32s(data, nrows * rowlen).expect("r");
        for r in 0..nrows {
            let row = &init[r * rowlen..(r + 1) * rowlen];
            let mut x: Vec<f32> = row.to_vec();
            for j in 1..rowlen {
                x[j] = x[j - 1].mul_add(a, x[j]);
            }
            for j in (0..rowlen - 1).rev() {
                x[j] = x[j + 1].mul_add(b, x[j]);
            }
            for j in 0..rowlen {
                let got = res[r * rowlen + j];
                assert!((got - x[j]).abs() < 1e-4, "row {r} col {j}: {got} vs {}", x[j]);
            }
        }
    }

    #[test]
    fn lbm_collide_conserves_mass() {
        let k = lbm_collide("collide");
        let ncells = 32usize;
        let mut mem = GlobalMem::new();
        let f = mem.alloc((9 * ncells * 4) as u32).expect("f");
        let init: Vec<f32> = (0..9 * ncells).map(|i| 1.0 + (i % 9) as f32 * 0.1).collect();
        mem.write_f32s(f, &init).expect("w");
        launch(&k, 1, 32, &[f.addr(), 0.6f32.to_bits(), ncells as u32], &mut mem);
        let res = mem.read_f32s(f, 9 * ncells).expect("r");
        for cell in 0..ncells {
            let before: f32 = (0..9).map(|d| init[d * ncells + cell]).sum();
            let after: f32 = (0..9).map(|d| res[d * ncells + cell]).sum();
            assert!((before - after).abs() < 1e-4, "cell {cell}: {before} vs {after}");
            // and each direction moved toward the average
            let avg = before / 9.0;
            for d in 0..9 {
                let b = init[d * ncells + cell];
                let a = res[d * ncells + cell];
                let expect = b + 0.6 * (avg - b);
                assert!((a - expect).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn lbm_stream_shifts_circularly() {
        let k = lbm_stream("stream");
        let ncells = 16usize; // power of two
        let mut mem = GlobalMem::new();
        let dst = mem.alloc((9 * ncells * 4) as u32).expect("dst");
        let src = mem.alloc((9 * ncells * 4) as u32).expect("src");
        let init: Vec<f32> = (0..9 * ncells).map(|i| i as f32).collect();
        mem.write_f32s(src, &init).expect("w");
        let (d, shift) = (3u32, 5u32);
        launch(&k, 1, 16, &[dst.addr(), src.addr(), d, shift, ncells as u32], &mut mem);
        let res = mem.read_f32s(dst, 9 * ncells).expect("r");
        for i in 0..ncells {
            let sidx = (i + shift as usize) % ncells;
            assert_eq!(res[d as usize * ncells + i], init[d as usize * ncells + sidx]);
        }
    }

    #[test]
    fn wave_step_matches_reference() {
        let k = wave_step_f32("wave");
        let n = 64usize;
        let mut mem = GlobalMem::new();
        let nxt = mem.alloc((n * 4) as u32).expect("n");
        let cur = mem.alloc((n * 4) as u32).expect("c");
        let prv = mem.alloc((n * 4) as u32).expect("p");
        let cu: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).sin()).collect();
        let pv: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3 - 0.1).sin()).collect();
        mem.write_f32s(cur, &cu).expect("w");
        mem.write_f32s(prv, &pv).expect("w");
        let c = 0.3f32;
        launch(&k, 2, 32, &[nxt.addr(), cur.addr(), prv.addr(), c.to_bits(), n as u32], &mut mem);
        let res = mem.read_f32s(nxt, n).expect("r");
        assert_eq!(res[0], cu[0]);
        assert_eq!(res[n - 1], cu[n - 1]);
        for i in 1..n - 1 {
            let lap = cu[i - 1] + cu[i + 1] - 2.0 * cu[i];
            let expect = lap * c + 2.0 * cu[i] - pv[i];
            assert!((res[i] - expect).abs() < 1e-5, "i={i}: {} vs {expect}", res[i]);
        }
    }

    #[test]
    fn integrate_f64_advances_positions() {
        let k = integrate_f64("integ");
        let n = 32usize;
        let mut mem = GlobalMem::new();
        let pos = mem.alloc((n * 8) as u32).expect("p");
        let vel = mem.alloc((n * 8) as u32).expect("v");
        let ps: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let vs: Vec<f64> = (0..n).map(|i| 0.5 - i as f64 * 0.01).collect();
        mem.write_f64s(pos, &ps).expect("w");
        mem.write_f64s(vel, &vs).expect("w");
        let dt = 0.125f32;
        launch(&k, 1, 32, &[pos.addr(), vel.addr(), dt.to_bits(), n as u32], &mut mem);
        let res = mem.read_f64s(pos, n).expect("r");
        for i in 0..n {
            assert_eq!(res[i], vs[i].mul_add(dt as f64, ps[i]), "i={i}");
        }
    }

    #[test]
    fn lj_force_is_antisymmetric_for_pair() {
        // Two atoms: equal and opposite forces.
        let k = lj_force_f64("lj");
        let mut mem = GlobalMem::new();
        let force = mem.alloc(2 * 8).expect("f");
        let pos = mem.alloc(2 * 8).expect("p");
        mem.write_f64s(pos, &[0.0, 1.0]).expect("w");
        launch(&k, 1, 32, &[force.addr(), pos.addr(), 2], &mut mem);
        let f = mem.read_f64s(force, 2).expect("r");
        assert!((f[0] + f[1]).abs() < 1e-9, "{f:?}");
        assert!(f[0].abs() > 1e-6, "nonzero interaction: {f:?}");
    }

    #[test]
    fn variants_are_distinct_kernels() {
        let a = damped_update_variant("v0", 0);
        let b = damped_update_variant("v1", 1);
        assert_ne!(a.instrs(), b.instrs(), "coefficients differ");
        // and they run
        let mut mem = GlobalMem::new();
        let d = mem.alloc(32 * 4).expect("d");
        mem.write_f32s(d, &[1.0; 32]).expect("w");
        launch(&a, 1, 32, &[d.addr(), 32], &mut mem);
        let v = mem.read_f32s(d, 32).expect("r");
        assert!(v.iter().all(|x| (*x - 0.91).abs() < 1e-5), "{v:?}");
    }
}
