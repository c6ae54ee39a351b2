//! Instruction-semantics tests through the public API: one small kernel per
//! family, executed on the device and checked against a host reference.

use gpu_isa::asm::KernelBuilder;
use gpu_isa::{
    AtomOp, CmpOp, Dst, Instr, MemWidth, Modifier, Opcode, Operand, PReg, Reg, RoundMode, ShflMode,
    SpecialReg,
};
use gpu_sim::{Dim3, GlobalMem, Gpu, GpuConfig, Launch};

fn run_kernel(kernel: &gpu_isa::Kernel, threads: u32, params: &[u32], mem: &mut GlobalMem) {
    Gpu::new(GpuConfig::default())
        .launch(
            &Launch {
                kernel,
                grid: Dim3::from(1),
                block: Dim3::from(threads),
                params,
                instr_budget: Some(10_000_000),
            },
            mem,
            None,
        )
        .expect("launch");
}

/// Build a kernel that loads `in[tid]` into R1 and a second operand
/// `in2[tid]` into R2, runs `body`, and stores R0 to `out[tid]`.
fn unary_binary_harness(name: &str, body: impl FnOnce(&mut KernelBuilder)) -> gpu_isa::Kernel {
    let mut k = KernelBuilder::new(name);
    let (out, a, b, tid, off) = (Reg(4), Reg(5), Reg(6), Reg(7), Reg(8));
    k.ldc(out, 0);
    k.ldc(a, 4);
    k.ldc(b, 8);
    k.s2r(tid, SpecialReg::TidX);
    k.shli(off, tid, 2);
    k.iadd(out, out, off);
    k.iadd(a, a, off);
    k.iadd(b, b, off);
    k.ldg(Reg(1), a, 0);
    k.ldg(Reg(2), b, 0);
    body(&mut k);
    k.stg(out, 0, Reg(0));
    k.exit();
    k.finish()
}

/// Run a two-input u32 kernel over `xs`/`ys` and return the outputs.
fn eval2(body: impl FnOnce(&mut KernelBuilder), xs: &[u32], ys: &[u32]) -> Vec<u32> {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    let kernel = unary_binary_harness("t", body);
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc((n * 4) as u32).expect("out");
    let a = mem.alloc((n * 4) as u32).expect("a");
    let b = mem.alloc((n * 4) as u32).expect("b");
    mem.write_u32s(a, xs).expect("w");
    mem.write_u32s(b, ys).expect("w");
    run_kernel(&kernel, n as u32, &[out.addr(), a.addr(), b.addr()], &mut mem);
    mem.read_u32s(out, n).expect("r")
}

#[test]
fn popc_flo_brev() {
    let xs = [0u32, 1, 0xFFFF_FFFF, 0x8000_0000, 0x0F0F_0F0F];
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::POPC);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs[0] = Operand::R(Reg(1));
            k.push(i);
        },
        &xs,
        &[0; 5],
    );
    assert_eq!(got, vec![0, 1, 32, 1, 16]);

    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::FLO);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs[0] = Operand::R(Reg(1));
            k.push(i);
        },
        &xs,
        &[0; 5],
    );
    assert_eq!(got, vec![u32::MAX, 0, 31, 31, 27]);

    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::BREV);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs[0] = Operand::R(Reg(1));
            k.push(i);
        },
        &xs,
        &[0; 5],
    );
    assert_eq!(got, xs.iter().map(|v| v.reverse_bits()).collect::<Vec<_>>());
}

#[test]
fn bfe_bfi_extract_insert() {
    // BFE: extract 8 bits at position 4.
    let ctl = 4 | (8 << 8);
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::BFE);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::Imm(ctl), Operand::None, Operand::None];
            k.push(i);
        },
        &[0xABCD_EF12, 0xFFFF_FFFF],
        &[0, 0],
    );
    assert_eq!(got, vec![(0xABCD_EF12u32 >> 4) & 0xFF, 0xFF]);

    // BFI: insert R1's low bits into R2 at position 8, length 4.
    let ctl = 8 | (4 << 8);
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::BFI);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::Imm(ctl), Operand::R(Reg(2)), Operand::None];
            k.push(i);
        },
        &[0xF, 0x3],
        &[0x0000_0000, 0xFFFF_FFFF],
    );
    assert_eq!(got, vec![0xF00, 0xFFFF_F3FF]);
}

#[test]
fn funnel_shift_and_xmad() {
    // SHF: funnel (R2:R1) >> 8.
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::SHF);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::Imm(8), Operand::None];
            k.push(i);
        },
        &[0x1234_5678],
        &[0xAABB_CCDD],
    );
    assert_eq!(got, vec![(0xDD12_3456u32)]);

    // XMAD: lo16(a)*lo16(b) + c — c is R2 here.
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::XMAD);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::Imm(100), Operand::R(Reg(2)), Operand::None];
            k.push(i);
        },
        &[0x0001_0005], // lo16 = 5
        &[7],
    );
    assert_eq!(got, vec![5 * 100 + 7]);
}

#[test]
fn prmt_selects_bytes() {
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::PRMT);
            i.dsts[0] = Dst::R(Reg(0));
            // selector 0x5410: byte0=pool[0], byte1=pool[1], byte2=pool[4], byte3=pool[5]
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::Imm(0x5410), Operand::None];
            k.push(i);
        },
        &[0x4433_2211],
        &[0x8877_6655],
    );
    assert_eq!(got, vec![0x6655_2211]);
}

#[test]
fn sgxt_sign_extends() {
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::SGXT);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::Imm(8), Operand::None, Operand::None];
            k.push(i);
        },
        &[0x0000_0080, 0x0000_007F, 0x0000_01FF],
        &[0, 0, 0],
    );
    assert_eq!(got, vec![0xFFFF_FF80, 0x7F, 0xFFFF_FFFF]);
}

#[test]
fn iscadd_and_isad() {
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::ISCADD);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::Imm(4), Operand::None];
            k.push(i);
        },
        &[3],
        &[10],
    );
    assert_eq!(got, vec![3 * 16 + 10]);

    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::ISAD);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::Imm(5), Operand::None];
            k.push(i);
        },
        &[3, 10u32.wrapping_neg()],
        &[10, 3],
    );
    assert_eq!(got, vec![7 + 5, 13 + 5]);
}

#[test]
fn icmp_and_fcmp_select() {
    // ICMP.GT d, a, b, c: d = (c > 0) ? a : b
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::ICMP);
            i.modifier = Modifier::Cmp(CmpOp::Gt);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::Imm(1), Operand::None];
            k.push(i);
        },
        &[111, 222],
        &[999, 888],
    );
    assert_eq!(got, vec![111, 222], "c=1 > 0 picks a");

    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::FCMP);
            i.modifier = Modifier::Cmp(CmpOp::Lt);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs =
                [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::imm_f32(-1.0), Operand::None];
            k.push(i);
        },
        &[5],
        &[6],
    );
    assert_eq!(got, vec![5], "-1 < 0 picks a");
}

#[test]
fn fset_iset_write_masks() {
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::FSET);
            i.modifier = Modifier::Cmp(CmpOp::Gt);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::None, Operand::None];
            k.push(i);
        },
        &[2.0f32.to_bits(), 1.0f32.to_bits()],
        &[1.0f32.to_bits(), 2.0f32.to_bits()],
    );
    assert_eq!(got, vec![u32::MAX, 0]);

    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::ISET);
            i.modifier = Modifier::Cmp(CmpOp::Le);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::None, Operand::None];
            k.push(i);
        },
        &[5, (-3i32) as u32],
        &[5, 2],
    );
    assert_eq!(got, vec![u32::MAX, u32::MAX], "signed compare");
}

#[test]
fn frnd_rounding_modes() {
    for (mode, input, expect) in [
        (RoundMode::Rz, 2.7f32, 2.0f32),
        (RoundMode::Rm, -2.1, -3.0),
        (RoundMode::Rp, 2.1, 3.0),
        (RoundMode::Rn, 2.5, 2.0),
    ] {
        let got = eval2(
            |k| {
                let mut i = Instr::new(Opcode::FRND);
                i.modifier = Modifier::Round(mode);
                i.dsts[0] = Dst::R(Reg(0));
                i.srcs[0] = Operand::R(Reg(1));
                k.push(i);
            },
            &[input.to_bits()],
            &[0],
        );
        assert_eq!(f32::from_bits(got[0]), expect, "{mode:?}({input})");
    }
}

#[test]
fn f2f_widen_narrow_roundtrip() {
    // Widen f32 → f64 in a pair, then narrow back.
    let mut k = KernelBuilder::new("f2f");
    let (out, inp, tid, off) = (Reg(4), Reg(5), Reg(7), Reg(8));
    k.ldc(out, 0);
    k.ldc(inp, 4);
    k.s2r(tid, SpecialReg::TidX);
    k.shli(off, tid, 2);
    k.iadd(out, out, off);
    k.iadd(inp, inp, off);
    k.ldg(Reg(1), inp, 0);
    k.f2d(Reg(10), Reg(1));
    k.d2f(Reg(0), Reg(10));
    k.stg(out, 0, Reg(0));
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(8).expect("out");
    let inp = mem.alloc(8).expect("in");
    mem.write_f32s(inp, &[1.61803, -0.5]).expect("w");
    run_kernel(&kernel, 2, &[out.addr(), inp.addr()], &mut mem);
    assert_eq!(mem.read_f32s(out, 2).expect("r"), vec![1.61803, -0.5]);
}

#[test]
fn local_memory_per_thread_isolation() {
    // Each thread writes tid to local[0] then reads it back; local memory
    // must be private per thread.
    let mut k = KernelBuilder::new("local");
    let (out, tid, off) = (Reg(4), Reg(7), Reg(8));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    let mut st = Instr::new(Opcode::STL);
    st.modifier = Modifier::Width(MemWidth::B32);
    st.srcs = [
        Operand::Mem(gpu_isa::MemRef { base: Reg::RZ, offset: 16, space: gpu_isa::Space::Local }),
        Operand::R(tid),
        Operand::None,
        Operand::None,
    ];
    k.push(st);
    let mut ld = Instr::new(Opcode::LDL);
    ld.modifier = Modifier::Width(MemWidth::B32);
    ld.dsts[0] = Dst::R(Reg(0));
    ld.srcs[0] =
        Operand::Mem(gpu_isa::MemRef { base: Reg::RZ, offset: 16, space: gpu_isa::Space::Local });
    k.push(ld);
    k.shli(off, tid, 2);
    k.iadd(out, out, off);
    k.stg(out, 0, Reg(0));
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(32 * 4).expect("out");
    run_kernel(&kernel, 32, &[out.addr()], &mut mem);
    assert_eq!(mem.read_u32s(out, 32).expect("r"), (0..32).collect::<Vec<u32>>());
}

#[test]
fn vote_ballot_reflects_predicates() {
    // Lanes with tid < 5 set P0; VOTE returns the ballot mask 0b11111.
    let mut k = KernelBuilder::new("vote");
    let (out, tid) = (Reg(4), Reg(7));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.isetp(PReg(0), CmpOp::Lt, tid, 5);
    let mut v = Instr::new(Opcode::VOTE);
    v.dsts[0] = Dst::R(Reg(0));
    v.srcs[0] = Operand::P(PReg(0));
    k.push(v);
    k.shli(Reg(8), tid, 2);
    k.iadd(out, out, Reg(8));
    k.stg(out, 0, Reg(0));
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(32 * 4).expect("out");
    run_kernel(&kernel, 32, &[out.addr()], &mut mem);
    let got = mem.read_u32s(out, 32).expect("r");
    assert!(got.iter().all(|m| *m == 0b11111), "{got:?}");
}

#[test]
fn atomic_cas_swaps_only_on_match() {
    // CAS(expected=7, swap=99): only the slot holding 7 changes.
    let mut k = KernelBuilder::new("cas");
    let (out, tid, addr) = (Reg(4), Reg(7), Reg(8));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.shli(addr, tid, 2);
    k.iadd(addr, out, addr);
    let mut cas = Instr::new(Opcode::ATOMG);
    cas.modifier = Modifier::AtomOp(AtomOp::Cas);
    cas.dsts[0] = Dst::R(Reg(0));
    cas.srcs = [
        Operand::Mem(gpu_isa::MemRef { base: addr, offset: 0, space: gpu_isa::Space::Global }),
        Operand::Imm(7),
        Operand::Imm(99),
        Operand::None,
    ];
    k.push(cas);
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(4 * 4).expect("out");
    mem.write_u32s(out, &[7, 8, 7, 9]).expect("w");
    run_kernel(&kernel, 4, &[out.addr()], &mut mem);
    assert_eq!(mem.read_u32s(out, 4).expect("r"), vec![99, 8, 99, 9]);
}

#[test]
fn shfl_idx_and_up_down() {
    // Broadcast lane 3's value with SHFL.IDX.
    let mut k = KernelBuilder::new("shfl");
    let (out, lane) = (Reg(4), Reg(7));
    k.ldc(out, 0);
    k.s2r(lane, SpecialReg::LaneId);
    k.imad(Reg(1), lane, lane, Reg::RZ); // value = lane²
    k.shfl(ShflMode::Idx, Reg(0), Reg(1), 3);
    k.shli(Reg(8), lane, 2);
    k.iadd(out, out, Reg(8));
    k.stg(out, 0, Reg(0));
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(32 * 4).expect("out");
    run_kernel(&kernel, 32, &[out.addr()], &mut mem);
    let got = mem.read_u32s(out, 32).expect("r");
    assert!(got.iter().all(|v| *v == 9), "broadcast of lane 3: {got:?}");
}

#[test]
fn fswzadd_pairs_lanes() {
    let mut k = KernelBuilder::new("swz");
    let (out, lane) = (Reg(4), Reg(7));
    k.ldc(out, 0);
    k.s2r(lane, SpecialReg::LaneId);
    k.i2f(Reg(1), lane);
    let mut s = Instr::new(Opcode::FSWZADD);
    s.dsts[0] = Dst::R(Reg(0));
    s.srcs[0] = Operand::R(Reg(1));
    k.push(s);
    k.shli(Reg(8), lane, 2);
    k.iadd(out, out, Reg(8));
    k.stg(out, 0, Reg(0));
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(32 * 4).expect("out");
    run_kernel(&kernel, 32, &[out.addr()], &mut mem);
    let got = mem.read_f32s(out, 32).expect("r");
    for (lane, v) in got.iter().enumerate() {
        let partner = lane ^ 1;
        assert_eq!(*v, (lane + partner) as f32, "lane {lane}");
    }
}

#[test]
fn dset_and_dsetp_compare_doubles() {
    let mut k = KernelBuilder::new("dset");
    let (out, tid) = (Reg(4), Reg(7));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.i2d(Reg(10), tid); // pair R10 = tid as f64
    k.movi(Reg(1), 5);
    k.i2d(Reg(12), Reg(1)); // pair R12 = 5.0
                            // R0 = (tid < 5) ? mask : 0
    let mut d = Instr::new(Opcode::DSET);
    d.modifier = Modifier::Cmp(CmpOp::Lt);
    d.dsts[0] = Dst::R(Reg(0));
    d.srcs = [Operand::R64(Reg(10)), Operand::R64(Reg(12)), Operand::None, Operand::None];
    k.push(d);
    k.shli(Reg(8), tid, 2);
    k.iadd(out, out, Reg(8));
    k.stg(out, 0, Reg(0));
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(8 * 4).expect("out");
    run_kernel(&kernel, 8, &[out.addr()], &mut mem);
    let got = mem.read_u32s(out, 8).expect("r");
    for (tid, v) in got.iter().enumerate() {
        assert_eq!(*v, if tid < 5 { u32::MAX } else { 0 }, "tid {tid}");
    }
}

#[test]
fn shfl_down_huge_delta_keeps_own_value() {
    // lane + delta overflows u32 for every lane: the source is out of
    // range, so each lane keeps its own value (as SHFL.UP and .IDX do).
    let mut k = KernelBuilder::new("shfl_down_wrap");
    let (out, lane) = (Reg(4), Reg(7));
    k.ldc(out, 0);
    k.s2r(lane, SpecialReg::LaneId);
    k.iaddi(Reg(1), lane, 100);
    k.shfl(ShflMode::Down, Reg(0), Reg(1), 0xFFFF_FFFF);
    k.shli(Reg(8), lane, 2);
    k.iadd(out, out, Reg(8));
    k.stg(out, 0, Reg(0));
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(32 * 4).expect("out");
    run_kernel(&kernel, 32, &[out.addr()], &mut mem);
    assert_eq!(mem.read_u32s(out, 32).expect("r"), (100..132).collect::<Vec<u32>>());
}

// ---- Host-oracle property tests ---------------------------------------------
//
// One instruction on a full warp with random per-lane inputs; every lane's
// result is compared with the host's own f32/f64/u32 operation.

use gpu_isa::BoolOp;
use proptest::prelude::*;

/// One random input word per lane of a full warp.
fn warp_words() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 32..33)
}

/// One random 64-bit input per lane of a full warp.
fn warp_dwords() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 32..33)
}

/// `op R0, srcs…` with `R1`/`R2` holding the lane's inputs.
fn one(op: Opcode, modifier: Modifier, srcs: [Operand; 4]) -> impl FnOnce(&mut KernelBuilder) {
    move |k| {
        let mut i = Instr::new(op);
        i.modifier = modifier;
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = srcs;
        k.push(i);
    }
}

/// `ISETP`/`FSETP`/`DSETP` into P0, then `SEL R0, -1, 0, P0`.
fn setp_sel(setp: Instr) -> impl FnOnce(&mut KernelBuilder) {
    move |k| {
        k.push(setp);
        k.movi(Reg(3), u32::MAX);
        k.sel(Reg(0), Reg(3), Reg::RZ, PReg(0));
    }
}

fn r(n: u8) -> Operand {
    Operand::R(Reg(n))
}

const NONE: Operand = Operand::None;

/// Like `eval2` with 64-bit lanes: `R10:R11 = a[tid]`, `R12:R13 = b[tid]`,
/// `body`, then `out[tid] = R14:R15`.
fn eval2_64(body: impl FnOnce(&mut KernelBuilder), xs: &[u64], ys: &[u64]) -> Vec<u64> {
    let n = xs.len();
    let mut k = KernelBuilder::new("t64");
    let (out, a, b, tid, off) = (Reg(4), Reg(5), Reg(6), Reg(7), Reg(8));
    k.ldc(out, 0);
    k.ldc(a, 4);
    k.ldc(b, 8);
    k.s2r(tid, SpecialReg::TidX);
    k.shli(off, tid, 3);
    k.iadd(out, out, off);
    k.iadd(a, a, off);
    k.iadd(b, b, off);
    k.ldg64(Reg(10), a, 0);
    k.ldg64(Reg(12), b, 0);
    body(&mut k);
    k.stg64(out, 0, Reg(14));
    k.exit();
    let kernel = k.finish();
    let words =
        |v: &[u64]| v.iter().flat_map(|d| [*d as u32, (d >> 32) as u32]).collect::<Vec<_>>();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc((n * 8) as u32).expect("out");
    let a = mem.alloc((n * 8) as u32).expect("a");
    let b = mem.alloc((n * 8) as u32).expect("b");
    mem.write_u32s(a, &words(xs)).expect("w");
    mem.write_u32s(b, &words(ys)).expect("w");
    run_kernel(&kernel, n as u32, &[out.addr(), a.addr(), b.addr()], &mut mem);
    let got = mem.read_u32s(out, 2 * n).expect("r");
    got.chunks(2).map(|p| u64::from(p[0]) | u64::from(p[1]) << 32).collect()
}

/// `op R14:R15, R10:R11, R12:R13[, R10:R11]`.
fn one64(op: Opcode, third: bool, min: Option<bool>) -> impl FnOnce(&mut KernelBuilder) {
    move |k| {
        let mut i = Instr::new(op);
        i.dsts[0] = Dst::R64(Reg(14));
        i.srcs[0] = Operand::R64(Reg(10));
        i.srcs[1] = Operand::R64(Reg(12));
        if third {
            i.srcs[2] = Operand::R64(Reg(10));
        }
        if let Some(min) = min {
            i.srcs[2] = if min { Operand::P(PReg::PT) } else { Operand::NotP(PReg::PT) };
        }
        k.push(i);
    }
}

fn host_cmp<T: PartialOrd>(c: CmpOp, a: T, b: T) -> bool {
    a.partial_cmp(&b).map_or(c == CmpOp::Ne, |o| c.eval(o))
}

fn zip(xs: &[u32], ys: &[u32], f: impl Fn(u32, u32) -> u32) -> Vec<u32> {
    xs.iter().zip(ys).map(|(&x, &y)| f(x, y)).collect()
}

fn f32s(f: impl Fn(f32, f32) -> f32) -> impl Fn(u32, u32) -> u32 {
    move |x, y| f(f32::from_bits(x), f32::from_bits(y)).to_bits()
}

proptest! {
    #[test]
    fn fp32_arith_matches_host(xs in warp_words(), ys in warp_words()) {
        let (x, y) = (&xs[..], &ys[..]);
        let m = Modifier::None;
        let run = |op, srcs| eval2(one(op, m, srcs), x, y);
        prop_assert_eq!(run(Opcode::FADD, [r(1), r(2), NONE, NONE]), zip(x, y, f32s(|a, b| a + b)));
        prop_assert_eq!(run(Opcode::FMUL, [r(1), r(2), NONE, NONE]), zip(x, y, f32s(|a, b| a * b)));
        prop_assert_eq!(
            run(Opcode::FFMA, [r(1), r(2), r(1), NONE]),
            zip(x, y, f32s(|a, b| a.mul_add(b, a)))
        );
        let pt = Operand::P(PReg::PT);
        let npt = Operand::NotP(PReg::PT);
        prop_assert_eq!(run(Opcode::FMNMX, [r(1), r(2), pt, NONE]), zip(x, y, f32s(f32::min)));
        prop_assert_eq!(run(Opcode::FMNMX, [r(1), r(2), npt, NONE]), zip(x, y, f32s(f32::max)));
    }

    #[test]
    fn fp64_arith_matches_host(xs in warp_dwords(), ys in warp_dwords()) {
        let host = |f: fn(f64, f64) -> f64| -> Vec<u64> {
            xs.iter().zip(&ys).map(|(&a, &b)| f(f64::from_bits(a), f64::from_bits(b)).to_bits()).collect()
        };
        prop_assert_eq!(eval2_64(one64(Opcode::DADD, false, None), &xs, &ys), host(|a, b| a + b));
        prop_assert_eq!(eval2_64(one64(Opcode::DMUL, false, None), &xs, &ys), host(|a, b| a * b));
        prop_assert_eq!(eval2_64(one64(Opcode::DFMA, true, None), &xs, &ys), host(|a, b| a.mul_add(b, a)));
        prop_assert_eq!(eval2_64(one64(Opcode::DMNMX, false, Some(true)), &xs, &ys), host(f64::min));
        prop_assert_eq!(eval2_64(one64(Opcode::DMNMX, false, Some(false)), &xs, &ys), host(f64::max));
    }

    #[test]
    fn integer_arith_matches_host(xs in warp_words(), ys in warp_words(), sh in 0u32..32) {
        let (x, y) = (&xs[..], &ys[..]);
        let m = Modifier::None;
        let run = |op, srcs| eval2(one(op, m, srcs), x, y);
        prop_assert_eq!(run(Opcode::IADD, [r(1), r(2), NONE, NONE]), zip(x, y, u32::wrapping_add));
        prop_assert_eq!(run(Opcode::ISUB, [r(1), r(2), NONE, NONE]), zip(x, y, u32::wrapping_sub));
        prop_assert_eq!(run(Opcode::IMUL, [r(1), r(2), NONE, NONE]), zip(x, y, u32::wrapping_mul));
        prop_assert_eq!(
            run(Opcode::IMAD, [r(1), r(2), r(1), NONE]),
            zip(x, y, |a, b| a.wrapping_mul(b).wrapping_add(a))
        );
        prop_assert_eq!(
            run(Opcode::IADD3, [r(1), r(2), r(2), NONE]),
            zip(x, y, |a, b| a.wrapping_add(b).wrapping_add(b))
        );
        let pt = Operand::P(PReg::PT);
        let npt = Operand::NotP(PReg::PT);
        prop_assert_eq!(
            run(Opcode::IMNMX, [r(1), r(2), pt, NONE]),
            zip(x, y, |a, b| (a as i32).min(b as i32) as u32)
        );
        prop_assert_eq!(
            run(Opcode::IMNMX, [r(1), r(2), npt, NONE]),
            zip(x, y, |a, b| (a as i32).max(b as i32) as u32)
        );
        prop_assert_eq!(
            run(Opcode::ISCADD, [r(1), r(2), Operand::Imm(sh), NONE]),
            zip(x, y, |a, b| (a << sh).wrapping_add(b))
        );
    }

    #[test]
    fn logic_and_shift_match_host(xs in warp_words(), ys in warp_words(), lut in any::<u8>(), sh in 0u32..40) {
        let (x, y) = (&xs[..], &ys[..]);
        let host_lop3 = |a: u32, b: u32, c: u32| {
            (0..32).fold(0u32, |out, bit| {
                let idx = ((a >> bit) & 1) << 2 | ((b >> bit) & 1) << 1 | ((c >> bit) & 1);
                out | (u32::from(lut >> idx) & 1) << bit
            })
        };
        prop_assert_eq!(
            eval2(one(Opcode::LOP3, Modifier::Lut(lut), [r(1), r(2), r(1), NONE]), x, y),
            zip(x, y, |a, b| host_lop3(a, b, a))
        );
        let m = Modifier::None;
        let imm = Operand::Imm(sh);
        prop_assert_eq!(
            eval2(one(Opcode::SHL, m, [r(1), imm, NONE, NONE]), x, y),
            zip(x, y, |a, _| a.checked_shl(sh).unwrap_or(0))
        );
        prop_assert_eq!(
            eval2(one(Opcode::SHR, m, [r(1), imm, NONE, NONE]), x, y),
            zip(x, y, |a, _| a.checked_shr(sh).unwrap_or(0))
        );
        prop_assert_eq!(
            eval2(one(Opcode::SHF, m, [r(1), r(2), imm, NONE]), x, y),
            zip(x, y, |lo, hi| ((u64::from(hi) << 32 | u64::from(lo)) >> (sh & 31)) as u32)
        );
    }

    #[test]
    fn compare_and_select_match_host(
        xs in warp_words(),
        ys in warp_words(),
        cmp in 0usize..6,
        boolop in 0usize..3,
    ) {
        let (x, y) = (&xs[..], &ys[..]);
        let c = CmpOp::ALL[cmp];
        let b = [BoolOp::And, BoolOp::Or, BoolOp::Xor][boolop];
        let mask = |hit: bool| if hit { u32::MAX } else { 0 };
        // ISETP/FSETP combined with P0's previous value, which is false.
        let setp = |op| {
            let mut i = Instr::new(op);
            i.modifier = Modifier::CmpBool(c, b);
            i.dsts[0] = Dst::P(PReg(0));
            i.srcs = [r(1), r(2), Operand::P(PReg(0)), NONE];
            i
        };
        prop_assert_eq!(
            eval2(setp_sel(setp(Opcode::ISETP)), x, y),
            zip(x, y, |p, q| mask(b.eval(host_cmp(c, p as i32, q as i32), false)))
        );
        prop_assert_eq!(
            eval2(setp_sel(setp(Opcode::FSETP)), x, y),
            zip(x, y, |p, q| mask(b.eval(host_cmp(c, f32::from_bits(p), f32::from_bits(q)), false)))
        );
        let m = Modifier::Cmp(c);
        prop_assert_eq!(
            eval2(one(Opcode::ISET, m, [r(1), r(2), NONE, NONE]), x, y),
            zip(x, y, |p, q| mask(host_cmp(c, p as i32, q as i32)))
        );
        prop_assert_eq!(
            eval2(one(Opcode::FSET, m, [r(1), r(2), NONE, NONE]), x, y),
            zip(x, y, |p, q| mask(host_cmp(c, f32::from_bits(p), f32::from_bits(q))))
        );
        // SEL/FSEL on a predicate computed from the lane's own inputs.
        for op in [Opcode::SEL, Opcode::FSEL] {
            let body = |k: &mut KernelBuilder| {
                k.isetp_r(PReg(1), c, Reg(1), Reg(2));
                let mut i = Instr::new(op);
                i.dsts[0] = Dst::R(Reg(0));
                i.srcs = [r(1), r(2), Operand::P(PReg(1)), NONE];
                k.push(i);
            };
            prop_assert_eq!(
                eval2(body, x, y),
                zip(x, y, |p, q| if host_cmp(c, p as i32, q as i32) { p } else { q })
            );
        }
    }
}
