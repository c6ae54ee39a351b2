//! Instruction-semantics tests through the public API: one small kernel per
//! family, executed on the device and checked against a host reference.

use gpu_isa::asm::KernelBuilder;
use gpu_isa::{
    AtomOp, CmpOp, Dst, Instr, MemWidth, Modifier, Opcode, Operand, PReg, Reg, RoundMode, ShflMode,
    SpecialReg,
};
use gpu_sim::{Dim3, GlobalMem, Gpu, Launch};

fn run_kernel(kernel: &gpu_isa::Kernel, threads: u32, params: &[u32], mem: &mut GlobalMem) {
    Gpu::new()
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
    let mut mem = GlobalMem::new();
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
    let mut mem = GlobalMem::new();
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
    let mut mem = GlobalMem::new();
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
    let mut mem = GlobalMem::new();
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
    let mut mem = GlobalMem::new();
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
    let mut mem = GlobalMem::new();
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
    let mut mem = GlobalMem::new();
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
    let mut mem = GlobalMem::new();
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
    let mut mem = GlobalMem::new();
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
    let mut mem = GlobalMem::new();
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

/// A conversion input: any bit pattern (NaN, infinities, subnormals),
/// values around the `i32` range, halves (rounding ties), and the floats
/// nearest the `i32` bounds.
fn conv_f32() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        (-3.0e9f32..3.0e9).prop_map(f32::to_bits),
        (0u32..128).prop_map(|n| ((n as f32 - 64.0) / 2.0).to_bits()),
        (0usize..4).prop_map(|i| {
            [f32::NAN, 2_147_483_520.0, 2_147_483_648.0, -2_147_483_904.0][i].to_bits()
        }),
    ]
}

/// [`conv_f32`] for `f64` inputs.
fn conv_f64() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (-3.0e9f64..3.0e9).prop_map(f64::to_bits),
        (0u32..128).prop_map(|n| ((f64::from(n) - 64.0) / 2.0).to_bits()),
        (0usize..4).prop_map(|i| {
            [f64::NAN, 2_147_483_647.5, -2_147_483_648.5, 2_147_483_648.0][i].to_bits()
        }),
    ]
}

/// The host's rounding to an integral value, then Rust's saturating cast:
/// NaN gives 0 and out-of-range values clamp to the `i32` bounds.
fn host_f2i(mode: RoundMode, x: f64) -> u32 {
    let r = match mode {
        RoundMode::Rn => x.round_ties_even(),
        RoundMode::Rz => x.trunc(),
        RoundMode::Rm => x.floor(),
        RoundMode::Rp => x.ceil(),
    };
    r as i32 as u32
}

/// `x` rounded to `f32` bits in `mode`: the f32s just below and above `x`
/// bracket it (both are `x` when it is exact; ±inf stands beyond ±`MAX`),
/// and the mode picks one — the nearest for `Rn`, the lower for `Rm`, the
/// upper for `Rp` and the one nearer zero for `Rz`. NaN converts as the
/// host's cast does.
fn host_narrow(mode: RoundMode, x: f64) -> u32 {
    let near = x as f32;
    if x.is_nan() {
        return near.to_bits();
    }
    let (below, above) = match f64::from(near) {
        n if n == x => (near, near),
        n if n < x => (near, near.next_up()),
        _ => (near.next_down(), near),
    };
    assert!(f64::from(below) <= x && x <= f64::from(above), "{x} not bracketed");
    let r = match mode {
        RoundMode::Rn => near,
        RoundMode::Rm => below,
        RoundMode::Rp => above,
        RoundMode::Rz if x < 0.0 => above,
        RoundMode::Rz => below,
    };
    r.to_bits()
}

/// `op dst, src` with `modifier`, reading and writing the 64-bit harness's
/// registers.
fn convert(
    op: Opcode,
    modifier: Modifier,
    dst: Dst,
    src: Operand,
) -> impl FnOnce(&mut KernelBuilder) {
    move |k| {
        let mut i = Instr::new(op);
        i.modifier = modifier;
        i.dsts[0] = dst;
        i.srcs[0] = src;
        k.push(i);
    }
}

/// Every lane of one warp applies `ATOMG.op R0, [word], R1, R2` to the same
/// word, which starts at `init`, with lane `i` holding `xs[i]` in R1 and
/// `ys[i]` in R2. Returns each lane's returned old value and the final word.
fn atom_warp(op: AtomOp, init: u32, xs: &[u32], ys: &[u32]) -> (Vec<u32>, u32) {
    let n = xs.len();
    let kernel = unary_binary_harness("atom", |k| {
        k.ldc(Reg(3), 12);
        let mut i = Instr::new(Opcode::ATOMG);
        i.modifier = Modifier::AtomOp(op);
        i.dsts[0] = Dst::R(Reg(0));
        let word = gpu_isa::MemRef { base: Reg(3), offset: 0, space: gpu_isa::Space::Global };
        i.srcs = [Operand::Mem(word), r(1), r(2), NONE];
        k.push(i);
    });
    let mut mem = GlobalMem::new();
    let out = mem.alloc((n * 4) as u32).expect("out");
    let a = mem.alloc((n * 4) as u32).expect("a");
    let b = mem.alloc((n * 4) as u32).expect("b");
    let word = mem.alloc(4).expect("word");
    mem.write_u32s(a, xs).expect("w");
    mem.write_u32s(b, ys).expect("w");
    mem.write_u32s(word, &[init]).expect("w");
    run_kernel(&kernel, n as u32, &[out.addr(), a.addr(), b.addr(), word.addr()], &mut mem);
    (mem.read_u32s(out, n).expect("r"), mem.read_u32s(word, 1).expect("r")[0])
}

/// An atomic's new word from the old word and the lane's two operands.
type AtomFn = fn(u32, u32, u32) -> u32;

/// The host's fold of `f(old, x, y)` over the lanes in lane order: each
/// lane's old value and the final word.
fn host_atom_fold(init: u32, xs: &[u32], ys: &[u32], f: AtomFn) -> (Vec<u32>, u32) {
    let mut word = init;
    let olds = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let old = word;
            word = f(old, x, y);
            old
        })
        .collect();
    (olds, word)
}

/// Lane inputs for atomics: any word, or one of a few small ones, so that
/// compare-and-swap both matches and misses.
fn atom_words() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(prop_oneof![any::<u32>(), 0u32..4], 32..33)
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

    #[test]
    fn f2i_rounds_and_saturates_like_host(
        xs in prop::collection::vec(conv_f32(), 32..33),
        ds in prop::collection::vec(conv_f64(), 32..33),
    ) {
        for mode in RoundMode::ALL {
            let m = Modifier::Round(mode);
            prop_assert_eq!(
                eval2(one(Opcode::F2I, m, [r(1), NONE, NONE, NONE]), &xs, &xs),
                xs.iter().map(|&x| host_f2i(mode, f64::from(f32::from_bits(x)))).collect::<Vec<_>>(),
                "{:?}",
                mode
            );
            let f2i_64 = convert(Opcode::F2I, m, Dst::R(Reg(14)), Operand::R64(Reg(10)));
            prop_assert_eq!(
                eval2_64(f2i_64, &ds, &ds).iter().map(|&v| v as u32).collect::<Vec<_>>(),
                ds.iter().map(|&d| host_f2i(mode, f64::from_bits(d))).collect::<Vec<_>>(),
                "{:?}",
                mode
            );
        }
    }

    #[test]
    fn i2f_and_f2f_convert_like_host(
        xs in warp_words(),
        fs in prop::collection::vec(conv_f32(), 32..33),
        ds in prop::collection::vec(conv_f64(), 32..33),
    ) {
        for mode in RoundMode::ALL {
            let m = Modifier::Round(mode);
            prop_assert_eq!(
                eval2(one(Opcode::I2F, m, [r(1), NONE, NONE, NONE]), &xs, &xs),
                xs.iter().map(|&x| host_narrow(mode, f64::from(x as i32))).collect::<Vec<_>>(),
                "{:?}",
                mode
            );
            // Widening is exact in every mode.
            let wide: Vec<u64> = xs.iter().map(|&x| u64::from(x)).collect();
            prop_assert_eq!(
                eval2_64(convert(Opcode::I2F, m, Dst::R64(Reg(14)), r(10)), &wide, &wide),
                xs.iter().map(|&x| f64::from(x as i32).to_bits()).collect::<Vec<_>>()
            );
            // F2F widens an f32 into a register pair, and narrows a pair back.
            let wide: Vec<u64> = fs.iter().map(|&x| u64::from(x)).collect();
            prop_assert_eq!(
                eval2_64(convert(Opcode::F2F, m, Dst::R64(Reg(14)), r(10)), &wide, &wide),
                fs.iter().map(|&x| f64::from(f32::from_bits(x)).to_bits()).collect::<Vec<_>>()
            );
            let narrow = convert(Opcode::F2F, m, Dst::R(Reg(14)), Operand::R64(Reg(10)));
            prop_assert_eq!(
                eval2_64(narrow, &ds, &ds).iter().map(|&v| v as u32).collect::<Vec<_>>(),
                ds.iter().map(|&d| host_narrow(mode, f64::from_bits(d))).collect::<Vec<_>>(),
                "{:?}",
                mode
            );
        }
    }

    #[test]
    fn warp_atomics_on_one_word_fold_in_lane_order(
        xs in atom_words(),
        ys in atom_words(),
        init in prop_oneof![any::<u32>(), 0u32..4],
    ) {
        let ops: [(AtomOp, AtomFn); 9] = [
            (AtomOp::Add, |old, x, _| old.wrapping_add(x)),
            (AtomOp::Min, |old, x, _| (old as i32).min(x as i32) as u32),
            (AtomOp::Max, |old, x, _| (old as i32).max(x as i32) as u32),
            (AtomOp::Exch, |_, x, _| x),
            (AtomOp::Cas, |old, x, y| if old == x { y } else { old }),
            (AtomOp::And, |old, x, _| old & x),
            (AtomOp::Or, |old, x, _| old | x),
            (AtomOp::Xor, |old, x, _| old ^ x),
            (AtomOp::FAdd, |old, x, _| (f32::from_bits(old) + f32::from_bits(x)).to_bits()),
        ];
        prop_assert_eq!(ops.map(|(op, _)| op), AtomOp::ALL, "the table covers every atomic");
        for (op, f) in ops {
            prop_assert_eq!(
                atom_warp(op, init, &xs, &ys),
                host_atom_fold(init, &xs, &ys, f),
                "{:?}",
                op
            );
        }
    }
}

#[test]
fn i2f_and_f2f_round_every_edge_by_mode() {
    let max = f64::from(f32::MAX);
    let tiny = 2f64.powi(-150); // half the smallest subnormal
    let mut ds: Vec<u64> = [
        max * (1.0 + 2f64.powi(-40)),
        max + max * 2f64.powi(-25), // a tie between MAX and overflow
        1e300,
        tiny,
        tiny * 1.5,
        2f64.powi(-126) * (1.0 - 2f64.powi(-30)),
        1.0 + 2f64.powi(-30),
        1.0 + 2f64.powi(-24), // a tie
        0.0,
        f64::INFINITY,
        f64::NAN,
    ]
    .iter()
    .flat_map(|&x| [x, -x])
    .map(f64::to_bits)
    .collect();
    ds.resize(32, 0);
    let mut xs: Vec<u32> = [i32::MAX, i32::MIN, (1 << 24) + 1, (1 << 25) + 3, -(1 << 24) - 1, -7]
        .map(|v| v as u32)
        .to_vec();
    xs.resize(32, 0);
    for mode in RoundMode::ALL {
        let m = Modifier::Round(mode);
        let narrow = convert(Opcode::F2F, m, Dst::R(Reg(14)), Operand::R64(Reg(10)));
        assert_eq!(
            eval2_64(narrow, &ds, &ds).iter().map(|&v| v as u32).collect::<Vec<_>>(),
            ds.iter().map(|&d| host_narrow(mode, f64::from_bits(d))).collect::<Vec<_>>(),
            "{mode:?}"
        );
        assert_eq!(
            eval2(one(Opcode::I2F, m, [r(1), NONE, NONE, NONE]), &xs, &xs),
            xs.iter().map(|&x| host_narrow(mode, f64::from(x as i32))).collect::<Vec<_>>(),
            "{mode:?}"
        );
    }
    // Spot values, independent of the oracle.
    let f2f = |mode, x: f64| {
        let narrow =
            convert(Opcode::F2F, Modifier::Round(mode), Dst::R(Reg(14)), Operand::R64(Reg(10)));
        f32::from_bits(eval2_64(narrow, &[x.to_bits()], &[0])[0] as u32)
    };
    assert_eq!(f2f(RoundMode::Rz, 1e300), f32::MAX);
    assert_eq!(f2f(RoundMode::Rp, 1e300), f32::INFINITY);
    assert_eq!(f2f(RoundMode::Rp, -1e300), -f32::MAX);
    assert_eq!(f2f(RoundMode::Rm, -1e300), f32::NEG_INFINITY);
    assert_eq!(f2f(RoundMode::Rp, tiny).to_bits(), 1, "smallest subnormal");
    assert_eq!(f2f(RoundMode::Rz, -tiny).to_bits(), 0x8000_0000, "negative zero");
    assert_eq!(f2f(RoundMode::Rm, 1.0 + 2f64.powi(-30)), 1.0);
    assert_eq!(f2f(RoundMode::Rp, 1.0 + 2f64.powi(-30)), 1.0 + f32::EPSILON);
}

// ---- Packed FP16 and MUFU oracles ----------------------------------------
//
// The half conversions are checked exhaustively against an exact f64 model
// of binary16; the packed-FP16 opcodes are then checked per half against
// the model `gpu_isa::half` documents (unpack to f32, compute in f32, one
// rounding back to f16), and MUFU bit for bit against the host's f32
// functions.

use gpu_isa::half::{f16_to_f32, f32_to_f16};
use gpu_isa::MufuFunc;

/// The exact value of a finite half, or `2^16` for `0x7C00` (infinity),
/// which is where an unbounded exponent would put the next value above
/// `65504`.
fn half_value(h: u16) -> f64 {
    let (exp, frac) = (i32::from(h >> 10 & 0x1F), f64::from(h & 0x3FF));
    let mag = if exp == 0 { frac * 2f64.powi(-24) } else { (1024.0 + frac) * 2f64.powi(exp - 25) };
    if h & 0x8000 != 0 {
        -mag
    } else {
        mag
    }
}

/// `x` rounded to the nearest half, ties to the even one, by search over
/// the exact values of the non-negative halves; past the top half it
/// overflows to infinity.
fn model_f32_to_f16(x: f32) -> u16 {
    let sign = if x.is_sign_negative() { 0x8000 } else { 0 };
    let a = f64::from(x.abs());
    // Largest non-negative half (0x7C00 standing for 2^16) not above `a`:
    // their values rise with their bits.
    let (mut lo, mut hi) = (0u16, 0x7C01u16);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if half_value(mid) <= a {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let h = if lo == 0x7C00 || half_value(lo) == a {
        lo
    } else {
        let (below, above) = (a - half_value(lo), half_value(lo + 1) - a);
        if below < above || (below == above && lo & 1 == 0) {
            lo
        } else {
            lo + 1
        }
    };
    sign | h
}

#[test]
fn every_half_converts_to_its_exact_value_and_back() {
    for h in 0..=u16::MAX {
        let x = f16_to_f32(h);
        let nan = h & 0x7C00 == 0x7C00 && h & 0x3FF != 0;
        if nan {
            // NaNs keep their sign and payload, quieted.
            assert!(x.is_nan(), "{h:#06x}");
            assert_eq!(x.is_sign_negative(), h & 0x8000 != 0, "{h:#06x}");
            assert_eq!(f32_to_f16(x), h | 0x200, "{h:#06x}");
            continue;
        }
        let exact = if h & 0x7FFF == 0x7C00 {
            if h & 0x8000 != 0 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        } else {
            half_value(h)
        };
        assert_eq!(f64::from(x), exact, "{h:#06x}");
        assert_eq!(x.is_sign_negative(), h & 0x8000 != 0, "{h:#06x} keeps its sign");
        assert_eq!(f32_to_f16(x), h, "{h:#06x} round-trips");
    }
}

#[test]
fn f32_to_f16_rounds_to_nearest_even_at_every_boundary() {
    // Each gap between neighbouring halves, including the one from the top
    // half to the overflow threshold: its midpoint (a tie) and the floats
    // either side of it, in both signs.
    for lo in 0..0x7C00u16 {
        let mid = (half_value(lo) + half_value(lo + 1)) / 2.0;
        let mid = mid as f32;
        assert_eq!(f64::from(mid), (half_value(lo) + half_value(lo + 1)) / 2.0, "tie is exact");
        for x in [mid.next_down(), mid, mid.next_up()] {
            for x in [x, -x] {
                assert_eq!(f32_to_f16(x), model_f32_to_f16(x), "{x:e} ({:#010x})", x.to_bits());
            }
        }
    }
    for x in [f32::MAX, f32::INFINITY, 65520.0, 1e-8, 2f32.powi(-25), f32::MIN_POSITIVE] {
        for x in [x, -x] {
            assert_eq!(f32_to_f16(x), model_f32_to_f16(x), "{x:e}");
        }
    }
}

/// Any half, or one from the subnormal and special values.
fn any_half() -> impl Strategy<Value = u16> {
    prop_oneof![
        any::<u16>(),
        (0u16..0x0400).prop_map(|f| f | 0x8000),
        (0usize..8)
            .prop_map(|i| [0x0000, 0x8000, 0x3C00, 0x7BFF, 0xFBFF, 0x7C00, 0xFC00, 0x7E00][i]),
    ]
}

/// One random packed word per lane: any bits, or two [`any_half`]s.
fn warp_halves() -> impl Strategy<Value = Vec<u32>> {
    let pair = (any_half(), any_half()).prop_map(|(lo, hi)| u32::from(lo) | u32::from(hi) << 16);
    prop::collection::vec(prop_oneof![any::<u32>(), pair], 32..33)
}

/// The packed result of `f` on each pair of halves, computed in f32 and
/// rounded to f16 once.
fn per_half(x: u32, y: u32, f: impl Fn(f32, f32) -> f32) -> u32 {
    let half = |w: u32, shift: u32| f16_to_f32((w >> shift) as u16);
    let lo = f32_to_f16(f(half(x, 0), half(y, 0)));
    let hi = f32_to_f16(f(half(x, 16), half(y, 16)));
    u32::from(lo) | u32::from(hi) << 16
}

/// A host function MUFU must match.
type MufuFn = fn(f32) -> f32;

/// A host MUFU input: any bits, or a value where the functions are
/// interesting (exponents, logarithms and angles of moderate size).
fn mufu_inputs() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        prop_oneof![
            any::<u32>(),
            (-200.0f32..200.0).prop_map(f32::to_bits),
            (0.0f32..4.0).prop_map(f32::to_bits)
        ],
        32..33,
    )
}

proptest! {
    #[test]
    fn f32_to_f16_matches_the_exact_model(xs in warp_words()) {
        for x in xs.into_iter().map(f32::from_bits).filter(|x| !x.is_nan()) {
            prop_assert_eq!(f32_to_f16(x), model_f32_to_f16(x), "{:e}", x);
        }
    }

    #[test]
    fn packed_fp16_arith_matches_host(xs in warp_halves(), ys in warp_halves()) {
        let (x, y) = (&xs[..], &ys[..]);
        let host = |f: fn(f32, f32) -> f32| zip(x, y, move |a, b| per_half(a, b, f));
        prop_assert_eq!(eval2(|k| { k.hadd2(Reg(0), Reg(1), Reg(2)); }, x, y), host(|a, b| a + b));
        prop_assert_eq!(eval2(|k| { k.hmul2(Reg(0), Reg(1), Reg(2)); }, x, y), host(|a, b| a * b));
        prop_assert_eq!(
            eval2(|k| { k.hfma2(Reg(0), Reg(1), Reg(2), Reg(1)); }, x, y),
            host(|a, b| a.mul_add(b, a))
        );
        let m = Modifier::None;
        let pt = Operand::P(PReg::PT);
        let npt = Operand::NotP(PReg::PT);
        prop_assert_eq!(eval2(one(Opcode::HMNMX2, m, [r(1), r(2), pt, NONE]), x, y), host(f32::min));
        prop_assert_eq!(eval2(one(Opcode::HMNMX2, m, [r(1), r(2), npt, NONE]), x, y), host(f32::max));
    }

    #[test]
    fn packed_fp16_compares_match_host(xs in warp_halves(), ys in warp_halves()) {
        let (x, y) = (&xs[..], &ys[..]);
        // Each half's comparison, low half first.
        let halves = |c: CmpOp, a: u32, b: u32| {
            let hit = |s: u32| host_cmp(c, f16_to_f32((a >> s) as u16), f16_to_f32((b >> s) as u16));
            (hit(0), hit(16))
        };
        for c in CmpOp::ALL {
            prop_assert_eq!(
                eval2(one(Opcode::HSET2, Modifier::Cmp(c), [r(1), r(2), NONE, NONE]), x, y),
                zip(x, y, |a, b| {
                    let (lo, hi) = halves(c, a, b);
                    (u32::from(lo) * 0xFFFF) | (u32::from(hi) * 0xFFFF_0000)
                }),
                "{:?}",
                c
            );
            for b in [BoolOp::And, BoolOp::Or, BoolOp::Xor] {
                let body = |k: &mut KernelBuilder| {
                    k.hsetp2(PReg(0), c, Reg(1), Reg(2)).modifier = Modifier::CmpBool(c, b);
                    k.movi(Reg(3), u32::MAX);
                    k.sel(Reg(0), Reg(3), Reg::RZ, PReg(0));
                };
                prop_assert_eq!(
                    eval2(body, x, y),
                    zip(x, y, |p, q| {
                        let (lo, hi) = halves(c, p, q);
                        if b.eval(lo, hi) { u32::MAX } else { 0 }
                    }),
                    "{:?} {:?}",
                    c,
                    b
                );
            }
        }
    }

    #[test]
    fn mufu_matches_host_bit_for_bit(xs in mufu_inputs()) {
        let host: [(MufuFunc, MufuFn); 7] = [
            (MufuFunc::Rcp, |v| 1.0 / v),
            (MufuFunc::Rsq, |v| 1.0 / v.sqrt()),
            (MufuFunc::Sqrt, f32::sqrt),
            (MufuFunc::Ex2, f32::exp2),
            (MufuFunc::Lg2, f32::log2),
            (MufuFunc::Sin, f32::sin),
            (MufuFunc::Cos, f32::cos),
        ];
        prop_assert_eq!(host.map(|(f, _)| f), MufuFunc::ALL, "the table covers every function");
        for (f, h) in host {
            prop_assert_eq!(
                eval2(one(Opcode::MUFU, Modifier::Func(f), [r(1), NONE, NONE, NONE]), &xs, &xs),
                xs.iter().map(|&v| h(f32::from_bits(v)).to_bits()).collect::<Vec<_>>(),
                "{:?}",
                f
            );
        }
    }
}
