//! Scheduler parity tests: which lane, pc, block and dynamic-instruction
//! count a trap names under every instruction budget, with and without
//! instrumentation; pc overrun; partial barriers; cross-lane operations
//! under divergence; and block-state hygiene across the blocks of one
//! launch.
//!
//! `tests/data/warp_parity.txt` holds the expected trap and statistics
//! table. On a mismatch the actual table is written next to the test
//! binaries (`CARGO_TARGET_TMPDIR/warp_parity.actual.txt`) for diffing.

use gpu_isa::asm::KernelBuilder;
use gpu_isa::{
    CmpOp, Dst, Guard, Instr, MemRef, MemWidth, Modifier, Opcode, Operand, PReg, Reg, ShflMode,
    Space, SpecialReg,
};
use gpu_sim::{
    Dim3, ExecHook, GlobalMem, Gpu, GpuConfig, InstrSite, Instrumentation, Launch, LaunchStats,
    SimError, ThreadCtx, TrapKind,
};

const EXPECTED: &str = include_str!("data/warp_parity.txt");

/// FNV-1a over 64-bit words: a compact, order-sensitive digest.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Two blocks of 40 threads (one full warp, one 8-lane warp). Odd lanes
/// run a loop whose trip count depends on the lane, even lanes take a short
/// path; a guarded add skips the odd lanes, and a barrier joins everyone
/// before each thread stores its accumulator to `out[gtid]`.
fn divergent_kernel() -> gpu_isa::Kernel {
    let mut k = KernelBuilder::new("diverge2");
    let (out, gtid, lane, acc, bit, n, off) =
        (Reg(4), Reg(0), Reg(1), Reg(2), Reg(3), Reg(5), Reg(6));
    k.ldc(out, 0);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.s2r(lane, SpecialReg::LaneId);
    k.movi(acc, 0);
    k.movi(bit, 1);
    k.and(bit, lane, bit);
    k.isetp(PReg(0), CmpOp::Ne, bit, 0);
    let odd = k.new_label();
    let join = k.new_label();
    k.bra_if(PReg(0), odd);
    k.iaddi(acc, acc, 7);
    k.bra(join);
    k.bind(odd);
    k.shri(n, lane, 3);
    k.iaddi(n, n, 1);
    let top = k.new_label();
    k.bind(top);
    k.iaddi(acc, acc, 3);
    k.iaddi(n, n, -1);
    k.isetp(PReg(1), CmpOp::Gt, n, 0);
    k.bra_if(PReg(1), top);
    k.bind(join);
    k.iaddi(acc, acc, 100).guard = Guard::if_false(PReg(0));
    k.bar();
    k.shli(off, gtid, 2);
    k.iadd(out, out, off);
    k.stg(out, 0, acc);
    k.exit();
    k.finish()
}

/// Records every hook firing and flips bit 4 of the destination of the
/// instrumented `after` site for every fifth thread.
#[derive(Default)]
struct Recorder {
    events: Vec<u64>,
}

impl ExecHook for Recorder {
    fn before(&mut self, t: &mut ThreadCtx<'_>, s: InstrSite<'_>) {
        self.events.extend([0, u64::from(s.pc), t.meta.global_tid(), t.dyn_index]);
    }

    fn after(&mut self, t: &mut ThreadCtx<'_>, s: InstrSite<'_>) {
        self.events.extend([1, u64::from(s.pc), t.meta.global_tid(), t.dyn_index]);
        if t.meta.global_tid().is_multiple_of(5) {
            if let Dst::R(r) = s.instr.dsts[0] {
                t.corrupt_reg(r, 0x10);
            }
        }
    }
}

fn launch(
    kernel: &gpu_isa::Kernel,
    grid: u32,
    block: u32,
    params: &[u32],
    budget: Option<u64>,
    mem: &mut GlobalMem,
    ins: Option<&mut Instrumentation<'_>>,
) -> Result<LaunchStats, SimError> {
    Gpu::new(GpuConfig::default()).launch(
        &Launch {
            kernel,
            grid: Dim3::from(grid),
            block: Dim3::from(block),
            params,
            instr_budget: budget,
        },
        mem,
        ins,
    )
}

/// One table row: `kind pc block thread dyn_instrs cycles`.
fn row(result: &Result<LaunchStats, SimError>) -> String {
    let opt = |v: Option<u32>| v.map_or("-".to_string(), |v| v.to_string());
    match result {
        Ok(s) => format!("ok - - - {} {}", s.dyn_instrs, s.cycles),
        Err(SimError::Trap { info, stats }) => format!(
            "{:?} {} {} {} {} {}",
            info.kind,
            opt(info.pc),
            opt(info.block),
            opt(info.thread),
            stats.dyn_instrs,
            stats.cycles
        ),
        Err(e) => panic!("launch rejected: {e}"),
    }
}

/// Dynamic instructions of an unbudgeted, uninstrumented divergent run.
fn divergent_full(kernel: &gpu_isa::Kernel) -> u64 {
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(80 * 4).expect("alloc");
    launch(kernel, 2, 40, &[out.addr()], None, &mut mem, None).expect("full run").dyn_instrs
}

/// Run the divergent kernel under budget `k`; with `hooked`, instrument the
/// odd loop's accumulate (after) and the final store (before).
fn divergent_row(kernel: &gpu_isa::Kernel, k: u64, hooked: bool) -> String {
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(80 * 4).expect("alloc");
    let len = kernel.len();
    let mut before = vec![false; len];
    let mut after = vec![false; len];
    let acc_pc = kernel
        .instrs()
        .iter()
        .position(|i| i.op == Opcode::IADD32I && i.srcs[1] == Operand::Imm(3))
        .expect("loop body");
    after[acc_pc] = true;
    before[len - 2] = true;
    let mut rec = Recorder::default();
    let mut ins = Instrumentation {
        before_mask: &before,
        after_mask: &after,
        hook: &mut rec,
        kernel_instance: 0,
    };
    let result =
        launch(kernel, 2, 40, &[out.addr()], Some(k), &mut mem, hooked.then_some(&mut ins));
    let words = mem.read_u32s(out, 80).expect("read");
    let mem_digest = fnv(words.iter().map(|w| u64::from(*w)));
    let mut line = format!("{} mem={mem_digest:016x}", row(&result));
    if hooked {
        line += &format!(" hooks={} ev={:016x}", rec.events.len() / 4, fnv(rec.events));
    }
    line
}

/// Lanes 0..5 exit early; the rest fall off the end of the kernel.
fn overrun_row() -> String {
    let mut k = KernelBuilder::new("overrun");
    k.s2r(Reg(0), SpecialReg::LaneId);
    k.isetp(PReg(0), CmpOp::Lt, Reg(0), 5);
    k.exit().guard = Guard::if_true(PReg(0));
    k.iaddi(Reg(1), Reg(0), 1);
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    row(&launch(&kernel, 2, 48, &[], None, &mut mem, None))
}

/// Lanes with odd thread ids exit before the barrier; the barrier releases
/// once every live thread is waiting, so the launch completes.
fn partial_barrier_row() -> String {
    let mut k = KernelBuilder::new("partial_bar");
    let (out, tid, bit) = (Reg(4), Reg(0), Reg(1));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.movi(bit, 1);
    k.and(bit, tid, bit);
    k.isetp(PReg(0), CmpOp::Ne, bit, 0);
    k.exit().guard = Guard::if_true(PReg(0));
    k.bar();
    k.shli(Reg(2), tid, 2);
    k.iadd(out, out, Reg(2));
    k.stg(out, 0, tid);
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(40 * 4).expect("alloc");
    let r = row(&launch(&kernel, 1, 40, &[out.addr()], None, &mut mem, None));
    let got = mem.read_u32s(out, 40).expect("read");
    for (tid, v) in got.iter().enumerate() {
        assert_eq!(*v, if tid % 2 == 0 { tid as u32 } else { 0 }, "tid {tid}");
    }
    r
}

/// Block 0 dirties registers, a predicate, shared and local memory and
/// leaves a return address on its call stack; block 1 stores what it sees
/// of each, then executes `RET`, which must find an empty stack.
fn hygiene_kernel() -> gpu_isa::Kernel {
    let mut k = KernelBuilder::new("hygiene");
    k.shared_bytes(64 * 4);
    let (out, tid, cta, off, v) = (Reg(4), Reg(0), Reg(1), Reg(2), Reg(3));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.s2r(cta, SpecialReg::CtaIdX);
    k.shli(off, tid, 2);
    k.isetp(PReg(0), CmpOp::Ne, cta, 0);
    let reader = k.new_label();
    k.bra_if(PReg(0), reader);
    // Block 0: dirty everything, then CALL a subroutine that exits.
    k.movi(Reg(10), 0xDEAD);
    k.movi(Reg(200), 0xBEEF);
    k.isetp(PReg(3), CmpOp::Eq, Reg::RZ, 0);
    k.movi(v, 0xCAFE);
    k.sts(off, 0, v);
    k.push(local_st(v));
    let mut call = Instr::new(Opcode::CALL);
    call.target = k.here() as u32 + 1;
    k.push(call);
    k.exit();
    // Block 1: out[tid*8 + j] = {R10, R200, P2R (only its own P0 set),
    // shared[tid], local[0], ctaid, smid}.
    k.bind(reader);
    k.shli(Reg(5), tid, 5);
    k.iadd(out, out, Reg(5));
    k.stg(out, 0, Reg(10));
    k.stg(out, 4, Reg(200));
    let mut p2r = Instr::new(Opcode::P2R);
    p2r.dsts[0] = Dst::R(Reg(6));
    k.push(p2r);
    k.stg(out, 8, Reg(6));
    k.lds(Reg(7), off, 0);
    k.stg(out, 12, Reg(7));
    k.push(local_ld(Reg(8)));
    k.stg(out, 16, Reg(8));
    k.stg(out, 20, cta);
    k.s2r(Reg(9), SpecialReg::SmId);
    k.stg(out, 24, Reg(9));
    k.push(Instr::new(Opcode::RET));
    k.exit();
    k.finish()
}

fn local_ref() -> Operand {
    Operand::Mem(MemRef { base: Reg::RZ, offset: 0, space: Space::Local })
}

fn local_st(v: Reg) -> Instr {
    let mut st = Instr::new(Opcode::STL);
    st.modifier = Modifier::Width(MemWidth::B32);
    st.srcs = [local_ref(), Operand::R(v), Operand::None, Operand::None];
    st
}

fn local_ld(d: Reg) -> Instr {
    let mut ld = Instr::new(Opcode::LDL);
    ld.modifier = Modifier::Width(MemWidth::B32);
    ld.dsts[0] = Dst::R(d);
    ld.srcs[0] = local_ref();
    ld
}

fn hygiene_row() -> String {
    let kernel = hygiene_kernel();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(64 * 8 * 4).expect("alloc");
    mem.write_u32s(out, &[0x5A5A_5A5A; 64 * 8]).expect("fill");
    let r = row(&launch(&kernel, 2, 64, &[out.addr()], None, &mut mem, None));
    let got = mem.read_u32s(out, 64 * 8).expect("read");
    for (tid, v) in got.chunks(8).enumerate() {
        assert_eq!(v[..7], [0, 0, 1, 0, 0, 1, 1], "block 1 thread {tid} saw block 0's state");
    }
    r
}

/// Every table row, in file order.
fn actual_table() -> String {
    let kernel = divergent_kernel();
    let full = divergent_full(&kernel);
    let mut t = String::new();
    for (name, hooked) in [("plain", false), ("hooked", true)] {
        for k in 0..=full {
            t += &format!("{name} {k} {}\n", divergent_row(&kernel, k, hooked));
        }
    }
    t += &format!("overrun {}\n", overrun_row());
    t += &format!("partial_barrier {}\n", partial_barrier_row());
    t += &format!("hygiene {}\n", hygiene_row());
    t
}

#[test]
fn traps_and_stats_match_recorded_table() {
    let actual = actual_table();
    if actual != EXPECTED {
        let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/warp_parity.actual.txt");
        std::fs::write(path, &actual).expect("write actual table");
        for (n, (a, e)) in actual.lines().zip(EXPECTED.lines()).enumerate() {
            assert_eq!(a, e, "first difference at line {}; full table in {path}", n + 1);
        }
        assert_eq!(actual.lines().count(), EXPECTED.lines().count(), "table in {path}");
    }
}

#[test]
fn deadline_traps_only_at_poll_boundaries() {
    // A long loop with a deadline that passes mid-launch: the trap names a
    // lane and pc, and the executed count sits on the 2^14 poll grid.
    let mut k = KernelBuilder::new("spin");
    let top = k.new_label();
    k.bind(top);
    k.iaddi(Reg(0), Reg(0), 1);
    k.bra(top);
    let kernel = k.finish();
    let mut gpu = Gpu::new(GpuConfig::default());
    gpu.set_deadline(Some(std::time::Instant::now() + std::time::Duration::from_millis(20)));
    let mut mem = GlobalMem::new(1 << 16);
    let r = gpu.launch(
        &Launch {
            kernel: &kernel,
            grid: Dim3::from(1),
            block: Dim3::from(40),
            params: &[],
            instr_budget: Some(u64::MAX),
        },
        &mut mem,
        None,
    );
    match r {
        Err(SimError::Trap { info, stats }) => {
            assert_eq!(info.kind, TrapKind::DeadlineExceeded);
            assert!(info.pc.is_some() && info.thread.is_some() && info.block == Some(0));
            assert!(stats.dyn_instrs > 0 && stats.dyn_instrs % (1 << 14) == 0, "{stats:?}");
        }
        other => panic!("expected a deadline trap, got {other:?}"),
    }
}

/// Sentinel for destinations a lane never wrote.
const UNSET: u32 = 0x5EED_5EED;

#[test]
fn cross_lane_ops_under_divergence() {
    // Two warps. Lanes with lane % 4 == 0 branch past the cross-lane block,
    // so every cross-lane op runs with those lanes inactive; lane 13 is
    // additionally guarded off the last SHFL.
    let mut k = KernelBuilder::new("xlane");
    let (out, gtid, lane, v, fv, t) = (Reg(4), Reg(0), Reg(1), Reg(2), Reg(3), Reg(5));
    k.ldc(out, 0);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.s2r(lane, SpecialReg::LaneId);
    k.shli(v, gtid, 4);
    k.iadd(v, v, lane);
    k.i2f(fv, v);
    for r in 10..17 {
        k.movi(Reg(r), UNSET);
    }
    k.movi(t, 3);
    k.and(t, lane, t);
    k.isetp(PReg(0), CmpOp::Eq, t, 0);
    k.isetp(PReg(1), CmpOp::Lt, lane, 20);
    k.isetp(PReg(3), CmpOp::Eq, lane, 13);
    let skip = k.new_label();
    k.bra_if(PReg(0), skip);
    k.shfl(ShflMode::Idx, Reg(10), v, 6);
    k.shfl(ShflMode::Up, Reg(11), v, 1);
    k.shfl(ShflMode::Down, Reg(12), v, 3);
    k.shfl(ShflMode::Bfly, Reg(13), v, 1);
    let mut vote = Instr::new(Opcode::VOTE);
    vote.dsts[0] = Dst::R(Reg(14));
    vote.srcs[0] = Operand::P(PReg(1));
    k.push(vote);
    let mut swz = Instr::new(Opcode::FSWZADD);
    swz.dsts[0] = Dst::R(Reg(15));
    swz.srcs[0] = Operand::R(fv);
    k.push(swz);
    k.shfl(ShflMode::Idx, Reg(16), v, 13).guard = Guard::if_false(PReg(3));
    k.bind(skip);
    k.shli(t, gtid, 5);
    k.iadd(out, out, t);
    for (j, r) in (10..17).enumerate() {
        k.stg(out, (j * 4) as i16, Reg(r));
    }
    k.exit();
    let kernel = k.finish();

    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(64 * 8 * 4).expect("alloc");
    launch(&kernel, 1, 64, &[out.addr()], None, &mut mem, None).expect("launch");
    let got = mem.read_u32s(out, 64 * 8).expect("read");

    for gtid in 0..64u32 {
        let lane = gtid % 32;
        let base = gtid - lane;
        let val = |l: u32| ((base + l) << 4) + l;
        let active = |l: u32| l < 32 && !l.is_multiple_of(4);
        let from = |src: Option<u32>| match src {
            Some(s) if active(s) => val(s),
            _ => val(lane),
        };
        let expect: [u32; 7] = if !active(lane) {
            [UNSET; 7]
        } else {
            let ballot = (0..32).filter(|&l| active(l) && l < 20).fold(0, |m, l| m | 1 << l);
            let partner = if active(lane ^ 1) { val(lane ^ 1) } else { val(lane) };
            let swz = (val(lane) as f32 + partner as f32).to_bits();
            [
                from(Some(6)),
                from(lane.checked_sub(1)),
                from(Some(lane + 3)),
                from(Some(lane ^ 1)),
                ballot,
                swz,
                if lane == 13 { UNSET } else { val(lane) },
            ]
        };
        let row = &got[(gtid * 8) as usize..(gtid * 8 + 7) as usize];
        assert_eq!(row, expect, "thread {gtid}");
    }
}

#[test]
fn hook_writes_do_not_leak_into_the_next_block() {
    // A hook writes a register the kernel never touches; the next block's
    // hook must find it zero again.
    struct Leak {
        seen: Vec<(u32, u32)>,
    }
    impl ExecHook for Leak {
        fn before(&mut self, t: &mut ThreadCtx<'_>, _s: InstrSite<'_>) {
            self.seen.push((t.meta.flat_ctaid, t.read_reg(Reg(250))));
            t.write_reg(Reg(250), 0xFEED);
        }
    }
    let mut k = KernelBuilder::new("leak");
    k.movi(Reg(0), 1);
    k.exit();
    let kernel = k.finish();
    let before = [true, false];
    let after = [false, false];
    let mut hook = Leak { seen: Vec::new() };
    let mut ins = Instrumentation {
        before_mask: &before,
        after_mask: &after,
        hook: &mut hook,
        kernel_instance: 0,
    };
    let mut mem = GlobalMem::new(1 << 16);
    launch(&kernel, 3, 40, &[], None, &mut mem, Some(&mut ins)).expect("launch");
    assert_eq!(hook.seen.len(), 3 * 40);
    assert!(hook.seen.iter().all(|&(_, v)| v == 0), "{:?}", hook.seen);
}
