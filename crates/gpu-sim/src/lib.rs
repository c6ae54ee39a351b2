#![warn(missing_docs)]

//! # gpu-sim — an architectural GPU simulator
//!
//! This crate is the workspace's substitute for physical NVIDIA hardware
//! (see `DESIGN.md` §1). It executes [`gpu_isa`] kernels with:
//!
//! * **SMs and warps** — blocks are assigned to SMs round-robin; warps of 32
//!   lanes execute with a min-PC independent-thread-scheduling model that
//!   handles divergence and reconvergence,
//! * **full memory hierarchy** — bounds- and alignment-checked global,
//!   shared, local, and constant spaces; corrupted pointers trap exactly as
//!   "illegal address" errors do on real GPUs,
//! * **traps** ([`TrapKind`]) — out-of-bounds, misaligned, illegal
//!   instruction, hang detection via instruction budgets — the raw material
//!   for DUE classification,
//! * **deterministic dynamic-instruction numbering** — the property fault
//!   injection needs so a site `<kernel, instance, instruction index>`
//!   always names the same event,
//! * **an instrumentation surface** ([`Instrumentation`], [`ExecHook`]) —
//!   per-static-instruction before/after callbacks with register-file
//!   access, the contract the NVBit layer builds its `insert_call` API on.
//!   Un-instrumented instructions take a fast path, so tools pay only for
//!   what they instrument,
//! * **a warp-at-a-time core** — a launch builds its block state once and
//!   re-arms it per block (registers the kernel wrote, predicates, shared
//!   and local memory zeroed; call stacks emptied; local memory only for
//!   kernels with a local-memory operand). Warps are `u32` lane masks:
//!   each issue decodes the instruction, looks up its hooks and settles
//!   the budget and deadline once, then runs the active lanes in one
//!   ascending pass — with the before/after hooks around each lane's
//!   execution where the pc is instrumented.
//!
//! See the [`Gpu::launch`] docs for a complete runnable example.

mod block;
pub mod cycles;
mod error;
mod exec;
mod gpu;
mod grid;
mod hooks;
mod limits;
mod memory;
mod regfile;
mod trap;

pub use error::SimError;
pub use exec::{exec_scalar, ExecEnv, Flow};
pub use gpu::{Gpu, GpuConfig, Launch, LaunchStats, MAX_BLOCK_THREADS, MAX_PARAM_BYTES};
pub use grid::Dim3;
pub use hooks::{ExecHook, InstrSite, Instrumentation, ThreadCtx, ThreadMeta};
pub use limits::ResourceLimits;
pub use memory::{DevPtr, GlobalMem, MemError, MemSnapshot, SharedMem};
pub use regfile::RegFile;
pub use trap::{TrapInfo, TrapKind};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use gpu_isa::asm::KernelBuilder;
    use gpu_isa::{AtomOp, CmpOp, PReg, Reg, ShflMode, SpecialReg};

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::default())
    }

    /// out[i] = a[i] + b[i], one thread per element.
    fn vecadd_kernel() -> gpu_isa::Kernel {
        let mut k = KernelBuilder::new("vecadd");
        let (pa, pb, pc, gtid, off) = (Reg(4), Reg(6), Reg(8), Reg(0), Reg(1));
        k.ldc(pa, 0);
        k.ldc(pb, 4);
        k.ldc(pc, 8);
        k.s2r(gtid, SpecialReg::GlobalTidX);
        k.shli(off, gtid, 2);
        k.iadd(pa, pa, off);
        k.iadd(pb, pb, off);
        k.iadd(pc, pc, off);
        k.ldg(Reg(10), pa, 0);
        k.ldg(Reg(11), pb, 0);
        k.fadd(Reg(12), Reg(10), Reg(11));
        k.stg(pc, 0, Reg(12));
        k.exit();
        k.finish()
    }

    #[test]
    fn vecadd_end_to_end() {
        let g = gpu();
        let mut mem = GlobalMem::new(1 << 20);
        let n = 256usize;
        let a = mem.alloc((n * 4) as u32).expect("alloc");
        let b = mem.alloc((n * 4) as u32).expect("alloc");
        let c = mem.alloc((n * 4) as u32).expect("alloc");
        let av: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let bv: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        mem.write_f32s(a, &av).expect("write");
        mem.write_f32s(b, &bv).expect("write");
        let kernel = vecadd_kernel();
        let stats = g
            .launch(
                &Launch {
                    kernel: &kernel,
                    grid: Dim3::from(4),
                    block: Dim3::from(64),
                    params: &[a.addr(), b.addr(), c.addr()],
                    instr_budget: None,
                },
                &mut mem,
                None,
            )
            .expect("launch");
        let out = mem.read_f32s(c, n).expect("read");
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f32, "element {i}");
        }
        // 13 instructions × 256 threads, all unconditional.
        assert_eq!(stats.dyn_instrs, 13 * 256);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn divergent_branch_reconverges() {
        // Even lanes write 1, odd lanes write 2.
        let mut k = KernelBuilder::new("diverge");
        let (out, lane, bit, off) = (Reg(4), Reg(0), Reg(1), Reg(2));
        k.ldc(out, 0);
        k.s2r(lane, SpecialReg::LaneId);
        k.movi(bit, 1);
        k.and(bit, lane, bit);
        k.isetp(PReg(0), CmpOp::Eq, bit, 0);
        k.shli(off, lane, 2);
        k.iadd(out, out, off);
        let odd = k.new_label();
        let done = k.new_label();
        k.bra_ifnot(PReg(0), odd);
        k.movi(Reg(3), 1);
        k.bra(done);
        k.bind(odd);
        k.movi(Reg(3), 2);
        k.bind(done);
        k.stg(out, 0, Reg(3));
        k.exit();
        let kernel = k.finish();

        let g = gpu();
        let mut mem = GlobalMem::new(1 << 16);
        let out_buf = mem.alloc(32 * 4).expect("alloc");
        g.launch(
            &Launch {
                kernel: &kernel,
                grid: Dim3::from(1),
                block: Dim3::from(32),
                params: &[out_buf.addr()],
                instr_budget: None,
            },
            &mut mem,
            None,
        )
        .expect("launch");
        let vals = mem.read_u32s(out_buf, 32).expect("read");
        for (lane, v) in vals.iter().enumerate() {
            assert_eq!(*v, if lane % 2 == 0 { 1 } else { 2 }, "lane {lane}");
        }
    }

    #[test]
    fn barrier_orders_shared_memory() {
        // Thread t writes shared[t]; after BAR, reads shared[(t+1)%n].
        let n = 64u32;
        let mut k = KernelBuilder::new("rotate");
        k.shared_bytes(n * 4);
        let (out, tid, addr, v, next) = (Reg(4), Reg(0), Reg(1), Reg(2), Reg(3));
        k.ldc(out, 0);
        k.s2r(tid, SpecialReg::TidX);
        k.shli(addr, tid, 2);
        k.sts(addr, 0, tid);
        k.bar();
        k.iaddi(next, tid, 1);
        k.movi(Reg(5), n - 1);
        k.and(next, next, Reg(5)); // (tid+1) % n for power-of-two n
        k.shli(next, next, 2);
        k.lds(v, next, 0);
        k.shli(addr, tid, 2);
        k.iadd(addr, out, addr);
        k.stg(addr, 0, v);
        k.exit();
        let kernel = k.finish();

        let g = gpu();
        let mut mem = GlobalMem::new(1 << 16);
        let out_buf = mem.alloc(n * 4).expect("alloc");
        g.launch(
            &Launch {
                kernel: &kernel,
                grid: Dim3::from(1),
                block: Dim3::from(n),
                params: &[out_buf.addr()],
                instr_budget: None,
            },
            &mut mem,
            None,
        )
        .expect("launch");
        let vals = mem.read_u32s(out_buf, n as usize).expect("read");
        for (t, v) in vals.iter().enumerate() {
            assert_eq!(*v, ((t as u32) + 1) % n, "thread {t}");
        }
    }

    #[test]
    fn infinite_loop_hits_budget() {
        let mut k = KernelBuilder::new("spin");
        let top = k.new_label();
        k.bind(top);
        k.bra(top);
        k.exit();
        let kernel = k.finish();
        let g = gpu();
        let mut mem = GlobalMem::new(4096);
        let err = g
            .launch(
                &Launch {
                    kernel: &kernel,
                    grid: Dim3::from(1),
                    block: Dim3::from(32),
                    params: &[],
                    instr_budget: Some(10_000),
                },
                &mut mem,
                None,
            )
            .unwrap_err();
        match err {
            SimError::Trap { info, stats } => {
                assert_eq!(info.kind, TrapKind::Timeout);
                assert!(stats.dyn_instrs >= 10_000);
            }
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn shared_mem_over_governor_cap_traps() {
        let mut k = KernelBuilder::new("hog");
        k.shared_bytes(1 << 20); // 1 MiB, far past the 48 KiB cap
        k.exit();
        let kernel = k.finish();
        let mut g = gpu();
        g.set_limits(Some(ResourceLimits::default()));
        let mut mem = GlobalMem::new(4096);
        let err = g
            .launch(
                &Launch {
                    kernel: &kernel,
                    grid: Dim3::from(1),
                    block: Dim3::from(1),
                    params: &[],
                    instr_budget: None,
                },
                &mut mem,
                None,
            )
            .unwrap_err();
        match err {
            SimError::Trap { info, stats } => {
                assert!(matches!(info.kind, TrapKind::ResourceLimit { .. }), "{:?}", info.kind);
                assert_eq!(info.kernel, "hog");
                assert_eq!(stats.dyn_instrs, 0, "trapped before execution");
            }
            other => panic!("expected trap, got {other:?}"),
        }
        // Without the governor the same launch succeeds.
        let g = gpu();
        let mut mem = GlobalMem::new(4096);
        g.launch(
            &Launch {
                kernel: &kernel,
                grid: Dim3::from(1),
                block: Dim3::from(1),
                params: &[],
                instr_budget: None,
            },
            &mut mem,
            None,
        )
        .expect("launch without governor");
    }

    #[test]
    fn oob_store_traps_with_location() {
        let mut k = KernelBuilder::new("wild");
        k.movi(Reg(4), 0xFFFF_0000);
        k.stg(Reg(4), 0, Reg(0));
        k.exit();
        let kernel = k.finish();
        let g = gpu();
        let mut mem = GlobalMem::new(4096);
        let err = g
            .launch(
                &Launch {
                    kernel: &kernel,
                    grid: Dim3::from(1),
                    block: Dim3::from(1),
                    params: &[],
                    instr_budget: None,
                },
                &mut mem,
                None,
            )
            .unwrap_err();
        match err {
            SimError::Trap { info, .. } => {
                assert!(matches!(info.kind, TrapKind::OutOfBounds { .. }));
                assert_eq!(info.pc, Some(1));
                assert_eq!(info.kernel, "wild");
            }
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn warp_shuffle_butterfly_reduction() {
        // Warp-wide sum via butterfly shuffles: every lane ends with the
        // total 0+1+..+31 = 496.
        let mut k = KernelBuilder::new("wreduce");
        let (out, lane, acc, tmp) = (Reg(4), Reg(0), Reg(2), Reg(3));
        k.ldc(out, 0);
        k.s2r(lane, SpecialReg::LaneId);
        k.mov(acc, lane);
        for sh in [16u32, 8, 4, 2, 1] {
            k.shfl(ShflMode::Bfly, tmp, acc, sh);
            k.iadd(acc, acc, tmp);
        }
        k.shli(tmp, lane, 2);
        k.iadd(out, out, tmp);
        k.stg(out, 0, acc);
        k.exit();
        let kernel = k.finish();
        let g = gpu();
        let mut mem = GlobalMem::new(4096);
        let out_buf = mem.alloc(32 * 4).expect("alloc");
        g.launch(
            &Launch {
                kernel: &kernel,
                grid: Dim3::from(1),
                block: Dim3::from(32),
                params: &[out_buf.addr()],
                instr_budget: None,
            },
            &mut mem,
            None,
        )
        .expect("launch");
        let vals = mem.read_u32s(out_buf, 32).expect("read");
        assert!(vals.iter().all(|&v| v == 496), "{vals:?}");
    }

    #[test]
    fn atomics_across_blocks_accumulate() {
        let mut k = KernelBuilder::new("histo");
        let (ctr, one) = (Reg(4), Reg(5));
        k.ldc(ctr, 0);
        k.movi(one, 1);
        k.red(AtomOp::Add, ctr, 0, one);
        k.exit();
        let kernel = k.finish();
        let g = gpu();
        let mut mem = GlobalMem::new(4096);
        let c = mem.alloc(4).expect("alloc");
        g.launch(
            &Launch {
                kernel: &kernel,
                grid: Dim3::from(10),
                block: Dim3::from(33), // 2 warps, odd size
                params: &[c.addr()],
                instr_budget: None,
            },
            &mut mem,
            None,
        )
        .expect("launch");
        assert_eq!(mem.read_u32s(c, 1).expect("read"), vec![330]);
    }

    #[test]
    fn predicated_off_instruction_not_counted() {
        // A guarded instruction whose guard fails everywhere must not
        // appear in dyn_instrs (paper §III-A).
        let mut k = KernelBuilder::new("pred");
        k.movi(Reg(0), 1).guard = gpu_isa::Guard::if_true(PReg(0)); // P0=false
        k.exit();
        let kernel = k.finish();
        let g = gpu();
        let mut mem = GlobalMem::new(4096);
        let stats = g
            .launch(
                &Launch {
                    kernel: &kernel,
                    grid: Dim3::from(1),
                    block: Dim3::from(32),
                    params: &[],
                    instr_budget: None,
                },
                &mut mem,
                None,
            )
            .expect("launch");
        // Only EXIT counts: 32 threads × 1 instruction.
        assert_eq!(stats.dyn_instrs, 32);
    }

    #[test]
    fn sm_assignment_round_robin() {
        // Record SR_SMID per block and check the modulo mapping.
        let mut k = KernelBuilder::new("smid");
        let (out, bid, sm, off) = (Reg(4), Reg(0), Reg(1), Reg(2));
        k.ldc(out, 0);
        k.s2r(bid, SpecialReg::CtaIdX);
        k.s2r(sm, SpecialReg::SmId);
        k.shli(off, bid, 2);
        k.iadd(out, out, off);
        k.stg(out, 0, sm);
        k.exit();
        let kernel = k.finish();
        let g = Gpu::new(GpuConfig { num_sms: 4, ..GpuConfig::default() });
        let mut mem = GlobalMem::new(1 << 16);
        let out_buf = mem.alloc(10 * 4).expect("alloc");
        g.launch(
            &Launch {
                kernel: &kernel,
                grid: Dim3::from(10),
                block: Dim3::from(1),
                params: &[out_buf.addr()],
                instr_budget: None,
            },
            &mut mem,
            None,
        )
        .expect("launch");
        let vals = mem.read_u32s(out_buf, 10).expect("read");
        for b in 0..10u32 {
            assert_eq!(vals[b as usize], b % 4, "block {b}");
        }
    }

    #[test]
    fn launch_validation() {
        let kernel = vecadd_kernel();
        let g = gpu();
        let mut mem = GlobalMem::new(4096);
        assert!(matches!(
            g.launch(
                &Launch {
                    kernel: &kernel,
                    grid: Dim3::from(0),
                    block: Dim3::from(32),
                    params: &[],
                    instr_budget: None
                },
                &mut mem,
                None
            ),
            Err(SimError::EmptyLaunch)
        ));
        assert!(matches!(
            g.launch(
                &Launch {
                    kernel: &kernel,
                    grid: Dim3::from(1),
                    block: Dim3::from(2048),
                    params: &[],
                    instr_budget: None
                },
                &mut mem,
                None
            ),
            Err(SimError::BlockTooLarge { threads: 2048 })
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        // Identical launches produce identical stats — the property fault
        // sites depend on.
        let kernel = vecadd_kernel();
        let g = gpu();
        let run = || {
            let mut mem = GlobalMem::new(1 << 20);
            let a = mem.alloc(1024).expect("a");
            let b = mem.alloc(1024).expect("b");
            let c = mem.alloc(1024).expect("c");
            mem.write_f32s(a, &vec![1.0; 256]).expect("w");
            mem.write_f32s(b, &vec![2.0; 256]).expect("w");
            let stats = g
                .launch(
                    &Launch {
                        kernel: &kernel,
                        grid: Dim3::from(8),
                        block: Dim3::from(32),
                        params: &[a.addr(), b.addr(), c.addr()],
                        instr_budget: None,
                    },
                    &mut mem,
                    None,
                )
                .expect("launch");
            (stats, mem.read_f32s(c, 256).expect("read"))
        };
        let (s1, o1) = run();
        let (s2, o2) = run();
        assert_eq!(s1, s2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn instrumentation_hooks_fire_and_can_corrupt() {
        struct CountAndCorrupt {
            before_calls: u64,
            after_calls: u64,
            corrupt_at: u64,
        }
        impl ExecHook for CountAndCorrupt {
            fn before(&mut self, _t: &mut ThreadCtx<'_>, _s: InstrSite<'_>) {
                self.before_calls += 1;
            }
            fn after(&mut self, t: &mut ThreadCtx<'_>, s: InstrSite<'_>) {
                self.after_calls += 1;
                if t.dyn_index == self.corrupt_at {
                    if let Some(r) = s.instr.gpr_dests().first() {
                        t.corrupt_reg(*r, 0xFFFF_FFFF);
                    }
                }
            }
        }

        // Kernel: out[tid] = tid + 1
        let mut k = KernelBuilder::new("inc");
        let (out, tid, off) = (Reg(4), Reg(0), Reg(1));
        k.ldc(out, 0);
        k.s2r(tid, SpecialReg::TidX);
        k.iaddi(Reg(2), tid, 1);
        k.shli(off, tid, 2);
        k.iadd(out, out, off);
        k.stg(out, 0, Reg(2));
        k.exit();
        let kernel = k.finish();

        let g = gpu();
        let mut mem = GlobalMem::new(4096);
        let out_buf = mem.alloc(32 * 4).expect("alloc");
        let mut hook = CountAndCorrupt { before_calls: 0, after_calls: 0, corrupt_at: u64::MAX };
        // Instrument only the IADD32I at pc=2.
        let mut before = vec![false; kernel.len()];
        let mut after = vec![false; kernel.len()];
        before[2] = true;
        after[2] = true;
        let mut ins = Instrumentation {
            before_mask: &before,
            after_mask: &after,
            hook: &mut hook,
            kernel_instance: 0,
        };
        g.launch(
            &Launch {
                kernel: &kernel,
                grid: Dim3::from(1),
                block: Dim3::from(32),
                params: &[out_buf.addr()],
                instr_budget: None,
            },
            &mut mem,
            Some(&mut ins),
        )
        .expect("launch");
        assert_eq!(hook.before_calls, 32);
        assert_eq!(hook.after_calls, 32);
        let clean = mem.read_u32s(out_buf, 32).expect("read");
        assert_eq!(clean[5], 6);

        // Now corrupt thread 5's IADD32I destination. The IADD32I at pc=2 is
        // the thread's 3rd executed instruction. With 32 threads stepping in
        // lockstep, dynamic indices interleave warp-wide: instruction group
        // at pc=2 occupies dyn indices 64..96, lane 5 at 64+5.
        let mut hook = CountAndCorrupt { before_calls: 0, after_calls: 0, corrupt_at: 64 + 5 };
        let mut ins = Instrumentation {
            before_mask: &before,
            after_mask: &after,
            hook: &mut hook,
            kernel_instance: 0,
        };
        let mut mem = GlobalMem::new(4096);
        let out_buf = mem.alloc(32 * 4).expect("alloc");
        g.launch(
            &Launch {
                kernel: &kernel,
                grid: Dim3::from(1),
                block: Dim3::from(32),
                params: &[out_buf.addr()],
                instr_budget: None,
            },
            &mut mem,
            Some(&mut ins),
        )
        .expect("launch");
        let dirty = mem.read_u32s(out_buf, 32).expect("read");
        assert_eq!(dirty[5], 6 ^ 0xFFFF_FFFF, "corrupted lane");
        assert_eq!(dirty[4], 5, "uncorrupted neighbour");
    }

    #[test]
    fn instrumentation_mask_must_match_kernel() {
        struct Noop;
        impl ExecHook for Noop {}
        let kernel = vecadd_kernel();
        let g = gpu();
        let mut mem = GlobalMem::new(4096);
        let mut hook = Noop;
        let before = vec![false; 2]; // wrong length
        let after = vec![false; 2];
        let mut ins = Instrumentation {
            before_mask: &before,
            after_mask: &after,
            hook: &mut hook,
            kernel_instance: 0,
        };
        assert!(matches!(
            g.launch(
                &Launch {
                    kernel: &kernel,
                    grid: Dim3::from(1),
                    block: Dim3::from(1),
                    params: &[],
                    instr_budget: None
                },
                &mut mem,
                Some(&mut ins)
            ),
            Err(SimError::BadInstrumentationMask { .. })
        ));
    }

    #[test]
    fn instrumented_run_costs_more_cycles() {
        struct Noop;
        impl ExecHook for Noop {}
        let kernel = vecadd_kernel();
        let g = gpu();
        let setup = |mem: &mut GlobalMem| {
            let a = mem.alloc(1024).expect("a");
            let b = mem.alloc(1024).expect("b");
            let c = mem.alloc(1024).expect("c");
            [a.addr(), b.addr(), c.addr()]
        };
        let mut mem = GlobalMem::new(1 << 20);
        let params = setup(&mut mem);
        let plain = g
            .launch(
                &Launch {
                    kernel: &kernel,
                    grid: Dim3::from(4),
                    block: Dim3::from(64),
                    params: &params,
                    instr_budget: None,
                },
                &mut mem,
                None,
            )
            .expect("launch");

        let mut mem = GlobalMem::new(1 << 20);
        let params = setup(&mut mem);
        let mut hook = Noop;
        let before = vec![true; kernel.len()];
        let after = vec![false; kernel.len()];
        let mut ins = Instrumentation {
            before_mask: &before,
            after_mask: &after,
            hook: &mut hook,
            kernel_instance: 0,
        };
        let instrumented = g
            .launch(
                &Launch {
                    kernel: &kernel,
                    grid: Dim3::from(4),
                    block: Dim3::from(64),
                    params: &params,
                    instr_budget: None,
                },
                &mut mem,
                Some(&mut ins),
            )
            .expect("launch");
        assert!(instrumented.cycles > plain.cycles);
        assert_eq!(instrumented.dyn_instrs, plain.dyn_instrs);
    }
}
