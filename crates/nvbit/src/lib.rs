#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # nvbit — a dynamic binary-instrumentation framework (NVBit analog)
//!
//! The paper's NVBitFI is "a module built using the NVBit dynamic binary
//! instrumentation framework" (§III-C). This crate reproduces the NVBit
//! contract on top of [`gpu_runtime`]:
//!
//! * **instruction inspection** — [`InstrView`] exposes opcode, operand, and
//!   destination queries over *decoded binaries* (never source),
//! * **`insert_call`** — [`Inserter::insert_call`] attaches device callbacks
//!   (with constant bound arguments) before/after any instruction,
//! * **JIT-and-cache** — the first launch of each static kernel triggers
//!   [`NvBitTool::instrument_kernel`]; the result is cached and reused, and
//!   launches for which [`NvBitTool::launch_enabled`] returns `false` run
//!   the *unmodified* kernel — the selectivity NVBitFI uses to confine
//!   overhead to the one target dynamic kernel,
//! * **driver callbacks** — module-load, launch-complete, and program-exit
//!   events.
//!
//! Fault-injection tools (the profiler and injectors in the `nvbitfi`
//! crate) are written against this API, mirroring how the real NVBitFI is
//! layered on the real NVBit.

mod adapter;
mod insert;
mod instr_view;
pub mod tools;

pub use adapter::{CallSite, NvBit, NvBitStats, NvBitTool};
pub use insert::{CachedInstrumentation, InsertedCall, Inserter, When};
pub use instr_view::InstrView;

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::asm::KernelBuilder;
    use gpu_isa::{encode, Module, Reg, SpecialReg};
    use gpu_runtime::{
        run_program, KernelLaunchInfo, Program, Runtime, RuntimeConfig, RuntimeError,
    };
    use gpu_sim::ThreadCtx;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn module_bytes() -> Vec<u8> {
        let mut k = KernelBuilder::new("work");
        let (out, tid, off) = (Reg(4), Reg(0), Reg(1));
        k.ldc(out, 0);
        k.s2r(tid, SpecialReg::GlobalTidX);
        k.imad(Reg(2), tid, tid, Reg::RZ);
        k.shli(off, tid, 2);
        k.iadd(out, out, off);
        k.stg(out, 0, Reg(2));
        k.exit();
        encode::encode_module(&Module::new("m", vec![k.finish()]))
    }

    /// Launch `work` `n` times.
    struct App {
        n: usize,
    }
    impl Program for App {
        fn name(&self) -> &str {
            "app"
        }
        fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            let m = rt.load_module(&module_bytes())?;
            let k = rt.get_kernel(m, "work")?;
            let out = rt.alloc(32 * 4)?;
            for _ in 0..self.n {
                rt.launch(k, 1u32, 32u32, &[out.addr()])?;
            }
            rt.synchronize()?;
            Ok(())
        }
    }

    /// Counts opcode executions via an inserted call, and can restrict
    /// instrumentation to one dynamic instance.
    struct Counter {
        only_instance: Option<u64>,
        counts: Arc<Mutex<Vec<(String, u64)>>>,
        calls: Arc<Mutex<u64>>,
    }

    impl NvBitTool for Counter {
        fn instrument_kernel(&mut self, kernel: &gpu_isa::Kernel, ins: &mut Inserter<'_>) {
            assert_eq!(kernel.name(), "work");
            ins.insert_call_everywhere(When::After, 0);
        }
        fn launch_enabled(&mut self, info: &KernelLaunchInfo<'_>) -> bool {
            self.only_instance.map(|i| i == info.instance).unwrap_or(true)
        }
        fn device_call(&mut self, site: &CallSite<'_>, _t: &mut ThreadCtx<'_>) {
            *self.calls.lock() += 1;
            self.counts.lock().push((site.instr.opcode_str().to_string(), site.kernel_instance));
        }
    }

    #[test]
    fn jit_once_then_cache() {
        let calls = Arc::new(Mutex::new(0));
        let counts = Arc::new(Mutex::new(Vec::new()));
        let tool = NvBit::new(Counter {
            only_instance: None,
            counts: Arc::clone(&counts),
            calls: Arc::clone(&calls),
        });
        let stats = tool.stats_handle();
        let out = run_program(&App { n: 5 }, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let s = *stats.lock();
        assert_eq!(s.kernels_instrumented, 1, "one JIT compile for 5 launches");
        assert_eq!(s.cache_hits, 4);
        assert_eq!(s.launches_instrumented, 5);
        // 7 instructions × 32 threads × 5 launches
        assert_eq!(s.device_calls, 7 * 32 * 5);
        assert_eq!(*calls.lock(), 7 * 32 * 5);
    }

    #[test]
    fn selective_instance_runs_others_unmodified() {
        let calls = Arc::new(Mutex::new(0));
        let counts = Arc::new(Mutex::new(Vec::new()));
        let tool = NvBit::new(Counter {
            only_instance: Some(3),
            counts: Arc::clone(&counts),
            calls: Arc::clone(&calls),
        });
        let stats = tool.stats_handle();
        let out = run_program(&App { n: 5 }, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let s = *stats.lock();
        assert_eq!(s.launches_instrumented, 1);
        assert_eq!(s.launches_unmodified, 4);
        assert_eq!(s.device_calls, 7 * 32, "only the target instance pays");
        // Every recorded call came from instance 3.
        assert!(counts.lock().iter().all(|(_, inst)| *inst == 3));
    }

    #[test]
    fn callback_args_are_delivered() {
        type SeenCalls = Arc<Mutex<Vec<(u32, Vec<u64>)>>>;
        struct ArgTool {
            seen: SeenCalls,
        }
        impl NvBitTool for ArgTool {
            fn instrument_kernel(&mut self, _k: &gpu_isa::Kernel, ins: &mut Inserter<'_>) {
                ins.insert_call(2, When::Before, 11, vec![0xAA, 0xBB]);
                ins.insert_call(2, When::After, 22, vec![0xCC]);
            }
            fn device_call(&mut self, site: &CallSite<'_>, _t: &mut ThreadCtx<'_>) {
                self.seen.lock().push((site.call.id, site.call.args.clone()));
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let tool = NvBit::new(ArgTool { seen: Arc::clone(&seen) });
        let out = run_program(&App { n: 1 }, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let seen = seen.lock();
        // 32 threads × 2 calls each.
        assert_eq!(seen.len(), 64);
        assert!(seen.iter().any(|(id, args)| *id == 11 && args == &[0xAA, 0xBB]));
        assert!(seen.iter().any(|(id, args)| *id == 22 && args == &[0xCC]));
    }

    #[test]
    fn empty_instrumentation_is_never_enabled() {
        struct NullTool;
        impl NvBitTool for NullTool {
            fn device_call(&mut self, _s: &CallSite<'_>, _t: &mut ThreadCtx<'_>) {
                panic!("no calls were inserted");
            }
        }
        let tool = NvBit::new(NullTool);
        let stats = tool.stats_handle();
        let out = run_program(&App { n: 3 }, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let s = *stats.lock();
        assert_eq!(s.launches_unmodified, 3);
        assert_eq!(s.launches_instrumented, 0);
        assert_eq!(s.device_calls, 0);
    }
}
