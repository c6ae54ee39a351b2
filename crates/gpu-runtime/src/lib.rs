#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # gpu-runtime — a CUDA-like driver/runtime for the simulated GPU
//!
//! The attach surface NVBitFI-style tools hook into (see `DESIGN.md`). A
//! [`Program`] (host application) loads *binary* kernel modules, allocates
//! device memory, and launches kernels; a [`Tool`] attached with
//! [`Runtime::attach_tool`] — the `LD_PRELOAD` analog — transparently
//! observes module loads and kernel launches and can instrument instructions
//! with register-level callbacks.
//!
//! The runtime reproduces the CUDA error semantics the paper's outcome
//! taxonomy (Table V) depends on:
//!
//! * a kernel trap (illegal address, misalignment, …) latches a **sticky
//!   error** and silently skips subsequent launches; whether the process
//!   notices depends on whether host code calls [`Runtime::last_error`] or
//!   [`Runtime::synchronize`] — unchecked anomalies become *potential DUEs*,
//! * a hang (instruction-budget timeout) is fatal: the monitor kills the
//!   run ([`RuntimeError::Hang`], [`Termination::Hang`]),
//! * everything a checker script could look at — stdout, output files, exit
//!   status, anomaly log — is captured in [`ProgramOutput`].

mod checkpoint;
mod error;
mod program;
mod runtime;
mod tool;

pub use checkpoint::{Checkpoint, CheckpointStore, LaunchCapture, TailReplay};
pub use error::{KernelFault, RuntimeError};
pub use program::{
    run_program, run_program_fast_forward, run_program_golden, GoldenCapture, Program,
    ProgramOutput, Termination,
};
pub use runtime::{
    KernelHandle, ModuleId, Runtime, RuntimeConfig, MAX_OUTPUT_BYTES, OUTPUT_TRUNCATED_MARKER,
};
pub use tool::{InstrMasks, KernelLaunchInfo, LaunchRecord, RunSummary, Tool};

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::asm::KernelBuilder;
    use gpu_isa::{encode, Module, Reg, SpecialReg};
    use gpu_sim::{Dim3, ExecHook, InstrSite, ThreadCtx};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Module with two kernels: `square` (out[i] = i*i) and `wild`
    /// (out-of-bounds store).
    fn test_module_bytes() -> Vec<u8> {
        let mut sq = KernelBuilder::new("square");
        let (out, tid, off) = (Reg(4), Reg(0), Reg(1));
        sq.ldc(out, 0);
        sq.s2r(tid, SpecialReg::GlobalTidX);
        sq.imad(Reg(2), tid, tid, Reg::RZ);
        sq.shli(off, tid, 2);
        sq.iadd(out, out, off);
        sq.stg(out, 0, Reg(2));
        sq.exit();

        let mut wild = KernelBuilder::new("wild");
        wild.movi(Reg(4), 0xDEAD_0000);
        wild.stg(Reg(4), 0, Reg(0));
        wild.exit();

        let mut spin = KernelBuilder::new("spin");
        let top = spin.new_label();
        spin.bind(top);
        spin.bra(top);
        spin.exit();

        encode::encode_module(&Module::new(
            "testmod",
            vec![sq.finish(), wild.finish(), spin.finish()],
        ))
    }

    fn small_cfg() -> RuntimeConfig {
        RuntimeConfig { instr_budget: Some(100_000), ..Default::default() }
    }

    #[test]
    fn load_launch_and_read_back() {
        let mut rt = Runtime::new(small_cfg());
        let m = rt.load_module(&test_module_bytes()).expect("load");
        let k = rt.get_kernel(m, "square").expect("kernel");
        let out = rt.alloc(64 * 4).expect("alloc");
        rt.launch(k, 2u32, 32u32, &[out.addr()]).expect("launch");
        rt.synchronize().expect("sync");
        let v = rt.read_u32s(out, 64).expect("read");
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, (i * i) as u32, "element {i}");
        }
    }

    #[test]
    fn module_load_rejects_garbage() {
        let mut rt = Runtime::new(small_cfg());
        assert!(matches!(rt.load_module(b"nonsense"), Err(RuntimeError::ModuleLoad(_))));
    }

    #[test]
    fn kernel_lookup_errors() {
        let mut rt = Runtime::new(small_cfg());
        let m = rt.load_module(&test_module_bytes()).expect("load");
        assert!(matches!(rt.get_kernel(m, "missing"), Err(RuntimeError::KernelNotFound { .. })));
    }

    #[test]
    fn sticky_error_skips_later_launches_until_checked() {
        let mut rt = Runtime::new(small_cfg());
        let m = rt.load_module(&test_module_bytes()).expect("load");
        let wild = rt.get_kernel(m, "wild").expect("kernel");
        let square = rt.get_kernel(m, "square").expect("kernel");
        let out = rt.alloc(64 * 4).expect("alloc");

        // The faulting launch itself returns Ok — the error is latched.
        rt.launch(wild, 1u32, 1u32, &[]).expect("launch returns ok");
        assert!(rt.synchronize().is_err());
        assert_eq!(rt.anomalies().len(), 1);

        // Subsequent launches are skipped while the error is latched.
        rt.launch(square, 2u32, 32u32, &[out.addr()]).expect("skipped ok");
        assert!(rt.records().last().expect("record").skipped);
        assert_eq!(rt.read_u32s(out, 4).expect("read"), vec![0, 0, 0, 0]);

        // cudaGetLastError-style check clears it.
        let fault = rt.last_error().expect("fault");
        assert!(fault.info.kernel.contains("wild"));
        assert!(rt.last_error().is_none(), "peek-and-clear");
        rt.synchronize().expect("clean after clear");

        // And the context works again.
        rt.launch(square, 2u32, 32u32, &[out.addr()]).expect("launch");
        assert_eq!(rt.read_u32s(out, 2).expect("read"), vec![0, 1]);
    }

    #[test]
    fn hang_is_fatal() {
        let mut rt = Runtime::new(small_cfg());
        let m = rt.load_module(&test_module_bytes()).expect("load");
        let spin = rt.get_kernel(m, "spin").expect("kernel");
        let err = rt.launch(spin, 1u32, 32u32, &[]).unwrap_err();
        assert!(matches!(err, RuntimeError::Hang(_)));
        assert!(rt.anomalies().iter().any(|a| a.kind.is_hang()));
    }

    #[test]
    fn dynamic_instance_counting_is_per_name() {
        let mut rt = Runtime::new(small_cfg());
        let m = rt.load_module(&test_module_bytes()).expect("load");
        let k = rt.get_kernel(m, "square").expect("kernel");
        let out = rt.alloc(256).expect("alloc");
        for _ in 0..3 {
            rt.launch(k, 1u32, 32u32, &[out.addr()]).expect("launch");
        }
        let instances: Vec<u64> = rt.records().iter().map(|r| r.instance).collect();
        assert_eq!(instances, vec![0, 1, 2]);
    }

    #[test]
    fn stdout_and_files_are_captured() {
        struct Hello;
        impl Program for Hello {
            fn name(&self) -> &str {
                "hello"
            }
            fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
                rt.println("hello world");
                rt.write_file("out.dat", vec![1, 2, 3]);
                Ok(())
            }
        }
        let out = run_program(&Hello, small_cfg(), None);
        assert_eq!(out.stdout, "hello world\n");
        assert_eq!(out.files["out.dat"], vec![1, 2, 3]);
        assert!(out.termination.is_clean());
        assert!(!out.has_anomaly());
    }

    #[test]
    fn failing_program_exits_nonzero() {
        struct Bad;
        impl Program for Bad {
            fn name(&self) -> &str {
                "bad"
            }
            fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
                let m = rt.load_module(&test_module_bytes())?;
                let wild = rt.get_kernel(m, "wild")?;
                rt.launch(wild, 1u32, 1u32, &[])?;
                rt.synchronize()?; // the app checks → detected
                Ok(())
            }
        }
        let out = run_program(&Bad, small_cfg(), None);
        assert_eq!(out.termination, Termination::Normal { exit_code: 1 });
        assert!(out.has_anomaly());
    }

    #[test]
    fn deadline_kills_run_without_anomaly() {
        struct Spin;
        impl Program for Spin {
            fn name(&self) -> &str {
                "spin"
            }
            fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
                let m = rt.load_module(&test_module_bytes())?;
                let spin = rt.get_kernel(m, "spin")?;
                rt.launch(spin, 1u32, 32u32, &[])?;
                Ok(())
            }
        }
        // Budget high enough that the hang monitor never fires; the
        // wall-clock deadline must kill the run instead.
        let cfg = RuntimeConfig {
            instr_budget: Some(u64::MAX),
            wall_deadline: Some(std::time::Duration::from_millis(20)),
        };
        let out = run_program(&Spin, cfg, None);
        assert_eq!(out.termination, Termination::DeadlineExceeded);
        assert!(!out.has_anomaly(), "deadline is a harness verdict, not a device anomaly");

        // An already-expired deadline trips at launch entry, before any
        // instruction executes.
        let cfg =
            RuntimeConfig { wall_deadline: Some(std::time::Duration::ZERO), ..Default::default() };
        let out = run_program(&Spin, cfg, None);
        assert_eq!(out.termination, Termination::DeadlineExceeded);
        assert_eq!(out.summary.dyn_instrs, 0);
    }

    #[test]
    fn governor_alloc_cap_terminates_as_crash() {
        // A fault-corrupted allocation size: the governor must kill the run
        // (Termination::Crash), not bubble up a host allocation failure.
        // 49 MiB passes the 48 MiB cap.
        struct Alloc(u32);
        impl Program for Alloc {
            fn name(&self) -> &str {
                "alloc"
            }
            fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
                rt.alloc(self.0)?;
                Ok(())
            }
        }
        const { assert!(gpu_sim::MAX_GLOBAL_BYTES < 49 << 20) };
        let out = run_program(&Alloc(49 << 20), RuntimeConfig::default(), None);
        assert_eq!(out.termination, Termination::Crash);
        assert!(out.has_anomaly(), "governor kill is recorded in the trap log");

        // An allocation within the cap is unremarkable.
        let out = run_program(&Alloc(1 << 20), RuntimeConfig::default(), None);
        assert_eq!(out.termination, Termination::Normal { exit_code: 0 });
    }

    #[test]
    fn governor_truncates_runaway_output() {
        // A fault-corrupted print-loop bound: capture stops at the 16 MiB
        // cap with an explicit marker instead of growing without bound.
        struct Chatty(usize);
        impl Program for Chatty {
            fn name(&self) -> &str {
                "chatty"
            }
            fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
                let line = "x".repeat(1023);
                for _ in 0..self.0 {
                    rt.println(&line);
                }
                rt.write_file("out.dat", vec![7u8; 4096]);
                Ok(())
            }
        }
        let cap = MAX_OUTPUT_BYTES;
        assert_eq!(cap, 16 << 20);
        // 17 Ki lines of 1 KiB: more than 16 MiB of stdout.
        let out = run_program(&Chatty(17 << 10), RuntimeConfig::default(), None);
        assert!(out.stdout.len() as u64 <= cap + 1024, "stdout capped near the limit");
        assert!(out.stdout.ends_with(&format!("{OUTPUT_TRUNCATED_MARKER}\n")));
        assert_eq!(out.stdout.matches(OUTPUT_TRUNCATED_MARKER).count(), 1, "marker once");
        assert_eq!(out.termination, Termination::Normal { exit_code: 0 }, "truncation never traps");
        assert!(out.files.get("out.dat").is_none_or(|f| f.len() < 4096));

        let out = run_program(&Chatty(1000), RuntimeConfig::default(), None);
        assert!(!out.stdout.contains(OUTPUT_TRUNCATED_MARKER));
        assert_eq!(out.files["out.dat"].len(), 4096);
    }

    #[test]
    fn governor_charges_a_rewritten_file_once() {
        // Rewriting one 1 MiB file 17 times holds 1 MiB of output, not the
        // 17 MiB the writes add up to, so nothing is truncated.
        struct Rewrite;
        impl Program for Rewrite {
            fn name(&self) -> &str {
                "rewrite"
            }
            fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
                for i in 0..17u8 {
                    rt.write_file("out.dat", vec![i; 1 << 20]);
                }
                rt.println("done");
                Ok(())
            }
        }
        let out = run_program(&Rewrite, RuntimeConfig::default(), None);
        assert_eq!(out.files["out.dat"], vec![16u8; 1 << 20]);
        assert_eq!(out.stdout, "done\n", "no truncation marker");
    }

    #[test]
    fn hanging_program_terminates_as_hang() {
        struct Spin;
        impl Program for Spin {
            fn name(&self) -> &str {
                "spin"
            }
            fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
                let m = rt.load_module(&test_module_bytes())?;
                let spin = rt.get_kernel(m, "spin")?;
                rt.launch(spin, 1u32, 32u32, &[])?;
                Ok(())
            }
        }
        let out = run_program(&Spin, small_cfg(), None);
        assert_eq!(out.termination, Termination::Hang);
    }

    /// Three launches of `square` at different offsets, with a device
    /// read-back (and stdout trace) between launches — host behaviour that
    /// depends on device memory contents at every step.
    struct Chain;
    impl Program for Chain {
        fn name(&self) -> &str {
            "chain"
        }
        fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            let m = rt.load_module(&test_module_bytes())?;
            let k = rt.get_kernel(m, "square")?;
            let out = rt.alloc(3 * 64 * 4)?;
            for i in 0..3u32 {
                let slice = out.offset(i * 64 * 4);
                rt.launch(k, 2u32, 32u32, &[slice.addr()])?;
                let v = rt.read_u32s(slice, 64)?;
                rt.println(format!("launch {i}: sum {}", v.iter().sum::<u32>()));
            }
            rt.synchronize()?;
            Ok(())
        }
    }

    #[test]
    fn fast_forward_reproduces_the_full_run() {
        let (golden, capture) = run_program_golden(&Chain, small_cfg(), true);
        let store = capture.ledger;
        assert!(golden.termination.is_clean());
        assert_eq!(store.len(), 3);
        assert_eq!(golden.prefix_instrs_skipped, 0);
        let store = store.into_shared();

        for upto in 0..=3u64 {
            let out = run_program_fast_forward(&Chain, small_cfg(), None, Arc::clone(&store), upto);
            assert_eq!(out.stdout, golden.stdout, "fast-forward to {upto}");
            assert_eq!(out.files, golden.files, "fast-forward to {upto}");
            assert_eq!(out.summary, golden.summary, "fast-forward to {upto}");
            assert_eq!(
                out.prefix_instrs_skipped,
                store.instrs_before(upto),
                "fast-forward to {upto} skipped exactly the prefix"
            );
            if upto > 0 {
                assert!(out.prefix_instrs_skipped > 0);
            }
        }
    }

    #[test]
    fn replay_stops_at_the_first_instrumented_launch() {
        /// Instruments only instance 1 of every kernel, counting callbacks.
        struct SecondLaunch(Arc<AtomicU64>);
        impl ExecHook for SecondLaunch {
            fn after(&mut self, _t: &mut ThreadCtx<'_>, _s: InstrSite<'_>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        impl Tool for SecondLaunch {
            fn instrument(&mut self, info: &KernelLaunchInfo<'_>) -> Option<InstrMasks> {
                (info.instance == 1).then(|| InstrMasks::all_after(info.kernel.len()))
            }
        }

        let (golden, capture) = run_program_golden(&Chain, small_cfg(), true);
        let store = capture.ledger.into_shared();
        let calls = Arc::new(AtomicU64::new(0));
        let tool = Box::new(SecondLaunch(Arc::clone(&calls)));
        let out = run_program_fast_forward(&Chain, small_cfg(), Some(tool), Arc::clone(&store), 3);
        assert_eq!(out.stdout, golden.stdout);
        assert_eq!(out.files, golden.files);
        assert_eq!(out.summary.dyn_instrs, golden.summary.dyn_instrs);
        // Launch 0 replays as the prefix; launch 1 simulates under
        // instrumentation; launch 2, which the tool declines, reads no
        // global memory, so it replays as the tail.
        assert_eq!(calls.load(Ordering::Relaxed), 7 * 64, "only launch 1 is instrumented");
        assert_eq!(out.prefix_instrs_skipped, store.instrs_before(1));
        let last = golden.summary.launches[2].stats.dyn_instrs;
        assert_eq!(out.tail_replayed, TailReplay { launches: 1, instrs: last });
    }

    #[test]
    fn golden_run_counts_opcodes_per_launch() {
        for record in [false, true] {
            let (out, capture) = run_program_golden(&Chain, small_cfg(), record);
            assert!(out.termination.is_clean());
            assert_eq!(capture.modules.len(), 1);
            let ledger = capture.ledger;
            assert_eq!(ledger.len(), out.summary.launches.len());
            for (entry, launch) in ledger.iter().zip(&out.summary.launches) {
                assert_eq!(&entry.record, launch);
                assert!(entry.opcodes.iter().all(|&(_, n)| n > 0), "only nonzero counts are kept");
                let total: u64 = entry.opcodes.iter().map(|&(_, n)| n).sum();
                assert_eq!(total, launch.stats.dyn_instrs);
                let Some(c) = &entry.capture else {
                    assert!(!record, "a memory-recording run captures every launch");
                    continue;
                };
                assert!(record, "captures only when memory is recorded");
                assert_eq!((c.grid, c.block), (Dim3::from(2), Dim3::from(32)));
                assert_eq!(c.allocated, 3 * 64 * 4);
                assert!(c.inputs.set().is_empty(), "`square` reads no global memory");
                // Each launch writes its own 64-word slice.
                let slice = c.params[0];
                assert_eq!(c.outputs.set().ranges(), std::slice::from_ref(&(slice..slice + 256)));
            }
        }
    }

    /// A tool that counts module loads, instruments every instruction of
    /// every kernel, and tallies device callbacks.
    struct CountingTool {
        loads: u64,
        device_calls: Arc<AtomicU64>,
        launches_seen: u64,
        exit_seen: bool,
    }

    impl ExecHook for CountingTool {
        fn after(&mut self, _t: &mut ThreadCtx<'_>, _s: InstrSite<'_>) {
            self.device_calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Tool for CountingTool {
        fn on_module_load(&mut self, _m: &Module) {
            self.loads += 1;
        }
        fn instrument(&mut self, info: &KernelLaunchInfo<'_>) -> Option<InstrMasks> {
            Some(InstrMasks::all_after(info.kernel.len()))
        }
        fn after_launch(&mut self, _r: &LaunchRecord) {
            self.launches_seen += 1;
        }
        fn on_exit(&mut self, _s: &RunSummary) {
            self.exit_seen = true;
        }
    }

    #[test]
    fn tool_sees_all_events_and_every_dynamic_instruction() {
        struct App;
        impl Program for App {
            fn name(&self) -> &str {
                "app"
            }
            fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
                let m = rt.load_module(&test_module_bytes())?;
                let k = rt.get_kernel(m, "square")?;
                let out = rt.alloc(64 * 4)?;
                rt.launch(k, 2u32, 32u32, &[out.addr()])?;
                rt.synchronize()?;
                Ok(())
            }
        }
        let calls = Arc::new(AtomicU64::new(0));
        let tool = CountingTool {
            loads: 0,
            device_calls: Arc::clone(&calls),
            launches_seen: 0,
            exit_seen: false,
        };
        let out = run_program(&App, small_cfg(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        // 7 instructions × 64 threads.
        assert_eq!(calls.load(Ordering::Relaxed), 7 * 64);
        assert_eq!(out.summary.dyn_instrs, 7 * 64);
        // The program's own behaviour is unchanged by the tool.
        assert_eq!(out.summary.launches.len(), 1);
    }
}
