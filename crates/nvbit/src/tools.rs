//! A ready-made instrumentation tool: `mem_trace`, the analog of the
//! memory-trace example the real NVBit distribution ships. Its siblings
//! `instr_count` and `opcode_hist` need no tool here: every golden run
//! already counts each opcode of each launch (`nvbitfi trace` reads them
//! from `nvbitfi::PreparedGolden::profile`), while access addresses are
//! not in the golden ledger and still take an instrumented run.
//!
//! The tool follows the same pattern as the fault injectors: construct via
//! `new`, attach the returned [`NvBit`] adapter to a runtime, and read the
//! results through the returned handle after the run.

use crate::adapter::{CallSite, NvBit, NvBitTool};
use crate::insert::{Inserter, When};
use gpu_isa::{Kernel, Opcode};
use parking_lot::Mutex;
use std::sync::Arc;

/// One record from the `mem_trace` tool: a device memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// The accessing opcode.
    pub opcode: Opcode,
    /// Program counter of the access.
    pub pc: u32,
    /// Effective byte address.
    pub addr: u32,
    /// Global thread id of the accessing thread.
    pub global_tid: u64,
    /// `true` for loads/atomics, `false` for stores.
    pub is_read: bool,
}

/// Handle to read the memory trace after the run.
#[derive(Debug, Clone)]
pub struct MemTraceHandle(Arc<Mutex<Vec<MemAccess>>>);

impl MemTraceHandle {
    /// Snapshot the trace (in deterministic execution order).
    pub fn get(&self) -> Vec<MemAccess> {
        self.0.lock().clone()
    }
}

/// The `mem_trace` tool: records the effective address of every global,
/// shared, local, and constant access (before the instruction executes,
/// like NVBit's `mem_trace` computing addresses from register values).
pub struct MemTracer {
    trace: Arc<Mutex<Vec<MemAccess>>>,
    limit: usize,
}

impl MemTracer {
    /// Create the tool, keeping at most `limit` records (traces grow fast).
    pub fn new(limit: usize) -> (NvBit<MemTracer>, MemTraceHandle) {
        let trace = Arc::new(Mutex::new(Vec::new()));
        (NvBit::new(MemTracer { trace: Arc::clone(&trace), limit }), MemTraceHandle(trace))
    }
}

impl NvBitTool for MemTracer {
    fn instrument_kernel(&mut self, kernel: &Kernel, inserter: &mut Inserter<'_>) {
        for (pc, instr) in kernel.instrs().iter().enumerate() {
            if instr.mem_ref().is_some() {
                // Bind the signed offset as a constant call argument, the
                // way NVBit tools pass immutable operand facts to device
                // code.
                let off = instr.mem_ref().expect("checked").offset;
                inserter.insert_call(pc, When::Before, 0, vec![off as i64 as u64]);
            }
        }
    }

    fn device_call(&mut self, site: &CallSite<'_>, thread: &mut gpu_sim::ThreadCtx<'_>) {
        let mut trace = self.trace.lock();
        if trace.len() >= self.limit {
            return;
        }
        let Some(m) = site.instr.instr().mem_ref() else {
            return;
        };
        let offset = site.call.args[0] as i64 as i32;
        let addr = thread.read_reg(m.base).wrapping_add(offset as u32);
        trace.push(MemAccess {
            opcode: site.instr.opcode(),
            pc: site.instr.pc(),
            addr,
            global_tid: thread.meta.global_tid(),
            is_read: site.instr.is_load(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::asm::KernelBuilder;
    use gpu_isa::{encode, Module, Reg, SpecialReg};
    use gpu_runtime::{run_program, Program, Runtime, RuntimeConfig, RuntimeError};

    /// out[tid] = in[tid] * in[tid], 2 launches of 32 threads.
    struct App;
    impl Program for App {
        fn name(&self) -> &str {
            "app"
        }
        fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            let mut k = KernelBuilder::new("square");
            let (out, inp, tid, off) = (Reg(4), Reg(5), Reg(0), Reg(1));
            k.ldc(out, 0);
            k.ldc(inp, 4);
            k.s2r(tid, SpecialReg::TidX);
            k.shli(off, tid, 2);
            k.iadd(out, out, off);
            k.iadd(inp, inp, off);
            k.ldg(Reg(2), inp, 0);
            k.fmul(Reg(2), Reg(2), Reg(2));
            k.stg(out, 0, Reg(2));
            k.exit();
            let bytes = encode::encode_module(&Module::new("m", vec![k.finish()]));
            let m = rt.load_module(&bytes)?;
            let k = rt.get_kernel(m, "square")?;
            let a = rt.alloc(32 * 4)?;
            let b = rt.alloc(32 * 4)?;
            rt.write_f32s(b, &[2.0; 32])?;
            for _ in 0..2 {
                rt.launch(k, 1u32, 32u32, &[a.addr(), b.addr()])?;
            }
            rt.synchronize()?;
            Ok(())
        }
    }

    #[test]
    fn mem_trace_records_addresses_and_directions() {
        let (tool, handle) = MemTracer::new(10_000);
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let trace = handle.get();
        // Per launch: 2 LDC + 1 LDG + 1 STG per thread.
        assert_eq!(trace.len(), 4 * 32 * 2);
        let reads = trace.iter().filter(|a| a.is_read).count();
        assert_eq!(reads, 3 * 32 * 2, "LDC and LDG are reads");
        // Consecutive threads' LDG addresses are 4 bytes apart.
        let ldg: Vec<_> = trace.iter().filter(|a| a.opcode == Opcode::LDG).collect();
        for pair in ldg.windows(2) {
            if pair[1].global_tid == pair[0].global_tid + 1 {
                assert_eq!(pair[1].addr, pair[0].addr + 4);
            }
        }
    }

    #[test]
    fn mem_trace_respects_limit() {
        let (tool, handle) = MemTracer::new(7);
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        assert_eq!(handle.get().len(), 7);
    }
}
