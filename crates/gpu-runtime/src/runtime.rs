//! The runtime: module loading, launches, memory, and sticky errors.

use crate::checkpoint::{Checkpoint, CheckpointStore, FastForward};
use crate::error::{KernelFault, RuntimeError};
use crate::tool::{InstrMasks, KernelLaunchInfo, LaunchRecord, RunSummary, Tool};
use gpu_isa::{encode, Module};
use gpu_sim::{
    DevPtr, Dim3, GlobalMem, Gpu, GpuConfig, Instrumentation, Launch, MemError, ResourceLimits,
    SimError, TrapInfo, TrapKind,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Simulated device configuration.
    pub gpu: GpuConfig,
    /// Device global-memory capacity in bytes.
    pub mem_bytes: u32,
    /// Per-launch dynamic-instruction budget (the hang monitor threshold).
    /// `None` uses the device default.
    pub instr_budget: Option<u64>,
    /// Wall-clock deadline for the whole run, measured from
    /// [`Runtime::new`]. Passing it kills the run with
    /// [`crate::Termination::DeadlineExceeded`] — an infrastructure verdict
    /// (the harness gave up), distinct from the hang monitor's DUE. `None`
    /// (the default) disables the deadline.
    pub wall_deadline: Option<std::time::Duration>,
    /// Resource-governor caps enforced on every run: global allocations,
    /// per-kernel static shared memory, and captured output. Breaching a
    /// memory cap kills the run with [`crate::RuntimeError::ResourceLimit`]
    /// (classified as an OS-detected crash); breaching the output cap
    /// truncates capture with [`OUTPUT_TRUNCATED_MARKER`]. Defaults are far
    /// above any golden run's usage, so only fault-corrupted executions can
    /// trip them.
    pub limits: ResourceLimits,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            gpu: GpuConfig::default(),
            mem_bytes: 64 << 20,
            instr_budget: None,
            wall_deadline: None,
            limits: ResourceLimits::default(),
        }
    }
}

/// Line appended to captured stdout when the resource governor truncates
/// runaway output (e.g. a fault-corrupted loop bound printing forever).
pub const OUTPUT_TRUNCATED_MARKER: &str = "[output truncated: resource governor cap reached]";

/// Handle to a loaded module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModuleId(usize);

/// Handle to a kernel within a loaded module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelHandle {
    module: usize,
    kernel: usize,
}

/// The process-level runtime a GPU program runs against.
///
/// Mirrors the CUDA runtime surface the paper's usage model depends on:
/// binary module loading (no source), synchronous kernel launches with
/// per-name dynamic-instance counting, `cudaGetLastError`-style sticky
/// errors, and a tool attach point ([`Runtime::attach_tool`]) that is
/// invisible to the program.
pub struct Runtime {
    cfg: RuntimeConfig,
    gpu: Gpu,
    mem: GlobalMem,
    modules: Vec<Arc<Module>>,
    tool: Option<Box<dyn Tool>>,
    sticky: Option<KernelFault>,
    anomalies: Vec<TrapInfo>,
    launch_counts: HashMap<String, u64>,
    records: Vec<LaunchRecord>,
    stdout: String,
    files: BTreeMap<String, Vec<u8>>,
    hang: Option<TrapInfo>,
    checkpoint_log: Option<CheckpointStore>,
    fast_forward: Option<FastForward>,
    output_bytes: u64,
    output_truncated: bool,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("modules", &self.modules.len())
            .field("launches", &self.records.len())
            .field("tool_attached", &self.tool.is_some())
            .field("sticky", &self.sticky)
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Create a runtime with the given configuration.
    pub fn new(cfg: RuntimeConfig) -> Runtime {
        let mut gpu = Gpu::new(cfg.gpu);
        gpu.set_deadline(cfg.wall_deadline.map(|d| std::time::Instant::now() + d));
        gpu.set_limits(Some(cfg.limits));
        let mut mem = GlobalMem::new(cfg.mem_bytes);
        mem.set_alloc_limit(Some(cfg.limits.max_global_bytes));
        Runtime {
            gpu,
            mem,
            cfg,
            modules: Vec::new(),
            tool: None,
            sticky: None,
            anomalies: Vec::new(),
            launch_counts: HashMap::new(),
            records: Vec::new(),
            stdout: String::new(),
            files: BTreeMap::new(),
            hang: None,
            checkpoint_log: None,
            fast_forward: None,
            output_bytes: 0,
            output_truncated: false,
        }
    }

    // --- checkpointing -----------------------------------------------------

    /// Record a [`Checkpoint`] at every launch boundary (how the golden run
    /// populates the store injection runs fast-forward from). Collect the
    /// result with [`Runtime::take_checkpoints`].
    pub fn record_checkpoints(&mut self) {
        self.checkpoint_log = Some(CheckpointStore::new());
    }

    /// Detach and return the checkpoints recorded so far, disabling further
    /// recording. `None` if recording was never enabled.
    pub fn take_checkpoints(&mut self) -> Option<CheckpointStore> {
        self.checkpoint_log.take()
    }

    /// Replay launches below global index `upto` from a golden checkpoint
    /// store instead of simulating them.
    ///
    /// The host application still runs in full (its allocations, copies, and
    /// device reads behave exactly as in the golden run, because each
    /// replayed launch restores the recorded post-launch memory image), but
    /// each launch of the pre-injection kernel prefix costs one copy of the
    /// allocated bytes instead of a full simulation. Launches at or beyond
    /// `upto` — the injection target and its tail — simulate normally.
    ///
    /// If the observed launch sequence ever diverges from the recorded one
    /// (it cannot before an injection fires, but this is checked), the
    /// runtime falls back to full simulation from that point on.
    pub fn fast_forward(&mut self, store: Arc<CheckpointStore>, upto: u64) {
        self.fast_forward = Some(FastForward { store, upto, skipped_instrs: 0 });
    }

    /// Dynamic instructions skipped by checkpoint replay this run.
    pub fn prefix_instrs_skipped(&self) -> u64 {
        self.fast_forward.as_ref().map_or(0, |ff| ff.skipped_instrs)
    }

    /// Attach a tool (the `LD_PRELOAD=tool.so` analog). At most one tool can
    /// be attached; attaching replaces any previous tool.
    pub fn attach_tool(&mut self, tool: Box<dyn Tool>) {
        self.tool = Some(tool);
    }

    /// `true` if a tool is attached.
    pub fn tool_attached(&self) -> bool {
        self.tool.is_some()
    }

    // --- modules -----------------------------------------------------------

    /// Load a module from its binary encoding (the `cubin` analog).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ModuleLoad`] if the binary does not decode.
    pub fn load_module(&mut self, bytes: &[u8]) -> Result<ModuleId, RuntimeError> {
        let module = Arc::new(encode::decode_module(bytes)?);
        if let Some(tool) = self.tool.as_deref_mut() {
            tool.on_module_load(&module);
        }
        self.modules.push(module);
        Ok(ModuleId(self.modules.len() - 1))
    }

    /// Look up a kernel by name in a loaded module.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadHandle`] for a stale module id and
    /// [`RuntimeError::KernelNotFound`] if the name is absent.
    pub fn get_kernel(&self, module: ModuleId, name: &str) -> Result<KernelHandle, RuntimeError> {
        let m = self.modules.get(module.0).ok_or(RuntimeError::BadHandle)?;
        let kernel = m
            .kernels()
            .iter()
            .position(|k| k.name() == name)
            .ok_or_else(|| RuntimeError::KernelNotFound { name: name.to_string() })?;
        Ok(KernelHandle { module: module.0, kernel })
    }

    // --- memory ---------------------------------------------------------------

    /// Allocate device memory (`cudaMalloc`).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ResourceLimit`] when the governor's
    /// allocation cap is breached (a fault-corrupted allocation size — the
    /// run is killed like a sandboxed OOM), or [`RuntimeError::Mem`] when
    /// device memory is genuinely exhausted.
    pub fn alloc(&mut self, bytes: u32) -> Result<DevPtr, RuntimeError> {
        match self.mem.alloc(bytes) {
            Err(MemError::LimitExceeded { requested, limit }) => {
                let info = TrapInfo {
                    kind: TrapKind::ResourceLimit {
                        space: gpu_isa::Space::Global,
                        requested,
                        limit,
                    },
                    kernel: "<host-alloc>".to_string(),
                    pc: None,
                    block: None,
                    thread: None,
                };
                // Like the launch-path governor kill: visible in the trap
                // log the way a sandbox OOM-kill is visible in dmesg.
                self.anomalies.push(info.clone());
                Err(RuntimeError::ResourceLimit(info))
            }
            other => Ok(other?),
        }
    }

    /// Host→device copy of `f32`s.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Mem`] for copies touching unallocated memory.
    pub fn write_f32s(&mut self, dst: DevPtr, v: &[f32]) -> Result<(), RuntimeError> {
        Ok(self.mem.write_f32s(dst, v)?)
    }

    /// Device→host copy of `f32`s.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Mem`] for copies touching unallocated memory.
    pub fn read_f32s(&self, src: DevPtr, count: usize) -> Result<Vec<f32>, RuntimeError> {
        Ok(self.mem.read_f32s(src, count)?)
    }

    /// Host→device copy of `f64`s.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Mem`] for copies touching unallocated memory.
    pub fn write_f64s(&mut self, dst: DevPtr, v: &[f64]) -> Result<(), RuntimeError> {
        Ok(self.mem.write_f64s(dst, v)?)
    }

    /// Device→host copy of `f64`s.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Mem`] for copies touching unallocated memory.
    pub fn read_f64s(&self, src: DevPtr, count: usize) -> Result<Vec<f64>, RuntimeError> {
        Ok(self.mem.read_f64s(src, count)?)
    }

    /// Host→device copy of `u32`s.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Mem`] for copies touching unallocated memory.
    pub fn write_u32s(&mut self, dst: DevPtr, v: &[u32]) -> Result<(), RuntimeError> {
        Ok(self.mem.write_u32s(dst, v)?)
    }

    /// Device→host copy of `u32`s.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Mem`] for copies touching unallocated memory.
    pub fn read_u32s(&self, src: DevPtr, count: usize) -> Result<Vec<u32>, RuntimeError> {
        Ok(self.mem.read_u32s(src, count)?)
    }

    // --- launches ----------------------------------------------------------------

    /// Launch a kernel and run it to completion (synchronous).
    ///
    /// If an earlier kernel corrupted the context (sticky error), the launch
    /// is *skipped* and `Ok(())` is returned — just as an unchecked CUDA
    /// launch silently fails; the error is observable via
    /// [`Runtime::last_error`] or [`Runtime::synchronize`].
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::BadHandle`] for stale handles,
    /// * [`RuntimeError::LaunchConfig`] for invalid geometry,
    /// * [`RuntimeError::Hang`] when the hang monitor killed the kernel —
    ///   this one is always fatal to the run.
    pub fn launch(
        &mut self,
        kernel: KernelHandle,
        grid: impl Into<Dim3>,
        block: impl Into<Dim3>,
        params: &[u32],
    ) -> Result<(), RuntimeError> {
        let grid = grid.into();
        let block = block.into();
        let module = Arc::clone(self.modules.get(kernel.module).ok_or(RuntimeError::BadHandle)?);
        let k = module.kernels().get(kernel.kernel).ok_or(RuntimeError::BadHandle)?;

        let instance = {
            let c = self.launch_counts.entry(k.name().to_string()).or_insert(0);
            let i = *c;
            *c += 1;
            i
        };

        if self.sticky.is_some() {
            // Context corrupted: the launch is dropped on the floor.
            let record = LaunchRecord {
                kernel: k.name().to_string(),
                instance,
                stats: Default::default(),
                trap: None,
                skipped: true,
            };
            if let Some(tool) = self.tool.as_deref_mut() {
                tool.after_launch(&record);
            }
            self.log_checkpoint(&record);
            self.records.push(record);
            return Ok(());
        }

        let info = KernelLaunchInfo { kernel: k, instance, grid, block };

        // Pre-injection prefix: replay from the golden checkpoint instead of
        // simulating. The tool still observes the launch (it declines to
        // instrument anything before its target), and memory lands on the
        // exact golden post-launch image.
        let global_idx = self.records.len() as u64;
        if let Some(ff) = &mut self.fast_forward {
            if global_idx < ff.upto {
                match ff.store.get(global_idx) {
                    Some(cp)
                        if cp.record.kernel == k.name()
                            && cp.record.instance == instance
                            && !cp.record.skipped
                            && cp.record.trap.is_none() =>
                    {
                        let record = cp.record.clone();
                        self.mem.restore(&cp.mem);
                        ff.skipped_instrs += record.stats.dyn_instrs;
                        if let Some(tool) = self.tool.as_deref_mut() {
                            // Parity with a full run: the tool is offered the
                            // launch (masks are unused — nothing simulates).
                            let _ = tool.instrument(&info);
                            tool.after_launch(&record);
                        }
                        self.records.push(record);
                        return Ok(());
                    }
                    // Divergence from the recorded sequence (or a recorded
                    // skip): fall back to full simulation from here on.
                    _ => self.fast_forward = None,
                }
            }
        }
        let masks: Option<InstrMasks> = self.tool.as_deref_mut().and_then(|t| t.instrument(&info));

        let launch = Launch { kernel: k, grid, block, params, instr_budget: self.cfg.instr_budget };
        let result = match (&mut self.tool, masks) {
            (Some(tool), Some(m)) => {
                let mut ins = Instrumentation {
                    before_mask: &m.before,
                    after_mask: &m.after,
                    hook: tool.as_mut(),
                    kernel_instance: instance,
                };
                self.gpu.launch(&launch, &mut self.mem, Some(&mut ins))
            }
            _ => self.gpu.launch(&launch, &mut self.mem, None),
        };

        let (stats, trap, fatal) = match result {
            Ok(stats) => (stats, None, None),
            Err(SimError::Trap { info, stats }) => {
                let kind = info.kind;
                if kind.is_deadline() {
                    // Harness verdict, not a device anomaly: the run is
                    // abandoned without polluting the potential-DUE record.
                    (stats, Some(kind), Some(RuntimeError::Deadline(info)))
                } else if kind.is_resource_limit() {
                    // Governor kill: fatal like a hang, but the OS (not the
                    // monitor) observes it — a crash in Table V terms.
                    self.anomalies.push(info.clone());
                    (stats, Some(kind), Some(RuntimeError::ResourceLimit(info)))
                } else {
                    self.anomalies.push(info.clone());
                    if kind.is_hang() {
                        self.hang = Some(info.clone());
                        (stats, Some(kind), Some(RuntimeError::Hang(info)))
                    } else {
                        self.sticky = Some(KernelFault { info });
                        (stats, Some(kind), None)
                    }
                }
            }
            Err(other) => return Err(RuntimeError::LaunchConfig(other.to_string())),
        };

        let record =
            LaunchRecord { kernel: k.name().to_string(), instance, stats, trap, skipped: false };
        if let Some(tool) = self.tool.as_deref_mut() {
            tool.after_launch(&record);
        }
        self.log_checkpoint(&record);
        self.records.push(record);
        match fatal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Capture a launch-boundary checkpoint if recording is enabled.
    fn log_checkpoint(&mut self, record: &LaunchRecord) {
        if let Some(log) = &mut self.checkpoint_log {
            log.push(Checkpoint { mem: self.mem.snapshot(), record: record.clone() });
        }
    }

    // --- error observation -------------------------------------------------------

    /// Peek-and-clear the latched device error (`cudaGetLastError`).
    pub fn last_error(&mut self) -> Option<KernelFault> {
        self.sticky.take()
    }

    /// Check device health without clearing (`cudaDeviceSynchronize`).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Sticky`] if a kernel fault is latched.
    pub fn synchronize(&self) -> Result<(), RuntimeError> {
        match &self.sticky {
            Some(fault) => Err(RuntimeError::Sticky(fault.clone())),
            None => Ok(()),
        }
    }

    /// Like [`Runtime::synchronize`], but for hosts built in the
    /// abort-on-error style (`assert(cudaSuccess)` / `CHECK()` macros that
    /// call `abort()`): a latched fault takes the *process* down, which the
    /// outcome taxonomy records as a crash (OS detection) rather than a
    /// graceful non-zero exit.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::DeviceAbort`] if a kernel fault is latched.
    pub fn synchronize_or_abort(&self) -> Result<(), RuntimeError> {
        match &self.sticky {
            Some(fault) => Err(RuntimeError::DeviceAbort(fault.clone())),
            None => Ok(()),
        }
    }

    /// All device anomalies observed this run, checked by the host or not —
    /// the "CUDA error message / dmesg" record the potential-DUE
    /// classification reads (Table V).
    pub fn anomalies(&self) -> &[TrapInfo] {
        &self.anomalies
    }

    /// The hang that aborted the run, if any.
    pub fn hang(&self) -> Option<&TrapInfo> {
        self.hang.as_ref()
    }

    // --- program-visible output -----------------------------------------------------

    /// Append a line to the program's standard output.
    ///
    /// Once total captured output (stdout plus files) reaches the
    /// governor's [`ResourceLimits::max_output_bytes`] cap, further lines
    /// are dropped and [`OUTPUT_TRUNCATED_MARKER`] is appended exactly once
    /// — runaway fault-induced print loops cannot exhaust host memory.
    pub fn println(&mut self, line: impl AsRef<str>) {
        if self.output_truncated {
            return;
        }
        let line = line.as_ref();
        let n = line.len() as u64 + 1;
        if self.output_bytes + n > self.cfg.limits.max_output_bytes {
            self.mark_output_truncated();
            return;
        }
        self.output_bytes += n;
        self.stdout.push_str(line);
        self.stdout.push('\n');
    }

    fn mark_output_truncated(&mut self) {
        self.output_truncated = true;
        self.stdout.push_str(OUTPUT_TRUNCATED_MARKER);
        self.stdout.push('\n');
    }

    /// `true` if the governor truncated captured output this run.
    pub fn output_truncated(&self) -> bool {
        self.output_truncated
    }

    /// The standard output so far.
    pub fn stdout(&self) -> &str {
        &self.stdout
    }

    /// Write (or overwrite) a named output file.
    ///
    /// Shares the governor's output budget with [`Runtime::println`]: a
    /// file that would push total capture past
    /// [`ResourceLimits::max_output_bytes`] is truncated to the remaining
    /// budget and the stdout marker is appended.
    pub fn write_file(&mut self, name: impl Into<String>, mut bytes: Vec<u8>) {
        if self.output_truncated {
            return;
        }
        let remaining = self.cfg.limits.max_output_bytes.saturating_sub(self.output_bytes);
        if bytes.len() as u64 > remaining {
            bytes.truncate(remaining as usize);
            self.mark_output_truncated();
        }
        self.output_bytes += bytes.len() as u64;
        self.files.insert(name.into(), bytes);
    }

    /// The output files written so far.
    pub fn files(&self) -> &BTreeMap<String, Vec<u8>> {
        &self.files
    }

    // --- teardown ------------------------------------------------------------------

    /// Per-launch records so far.
    pub fn records(&self) -> &[LaunchRecord] {
        &self.records
    }

    /// Summarize the run (also what the tool receives at exit).
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            launches: self.records.clone(),
            dyn_instrs: self.records.iter().map(|r| r.stats.dyn_instrs).sum(),
            cycles: self.records.iter().map(|r| r.stats.cycles).sum(),
        }
    }

    /// Signal process exit to the attached tool and detach it.
    pub fn finish(&mut self) -> RunSummary {
        let summary = self.summary();
        if let Some(mut tool) = self.tool.take() {
            tool.on_exit(&summary);
        }
        summary
    }

    /// Consume the runtime, yielding `(stdout, files, anomalies)`.
    pub fn into_output(self) -> (String, BTreeMap<String, Vec<u8>>, Vec<TrapInfo>) {
        (self.stdout, self.files, self.anomalies)
    }
}
