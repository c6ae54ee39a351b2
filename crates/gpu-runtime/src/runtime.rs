//! The runtime: module loading, launches, memory, and sticky errors.

use crate::checkpoint::{Checkpoint, CheckpointStore, FastForward, LaunchCapture, TailReplay};
use crate::error::{KernelFault, RuntimeError};
use crate::tool::{InstrMasks, KernelLaunchInfo, LaunchRecord, RunSummary, Tool};
use gpu_isa::{encode, Kernel, Module};
use gpu_sim::{
    DevPtr, Dim3, GlobalMem, Gpu, Instrumentation, LaneTable, Launch, LaunchObserver, MemError,
    SetBytes, SimError, TrapInfo, TrapKind,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Runtime configuration: the per-run bounds. The device itself is the
/// simulator's one device ([`gpu_sim::NUM_SMS`] SMs, with the resource
/// governor's caps [`gpu_sim::MAX_GLOBAL_BYTES`],
/// [`gpu_sim::MAX_SHARED_BYTES`] and [`MAX_OUTPUT_BYTES`]).
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// Per-launch dynamic-instruction budget (the hang monitor threshold).
    /// `None` uses [`gpu_sim::DEFAULT_INSTR_BUDGET`].
    pub instr_budget: Option<u64>,
    /// Wall-clock deadline for the whole run, measured from
    /// [`Runtime::new`]. Passing it kills the run with
    /// [`crate::Termination::DeadlineExceeded`] — an infrastructure verdict
    /// (the harness gave up), distinct from the hang monitor's DUE. `None`
    /// (the default) disables the deadline.
    pub wall_deadline: Option<std::time::Duration>,
}

/// Most bytes of captured output (stdout plus output files) per run: the
/// resource governor's output cap. Excess is truncated with
/// [`OUTPUT_TRUNCATED_MARKER`] rather than trapped.
pub const MAX_OUTPUT_BYTES: u64 = 16 << 20;

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
    ledger: Option<Ledger>,
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
    /// Create a runtime on the simulated device with the given bounds.
    ///
    /// The resource governor's caps hold on every run: breaching a memory
    /// cap ([`gpu_sim::MAX_GLOBAL_BYTES`], [`gpu_sim::MAX_SHARED_BYTES`])
    /// kills the run with
    /// [`RuntimeError::ResourceLimit`] (classified as an OS-detected
    /// crash), and breaching the output cap truncates capture with
    /// [`OUTPUT_TRUNCATED_MARKER`]. The caps are far above any golden
    /// run's usage, so only fault-corrupted executions trip them.
    pub fn new(cfg: RuntimeConfig) -> Runtime {
        let mut gpu = Gpu::new();
        gpu.set_deadline(cfg.wall_deadline.map(|d| std::time::Instant::now() + d));
        Runtime {
            gpu,
            mem: GlobalMem::new(),
            cfg,
            modules: Vec::new(),
            tool: None,
            sticky: None,
            anomalies: Vec::new(),
            launch_counts: HashMap::new(),
            records: Vec::new(),
            stdout: String::new(),
            files: BTreeMap::new(),
            ledger: None,
            fast_forward: None,
            output_bytes: 0,
            output_truncated: false,
        }
    }

    // --- checkpointing -----------------------------------------------------

    /// Record the golden ledger: a [`Checkpoint`] per launch, with its
    /// record and executed-opcode counts and, if `memory`, a
    /// [`LaunchCapture`] of its params, geometry, allocated length, and
    /// bytes on its global read set before it and write set after it (what
    /// injection runs replay from); and, for the whole run, the
    /// [`LaneTable`] of the lanes that executed each opcode on each SM.
    /// Collect both with [`Runtime::take_ledger`].
    pub fn record_ledger(&mut self, memory: bool) {
        self.ledger = Some(Ledger {
            store: CheckpointStore::new(),
            observer: LaunchObserver::new(memory),
            before: memory.then(GlobalMem::new),
        });
    }

    /// Detach and return the ledger and lane table recorded so far,
    /// disabling further recording. `None` if recording was never enabled.
    pub fn take_ledger(&mut self) -> Option<(CheckpointStore, LaneTable)> {
        self.ledger.take().map(|l| (l.store, l.observer.into_lanes()))
    }

    /// Replay launches from a golden ledger instead of simulating them.
    ///
    /// The host application still runs in full. Each launch the attached
    /// tool declines replays — one copy of the bytes the golden launch
    /// wrote instead of a simulation — when its ledger entry shows its
    /// result is golden's: the same kernel, instance, params, geometry and
    /// allocated length, no latched sticky error, and, once a launch of the
    /// run has simulated, the run's bytes on the launch's golden read set
    /// equal to the bytes golden's launch read (see
    /// [`crate::CheckpointStore`]). Every other launch — the injection
    /// target, and tail launches the corruption reaches — simulates. `upto`
    /// caps replay: no launch at or beyond global index `upto` replays
    /// (pass the store's length for no cap). A ledger recorded without
    /// memory replays nothing.
    pub fn fast_forward(&mut self, store: Arc<CheckpointStore>, upto: u64) {
        self.fast_forward = Some(FastForward {
            store,
            upto,
            simulated: false,
            prefix_instrs: 0,
            tail: TailReplay::default(),
        });
    }

    /// Dynamic instructions replayed from the ledger before the run's
    /// first simulated launch.
    pub fn prefix_instrs_skipped(&self) -> u64 {
        self.fast_forward.as_ref().map_or(0, |ff| ff.prefix_instrs)
    }

    /// Launches, and their dynamic instructions, replayed from the ledger
    /// after the run's first simulated launch.
    pub fn tail_replayed(&self) -> TailReplay {
        self.fast_forward.as_ref().map_or(TailReplay::default(), |ff| ff.tail)
    }

    /// Attach a tool (the `LD_PRELOAD=tool.so` analog). At most one tool can
    /// be attached; attaching replaces any previous tool.
    pub fn attach_tool(&mut self, tool: Box<dyn Tool>) {
        self.tool = Some(tool);
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

        let (record, fatal) = if self.sticky.is_some() {
            // Context corrupted: the launch is dropped on the floor.
            let skipped = LaunchRecord {
                kernel: k.name().to_string(),
                instance,
                stats: Default::default(),
                trap: None,
                skipped: true,
            };
            (skipped, None)
        } else {
            let info = KernelLaunchInfo { kernel: k, instance, grid, block };
            let masks = self.tool.as_deref_mut().and_then(|t| t.instrument(&info));
            let replayed = match masks {
                None => self.replay(k.name(), instance, grid, block, params),
                Some(_) => None,
            };
            match replayed {
                Some(record) => (record, None),
                None => self.simulate(k, instance, grid, block, params, masks)?,
            }
        };

        if let Some(tool) = self.tool.as_deref_mut() {
            tool.after_launch(&record);
        }
        self.log_launch(&record, params, grid, block);
        self.records.push(record);
        fatal.map_or(Ok(()), Err)
    }

    /// Simulate one launch, instrumented by `masks` if the tool asked for
    /// it. Returns its record and the error that ends the run, if any; a
    /// non-fatal trap latches the sticky error instead.
    fn simulate(
        &mut self,
        k: &Kernel,
        instance: u64,
        grid: Dim3,
        block: Dim3,
        params: &[u32],
        masks: Option<InstrMasks>,
    ) -> Result<(LaunchRecord, Option<RuntimeError>), RuntimeError> {
        if let Some(ff) = &mut self.fast_forward {
            ff.simulated = true;
        }

        let launch = Launch { kernel: k, grid, block, params, instr_budget: self.cfg.instr_budget };
        let observer = self.ledger.as_mut().map(|l| {
            if let Some(before) = &mut l.before {
                before.clone_from(&self.mem);
            }
            &mut l.observer
        });
        let result = match (&mut self.tool, masks) {
            (Some(tool), Some(m)) => {
                let mut ins = Instrumentation {
                    before_mask: &m.before,
                    after_mask: &m.after,
                    hook: tool.as_mut(),
                };
                self.gpu.launch_observed(&launch, &mut self.mem, Some(&mut ins), observer)
            }
            _ => self.gpu.launch_observed(&launch, &mut self.mem, None, observer),
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
        Ok((record, fatal))
    }

    /// Replay the next global launch from the ledger if the replay rule
    /// ([`Runtime::fast_forward`]) allows it, returning its golden record.
    fn replay(
        &mut self,
        kernel: &str,
        instance: u64,
        grid: Dim3,
        block: Dim3,
        params: &[u32],
    ) -> Option<LaunchRecord> {
        let ff = self.fast_forward.as_mut()?;
        let idx = self.records.len() as u64;
        let cp = ff.store.get(idx).filter(|_| idx < ff.upto)?;
        let golden = cp.capture.as_deref()?;
        let same_launch = cp.record.kernel == kernel
            && cp.record.instance == instance
            && !cp.record.skipped
            && cp.record.trap.is_none()
            && *golden.params == *params
            && golden.grid == grid
            && golden.block == block
            && golden.allocated == self.mem.allocated();
        // Until a launch simulates, the run's memory is golden's.
        if !(same_launch && (!ff.simulated || golden.inputs.agree(&self.mem))) {
            return None;
        }
        golden.outputs.apply(&mut self.mem);
        let record = cp.record.clone();
        if ff.simulated {
            ff.tail += TailReplay { launches: 1, instrs: record.stats.dyn_instrs };
        } else {
            ff.prefix_instrs += record.stats.dyn_instrs;
        }
        Some(record)
    }

    /// Append the launch's ledger entry, where a ledger is recorded. A
    /// replayed launch's entry observed nothing: no opcodes, no accesses.
    fn log_launch(&mut self, record: &LaunchRecord, params: &[u32], grid: Dim3, block: Dim3) {
        let Some(ledger) = &mut self.ledger else { return };
        let opcodes: Box<[_]> = ledger.observer.take_opcodes().into();
        let (reads, writes) = ledger.observer.take_accesses();
        let capture = ledger.before.as_mut().map(|before| {
            let inputs = SetBytes::capture(before, reads);
            let outputs = SetBytes::capture(&self.mem, writes);
            // Replay is exact only if W holds every byte the launch changed.
            if cfg!(debug_assertions) && !opcodes.is_empty() {
                outputs.apply(before);
                assert!(*before == self.mem, "{} wrote outside its write set", record.kernel);
            }
            Box::new(LaunchCapture {
                params: params.into(),
                grid,
                block,
                allocated: self.mem.allocated(),
                inputs,
                outputs,
            })
        });
        ledger.store.push(Checkpoint { record: record.clone(), opcodes, capture });
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

    // --- program-visible output -----------------------------------------------------

    /// Append a line to the program's standard output.
    ///
    /// Once total captured output (stdout plus files) reaches the
    /// governor's [`MAX_OUTPUT_BYTES`] cap, further lines
    /// are dropped and [`OUTPUT_TRUNCATED_MARKER`] is appended exactly once
    /// — runaway fault-induced print loops cannot exhaust host memory.
    pub fn println(&mut self, line: impl AsRef<str>) {
        if self.output_truncated {
            return;
        }
        let line = line.as_ref();
        let n = line.len() as u64 + 1;
        if self.output_bytes + n > MAX_OUTPUT_BYTES {
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
    /// file that would push total capture past [`MAX_OUTPUT_BYTES`] is
    /// truncated to the remaining budget and the stdout marker is appended.
    /// Overwriting a file charges only the growth over the file it
    /// replaces.
    pub fn write_file(&mut self, name: impl Into<String>, mut bytes: Vec<u8>) {
        if self.output_truncated {
            return;
        }
        let name = name.into();
        let replaced = self.files.get(&name).map_or(0, |old| old.len() as u64);
        let remaining = (MAX_OUTPUT_BYTES + replaced).saturating_sub(self.output_bytes);
        if bytes.len() as u64 > remaining {
            bytes.truncate(remaining as usize);
            self.mark_output_truncated();
        }
        self.output_bytes = self.output_bytes - replaced + bytes.len() as u64;
        self.files.insert(name, bytes);
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

    /// The modules loaded so far, in load order.
    pub fn modules(&self) -> &[Arc<Module>] {
        &self.modules
    }

    /// Consume the runtime, yielding `(stdout, files, anomalies)`.
    pub fn into_output(self) -> (String, BTreeMap<String, Vec<u8>>, Vec<TrapInfo>) {
        (self.stdout, self.files, self.anomalies)
    }
}

/// The golden ledger a recording run is building.
struct Ledger {
    store: CheckpointStore,
    observer: LaunchObserver,
    /// When memory is recorded, a copy of it before the last simulated
    /// launch, reused launch after launch.
    before: Option<GlobalMem>,
}
